"""The slicing lattice: construction, reduction, enumeration.

For a form F and a base point y with nonzero gradient, the linear condition
grad F(y) . x = 0 carves out a saturated rank-(n-1) sublattice of Z^n: the
slicing lattice.  Everything downstream — exponential sums, complete sums
mod q, box counts — happens on this lattice, so this module provides:

  * the primitive coefficient vector of the linear condition,
  * a saturated kernel basis, read off the Hermite normal form of [l | I],
  * LLL reduction (Lovasz parameter 3/4) in integer arithmetic, with the
    Gram-Schmidt data updated in place (Cohen, Alg. 2.6.7),
  * a per-axis coefficient box containing all lattice points of sup-norm
    at most X (computed from the exact dual basis),
  * a deterministic stream of point blocks from a breadth-first interval
    search (Fincke-Pohst, vectorised per lattice coordinate).

All arithmetic here is exact (int / Fraction, and int64 arrays only where
a bound proves that no value overflows); determinants are kept squared so
no square roots ever appear.  The squared covolume needs no elimination:
the kernel's is |l / content(l)|^2, and LLL carries it along as its
integer d_s.  The kernel and the dual basis both read the one exact
elimination, :func:`linecount.forms.hermite_normal_form`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import DimensionMismatch, ZeroVectorInput
from .forms import (
    HomogeneousForm,
    gradient,
    hermite_normal_form,
    integer_kernel,
)

IntVector = Sequence[int]


@dataclass(frozen=True)
class LinearSlice:
    """Primitive coefficient vector of the degree-1 slice condition.

    Fields:
        vector: integer vector l with content 1 and first nonzero entry
            positive; l is proportional to grad F(y).
        content: the positive integer g with grad F(y) = g * (sign) * l
            (0 when the gradient vanishes).
        all_zero: True when grad F(y) = 0 (degenerate base point; no
            slicing lattice exists).
    """

    vector: Tuple[int, ...]
    content: int
    all_zero: bool


@dataclass(frozen=True)
class IntegerLattice:
    """A saturated sublattice of Z^n given by basis rows.

    Fields:
        ambient_dim: n.
        rank: number of basis rows s.
        basis: s x n integer matrix, rows are basis vectors.
        covolume_sq: exact integer det(B B^T).
        minima_proxy: exact squared Euclidean norms of the basis rows, in
            storage order; after reduction these proxy the successive
            minima (all comparisons in this package are done on squares).
    """

    ambient_dim: int
    rank: int
    basis: Tuple[Tuple[int, ...], ...]
    covolume_sq: int
    minima_proxy: Tuple[int, ...]


@dataclass(frozen=True)
class BoxProfile:
    """Per-axis half-widths of the lattice-coordinate box for sup-norm X.

    half_widths[t] bounds |xi_t| for every lattice point x = sum xi_t b_t
    with |x|_inf <= X; they equal X * (l1 norm of the t-th exact dual-basis
    row), so the box is sound by construction.
    """

    half_widths: Tuple[Fraction, ...]

    @property
    def int_bounds(self) -> Tuple[int, ...]:
        """Integer truncations: xi_t ranges over [-b, b] with b = floor."""
        return tuple(int(w) for w in self.half_widths)

    @property
    def cardinality(self) -> int:
        """Number of integer vectors inside the box."""
        out = 1
        for b in self.int_bounds:
            out *= 2 * b + 1
        return out


# ---------------------------------------------------------------------------
# Exact integer linear algebra helpers
# ---------------------------------------------------------------------------

def gram_matrix(rows: Sequence[IntVector]) -> List[List[int]]:
    return [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]


def dual_basis(lattice: IntegerLattice) -> List[List[Fraction]]:
    """Rows d_t with d_t . b_u = delta_{tu}: the matrix (B B^T)^{-1} B.

    The Hermite normal form of [B B^T | B] is U [B B^T | B] = [T | U B]
    for a unimodular U, with T upper triangular and invertible, so
    (B B^T)^{-1} B = T^{-1} (U B), solved by back substitution."""
    s = lattice.rank
    hnf = hermite_normal_form([gram + list(row) for gram, row
                               in zip(gram_matrix(lattice.basis),
                                      lattice.basis)])
    dual: List[List[Fraction]] = [[] for _ in range(s)]
    for t in reversed(range(s)):
        row = hnf[t]
        rest = [Fraction(v) for v in row[s:]]
        for u in range(t + 1, s):
            if row[u]:
                rest = [a - row[u] * b for a, b in zip(rest, dual[u])]
        dual[t] = [a / row[t] for a in rest]
    return dual


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def _packaged(basis: Sequence[Sequence[int]],
              covolume_sq: int) -> IntegerLattice:
    """IntegerLattice of independent integer rows whose det(B B^T) the
    caller already knows."""
    basis = tuple(tuple(int(v) for v in row) for row in basis)
    return IntegerLattice(
        ambient_dim=len(basis[0]), rank=len(basis), basis=basis,
        covolume_sq=covolume_sq,
        minima_proxy=tuple(sum(v * v for v in row) for row in basis))


def linear_slice_coefficients(form: HomogeneousForm,
                              y: IntVector) -> LinearSlice:
    """Primitive integer vector of the linear slice condition at y.

    The degree-1 slice of F along y is proportional to grad F(y) . x; this
    returns grad F(y) divided by its content, sign-normalised so the first
    nonzero entry is positive.

    Raises:
        ZeroVectorInput: y is the zero vector.
    """
    if len(y) != form.nvars:
        raise DimensionMismatch(
            f"base point has length {len(y)}, form has {form.nvars} variables")
    if all(v == 0 for v in y):
        raise ZeroVectorInput("the slicing lattice needs a nonzero base point")
    grad = gradient(form, y)
    content = 0
    for g in grad:
        content = math.gcd(content, abs(g))
    if content == 0:
        return LinearSlice(vector=tuple(0 for _ in grad), content=0,
                           all_zero=True)
    vec = [g // content for g in grad]
    first = next(v for v in vec if v != 0)
    if first < 0:
        vec = [-v for v in vec]
    return LinearSlice(vector=tuple(vec), content=content, all_zero=False)


def kernel_lattice(l: IntVector) -> IntegerLattice:
    """Saturated integer kernel of a single linear form, in Hermite normal
    form: :func:`linecount.forms.integer_kernel` of the 1 x n matrix [l].

    Raises:
        ZeroVectorInput: l = 0 (no hyperplane to slice along).
    """
    l = [int(v) for v in l]
    if len(l) < 2:
        raise ZeroVectorInput("need an ambient dimension of at least 2")
    if all(v == 0 for v in l):
        raise ZeroVectorInput("kernel of the zero form is not a hyperplane")
    # the kernel has covolume |l / content(l)|
    content = math.gcd(*l)
    return _packaged(integer_kernel([l]),
                     sum((v // content) ** 2 for v in l))


def slicing_lattice(form: HomogeneousForm, y: IntVector) -> IntegerLattice:
    """Reduced slicing lattice at y in one call.

    Raises:
        ZeroVectorInput: y = 0, or grad F(y) = 0 (degenerate base point —
            callers that want to handle the degenerate case should inspect
            linear_slice_coefficients first).
    """
    sliced = linear_slice_coefficients(form, y)
    if sliced.all_zero:
        raise ZeroVectorInput(
            "gradient vanishes at y: no slicing hyperplane")
    return reduce_basis(kernel_lattice(sliced.vector))


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------

_LOVASZ = Fraction(3, 4)


def lll_reduce(rows: Sequence[IntVector],
               lovasz: Fraction = _LOVASZ) -> List[List[int]]:
    """Textbook LLL in exact integer arithmetic; returns new basis rows.

    The Gram-Schmidt data are kept as integers and updated in place, as in
    Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.6.7:
    d[i] = det Gram(b_0, .., b_{i-1}) (d[0] = 1) and
    lam[k][j] = d[j + 1] * mu_kj for j < k.  Row k is size-reduced against
    j = k-1, .., 0 whenever |mu_kj| > 1/2, by mu_kj rounded half to even;
    then it moves on if |b*_k|^2 >= (lovasz - mu_{k,k-1}^2) |b*_{k-1}|^2,
    and is swapped with row k - 1 otherwise.

    Raises:
        ZeroVectorInput: the rows are linearly dependent.
    """
    return _lll(rows, lovasz)[0]


def _lll(rows: Sequence[IntVector],
         lovasz: Fraction) -> Tuple[List[List[int]], int]:
    """:func:`lll_reduce`'s rows together with d_s = det Gram(rows), the
    squared covolume, which no row operation of the reduction changes."""
    basis = [list(map(int, row)) for row in rows]
    s = len(basis)
    d = [1] * (s + 1)
    lam = [[0] * s for _ in range(s)]
    # integral Gram-Schmidt; every division here and in the swap is exact
    for k in range(s):
        for j in range(k + 1):
            u = sum(a * b for a, b in zip(basis[k], basis[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            else:
                d[k + 1] = u
        if d[k + 1] == 0:
            raise ZeroVectorInput("basis rows are linearly dependent")
    p, q = lovasz.numerator, lovasz.denominator
    k = 1
    while k < s:
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam[k][j]) > d[j + 1]:
                r = _round_half_even(lam[k][j], d[j + 1])
                basis[k] = [a - r * b for a, b in zip(basis[k], basis[j])]
                lam[k][j] -= r * d[j + 1]
                for i in range(j):
                    lam[k][i] -= r * lam[j][i]
        m = lam[k][k - 1]
        if q * (d[k + 1] * d[k - 1] + m * m) >= p * d[k] * d[k]:
            k += 1
            continue
        basis[k], basis[k - 1] = basis[k - 1], basis[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        new_d = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, s):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (new_d * t + m * lam[i][k]) // d[k + 1]
        d[k] = new_d
        k = max(k - 1, 1)
    return basis, d[s]


def _round_half_even(num: int, den: int) -> int:
    """num / den (den > 0) rounded to the nearest integer, ties to even."""
    floor, rem = divmod(num, den)
    if 2 * rem != den:
        return floor + (2 * rem > den)
    return floor + (floor % 2)


def reduce_basis(lattice: IntegerLattice) -> IntegerLattice:
    """LLL-reduce the basis with :func:`lll_reduce` (Lovasz 3/4); covolume
    is unchanged, and is taken from the reduction's integer d_s rather than
    from another elimination.

    The reduced rows' squared norms populate minima_proxy and obey the
    quality bound prod |b_i|^2 <= 2^(s(s-1)/2) * covolume_sq.
    """
    reduced, covolume_sq = _lll(lattice.basis, _LOVASZ)
    assert covolume_sq == lattice.covolume_sq
    return _packaged(reduced, covolume_sq)


# ---------------------------------------------------------------------------
# Boxes and enumeration
# ---------------------------------------------------------------------------

def box_profile(lattice: IntegerLattice, x_bound: int) -> BoxProfile:
    """Sound per-axis coefficient box for sup-norm <= x_bound.

    half_widths[t] = x_bound * ||dual row t||_1, which dominates
    |xi_t| for every lattice point in the cube, because
    xi_t = dual_t . x and |x|_inf <= x_bound.
    """
    if x_bound < 0:
        raise ValueError("x_bound must be >= 0")
    widths = tuple(x_bound * sum(abs(v) for v in row)
                   for row in dual_basis(lattice))
    return BoxProfile(half_widths=widths)


#: Most rows in one block of :func:`enumerate_points`.
_BLOCK_ROWS = 1 << 14


def enumerate_points(lattice: IntegerLattice,
                     x_bound: int) -> Iterator[np.ndarray]:
    """All lattice points with |x|_inf <= x_bound, each exactly once, in
    blocks of rows.

    The search is the interval-pruned enumeration of Fincke and Pohst, run
    one lattice coordinate at a time over whole arrays.  The frontier holds
    the exact ambient partial sums sum_{u < t} xi_u b_u of the surviving
    prefixes.  Each row gets the interval of xi_t that keeps every ambient
    coordinate within x_bound plus the largest reachable tail, and the
    frontier is expanded by those intervals; rows with empty intervals drop
    out, and the intervals of the last coordinate put every point in the
    cube.

    Order: concatenated, the blocks are lexicographic in the lattice
    coordinates with respect to the stored basis, most significant
    coordinate first.  A frontier whose expansion would exceed
    ``_BLOCK_ROWS`` rows is split depth-first, so no block (and no
    frontier) has more rows, including when one row's interval alone is
    longer; no block is empty.

    Dtype: int64 when max_i (x_bound + tail_i) < 2^62, where tail_i bounds
    the i-th coordinate of every lattice combination in the coefficient
    box, so no intermediate value can overflow; otherwise object arrays of
    Python ints (the threshold of :func:`linecount.forms.evaluate_batch`).

    Args:
        lattice: the (preferably reduced) lattice.
        x_bound: sup-norm bound X >= 0.

    Yields:
        Arrays of shape (m, n), one ambient point per row.
    """
    if x_bound < 0:
        return
    s = lattice.rank
    n = lattice.ambient_dim
    basis = lattice.basis
    box = box_profile(lattice, x_bound).int_bounds
    # tail_bound[t][i] = max possible |sum_{u >= t} xi_u * b_u[i]|
    tail_bound = [[0] * n for _ in range(s + 1)]
    for t in range(s - 1, -1, -1):
        for i in range(n):
            tail_bound[t][i] = tail_bound[t + 1][i] + box[t] * abs(basis[t][i])
    # partial sums, slacks and interval ends all stay within 2 * reach
    reach = max(x_bound + v for v in tail_bound[0])
    dtype = np.int64 if reach < 2 ** 62 else object
    levels = [_Level(basis[t], [x_bound + v for v in tail_bound[t + 1]],
                     box[t], dtype) for t in range(s)]
    yield from _descend(levels, np.zeros((1, n), dtype=dtype))


class _Level:
    """One lattice coordinate xi_t of the search: the ambient coordinates
    its basis row moves, their slacks x_bound + tail_bound[t + 1], and the
    box bound of |xi_t|.

    A coordinate that b_t leaves alone needs no check: its slack is the one
    of the level before, which every frontier row already meets.
    """

    def __init__(self, row: Sequence[int], slack: Sequence[int],
                 bound: int, dtype) -> None:
        moving = [i for i, b in enumerate(row) if b]
        self.row = np.array(row, dtype=dtype)
        self.moving = np.array(moving, dtype=np.intp)
        self.sign = np.array([1 if row[i] > 0 else -1 for i in moving],
                             dtype=dtype)
        self.size = np.array([abs(row[i]) for i in moving], dtype=dtype)
        self.slack = np.array([slack[i] for i in moving], dtype=dtype)
        self.lo, self.hi = -bound, bound

    def intervals(self, frontier: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """(lowest xi_t, number of xi_t) per frontier row: every xi_t in
        the interval keeps |partial_i + xi_t b_t[i]| within the slack."""
        # with q = sign(b) * partial: -slack <= q + xi |b| <= slack
        q = frontier[:, self.moving] * self.sign
        lo = np.maximum((-((self.slack + q) // self.size)).max(axis=1),
                        self.lo)
        hi = np.minimum(((self.slack - q) // self.size).min(axis=1),
                        self.hi)
        # clamp first so that hi - lo cannot overflow
        return lo, np.maximum(hi, lo - 1) - lo + 1


def _descend(levels: Sequence[_Level],
             frontier: np.ndarray) -> Iterator[np.ndarray]:
    level = levels[0]
    lo, counts = level.intervals(frontier)
    for block in _expansions(frontier, lo, counts, level.row):
        if len(levels) > 1:
            yield from _descend(levels[1:], block)
        else:
            yield block


def _expansions(frontier: np.ndarray, lo: np.ndarray, counts: np.ndarray,
                row: np.ndarray) -> Iterator[np.ndarray]:
    """frontier[r] + xi * row for xi in [lo[r], lo[r] + counts[r]), in row
    then xi order, cut into nonempty pieces of at most _BLOCK_ROWS rows."""
    cap = _BLOCK_ROWS
    clipped = np.minimum(counts, cap + 1).astype(np.int64)
    ends = np.cumsum(clipped)
    start, done = 0, 0
    while start < len(clipped):
        if clipped[start] > cap:
            # this row's interval alone exceeds the cap: walk it in pieces
            count = int(counts[start])
            for offset in range(0, count, cap):
                yield _expand(frontier[start:start + 1],
                              lo[start:start + 1] + offset,
                              np.array([min(cap, count - offset)]), row)
            done = int(ends[start])
            start += 1
            continue
        stop = int(np.searchsorted(ends, done + cap, side="right"))
        if ends[stop - 1] > done:
            yield _expand(frontier[start:stop], lo[start:stop],
                          clipped[start:stop], row)
        done = int(ends[stop - 1])
        start = stop


def _expand(frontier: np.ndarray, lo: np.ndarray, counts: np.ndarray,
            row: np.ndarray) -> np.ndarray:
    ends = np.cumsum(counts)
    xi = np.repeat(lo - (ends - counts), counts) + np.arange(int(ends[-1]))
    return np.repeat(frontier, counts, axis=0) + xi[:, None] * row


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------

def lattice_to_json(lattice: IntegerLattice) -> dict:
    """Debug dump with exact integers as decimal strings."""
    return {
        "ambient_dim": lattice.ambient_dim,
        "rank": lattice.rank,
        "basis": [[str(v) for v in row] for row in lattice.basis],
        "covolume_sq": str(lattice.covolume_sq),
        "minima_proxy": [str(v) for v in lattice.minima_proxy],
    }
