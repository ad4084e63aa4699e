"""Local densities, complete sums, and circle-method predictions.

Arithmetic ingredients (complete sums over residue images, truncated
singular series, p-adic densities) are computed in exact rational
arithmetic; archimedean ingredients (oscillatory integrals, window
densities) are scrambled quasi-Monte-Carlo estimates whose uncertainty is
measured across independent scrambles.  All four estimators draw their
samples through one sampling loop, which charges them to a budget and
walks each scramble in tiles of rows.  The two kinds meet in the
prediction assemblers, which recombine the pieces exactly.

Every analytic output crosses the API as a :class:`DensityEstimate`
carrying either an exact rational value or (mean, stderr, samples, seed);
no bare floats leave the module.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from . import __version__
from .counting import (DEFAULT_COUNT_BUDGET, _Budget, _condition_mask,
                       _convolution_count, _variable_components)
from .errors import DimensionMismatch, DomainError, ZeroVectorInput
from .forms import (
    HomogeneousForm,
    Polynomial,
    evaluate_batch,
    form_to_json,
    format_rational,
    grid_chunks,
    matrix_rank,
    nonzero_slices,
    residues_mod,
)
from .lattice import box_profile, linear_slice_coefficients, slicing_lattice

SCRAMBLES = 16
#: How chi_global_padic normalises its count; recorded with each global
#: prediction and part of every EulerCache key.
_PAIR_CONVENTION = "d+1 pencil equations over 2n variables"

KINDS = ("p-adic", "real", "series", "integral")


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityEstimate:
    """A local density: exact rational, or Monte-Carlo mean with stderr.

    Exactly one of the two shapes is populated: ``value`` alone for exact
    results, or ``mean``/``stderr``/``samples``/``seed`` together for
    sampled ones (stderr is the standard deviation of the independent
    scramble means divided by the square root of their number).
    """

    kind: str
    value: Optional[Fraction] = None
    mean: Optional[complex] = None
    stderr: Optional[float] = None
    samples: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DomainError(f"unknown density kind {self.kind!r}")
        exact = self.value is not None
        sampled = self.mean is not None
        if exact == sampled:
            raise DomainError(
                "density estimate must be exact or sampled, not both")
        if sampled and (self.stderr is None or self.samples is None
                        or self.seed is None):
            raise DomainError(
                "sampled estimates carry stderr, samples and seed")
        if exact and (self.stderr is not None or self.samples is not None):
            raise DomainError("exact values carry no sampling metadata")

    @property
    def is_exact(self) -> bool:
        return self.value is not None

    def magnitude(self) -> float:
        """The estimate as a plain magnitude, for display and tolerances."""
        if self.is_exact:
            return float(self.value)
        return abs(self.mean)

    def to_json(self) -> dict:
        out: Dict[str, object] = {"kind": self.kind}
        if self.is_exact:
            out["value"] = format_rational(self.value)
        else:
            mean = complex(self.mean)
            out["mean"] = (mean.real if mean.imag == 0
                           else [mean.real, mean.imag])
            out["stderr"] = self.stderr
            out["samples"] = self.samples
            out["seed"] = self.seed
        return out


@dataclass(frozen=True)
class Prediction:
    """A main-term prediction together with every ingredient that built it.

    ``main_term`` is the exact rational recombination of the components
    (Monte-Carlo means enter as the exact dyadic rationals they are), so
    dividing it back by the local factors recovers the power of the box
    size exactly.
    """

    main_term: Fraction
    tag: str
    components: Dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "main_term": format_rational(self.main_term),
            "main_term_float": float(self.main_term),
            "tag": self.tag,
            "components": self.components,
        }


# ---------------------------------------------------------------------------
# Residue enumeration
# ---------------------------------------------------------------------------

def _residue_grid(nvars: int, modulus: int) -> Iterator[np.ndarray]:
    """The residues {0..modulus-1}^nvars in row chunks."""
    return grid_chunks([0] * nvars, [modulus - 1] * nvars, 1 << 16)


# ---------------------------------------------------------------------------
# Congruence counting: direct scan and Hensel lifting
# ---------------------------------------------------------------------------

def count_congruence_solutions(polys: Sequence[Polynomial], nvars: int,
                               p: int, H: int, *,
                               budget: Optional[int] = DEFAULT_COUNT_BUDGET
                               ) -> int:
    """Number of solutions of the polynomial system mod p^H, p prime.

    The variables split into components joined by shared monomials
    (coefficients = 0 mod p^H dropped).  When their residue grids,
    sum_c p^(H |c|), fit the budget, the count is the convolution of
    :func:`counting._convolution_count` mod p^H, charged the grid rows and
    histogram entries it forms; so a diagonal system costs a few
    one-variable scans.  Otherwise solutions mod p (p^nvars residues
    charged) are classified by the rank of the Jacobian: points where it
    reaches the number of (non-trivial) equations lift to exactly
    p^((H-1)(nvars - rank)) solutions mod p^H, and the remaining singular
    fibers are enumerated exhaustively, p^((H-1) nvars) residues each.

    Raises:
        DomainError: p is not prime, or H < 1.
        ResourceLimit: the convolution or a singular fiber exceeds the
            budget.
    """
    if H < 1:
        raise DomainError("H must be at least 1")
    if _factorise(p) != [(p, 1)]:
        raise DomainError("p must be prime")
    ledger = _Budget(budget,
                     "residues scanned and histogram entries formed")
    modulus = p ** H
    # equations all of whose coefficients vanish mod p^H impose nothing
    active = [poly for poly in polys
              if not poly.is_zero
              and any(int(c) % modulus for c in poly.coeffs.values())]
    if not active:
        return modulus ** nvars
    groups = _variable_components(
        [e for poly in active for e, c in poly.coeffs.items()
         if any(e) and int(c) % modulus], nvars)
    if budget is None or sum(modulus ** len(g) for g in groups) <= budget:
        return _convolution_count(active, [(0, modulus - 1)] * nvars,
                                  modulus, ledger)

    # Hensel route: classify the mod-p solutions by Jacobian rank.
    base = p ** nvars
    ledger.charge(base)
    jacobian = [poly.partials for poly in active]
    r = len(active)
    total = 0
    fiber = p ** ((H - 1) * nvars)
    for block in _residue_grid(nvars, p):
        mask = _condition_mask(active, block, p)
        for point in block[mask]:
            rows = [[int(cell(tuple(int(v) for v in point)))
                     for cell in row] for row in jacobian]
            if matrix_rank(rows, p) == r:
                total += p ** ((H - 1) * (nvars - r))
            else:
                ledger.charge(fiber)
                lifted = 0
                for tail in _residue_grid(nvars, p ** (H - 1)):
                    pts = point[None, :] + p * tail
                    lifted += int(_condition_mask(active, pts,
                                                  modulus).sum())
                total += lifted
    return total


def _slice_system(form: HomogeneousForm, y: Sequence[int],
                  primitive: bool) -> list:
    """The fixed-y slice congruences in the n ambient coordinates: a linear
    row, then the nonzero slices of degree 2..d.

    With ``primitive`` the linear row is h . x, h = grad F(y) / content:
    the slicing lattice Lambda_y = ker(h) in Z^n is saturated and h is
    primitive, so reduction mod m maps Lambda_y / m Lambda_y one to one
    onto {x mod m : h . x = 0}, and the system counts the lattice residues
    on which every slice vanishes.  Otherwise the row is grad F(y) . x, the
    full-space system of degrees 1..d.

    Raises:
        ZeroVectorInput: y = 0, or grad F(y) = 0.
    """
    linear = linear_slice_coefficients(form, y)
    if linear.all_zero:
        raise ZeroVectorInput("gradient vanishes at y: no slicing hyperplane")
    rows = [sliced for _, sliced in nonzero_slices(form, y, 1)]
    if primitive:
        n = form.nvars
        rows[0] = Polynomial(nvars=n, coeffs={
            tuple(int(i == k) for i in range(n)): h
            for k, h in enumerate(linear.vector) if h})
    return rows


def lattice_congruence_count(form: HomogeneousForm, y: Sequence[int],
                             modulus: int, *,
                             budget: Optional[int] = DEFAULT_COUNT_BUDGET
                             ) -> int:
    """#{x in the lattice image mod ``modulus``: all slice values vanish}.

    Counted in the ambient coordinates, as #{x mod ``modulus`` : h . x = 0
    and every slice of degree 2..d vanishes} (see :func:`_slice_system`).
    By the Chinese remainder theorem the count is the product of the
    counts mod the prime powers p^h exactly dividing ``modulus`` (1 for
    ``modulus`` = 1), each from :func:`count_congruence_solutions` and
    charged to its own ``budget``.
    """
    if modulus < 1:
        raise DomainError("modulus must be at least 1")
    polys = _slice_system(form, y, True)
    return math.prod(count_congruence_solutions(polys, form.nvars, p, h,
                                                budget=budget)
                     for p, h in _factorise(modulus))


def _factorise(q: int) -> List[Tuple[int, int]]:
    """The prime powers (p, h) exactly dividing q >= 1, by trial division,
    in increasing order of p."""
    factors = []
    p = 2
    while p * p <= q:
        if q % p == 0:
            h = 0
            while q % p == 0:
                q //= p
                h += 1
            factors.append((p, h))
        p += 1
    if q > 1:
        factors.append((q, 1))
    return factors


# ---------------------------------------------------------------------------
# Truncated singular series
# ---------------------------------------------------------------------------

def singular_series_truncated(form: HomogeneousForm, y: Sequence[int],
                              window: int, *,
                              budget: Optional[int] = DEFAULT_COUNT_BUDGET
                              ) -> DensityEstimate:
    """Exact truncated singular series sum_{q <= window} q^{-s} A_y(q).

    A_y(q) is the sum of the complete sums over phase vectors a mod q with
    gcd(a_2, ..., a_d, q) = 1.  Grouping the a by their gcd with q shows

        A_y(q) = sum_{e | q, e squarefree} mu(e) e^s (q/e)^{d-1} N(q/e),

    where s = n - 1 is the rank of the slicing lattice and N(m) counts
    its residues mod m on which every slice value vanishes, in the ambient
    coordinates (:func:`_slice_system`).  Each N(p^k) comes from
    :func:`count_congruence_solutions`: one convolution of the value
    histograms of the variable-disjoint components, or Hensel lifting;
    each is charged to its own ``budget``.  Every other N(m) is, by the
    Chinese remainder theorem, the product of N(p^k) over the prime powers
    exactly dividing m (N(1) = 1), and is charged nothing.  So the result
    is an exact rational.

    Raises:
        ResourceLimit: the count of a prime power exceeds ``budget``.
    """
    if window < 1:
        raise DomainError("window must be at least 1")
    polys = _slice_system(form, y, True)
    s = form.nvars - 1
    d = form.degree
    counts: Dict[int, int] = {}
    for m in range(1, window + 1):
        factors = _factorise(m)
        counts[m] = (count_congruence_solutions(polys, form.nvars,
                                                *factors[0], budget=budget)
                     if len(factors) == 1
                     else math.prod(counts[p ** h] for p, h in factors))
    total = Fraction(0)
    for q in range(1, window + 1):
        inner = Fraction(0)
        for e in range(1, q + 1):
            if q % e:
                continue
            mu = _moebius(e)
            if mu == 0:
                continue
            m = q // e
            inner += mu * Fraction(e ** s) * m ** (d - 1) * counts[m]
        total += inner / Fraction(q ** s)
    return DensityEstimate(kind="series", value=total)


def _moebius(n: int) -> int:
    factors = _factorise(n)
    if any(h > 1 for _, h in factors):
        return 0
    return (-1) ** len(factors)


# ---------------------------------------------------------------------------
# p-adic densities for fixed y
# ---------------------------------------------------------------------------

def chi_p_fixed_y(form: HomogeneousForm, y: Sequence[int], p: int, H: int,
                  *, display_convention: bool = False,
                  budget: Optional[int] = DEFAULT_COUNT_BUDGET
                  ) -> Tuple[Fraction, Fraction]:
    """Local density at p for the fixed-y slice system, both normalisations.

    Returns (lattice-normalised, full-space-normalised):

        p^(H (d - 1 - s)) * #{x in the lattice image mod p^H :
                              slice values 2..d all vanish},
        p^(H (d - n))     * #{x mod p^H : slice values 1..d all vanish}.

    The exponents are pinned by the partial-sum identity
    sum_{h <= H} p^{-h s} A_y(p^h) = p^(H(d-1-s)) N(p^H), which must hold
    for the series to factor through its own Euler product.  With
    ``display_convention`` the triangular number D = d(d+1)/2 replaces d in
    both exponents; that variant breaks the partial-sum identity and is
    provided only so the discrepancy can be demonstrated.

    The slicing lattice has rank s = n - 1, so both scales are
    p^(H (d - n)).  Both counts run in the n ambient coordinates
    (:func:`_slice_system`) through :func:`count_congruence_solutions`,
    each charged to its own ``budget``.

    Raises:
        DomainError: p is not prime, or H < 1.
        ZeroVectorInput: y = 0, or grad F(y) = 0.
        ResourceLimit: counting exceeds the budget.
    """
    d = form.degree
    n = form.nvars
    counts = [count_congruence_solutions(_slice_system(form, y, primitive),
                                         n, p, H, budget=budget)
              for primitive in (True, False)]
    head = d * (d + 1) // 2 if display_convention else d
    scale = Fraction(p) ** (H * (head - n))
    return tuple(scale * count for count in counts)


# ---------------------------------------------------------------------------
# Quasi-Monte-Carlo machinery
# ---------------------------------------------------------------------------
#
# The four real-density estimators below share one sampling loop,
# :func:`_sample_means`.  Scramble i is the point set of
# ``scipy.stats.qmc.Sobol(dim, scramble=True, seed=seed + i)``, which
# :func:`.sobol.tiles` builds bit for bit in numpy (importing scipy.stats
# would cost ~60 MB and over a second of start-up), one tile of rows at a
# time, as a Gray table and a per-tile offset of centred words
# 4 (q - 2^29).  An estimator describes its points as columns: column j is
# Sobol' coordinate k_j scaled to [-|r_j|, |r_j|) with the sign of r_j, or
# zero.  The loop turns the words of a column straight into points, one
# XOR and one multiply into buffers allocated once per worker.
# The loop builds, for every row, only the columns the integrand reads on
# every row; the integrand asks for whole points only at the rows it keeps
# (the window estimators: the rows inside the first window).  The slab
# integrands sample the ambient points directly where the lattice basis is
# a signed coordinate basis (:func:`_signed_columns`), and map tile points
# by a matmul otherwise; they give zero to the rows outside the sup-norm
# box, and skip that test where no row can leave the box.  Each integrand
# writes its values straight into one tile-sized value buffer, and the
# loop sums each tile as it is filled and adds the tile sums in a balanced
# binary tree (:func:`_streamed_mean`).  That is numpy's pairwise order,
# so each mean is bit for bit ``np.mean`` of the scramble's whole value
# vector, for any tile size, while no buffer grows with the sample count.
#
# The scrambles are independent until they are combined, so the slab
# integrals, whose rows each cost a transcendental (``np.sin``,
# ``np.exp``) that numpy computes with the GIL released, run them on up
# to min(SCRAMBLES, usable CPUs) threads once a scramble fills a tile.
# Each thread has its own buffers and tiles; with w threads, thread t
# runs scrambles t, t + w, ..., and scramble i's mean goes to slot i, so
# every mean is the same double for any number of threads.  Measured on
# quadric-5 at y = e1 with 2^22 samples (median of 15, 2-core Xeon, one
# BLAS thread; tracemalloc peak of the loop), the integral / oscillatory
# estimates took
#
#     tile rows            2^12       2^13       2^14       2^15
#     one thread        156/185    132/164    139/162    143/170 ms
#     two threads       136/156    101/119     86/99      78/102 ms
#     traced peak, two    0.9/1.0    1.7/2.1    3.3/3.9    6.7/7.7 MB
#
# so a slab tile has 2^14 rows: 2^15 gains little more and doubles the
# memory of every thread, and below 2^14 the GIL hand-offs of the ufunc
# calls eat the gain.  The window estimators keep one thread: their values
# are booleans of one polynomial, and on two threads the window estimate
# took 32 ms against 26 ms, with a traced peak of 5.2 against 2.6 MB.

#: Values per Sobol' coordinate of a window estimator's tile.  The window
#: tile rule: a tile holds QMC_TILE * dim values of the coordinates built
#: for every row, so it has 2^t QMC_TILE rows, 2^t <= dim / (coordinates
#: built) < 2^(t + 1): 4 QMC_TILE for a window on quadric-5 at a unit y,
#: whose first window reads one of five coordinates.  On quadric-5 at
#: y = e1 with 2^22 samples, QMC_TILE = 2^11, 2^12, 2^13, 2^14 and 2^15
#: took 24, 19, 18, 21 and 27 ms for the window estimate (median of 7,
#: 2-core Xeon, one BLAS thread).
QMC_TILE = 1 << 13
#: Rows of a slab integral's tile (see above).
_SLAB_TILE = 1 << 14


def _sample_means(dim: int, columns: Sequence[Tuple[int, float]],
                  reads: Sequence[int], samples: int, seed: int,
                  budget: Optional[int], dtype,
                  integrand: Callable[..., None]) -> Tuple[int, List]:
    """The mean of ``integrand`` over each of SCRAMBLES scrambled Sobol'
    sequences of dimension ``dim``; returns (total points, means).

    Each point has one entry per (k, r) of ``columns``: coordinate k of the
    Sobol' point mapped to [-|r|, |r|) with the sign of r, so a column of
    radius 0 is zero (of either sign).  Each scramble holds the smallest
    power of two 2^k of points giving at least ``samples`` points overall,
    and the rounded total SCRAMBLES * 2^k is charged to ``budget`` before
    the first scramble is drawn.  Scramble i is drawn from the seed
    ``seed + i``, so seeds s and s + 1 share SCRAMBLES - 1 scrambles: runs
    meant to be independent need seeds at least SCRAMBLES apart.

    ``integrand(points, rows, out)`` gets a (tile rows, columns) F-ordered
    array in which only the columns ``reads`` are built (the others read
    +0), a function ``rows(idx)`` that returns every column of the points
    at rows ``idx`` as a new F-ordered array, and a buffer of ``dtype``
    with one entry per row, into which it writes one value per row.  For
    bool values (the windows) a tile holds QMC_TILE * dim values of the
    coordinates in ``reads`` (see QMC_TILE) and one thread runs; for
    numeric values (the slab integrals) a tile has _SLAB_TILE rows, and
    the scrambles run on min(SCRAMBLES, usable CPUs) threads, the calling
    thread among them, when a scramble fills a tile.  The buffers are
    reused by every tile of a thread, so the memory does not depend on
    ``samples``.  Every thread is joined before the call returns, and the
    first exception a thread raised is raised again here.

    Raises:
        DomainError: fewer than one sample.
        ResourceLimit: the total exceeds ``budget``.
    """
    # imported here, so that a command that never samples does not parse
    # the generator
    from . import sobol
    if samples < 1:
        raise DomainError(f"need at least one QMC sample, got {samples}")
    exponent = (-(-samples // SCRAMBLES) - 1).bit_length()
    total = SCRAMBLES << exponent
    _Budget(budget, "QMC samples").charge(total)
    # column j is the centred word w of coordinate source[j] times
    # scale[j] = r_j 2^-31: both factors are exact, so each point is the
    # real product (2u - 1) r_j, u = q 2^-30, rounded once, the same value
    # as ``(2u - 1) * r``
    source, scale = np.array(columns).T
    source = source.astype(np.intp)
    scale *= sobol.CENTRED_UNIT
    built = [j for j in sorted(reads) if scale[j]]
    workers = 1
    if dtype == bool:
        tile = QMC_TILE << ((dim // max(1, len(set(source[built]))))
                            .bit_length() - 1)
    else:
        tile = _SLAB_TILE
        if tile <= 1 << exponent and hasattr(os, "sched_getaffinity"):
            workers = min(SCRAMBLES, len(os.sched_getaffinity(0)))
    tile = min(tile, 1 << exponent)
    # runs [column, coordinate, length] of consecutive built columns of
    # consecutive coordinates, each one XOR and one multiply per tile
    runs: List[List[int]] = []
    for j in built:
        if runs and runs[-1][0] + runs[-1][2] == j \
                and runs[-1][1] + runs[-1][2] == source[j]:
            runs[-1][2] += 1
        else:
            runs.append([j, source[j], 1])
    means: List = [None] * SCRAMBLES
    errors: List[BaseException] = []

    def work(first: int) -> None:
        # a worker has buffers of its own and runs scrambles first,
        # first + workers, ... until a worker fails
        points = np.zeros((tile, len(columns)), order="F")
        words = np.empty((len(built), tile), dtype=np.uint32)
        values = np.empty(tile, dtype=dtype)

        def filled(scramble_seed: int) -> Iterator[np.ndarray]:
            for table, offset in sobol.tiles(dim, exponent, scramble_seed,
                                             tile):
                for j, k, n in runs:
                    np.bitwise_xor(table[k:k + n], offset[k:k + n, None],
                                   out=words[:n])
                    np.multiply(words[:n].view(np.int32),
                                scale[j:j + n, None], out=points.T[j:j + n])
                rows = functools.partial(_whole_rows, table, offset, source,
                                         scale)
                integrand(points, rows, values)
                yield values

        try:
            for i in range(first, SCRAMBLES, workers):
                if errors:
                    break
                means[i] = _streamed_mean(filled(seed + i), 1 << exponent)
        except BaseException as exc:
            errors.append(exc)

    # the calling thread is one of the workers
    helpers: List[threading.Thread] = []
    try:
        for first in range(1, workers):
            helper = threading.Thread(target=work, args=(first,))
            helper.start()
            helpers.append(helper)
        work(0)
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return total, means


def _streamed_mean(tiles: Iterable[np.ndarray], count: int):
    """``np.mean`` of the concatenation of ``tiles`` (``count`` values),
    bit for bit, holding no tile after the next is drawn.

    The tiles are equally long, a power of two that is at least 128 unless
    there is only one tile.  numpy sums a float vector pairwise: it splits
    a vector of more than 128 doubles into halves and sums blocks of at
    most 128 in eight lanes (Higham, SIAM J. Sci. Comput. 14, 1993).  So
    ``np.add.reduce`` of one tile is a subtree of that sum, and adding the
    tile sums in a balanced binary tree, each pushed on a binary-counter
    stack of (level, sum), is the whole sum.  Booleans are counted exactly
    (``np.mean`` sums them as float64, exact below 2^53).
    """
    stack: List[Tuple[int, object]] = []
    for values in tiles:
        if values.dtype == bool:
            total = np.float64(np.count_nonzero(values))
        else:
            total = np.add.reduce(values)
        level = 0
        while stack and stack[-1][0] == level:
            total = stack.pop()[1] + total
            level += 1
        stack.append((level, total))
    (_, total), = stack
    return total / count


def _whole_rows(table: np.ndarray, offset: np.ndarray, source: np.ndarray,
                scale: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Every column of the points at rows ``idx`` of a tile, as a new
    F-ordered array: column j is the centred word of coordinate source[j]
    times scale[j] (see :func:`_sample_means`)."""
    words = np.take(table, idx, axis=1)
    words ^= offset[:, None]
    return np.multiply(words.view(np.int32).take(source, axis=0),
                       scale[:, None]).T


def _combine(kind: str, means: Sequence[complex], samples: int,
             seed: int) -> DensityEstimate:
    arr = np.asarray(means, dtype=complex)
    mean = complex(arr.mean())
    spread = float(np.sqrt(np.mean(np.abs(arr - arr.mean()) ** 2)))
    stderr = spread / math.sqrt(len(means))
    if abs(mean.imag) < 1e-12 * max(1.0, abs(mean.real)):
        mean = mean.real
    return DensityEstimate(kind=kind, mean=mean, stderr=stderr,
                           samples=samples, seed=seed)


def _in_box(points: np.ndarray, bound: float) -> np.ndarray:
    """Rows of ``points`` whose sup norm is at most ``bound``, one column
    at a time."""
    inside = np.abs(points[:, 0]) <= bound
    for i in range(1, points.shape[1]):
        inside &= np.abs(points[:, i]) <= bound
    return inside


def _signed_columns(basis: np.ndarray, radii: np.ndarray
                    ) -> Optional[List[Tuple[int, float]]]:
    """The ambient points t @ ``basis`` of the box of ``radii`` as sampling
    columns (see :func:`_sample_means`), when the basis is a signed
    coordinate basis; else None.

    A signed coordinate basis has at most one nonzero entry per column, and
    that entry is s = +-1.  Ambient column j is then s t_k for the entry's
    row k, sampled as coordinate k with the radius s r_k, or zero (radius
    0).  These are the doubles the matmul gives: the rounding of
    w (s r_k 2^-31) is symmetric in s, and the matmul adds exact zeros to
    s t_k.  They may differ in the sign of a zero only, which no output
    sees: :func:`evaluate_batch` sums every value from +0 and
    :func:`_in_box` takes absolute values.
    """
    nonzero = basis != 0
    if (nonzero.sum(axis=0) > 1).any() \
            or (np.abs(basis[nonzero]) != 1).any():
        return None
    rows = nonzero.argmax(axis=0)
    signed = basis[rows, range(basis.shape[1])] * radii[rows]
    return list(zip(rows.tolist(), signed.tolist()))


def _slab_points(basis: np.ndarray, radii: np.ndarray, bound: float):
    """(columns, ambient, box_test) for a slab integrand over the tile
    points t of the box of ``radii``: the sampling columns, the map from
    the sampled points to the F-ordered ambient points t @ ``basis``, and
    whether a row can leave the sup-norm box of ``bound``.

    A signed coordinate basis samples the ambient points directly, and no
    row leaves the box when every radius is at most the bound: each point
    is zero or +-t_k, and |t_k| <= r_k because t_k is the rounded product
    of r_k and a factor in [-1, 1].  Any other basis samples the tile
    points, maps them by a matmul and keeps the box test.
    """
    signed = _signed_columns(basis, radii)
    if signed is None:
        return (list(enumerate(radii.tolist())),
                lambda tile: _ambient(tile, basis), True)
    return (signed, lambda points: points,
            any(abs(r) > bound for _, r in signed))


def _ambient(tile: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The rows ``tile @ basis`` as an F-ordered array, so that each
    ambient coordinate is a contiguous column."""
    return (basis.T @ tile.T).T


def _slab_geometry(form: HomogeneousForm, y: Sequence[int], x_bound):
    """Sampling box, basis matrix, and covolume for the slab at scale X."""
    lattice = slicing_lattice(form, y)
    profile = box_profile(lattice, 1)
    radii = np.array([float(h) * float(x_bound)
                      for h in profile.half_widths])
    basis = np.asarray(lattice.basis, dtype=np.float64)
    return lattice, radii, basis, math.sqrt(lattice.covolume_sq)


def _beta_table(beta, d: int) -> Dict[int, float]:
    if isinstance(beta, Mapping):
        table = {int(j): float(v) for j, v in beta.items()}
    else:
        table = {j: float(v) for j, v in enumerate(beta, start=2)}
    if sorted(table) != list(range(2, d + 1)):
        raise DimensionMismatch(
            f"need frequencies for degrees 2..{d}")
    return table


def oscillatory_v(form: HomogeneousForm, y: Sequence[int], beta,
                  x_bound, samples: int, seed: int = 0, *,
                  budget: Optional[int] = None) -> DensityEstimate:
    """QMC estimate of the oscillatory slab integral v_y(beta, X).

    Integrates e(sum_j beta_j c_j(xi, y)) over the slab (slicing hyperplane
    intersected with the sup-norm box of radius X), with the surface
    measure realised through the lattice parametrisation: xi = B^T t, d
    sigma = sqrt(covolume^2) dt.  The mean is complex; the uncertainty is
    the spread across independent scrambles.  The samples go through the
    shared tiled loop and are charged to ``budget`` (no limit by default).

    Raises:
        ZeroVectorInput: degenerate base point.
        DomainError: fewer than 1000 samples.
        ResourceLimit: the rounded sample count exceeds ``budget``.
    """
    if samples < 1000:
        raise DomainError("oscillatory integrals need at least 10^3 samples")
    d = form.degree
    table = _beta_table(beta, d)
    lattice, radii, basis, root_cov = _slab_geometry(form, y, x_bound)
    slices = [(table[j], sliced) for j, sliced in nonzero_slices(form, y)
              if table[j]]
    volume = float(np.prod(2 * radii))
    bound = float(x_bound)
    columns, ambient_of, box_test = _slab_points(basis, radii, bound)

    def integrand(points, rows, out):
        ambient = ambient_of(points)
        phase = np.zeros(ambient.shape[0])
        for frequency, sliced in slices:
            phase += frequency * evaluate_batch(sliced, ambient)
        np.exp(2j * np.pi * phase, out=out)
        if box_test:
            out[~_in_box(ambient, bound)] = 0

    total, means = _sample_means(len(radii), columns, range(len(columns)),
                                 samples, seed, budget, complex, integrand)
    return _combine("integral",
                    [complex(m) * volume * root_cov for m in means],
                    total, seed)


def singular_integral_truncated(form: HomogeneousForm, y: Sequence[int],
                                window, samples: int, seed: int = 0, *,
                                budget: Optional[int] = None
                                ) -> DensityEstimate:
    """QMC estimate of the truncated singular integral J_y(W).

    J_y(W) integrates v_y(beta, 1) / sqrt(covolume^2) over beta in
    [-W, W]^(d-1).  The beta integral factors exactly: each frequency
    contributes the kernel sin(2 pi W c) / (pi c) at its slice value, so a
    single slab-level QMC pass of the shared tiled loop estimates the whole
    truncated integral (the covolume from the parametrisation cancels the
    normalisation).  The samples are charged to ``budget`` (no limit by
    default).

    Raises:
        DomainError: bad window or sample count.
        ResourceLimit: the rounded sample count exceeds ``budget``.
    """
    window = float(window)
    if window <= 0:
        raise DomainError("window must be positive")
    if samples < 1000:
        raise DomainError("singular integrals need at least 10^3 samples")
    lattice, radii, basis, _ = _slab_geometry(form, y, 1)
    slices = nonzero_slices(form, y)
    volume = float(np.prod(2 * radii))
    width = 2 * window
    tiny = np.finfo(np.float64).eps
    columns, ambient_of, box_test = _slab_points(basis, radii, 1.0)

    def integrand(points, rows, out):
        ambient = ambient_of(points)
        if not slices:          # a linear form has no slice of degree >= 2
            out[:] = 1.0
        for j, (_, sliced) in enumerate(slices):
            # width * np.sinc(width * c), in place, with np.sinc's steps,
            # multiplied into the values slice by slice
            x = evaluate_batch(sliced, ambient)
            x *= width
            x *= np.pi
            x[x == 0] = tiny
            if j == 0:
                np.sin(x, out=out)
                out /= x
                out *= width
            else:
                np.divide(np.sin(x), x, out=x)
                x *= width
                out *= x
        if box_test:
            out[~_in_box(ambient, 1.0)] = 0.0

    total, means = _sample_means(len(radii), columns, range(len(columns)),
                                 samples, seed, budget, np.float64,
                                 integrand)
    return _combine("integral", [float(m) * volume for m in means], total,
                    seed)


def real_density_window(form: HomogeneousForm, y: Sequence[int],
                        epsilon: Sequence[float], samples: int,
                        seed: int = 0, *, budget: Optional[int] = None
                        ) -> DensityEstimate:
    """Window-density estimate of the real local factor for fixed y.

    Measures the volume of xi in [-1, 1]^n with |c_j(xi, y)| <= eps_j / 2
    for every degree j = 1..d, normalised by the product of the window
    widths.  Fourier-free companion of the truncated singular integral.
    The samples go through the shared tiled loop and are charged to
    ``budget`` (no limit by default).

    Raises:
        DomainError: a width is not positive, or fewer than one sample.
        ResourceLimit: the rounded sample count exceeds ``budget``.
    """
    eps = _window_widths(epsilon, form.degree)
    windows = [(eps[j - 1], sliced)
               for j, sliced in nonzero_slices(form, y, 1)]
    return _window_density(eps, windows, form.nvars, samples, seed, budget)


def _window_widths(epsilon: Sequence[float], count: int) -> List[float]:
    if len(epsilon) != count:
        raise DimensionMismatch(
            f"need {count} window widths, got {len(epsilon)}")
    eps = [float(e) for e in epsilon]
    if any(e <= 0 for e in eps):
        raise DomainError("window widths must be positive")
    return eps


def _window_density(eps: Sequence[float], windows, dim: int, samples: int,
                    seed: int, budget: Optional[int]) -> DensityEstimate:
    """QMC volume of the points of [-1, 1]^dim at which |g| <= width / 2
    for every (width, g) in ``windows``, scaled by 2^dim / prod(eps)."""
    scale = 2.0 ** dim / math.prod(eps)
    (first_width, first), *later = windows
    # the first window is evaluated on every row, the later ones only on
    # the rows still inside: a row's value does not depend on the others
    reads = sorted({i for e in first.coeffs for i, v in enumerate(e) if v})

    def integrand(points, rows, out):
        np.less_equal(np.abs(evaluate_batch(first, points)),
                      first_width / 2, out=out)
        if not later:
            return
        idx = np.flatnonzero(out)
        inside = rows(idx)
        for width, g in later:
            keep = np.abs(evaluate_batch(g, inside)) <= width / 2
            out[idx] = keep
            idx, inside = idx[keep], inside[keep]

    total, means = _sample_means(dim, [(k, 1.0) for k in range(dim)], reads,
                                 samples, seed, budget, bool, integrand)
    return _combine("real", [float(m) * scale for m in means], total, seed)


# ---------------------------------------------------------------------------
# Global pair densities
# ---------------------------------------------------------------------------

def chi_global_padic(form: HomogeneousForm, p: int, H: int = 1, *,
                     budget: Optional[int] = DEFAULT_COUNT_BUDGET
                     ) -> DensityEstimate:
    """Exact pair-system density at p: all pencil coefficients vanish.

    Counts pairs (x, y) mod p^H with c_j(x, y) = 0 for j = 0..d and
    normalises by p^(H (d + 1 - 2n)) (d + 1 equations in 2n variables —
    a convention recorded with every prediction that uses it).

    The pencil is counted by :func:`count_congruence_solutions` in the 2n
    variables: one convolution of the value histograms of its variable
    components mod p^H (joined by shared monomials; for a diagonal form
    the pairs (x_i, y_i)), charged the rows and entries it forms, or
    Hensel lifting when the components' grids exceed ``budget``.  A
    quadric pencil that does not split into several components goes
    through the pairing path instead: the outer coefficients select the
    residue solutions of F on each side, and the middle coefficient is a
    bilinear pairing counted with blocked integer matrix products,
    charged the p^(nH) residues of F and then the pairs of its solutions.

    Raises:
        DomainError: p is not prime, or H < 1.
        ResourceLimit: the count exceeds the budget.
    """
    if H < 1:
        raise DomainError("H must be at least 1")
    if _factorise(p) != [(p, 1)]:
        raise DomainError("p must be prime")
    n = form.nvars
    d = form.degree
    modulus = p ** H
    pencil = form.pencil
    if d != 2 or len(_variable_components(
            [e for poly in pencil for e, c in poly.coeffs.items()
             if c % modulus], 2 * n)) > 1:
        count = count_congruence_solutions(pencil, 2 * n, p, H,
                                           budget=budget)
    else:
        count = _quadric_pair_count(
            form, modulus,
            _Budget(budget, "residues and residue pairs scanned"))
    value = Fraction(p) ** (H * (d + 1 - 2 * n)) * count
    return DensityEstimate(kind="p-adic", value=value)


def _quadric_pair_count(form: HomogeneousForm, modulus: int,
                        ledger: _Budget) -> int:
    """Pairs (x, y) mod m with F(x), F(y) and the polar pairing all zero."""
    n = form.nvars
    ledger.charge(modulus ** n)
    solutions = []
    for block in _residue_grid(n, modulus):
        solutions.append(block[_condition_mask([form], block, modulus)])
    points = np.concatenate(solutions, axis=0)
    if points.shape[0] == 0:
        return 0
    gradient_rows = np.stack(
        [residues_mod(evaluate_batch(partial, points), modulus)
         for partial in form.partials], axis=1)
    ledger.charge(points.shape[0] ** 2)
    count = 0
    step = max(1, (1 << 22) // max(1, points.shape[0]))
    for start in range(0, points.shape[0], step):
        pairing = gradient_rows[start:start + step] @ points.T % modulus
        count += int((pairing == 0).sum())
    return count


def chi_global_real(form: HomogeneousForm, epsilon: Sequence[float],
                    samples: int, seed: int = 0, *,
                    budget: Optional[int] = None) -> DensityEstimate:
    """Windowed real pair density over [-1, 1]^(2n).

    The d + 1 pencil coefficients are each confined to a centred window of
    the given width; the volume fraction is scaled by 4^n over the product
    of the widths.  The samples go through the shared tiled loop and are
    charged to ``budget`` (no limit by default).

    No content factor is needed, unlike the fixed-y window, because every
    place uses the same c_j as :func:`chi_global_padic`.  For a quadric,
    c_1 = 2 sum a_i x_i y_i has content 2.  Dividing c_1 by 2 would halve
    the limit chi_2(infinity) and double chi_infinity, so by the product
    formula their product would not move.  But chi_2 at a finite level is
    not its limit: on the n = 8 split quadric it is 2, 23/8 and 791/256 at
    H = 1, 2 and 3, rising towards about 3.16.

    Raises:
        DomainError: a width is not positive, or fewer than one sample.
        ResourceLimit: the rounded sample count exceeds ``budget``.
    """
    eps = _window_widths(epsilon, form.degree + 1)
    return _window_density(eps, list(zip(eps, form.pencil)), 2 * form.nvars,
                           samples, seed, budget)


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

def predict_fixed_y(form: HomogeneousForm, y: Sequence[int], x_bound: int,
                    window: int, samples: int, seed: int = 0, *,
                    budget: Optional[int] = DEFAULT_COUNT_BUDGET
                    ) -> Prediction:
    """Circle-method main term X^(s - D + 1) S_y(W) J_y(W) for fixed y.

    The series factor is exact; the integral factor is a QMC estimate whose
    dyadic mean enters the recombination exactly, so the returned main term
    divided by the two factors is exactly the power of X.  ``budget``
    bounds each prime-power residue count of the series and, separately,
    the QMC samples of the integral.
    """
    s = form.nvars - 1
    D = form.degree * (form.degree + 1) // 2
    series = singular_series_truncated(form, y, window, budget=budget)
    integral = singular_integral_truncated(form, y, window, samples, seed,
                                           budget=budget)
    power = Fraction(x_bound) ** (s - D + 1)
    main = power * series.value * _real_mean(integral)
    return Prediction(
        main_term=main,
        tag="fixed-y",
        components={
            "x_bound": x_bound,
            "window": window,
            "rank": s,
            "coefficient_count": D,
            "exponent": s - D + 1,
            "series": series.to_json(),
            "integral": integral.to_json(),
        })


def predict_pairs(form: HomogeneousForm, x_bound: int, y_bound: int,
                  p_max: int, H: int, epsilon: Sequence[float],
                  samples: int, seed: int = 0, *,
                  cache: Optional["EulerCache"] = None,
                  budget: Optional[int] = DEFAULT_COUNT_BUDGET
                  ) -> Prediction:
    """Global pair-count prediction (XY)^(n - D) chi_inf prod_p chi_p.

    Local factors run over primes up to p_max at level H; the real factor
    is the windowed density.  The normalisation convention (d + 1 pencil
    equations over 2n variables) is recorded in the components.
    ``budget`` bounds each exact count of :func:`chi_global_padic` and,
    separately, the QMC samples of the real factor.
    """
    n = form.nvars
    D = form.degree * (form.degree + 1) // 2
    chi_inf = chi_global_real(form, epsilon, samples, seed, budget=budget)
    primes = _primes_up_to(p_max)
    factors: Dict[int, DensityEstimate] = {}
    for p in primes:
        cached = cache.get(form, None, p, H) if cache else None
        if cached is not None:
            factors[p] = DensityEstimate(kind="p-adic", value=cached)
            continue
        factors[p] = chi_global_padic(form, p, H, budget=budget)
        if cache:
            cache.put(form, None, p, H, factors[p].value)
    main = Fraction(x_bound * y_bound) ** (n - D)
    main *= _real_mean(chi_inf)
    for estimate in factors.values():
        main *= estimate.value
    return Prediction(
        main_term=main,
        tag="global",
        components={
            "x_bound": x_bound,
            "y_bound": y_bound,
            "p_max": p_max,
            "H": H,
            "exponent": n - D,
            "convention": _PAIR_CONVENTION,
            "chi_infinity": chi_inf.to_json(),
            "chi_p": {str(p): est.to_json() for p, est in factors.items()},
        })


def _real_mean(estimate: DensityEstimate) -> Fraction:
    """Real part of a sampled mean, as the exact dyadic rational it is."""
    return Fraction(complex(estimate.mean).real)


def _primes_up_to(limit: int) -> List[int]:
    return [p for p in range(2, limit + 1) if _factorise(p) == [(p, 1)]]


# ---------------------------------------------------------------------------
# Euler factor cache
# ---------------------------------------------------------------------------

class EulerCache:
    """Content-addressed store for exact local factors.

    Keys combine the form's coefficient table, the base point (or None for
    the global pair system), the prime, the level, the normalisation
    convention and the package version, so a cache entry can never be
    replayed against different inputs, nor against a factor computed
    under another convention or by another version.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._table: Dict[str, str] = {}
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                self._table = json.load(handle)

    @staticmethod
    def _key(form: HomogeneousForm, y: Optional[Sequence[int]], p: int,
             H: int) -> str:
        payload = json.dumps(
            {"form": form_to_json(form),
             "y": None if y is None else [int(v) for v in y],
             "p": p, "H": H, "convention": _PAIR_CONVENTION,
             "version": __version__},
            sort_keys=True)
        # imported here, so that a run without a cache does not load it
        import hashlib
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def get(self, form: HomogeneousForm, y: Optional[Sequence[int]],
            p: int, H: int) -> Optional[Fraction]:
        raw = self._table.get(self._key(form, y, p, H))
        return None if raw is None else Fraction(raw)

    def put(self, form: HomogeneousForm, y: Optional[Sequence[int]],
            p: int, H: int, value: Fraction) -> None:
        self._table[self._key(form, y, p, H)] = format_rational(value)
        # write a sibling file and rename it over the cache, so a failed
        # write leaves the previous cache intact
        import tempfile
        directory = os.path.dirname(os.path.abspath(self.path))
        handle, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as out:
                json.dump(self._table, out, indent=2, sort_keys=True)
            os.replace(temp, self.path)
        except BaseException:
            os.unlink(temp)
            raise
