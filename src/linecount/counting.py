"""Exact enumeration of line-generating pairs and their Hessian strata.

Counts are always exact integers.  For a diagonal form (every monomial a
pure power) the x-side is a convolution over Z of per-variable value
histograms of the slice system, one batch for the fibers of many base
points, save at the base points inside the stratum of a stratified pair
count; for other forms it runs over the
slicing lattice of the base point (or the full box in the
degenerate-gradient fallback) and applies the integer slice conditions.
The y-side lists the zeros of the form in the coefficient box by a meet
in the middle of two half grids (a scan of the box when no prefix of the
coordinates splits the form), except in a diagonal pair count without
breakdown or stratum, which is one convolution of the pencil over both
boxes.  Vectorised (numpy)
evaluation is used for throughput, with exact object arithmetic as the
overflow fallback, so no float ever decides a count.  The convolution
counter counts over a box in Z and over the residues mod m alike, and
the residue counts of ``density`` call it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DomainError,
    NotOnHypersurface,
    ResourceLimit,
    ZeroVectorInput,
)
from .forms import (
    HomogeneousForm,
    Polynomial,
    evaluate_batch,
    evaluate_form,
    grid_chunks,
    hessian,
    integer_kernel,
    matrix_rank,
    nonzero_slices,
    residues_mod,
)
from .lattice import (
    enumerate_points,
    linear_slice_coefficients,
    slicing_lattice,
)

IntVector = Sequence[int]

_CHUNK_ROWS = 1 << 14

#: Pairs of histogram entries added at once when two histograms are
#: convolved.
_CONVOLVE_ROWS = 1 << 16


#: A histogram (keys, counts, starts) of a batch: distinct keys in order
#: with their counts, leader k owning the entries starts[k]:starts[k + 1].
_Histogram = Tuple[np.ndarray, np.ndarray, List[int]]


class FallbackFullBox(UserWarning):
    """The base point has vanishing gradient; scanning the full box."""


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairCountReport:
    """Exact ordered-pair counts in the box |x| <= X, |y| <= Y."""

    x_bound: int
    y_bound: int
    total: int
    proportional_pairs: int
    stratum_rho: Optional[int] = None
    stratified: Optional[int] = None
    per_y_breakdown: Optional[Dict[Tuple[int, ...], int]] = None

    def to_json(self) -> dict:
        out = {
            "X": self.x_bound,
            "Y": self.y_bound,
            "total": self.total,
            "proportional": self.proportional_pairs,
        }
        if self.stratum_rho is not None:
            out["stratum_rho"] = self.stratum_rho
            out["stratified"] = self.stratified
        if self.per_y_breakdown is not None:
            out["per_y"] = {
                " ".join(map(str, y)): c
                for y, c in sorted(self.per_y_breakdown.items())
            }
        return out


@dataclass(frozen=True)
class StratumReport:
    """Count of base points with Hessian corank at least rho."""

    rho: int
    y_bound: int
    count: int
    fitted_exponent: float
    dyadic_counts: Tuple[Tuple[int, int], ...] = ()


@dataclass(frozen=True)
class M2Report:
    """Dimension of the second-order tangency space, two ways.

    ``span_dim`` comes from the span of the Hessian kernel together with the
    base point; ``system_dim`` from the rank of the degree-2 coefficient
    system restricted to the slicing lattice.  The two systems are
    independent and share only the elimination routine, so agreement is a
    real consistency check.
    """

    span_dim: int
    system_dim: int

    @property
    def agree(self) -> bool:
        return self.span_dim == self.system_dim

    def __int__(self) -> int:
        return self.span_dim


# ---------------------------------------------------------------------------
# Budget accounting
# ---------------------------------------------------------------------------

#: The work budget of every metered stage unless the caller passes one.
DEFAULT_COUNT_BUDGET = 10 ** 7

#: What the counts of this module charge.
_ROW_WORK = "rows scanned and histogram entries formed"


class _Budget:
    """Mutable work meter shared across enumeration loops; ``work`` names
    the units it counts.  The only place that refuses work."""

    __slots__ = ("limit", "work", "spent")

    def __init__(self, limit: Optional[int], work: str) -> None:
        self.limit = limit
        self.work = work
        self.spent = 0

    def charge(self, amount: int) -> None:
        self.spent += amount
        if self.limit is not None and self.spent > self.limit:
            raise ResourceLimit(
                f"the run needs at least {self.spent} {self.work}, more "
                f"than the budget of {self.limit}", needed=self.spent,
                budget=self.limit)


# ---------------------------------------------------------------------------
# Convolution counts, over Z and over Z/m
# ---------------------------------------------------------------------------

def _variable_components(monomials: Sequence[Tuple[int, ...]],
                         nvars: int) -> List[List[int]]:
    """The variables of ``monomials`` grouped into connected components
    (joined when a monomial uses both), each sorted; variables that no
    monomial uses are left out."""
    groups: List[set] = []
    for exponents in monomials:
        joined = {v for v in range(nvars) if exponents[v]}
        for group in [g for g in groups if g & joined]:
            joined |= group
            groups.remove(group)
        groups.append(joined)
    return sorted(sorted(group) for group in groups)


#: The value tables of a convolution's components: called with components
#: and a number of grid rows (None for all of them), yields blocks, each
#: holding for every component asked for one array per poly, of shape
#: (batch, rows): the poly's values on the component's grid rows, the other
#: variables 0, at each entry of the batch.
_Tables = Callable[[Sequence[int], Optional[int]],
                   Iterator[List[List[np.ndarray]]]]


def _convolution_count(polys: Sequence, bounds: Sequence[Tuple[int, int]],
                       modulus: Optional[int], meter: _Budget) -> int:
    """#{x : low_i <= x_i <= high_i, every poly of ``polys`` vanishes},
    (low_i, high_i) = ``bounds[i]`` for each of the len(bounds) variables,
    over Z when ``modulus`` is None and mod ``modulus`` otherwise.

    Monomials whose coefficient is 0 (mod ``modulus``) drop out, and a
    poly left constant vanishes everywhere or nowhere.  The variables fall
    into components, joined when a monomial uses both; a variable in none
    is free, a factor high_i - low_i + 1.  A poly is its constant c plus the
    sum of its values on the components, so the count is
    :func:`_convolution_counts` of the components' value tables, a batch of
    one.  Over Z the radix of a poly is 2 M + 1, where M = (sum
    |coefficient|) b^degree + |c|, b the largest |low_i| or |high_i|,
    bounds every partial sum.  The grids of the components formed at once
    are evaluated in one block.
    """
    nvars = len(bounds)
    origin = (0,) * nvars
    kept: List = []
    constants: List[int] = []
    for poly in polys:
        if not poly.compiled.integral:
            raise ValueError("the counts need integer coefficients")
        coeffs = {e: c % modulus if modulus else c
                  for e, c in poly.coeffs.items()}
        constant = int(coeffs.pop(origin, 0))
        coeffs = {e: c for e, c in coeffs.items() if c}
        if not coeffs:
            if constant:
                return 0
            continue
        if coeffs != poly.coeffs:  # else keep the poly and its compiled form
            poly = Polynomial(nvars=nvars, coeffs=coeffs)
        kept.append(poly)
        constants.append(constant)
    lows, highs = zip(*bounds)
    sides = [high - low + 1 for low, high in bounds]
    groups = _variable_components([e for poly in kept for e in poly.coeffs],
                                  nvars)
    grids = [math.prod([sides[v] for v in group]) for group in groups]
    free = math.prod(sides) // math.prod(grids)
    if not groups:
        return free
    bound = max(map(abs, lows + highs))
    radices = [modulus or 2 * (poly.compiled.weight
                               * bound ** poly.compiled.degree
                               + abs(constant)) + 1
               for poly, constant in zip(kept, constants)]

    def tables(members: Sequence[int], rows: Optional[int]
               ) -> Iterator[List[List[np.ndarray]]]:
        chunks = [grid_chunks([lows[v] for v in groups[i]],
                              [highs[v] for v in groups[i]], rows)
                  for i in members]
        for blocks in zip(*chunks):
            cuts = np.cumsum([block.shape[0] for block in blocks])
            points = np.zeros((cuts[-1], nvars), dtype=np.int64)
            for i, block, stop in zip(members, blocks, cuts):
                points[stop - block.shape[0]:stop, groups[i]] = block
            values = [evaluate_batch(poly, points) for poly in kept]
            yield [[v[None, stop - block.shape[0]:stop] for v in values]
                   for block, stop in zip(blocks, cuts)]

    return free * _convolution_counts(
        tables, [len(group) for group in groups], grids, radices, constants,
        modulus, [meter])[0]


def _convolution_counts(tables: _Tables, widths: Sequence[int],
                        grids: Sequence[int], radices: Sequence[int],
                        constants: Sequence[int], modulus: Optional[int],
                        meters: Sequence[_Budget]) -> List[int]:
    """For each entry (leader) of a batch, the number of points of the
    product of the component grids at which every poly is 0: its constant
    c plus the sum of its values (``tables``) on the components.  Over Z
    when ``modulus`` is None, where |partial sum| < radices[j] / 2 for poly
    j, and mod ``modulus`` otherwise.  Component i has ``widths[i]``
    variables and ``grids[i]`` grid rows; the batch has one meter per
    leader.

    The components go into two halves of balanced width; the smaller half
    is folded into the histogram B of its partial sums, and the sums k of
    the larger half's last fold (or the grid rows of its only component)
    are streamed in blocks, never accumulated, each counting B at -(c + k).
    Every entry carries its leader: a fold pairs only entries of one leader,
    and the last match sums the hits per leader.  A batch of several counts
    over Z, its components all of one width and grid.

    Keys are exact.  Mod m a poly is a digit of radix m; over Z of radix
    ``radices[j]``.  The polys are packed, the first most significant, into
    one int64 column per run of radices whose product is below 2^62 (a
    poly of larger radix keeps its exact values), and the leader is a digit
    above them all, in the first column when it fits.  So a histogram lists
    its leaders in order, each a run of entries.  Over Z keys add as the
    values do and sort as the value vectors do; mod m they add digit by
    digit.  A key of several columns is a row, matched by :func:`_row_ids`.

    Charges each leader's meter the grid rows of every component before
    evaluating them, and before each fold forms its entries, |left| *
    |right| for the leader's own histograms.  Over Z each leader's
    components go alternately into the halves in the order of their
    multisets of value vectors (:func:`_multiset_order`), so a signed
    permutation of the variables that maps the value vectors onto
    themselves up to one sign keeps the charge.  Mod m the larger
    components go first.
    """
    batch = len(meters)
    layout: List[List[Tuple[int, int]]] = []  # per column, (poly, weight)
    product = 2 ** 62
    for j, radix in enumerate(radices):
        if product * radix >= 2 ** 62:
            layout.append([])
            product = 1
        layout[-1] = [(k, w * radix) for k, w in layout[-1]] + [(j, 1)]
        product *= radix
    # the weight of the leader digit in the first column
    unit = math.prod(radices[j] for j, _ in layout[0])
    if batch > 1 and batch * unit >= 2 ** 62:
        layout.insert(0, [])
        unit = 1
    everyone = np.arange(batch)

    def pack(values: List[np.ndarray]) -> np.ndarray:
        """The keys of the value vectors ``values``, one array per poly, at
        leader 0."""
        if modulus is not None:
            values = [residues_mod(v, modulus) for v in values]
        keys = [sum(values[j] * w for j, w in column) if column
                else np.zeros(values[0].shape, dtype=np.int64)
                for column in layout]
        return keys[0] if len(keys) == 1 else np.stack(keys, axis=-1)

    def lead(leaders: np.ndarray) -> np.ndarray:
        """The keys of the zero vector at ``leaders``."""
        if len(layout) == 1:
            return leaders * unit
        keys = np.zeros(leaders.shape + (len(layout),), dtype=np.int64)
        keys[..., 0] = leaders * unit
        return keys

    def leading(keys: np.ndarray) -> np.ndarray:
        """The leaders of the keys ``keys`` (the balanced digits below the
        leader's lie in [-(unit - 1) / 2, (unit - 1) / 2])."""
        column = keys if keys.ndim == 1 else keys[:, 0]
        return ((column + unit // 2) // unit).astype(np.int64)

    def digits(keys: np.ndarray) -> List[np.ndarray]:
        columns = [keys] if len(layout) == 1 else np.moveaxis(keys, -1, 0)
        return [column // w % modulus
                for column, members in zip(columns, layout)
                for _, w in members]

    if modulus is None:
        add, negate = np.add, np.negative
    else:
        def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            return pack([u + v for u, v in zip(digits(a), digits(b))])

        def negate(keys: np.ndarray) -> np.ndarray:
            return pack([-u for u in digits(keys)])

    # counts up to the whole grid of the components, which int64 may not hold
    count_type = np.int64 if math.prod(grids) < 2 ** 63 else object

    def histogram_of(keys: np.ndarray, counts: np.ndarray) -> _Histogram:
        """The histogram of the sorted distinct ``keys``."""
        if batch == 1:
            return keys, counts, [0, keys.shape[0]]
        column = keys if keys.ndim == 1 else keys[:, 0]
        return keys, counts, np.searchsorted(
            column, np.arange(batch + 1) * unit - unit // 2).tolist()

    def unled(histogram: _Histogram) -> _Histogram:
        """``histogram`` with each key at leader 0."""
        keys, counts, starts = histogram
        if batch > 1:
            keys = keys - lead(np.repeat(everyone, np.diff(starts)))
        return keys, counts, starts

    def charge(left: _Histogram, right: _Histogram) -> None:
        (*_, a), (*_, b) = left, right
        for k, meter in enumerate(meters):
            meter.charge((a[k + 1] - a[k]) * (b[k + 1] - b[k]))

    packed: Dict[int, np.ndarray] = {}  # per component, (batch, rows) keys

    def tabulate(members: Sequence[int]) -> None:
        """Pack the value tables of ``members``, evaluated in one block."""
        members = [i for i in dict.fromkeys(members) if i not in packed]
        if members:
            for i, values in zip(members, next(tables(members, None))):
                packed[i] = pack(values)

    for meter in meters:
        meter.charge(sum(grids))
    if modulus is None:
        tabulate(range(len(widths)))
        order = _multiset_order([packed[i] for i in range(len(widths))])
    else:
        order = np.array([sorted(range(len(widths)),
                                 key=lambda i: -widths[i])])
    # positions in the order; the widths of a batch are all one
    halves: Tuple[List[int], List[int]] = ([], [])

    def width(half: List[int]) -> int:
        return sum(widths[order[0, p]] for p in half)

    for p in range(len(widths)):
        min(halves, key=width).append(p)
    (*front, last), other = sorted(halves, key=width, reverse=True)
    tabulate([order[0, p] for p in front + other + ([last] if front else [])])
    stacked = (np.stack([packed[i] for i in range(len(widths))])
               if batch > 1 else None)
    histograms: Dict[int, _Histogram] = {}

    def histogram(p: int) -> _Histogram:
        """The histogram of each leader's component at position p."""
        if p not in histograms:
            if stacked is None:
                keys = packed[order[0, p]][0]
            else:
                keys = (stacked[order[:, p], everyone]
                        + lead(everyone)[:, None]).reshape(
                            -1, *stacked.shape[3:])
            histograms[p] = histogram_of(*_merge_histogram(
                [(keys, np.ones(keys.shape[0], dtype=count_type))]))
        return histograms[p]

    def fold(half: List[int]) -> _Histogram:
        """The histogram of the partial sums of the components at the
        positions ``half``."""
        if not half:
            return histogram_of(
                lead(everyone) + pack([np.zeros(batch, dtype=np.int64)]
                                      * len(radices)),
                np.ones(batch, dtype=count_type))
        folded = histogram(half[0])
        for p in half[1:]:
            right = histogram(p)
            charge(folded, right)
            folded = histogram_of(*_accumulate(
                _sum_blocks(folded, unled(right), add)))
        return folded

    if front:
        head, right = fold(front), histogram(last)
        charge(head, right)
        blocks = _sum_blocks(head, unled(right), add)
    elif order[0, last] in packed:
        blocks = [histogram(last)[:2]]
    else:
        blocks = ((keys[0], np.ones(keys.shape[1], dtype=count_type))
                  for part, in tables([order[0, last]], _CHUNK_ROWS)
                  for keys in [pack(part)])
    lookup, weights, starts = unled(fold(other))
    if any(constants):
        lookup = add(lookup, pack([np.array([c]) for c in constants]))
    lookup = negate(lookup)
    if batch > 1:
        lookup = lookup + lead(np.repeat(everyone, np.diff(starts)))
    lookup, weights = _merge_histogram([(lookup, weights)])
    totals = np.zeros(batch, dtype=count_type)
    for keys, counts in blocks:
        ids, sums = lookup, keys
        if keys.ndim > 1:
            ids = _row_ids(np.concatenate([lookup, keys]))
            ids, sums = ids[:lookup.shape[0]], ids[lookup.shape[0]:]
        at = np.minimum(np.searchsorted(ids, sums), ids.shape[0] - 1)
        hit = ids[at] == sums
        if batch == 1:
            totals[0] += np.dot(counts[hit], weights[at[hit]])
        else:
            np.add.at(totals, leading(keys[hit]),
                      counts[hit] * weights[at[hit]])
    return [int(total) for total in totals]


def _multiset_order(tables: Sequence[np.ndarray]) -> np.ndarray:
    """For each leader, its components in the order of their multisets of
    value vectors, all taken with the one sign (+ or -) whose sorted list
    of multisets comes first; equal multisets keep the order of the
    components.  ``tables[i]`` holds the keys of component i's value
    vectors, one row per leader, and keys sort as the vectors do."""
    signed = []
    for sign in (1, -1):
        signed.append([np.sort(sign * table, axis=1).tolist()
                       if table.ndim == 2 else
                       [sorted(rows) for rows in (sign * table).tolist()]
                       for table in tables])
    orders = []
    for k in range(tables[0].shape[0]):
        multisets = min(([lists[k] for lists in by_sign]
                         for by_sign in signed),
                        key=lambda lists: (sorted(lists), lists))
        orders.append(sorted(range(len(tables)),
                             key=multisets.__getitem__))
    return np.array(orders)


def _sum_blocks(left: _Histogram, right: _Histogram, add
                ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(keys, counts) blocks of the histogram of u + v, u from histogram
    ``left`` and v from ``right`` of the same leader, the keys added by
    ``add`` (a key is an int64 or a row of value columns), in the blocks
    of :func:`_pair_blocks`."""
    (left_keys, left_counts, left_starts) = left
    (right_keys, right_counts, right_starts) = right
    if len(left_starts) == 2:  # one leader: rows of left against all right
        step = max(1, _CONVOLVE_ROWS // right_keys.shape[0])
        for start in range(0, left_keys.shape[0], step):
            keys = add(left_keys[start:start + step, None], right_keys[None])
            yield (keys.reshape(-1, *left_keys.shape[1:]),
                   (left_counts[start:start + step, None]
                    * right_counts[None, :]).ravel())
        return
    runs = np.diff(left_starts)
    right_starts = np.array(right_starts)
    for pairs, partners in _pair_blocks(
            np.repeat(right_starts[:-1], runs),
            np.repeat(np.diff(right_starts), runs)):
        yield (add(left_keys[pairs], right_keys[partners]),
               left_counts[pairs] * right_counts[partners])


def _pair_blocks(first: np.ndarray, fan: np.ndarray
                 ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """(rows, partners) blocks of the pairs of each row i with the partners
    first[i], ..., first[i] + fan[i] - 1, in order of row and then
    partner: a block pairs a run of rows, at most ``_CONVOLVE_ROWS`` pairs,
    or the pairs of one row when it has more."""
    ends = np.cumsum(fan)
    start = 0
    while start < fan.shape[0]:
        before = ends[start] - fan[start]
        stop = max(start + 1, int(np.searchsorted(
            ends, before + _CONVOLVE_ROWS, side="right")))
        pairs = np.repeat(np.arange(start, stop), fan[start:stop])
        yield pairs, (first[pairs] + np.arange(pairs.shape[0])
                      - (ends[pairs] - fan[pairs] - before))
        start = stop


def _accumulate(blocks: Iterator[Tuple[np.ndarray, np.ndarray]]
                ) -> Tuple[np.ndarray, np.ndarray]:
    """The histogram of (keys, counts) ``blocks`` (at least one): distinct
    keys, with the counts of equal keys summed (see
    :func:`_merge_histogram`).

    Blocks wait until they hold more entries than the histogram so far,
    then are merged into it: of n entries in all, each is sorted
    O(log n) times, and at most twice the histogram plus one block is
    held.
    """
    histogram: List[Tuple[np.ndarray, np.ndarray]] = []
    waiting: List[Tuple[np.ndarray, np.ndarray]] = []
    size = 0
    for block in blocks:
        waiting.append(block)
        size += block[0].shape[0]
        if not histogram or size > histogram[0][0].shape[0]:
            histogram = [_merge_histogram(histogram + waiting)]
            waiting, size = [], 0
    return _merge_histogram(histogram + waiting) if waiting \
        else histogram[0]


def _merge_histogram(parts: Sequence[Tuple[np.ndarray, np.ndarray]]
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct keys of the (keys, counts) ``parts``, with the counts of
    equal keys summed.  A key is an int64, or a row of value columns (see
    :func:`_row_ids`); the keys come out sorted, rows lexicographically."""
    keys = np.concatenate([k for k, _ in parts])
    counts = np.concatenate([c for _, c in parts])
    order = (np.argsort(keys, kind="stable") if keys.ndim == 1
             else np.lexsort(keys.T[::-1]))
    keys, counts = keys[order], counts[order]
    changed = keys[1:] != keys[:-1]
    if keys.ndim > 1:
        changed = changed.any(axis=1)
    starts = np.flatnonzero(np.concatenate(([True], changed)))
    return keys[starts], np.add.reduceat(counts, starts)


def _row_ids(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of the 2-D ``rows``, equal exactly when the rows
    are and ordered as they are, lexicographically: the rank of the row
    among the distinct rows, so the id stays below the number of rows
    whatever the size of the values.  One stable lexsort orders the rows,
    and the ids count the changes between neighbours in that order."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    ids = np.zeros(rows.shape[0], dtype=np.int64)
    ids[order[1:]] = np.cumsum((rows[1:] != rows[:-1]).any(axis=1))
    return ids


# ---------------------------------------------------------------------------
# Shared enumeration plumbing
# ---------------------------------------------------------------------------

def _condition_mask(polys: Sequence, chunk: np.ndarray,
                    modulus: Optional[int] = None) -> np.ndarray:
    """One bool per row of ``chunk``: True where every poly of ``polys``
    vanishes, over Z when ``modulus`` is None and mod ``modulus``
    otherwise."""
    mask = np.ones(chunk.shape[0], dtype=bool)
    for poly in polys:
        values = evaluate_batch(poly, chunk)
        if modulus is not None:
            values = residues_mod(values, modulus)
        mask &= values == 0
        if not mask.any():
            break
    return mask


def _is_diagonal(form: HomogeneousForm) -> bool:
    """True when every monomial of F is a pure power a x_i^d."""
    return all(sum(1 for e in exponents if e) == 1
               for exponents in form.coeffs)


def _diagonal_fibers(form: HomogeneousForm, ys: Sequence[Tuple[int, ...]],
                     x_bound: int, meters: Sequence[_Budget]) -> List[int]:
    """The fiber counts of a diagonal F = sum_i a_i x_i^d at the base points
    ``ys``, each charged to its meter: the x in [-X, X]^n with c_1(x, y) =
    ... = c_d(x, y) = 0, the zero vector included.

    The slices c_j(x, y) = binom(d, j) sum_i a_i y_i^(d-j) x_i^j split into
    one component per variable, so the fibers are one batch of
    :func:`_convolution_counts` over Z, a leader per base point.  The value
    vectors (binom(d, j) a_i y_i^(d-j) x^j)_(j=1..d) of variable i at x are
    built for every y at once from the coefficients, in int64 when the
    radix of c_j allows and as Python ints otherwise.  A signed permutation
    sigma with F o sigma = +-F, which maps the value vectors at y onto
    those at sigma y up to one sign, keeps the charge.
    """
    d, n = form.degree, form.nvars
    scales = np.zeros(n, dtype=object)
    for exponents, a in form.coeffs.items():
        scales[exponents.index(d)] = int(a)
    j = np.arange(1, d + 1)
    scales = scales[:, None] * np.array([math.comb(d, k) for k in j],
                                        dtype=object)
    # (leader, variable, j) -> binom(d, j) a_i y_i^(d - j), exactly
    coefficients = scales * np.array(ys, dtype=object)[:, :, None] ** (d - j)
    powers = np.arange(-x_bound, x_bound + 1, dtype=object)[:, None] ** j
    largest = np.abs(coefficients).sum(axis=1).max(axis=0)
    radices = [2 * int(m) * x_bound ** k + 1
               for k, m in enumerate(largest, start=1)]
    values = []
    for k, radix in enumerate(radices):
        dtype = np.int64 if radix < 2 ** 62 else object
        values.append(coefficients[:, :, k, None].astype(dtype)
                      * powers[:, k].astype(dtype))

    def tables(members: Sequence[int], rows: Optional[int]
               ) -> Iterator[List[List[np.ndarray]]]:
        yield [[v[:, i] for v in values] for i in members]

    return _convolution_counts(tables, [1] * n, [2 * x_bound + 1] * n,
                               radices, [0] * d, None, meters)


def _fiber(form: HomogeneousForm, y: Tuple[int, ...], x_bound: int,
           stratum_rho: Optional[int], meter: _Budget) -> Tuple[int, int]:
    """(count, stratified) over the x in [-X, X]^n with c_1(x, y) = ... =
    c_d(x, y) = 0: ``count`` includes the zero vector, and ``stratified``
    counts the nonzero x of Hessian corank >= ``stratum_rho`` (0 when it
    is None).

    For a diagonal F, when no stratum is asked for, the fiber is
    :func:`_diagonal_fibers` of y alone.  Otherwise the candidates are the
    points of the reduced slicing lattice at y, or of the full box when the
    gradient vanishes there; each block is charged to the meter before the
    slice conditions test it.
    """
    if stratum_rho is None and _is_diagonal(form):
        return _diagonal_fibers(form, [y], x_bound, [meter])[0], 0
    try:
        chunks = enumerate_points(slicing_lattice(form, y), x_bound)
    except ZeroVectorInput:  # the gradient vanishes at y
        chunks = grid_chunks([-x_bound] * form.nvars, [x_bound] * form.nvars,
                             _CHUNK_ROWS)
    conditions = [sliced for _, sliced in nonzero_slices(form, y)]
    count = stratified = 0
    for chunk in chunks:
        meter.charge(chunk.shape[0])
        hits = chunk[_condition_mask(conditions, chunk)]
        count += hits.shape[0]
        if stratum_rho is not None:
            stratified += sum(1 for x in map(tuple, hits.tolist())
                              if any(x)
                              and hessian_corank(form, x) >= stratum_rho)
    return count, stratified


# ---------------------------------------------------------------------------
# Fixed-y counting
# ---------------------------------------------------------------------------

def count_fixed_y(form: HomogeneousForm, y: IntVector, x_bound: int, *,
                  budget: Optional[int] = None) -> int:
    """Exact number of x in [-X, X]^n spanning a (possibly degenerate)
    line with the base point y.

    Counts every x of the slicing lattice at which all slice conditions of
    degree 2..d vanish.  The zero vector and multiples of y are included;
    pair-level counts remove and tally them separately.  The fiber is
    :func:`_fiber`: one convolution for a diagonal form, else a scan of
    the slicing lattice, or of the full box when the gradient vanishes.

    Args:
        form: the form cutting out the hypersurface.
        y: nonzero integer base point (need not lie on the hypersurface).
        x_bound: sup-norm box bound X >= 0.
        budget: optional cap on the lattice (or box) points examined, or
            for a diagonal form on the grid rows evaluated and histogram
            entries formed.

    Raises:
        ZeroVectorInput: y = 0.
        ResourceLimit: the enumeration exceeded the budget.
    """
    if all(v == 0 for v in y):
        raise ZeroVectorInput("base point must be nonzero")
    if x_bound < 0:
        raise DomainError("x_bound must be nonnegative")
    if not _is_diagonal(form) and linear_slice_coefficients(form, y).all_zero:
        warnings.warn(
            f"gradient vanishes at y={tuple(y)}; scanning the full box",
            FallbackFullBox, stacklevel=2)
    count, _ = _fiber(form, tuple(int(v) for v in y), x_bound, None,
                      _Budget(budget, _ROW_WORK))
    return count


# ---------------------------------------------------------------------------
# Hessian rank stratification
# ---------------------------------------------------------------------------

def hessian_corank(form: HomogeneousForm, y: IntVector) -> int:
    """Exact dimension of the kernel of the Hessian at y (over Q)."""
    return form.nvars - matrix_rank(hessian(form, y))


def _primitive_direction(y: IntVector) -> Tuple[int, ...]:
    """y divided by its content, signed so that the first nonzero entry is
    positive: the one representative of the line through y."""
    content = math.gcd(*(int(v) for v in y))
    direction = tuple(int(v) // content for v in y)
    first = next(v for v in direction if v)
    return direction if first > 0 else tuple(-v for v in direction)


#: A signed permutation sigma as (perm, signs): (sigma y)_i = signs[i] *
#: y[perm[i]].
_SignedPermutation = Tuple[Tuple[int, ...], Tuple[int, ...]]


def _symmetry_generators(form: HomogeneousForm) -> List[_SignedPermutation]:
    """The single sign changes and signed transpositions sigma with
    F o sigma = +-F.

    Each of the O(n^2) candidates is tested once, by comparing the monomial
    table of F o sigma with that of F and of -F.  The group they generate
    may be trivial; no other symmetry is searched for.
    """
    n = form.nvars
    candidates: List[_SignedPermutation] = []
    for i in range(n):
        candidates.append((tuple(range(n)),
                           tuple(-1 if k == i else 1 for k in range(n))))
        for j in range(i + 1, n):
            perm = list(range(n))
            perm[i], perm[j] = j, i
            for sign in (1, -1):
                candidates.append((tuple(perm), tuple(
                    sign if k in (i, j) else 1 for k in range(n))))
    coeffs = dict(form.coeffs)
    negated = {e: -c for e, c in coeffs.items()}
    generators = []
    for perm, signs in candidates:
        # x_i -> signs[i] x_perm[i] sends c x^e to c prod signs[i]^e_i times
        # the monomial whose exponent at perm[i] is e_i
        image = {}
        for exponents, coefficient in coeffs.items():
            moved = [0] * n
            for i, e in enumerate(exponents):
                moved[perm[i]] = e
                if signs[i] < 0 and e % 2:
                    coefficient = -coefficient
            image[tuple(moved)] = coefficient
        if image == coeffs or image == negated:
            generators.append((perm, signs))
    return generators


#: A component of the group the generators span: its coordinates, its
#: kind ("B", "D" or "S") and, for kind S, the signs delta that balance
#: its transpositions (see :func:`_orbit_components`).
_Component = Tuple[List[int], str, np.ndarray]


def _orbit_components(generators: Sequence[_SignedPermutation], n: int
                      ) -> List[_Component]:
    """The group the generators span, one factor per component.

    The transpositions join coordinates into components (a coordinate in
    none is its own), and every generator acts inside one, so the group is
    the product of the groups G_C they span on each component C; as
    permutations of C they span all of them.  G_C is one of three kinds:

    - B: a single sign change lies in C, so every sign change does, and
      G_C is every signed permutation of C;
    - D: no sign change lies in C, and no signs delta_i = +-1 make each
      transposition x_i <-> s x_j one with s = delta_i delta_j (an edge
      that carries both signs is the shortest such cycle), so G_C holds
      every flip of two signs and is the even signed permutations;
    - S: such signs delta exist, and G_C = delta S_C delta permutes delta y.
    """
    flips = set()
    edges: List[Tuple[int, int, int]] = []
    for perm, signs in generators:
        moved = [i for i in range(n) if perm[i] != i]
        if moved:
            edges.append((moved[0], moved[1], signs[moved[0]]))
        else:
            flips.add(signs.index(-1))
    unit = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    joined = [tuple(int(k in (i, j)) for k in range(n)) for i, j, _ in edges]
    components: List[_Component] = []
    for group in _variable_components(unit + joined, n):
        delta = {group[0]: 1}
        balanced = True
        frontier = [group[0]]
        for i in frontier:
            for a, b, sign in edges:
                if i not in (a, b):
                    continue
                j = b if i == a else a
                if j not in delta:
                    delta[j] = sign * delta[i]
                    frontier.append(j)
                balanced &= delta[j] == sign * delta[i]
        kind = ("B" if flips.intersection(group)
                else "S" if balanced else "D")
        components.append((group, kind,
                           np.array([delta[i] for i in group], np.int64)))
    return components


def _orbit_keys(directions: np.ndarray,
                components: Sequence[_Component]) -> np.ndarray:
    """One row per row of ``directions``, equal for two rows exactly when
    the group of ``components`` maps one onto the other: per component C,
    sort(|y_C|) for kind B, that and the parity of the negative entries
    (0 when some y_i = 0, which a flip leaves fixed) for kind D, and
    sort(delta y_C) for kind S."""
    columns = []
    for group, kind, delta in components:
        part = directions[:, group]
        if kind == "S":
            columns.append(np.sort(part * delta, axis=1))
            continue
        columns.append(np.sort(np.abs(part), axis=1))
        if kind == "D":
            odd = np.count_nonzero(part < 0, axis=1) % 2
            columns.append((odd * np.all(part, axis=1))[:, None])
    return np.concatenate(columns, axis=1)


def _line_keys(points: np.ndarray, components: Sequence[_Component],
               y_bound: int) -> np.ndarray:
    """The key of the line through each nonzero row of ``points`` (entries
    in [-Y, Y]): the orbit key of p or of -p, p the row divided by its
    content, whichever is lexicographically smaller, as one integer.  Two
    rows get one key exactly when a symmetry maps the line through one
    onto the line through the other.

    Every column of an orbit key lies in [-Y, Y], so a key is packed as
    the balanced digits of radix 2Y + 1, the first most significant,
    which orders the integers as the rows: int64 when they fit, else
    Python ints.
    """
    direction = points // np.gcd.reduce(points, axis=1)[:, None]
    radix = 2 * y_bound + 1
    packed = []
    for sign in (1, -1):
        keys = _orbit_keys(sign * direction, components)
        dtype = np.int64 if radix ** keys.shape[1] < 2 ** 63 else object
        total = np.zeros(keys.shape[0], dtype=dtype)
        for column in keys.T:
            total = total * radix + column.astype(dtype)
        packed.append(total)
    return np.minimum(*packed)


def _proportional_count(y: IntVector, x_bound: int) -> int:
    """Number of nonzero multiples of y inside [-X, X]^n.

    Every such x automatically spans a line with y once F(y) = 0, so this
    subcount never needs enumeration.
    """
    return 2 * (x_bound // max(abs(v) for v in _primitive_direction(y)))


def _base_point_blocks(form: HomogeneousForm, y_bound: int,
                       meter: _Budget) -> Iterator[np.ndarray]:
    """The nonzero zeros of F in [-Y, Y]^n in grid order, in blocks of at
    least ``_CHUNK_ROWS`` rows (the last may hold fewer), listed by a meet
    in the middle (Horowitz-Sahni) of two half grids.

    The coordinates split at a prefix of k that no monomial of F crosses,
    so F(l, r) = F(l, 0) + F(0, r): the k nearest n / 2 (the larger of
    two, so that the half held whole is the smaller), or k = n when no
    0 < k < n will do.  The right half's grid (l = 0) is evaluated once
    and its values sorted stably, so rows of equal value keep their grid
    order.  The left half's grid (r = 0) is evaluated in chunks of
    ``_CHUNK_ROWS`` rows, each row l matched at -F(l, 0) by
    ``searchsorted`` and the zeros l + r assembled in the blocks of
    :func:`_pair_blocks`; so they come out in grid order, with no sort.
    The values are exact (int64 where :func:`evaluate_batch` proves it
    safe, Python ints otherwise, which ``searchsorted`` compares with
    either).  With k = n the right grid is the one point 0 and this is a
    scan of the box, chunk by chunk.

    Charges the meter each item before forming it: the rows of the right
    grid, each chunk of the left one, and each block of assembled zeros,
    the zero vector included; with k = n only the chunks, one per row of
    the box.
    """
    n = form.nvars
    groups = _variable_components(list(form.coeffs), n)
    cuts = [k for k in range(1, n)
            if all(group[-1] < k or group[0] >= k for group in groups)]
    k = min(cuts + [n], key=lambda cut: (max(cut, n - cut), -cut))
    top = [y_bound] * k + [0] * (n - k)  # the left half's corner
    if k < n:
        meter.charge((2 * y_bound + 1) ** (n - k))
    right = next(grid_chunks([0] * k + [-y_bound] * (n - k),
                             [0] * k + [y_bound] * (n - k)))
    values = evaluate_batch(form, right)
    order = np.argsort(values, kind="stable")
    right, values = right[order], values[order]
    pending: List[np.ndarray] = []
    rows = 0
    for chunk in grid_chunks([-v for v in top], top, _CHUNK_ROWS):
        meter.charge(chunk.shape[0])
        targets = -evaluate_batch(form, chunk)
        first = np.searchsorted(values, targets)
        fan = np.searchsorted(values, targets, side="right") - first
        for pairs, partners in _pair_blocks(first, fan):
            if k < n:
                meter.charge(pairs.shape[0])
            points = chunk[pairs] + right[partners]
            pending.append(points[np.any(points, axis=1)])
            rows += pending[-1].shape[0]
            if rows >= _CHUNK_ROWS:
                yield np.concatenate(pending)
                pending, rows = [], 0
    if rows:
        yield np.concatenate(pending)


def _orbit_tally(form: HomogeneousForm, y_bound: int, meter: _Budget,
                 keep: bool = False
                 ) -> Tuple[List[Tuple[int, ...]], List[int],
                            List[Tuple[np.ndarray, np.ndarray]]]:
    """(leaders, sizes, blocks) of the nonzero zeros y of F in [-Y, Y]^n,
    listed in grid order by :func:`_base_point_blocks`, which charges the
    meter.

    The base points fall into orbits: two share one when a symmetry of F
    maps the line through one onto the line through the other
    (:func:`_line_keys`).  ``leaders[k]`` is the first base point of orbit
    k and ``sizes[k]`` its number of base points, the orbits numbered in
    the order of their leaders.  With ``keep``, ``blocks`` holds the base
    points block by block (:func:`_base_point_blocks`) with their orbit
    numbers, in grid order.
    """
    components = _orbit_components(_symmetry_generators(form), form.nvars)
    orbit_of: Dict[int, int] = {}
    leaders: List[Tuple[int, ...]] = []
    sizes: List[int] = []
    blocks: List[Tuple[np.ndarray, np.ndarray]] = []
    for points in _base_point_blocks(form, y_bound, meter):
        keys, first, inverse, counts = np.unique(
            _line_keys(points, components, y_bound), return_index=True,
            return_inverse=True, return_counts=True)
        orbit = np.empty(keys.shape[0], dtype=np.int64)
        for u in np.argsort(first):
            key = int(keys[u])
            if key not in orbit_of:
                orbit_of[key] = len(leaders)
                leaders.append(tuple(points[first[u]].tolist()))
                sizes.append(0)
            orbit[u] = orbit_of[key]
            sizes[orbit[u]] += int(counts[u])
        if keep:
            blocks.append((points, orbit[inverse.reshape(-1)]))
    return leaders, sizes, blocks


def stratum_count(form: HomogeneousForm, y_bound: int,
                  rho: int) -> StratumReport:
    """Count base points on the hypersurface with Hessian corank >= rho.

    Lists 0 < |y| <= Y exactly (:func:`_base_point_blocks`: for the quintic
    at Y = 32 two half grids of 65^2 rows, not the 65^4 rows of the box),
    then reuses the collected sup-norms to build the dyadic growth table
    and a least-squares fitted exponent of the count against the box size
    (nan when fewer than two dyadic boxes are nonempty).

    The corank is computed once per orbit leader of :func:`_orbit_tally`:
    the Hessian scales as H(k y) = k^(d-2) H(y), and H_F(sigma y) =
    +-sigma H_F(y) sigma^T for a signed permutation sigma with F o sigma =
    +-F, so neither changes the rank.
    """
    n = form.nvars
    if not 1 <= rho <= n:
        raise DomainError(f"rho must be in 1..{n}")
    if y_bound < 1:
        raise DomainError("y_bound must be positive")
    leaders, _, blocks = _orbit_tally(form, y_bound,
                                      _Budget(None, _ROW_WORK), keep=True)
    coranks = np.array([hessian_corank(form, y) for y in leaders], np.int64)
    norms = np.concatenate(
        [np.zeros(0, np.int64)]
        + [np.abs(points[coranks[orbit] >= rho]).max(axis=1)
           for points, orbit in blocks])
    dyadic: List[Tuple[int, int]] = []
    size = 2
    while size <= y_bound:
        dyadic.append((size, int(np.count_nonzero(norms <= size))))
        size *= 2
    fitted = float("nan")
    points = [(math.log(s), math.log(c)) for s, c in dyadic if c > 0]
    if len(points) >= 2:
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        fitted = float(np.polyfit(xs, ys, 1)[0])
    return StratumReport(rho=rho, y_bound=y_bound, count=norms.shape[0],
                         fitted_exponent=fitted,
                         dyadic_counts=tuple(dyadic))


# ---------------------------------------------------------------------------
# Second-order tangency dimension
# ---------------------------------------------------------------------------

def m2_dimension(form: HomogeneousForm, y: IntVector) -> M2Report:
    """Dimension of the space of second-order tangent directions at y.

    Computed from two independent systems, each ranked by the one
    elimination routine: (a) the span of the Hessian kernel together with
    y, and (b) the solution space of the degree-2 coefficient system
    written in the slicing-lattice basis.  The report carries both so
    callers can flag disagreement.

    Raises:
        ZeroVectorInput: y = 0.
        NotOnHypersurface: F(y) != 0.
        DomainError: the form has degree < 2.
    """
    if form.degree < 2:
        raise DomainError("second-order tangency needs degree >= 2")
    if all(v == 0 for v in y):
        raise ZeroVectorInput("base point must be nonzero")
    if evaluate_form(form, y) != 0:
        raise NotOnHypersurface(f"F{tuple(y)} != 0")
    matrix = hessian(form, y)
    span_dim = matrix_rank(integer_kernel(matrix) + [list(y)])

    try:
        basis = [list(row) for row in slicing_lattice(form, y).basis]
    except ZeroVectorInput:  # the gradient vanishes at y
        basis = [[1 if i == k else 0 for k in range(form.nvars)]
                 for i in range(form.nvars)]
    # Gram-like system: M[a][b] = b_a . H . b_b; its kernel is the space of
    # lattice directions h with vanishing degree-2 coefficient vector.
    h_rows = [[sum(h * v for h, v in zip(matrix[i], b)) for b in basis]
              for i in range(form.nvars)]
    system = [[sum(basis[a][i] * h_rows[i][b] for i in range(form.nvars))
               for b in range(len(basis))] for a in range(len(basis))]
    system_dim = len(basis) - matrix_rank(system)
    return M2Report(span_dim=span_dim, system_dim=system_dim)


# ---------------------------------------------------------------------------
# Pair counting
# ---------------------------------------------------------------------------

def _pairs_at_base_point(form: HomogeneousForm, y: Tuple[int, ...],
                         x_bound: int, exclude_proportional: bool,
                         stratum_rho: Optional[int], meter: _Budget,
                         fiber: Optional[Tuple[int, int]] = None
                         ) -> Tuple[int, int, int]:
    """(total, proportional, stratified) pair counts contributed by one
    base point y on the hypersurface: its fiber less the zero vector, and
    less the proportional x when they are excluded.  The fiber is
    ``fiber`` when the caller has counted it already, charged to
    ``meter``, else :func:`_fiber`.

    The stratified count needs the Hessian corank of every x of the fiber
    only when y itself is in the stratum (corank >= ``stratum_rho``), and
    is 0 otherwise.
    """
    prop_y = _proportional_count(y, x_bound)
    y_in_stratum = (stratum_rho is not None
                    and hessian_corank(form, y) >= stratum_rho)
    count, stratified = fiber or _fiber(
        form, y, x_bound, stratum_rho if y_in_stratum else None, meter)
    count -= 1  # the zero vector always satisfies every condition
    if exclude_proportional:
        count -= prop_y
        if y_in_stratum:
            # proportional x inherit the stratum membership of y exactly
            stratified -= prop_y
    return count, prop_y, stratified


def _pencil_pairs(form: HomogeneousForm, x_bound: int, y_bound: int,
                  meter: _Budget) -> Tuple[int, int]:
    """(total, proportional) pair counts of a diagonal F, proportional pairs
    included in the total, with no scan of the y-box.

    A pair spans a line when every pencil form c_0..c_d vanishes at (x,
    y), and for a diagonal F each c_j = binom(d, j) sum_i a_i x_i^j
    y_i^(d-j) splits into one component (x_i, y_i) per variable.  So
    :func:`_convolution_count` of the pencil over the x-box times the
    y-box counts every such pair, x = 0 or y = 0 included: with Z(B) =
    #{|v| <= B : F(v) = 0}, zero included, the pairs with x = 0 number
    Z(Y) and those with y = 0 number Z(X), so

        total = conv(pencil) - Z(X) - Z(Y) + 1.

    A nonzero zero is k p for one primitive zero p (both signs counted)
    and k >= 1, and its proportional partners number 2 floor(X / |p|).
    With P(t) the primitive zeros of sup-norm t, the nonzero zeros of
    sup-norm exactly t number Z(t) - Z(t - 1) = sum_{s | t} P(s), solved
    for P(t) for t = 1..min(X, Y), and

        proportional = sum_t P(t) floor(Y / t) 2 floor(X / t).

    Each Z(B) is the convolution of [F] over [-B, B]^n; all the
    convolutions charge ``meter``.
    """
    n = form.nvars
    total = _convolution_count(
        form.pencil, [(-x_bound, x_bound)] * n + [(-y_bound, y_bound)] * n,
        None, meter)
    least = min(x_bound, y_bound)
    zeros = {bound: _convolution_count([form], [(-bound, bound)] * n, None,
                                       meter)
             for bound in sorted({*range(1, least + 1), x_bound, y_bound})}
    total -= zeros[x_bound] + zeros[y_bound] - 1
    primitive = [0] * (least + 1)
    proportional = 0
    for t in range(1, least + 1):
        # Z(0) = 1 counts the zero vector alone
        primitive[t] = (zeros[t] - zeros.get(t - 1, 1)
                        - sum(primitive[s] for s in range(1, t) if t % s == 0))
        proportional += primitive[t] * (y_bound // t) * 2 * (x_bound // t)
    return total, proportional


def count_pairs(form: HomogeneousForm, x_bound: int, y_bound: int, *,
                exclude_proportional: bool = False,
                stratum_rho: Optional[int] = None,
                breakdown: bool = False,
                budget: Optional[int] = None) -> PairCountReport:
    """Exact number of ordered pairs (x, y) of nonzero integer vectors with
    |x| <= X, |y| <= Y spanning a line inside the hypersurface.

    Proportional pairs (x parallel to y) are always tallied separately;
    ``exclude_proportional`` removes them from the total as well.  With
    ``stratum_rho`` set, the ``stratified`` field counts the pairs whose two
    points both have Hessian corank >= rho.  ``breakdown`` records the
    per-base-point counts, whose sum reproduces the total exactly.

    For a diagonal F, when neither ``breakdown`` nor ``stratum_rho`` is
    given, the count scans no y-box and counts no fiber
    (:func:`_pencil_pairs`).  Every pencil form c_j(x, y) is a sum over
    the components (x_i, y_i), so with Z(B) = #{|v| <= B : F(v) = 0},
    zero included,

        total = conv(pencil over x-box x y-box) - Z(X) - Z(Y) + 1,

    each term one :func:`_convolution_count`.  The primitive zeros P(t) of
    sup-norm t <= min(X, Y) follow from Z(t) - Z(t - 1) = sum_{s | t}
    P(s) by a Moebius step, and the proportional pairs are sum_t P(t)
    floor(Y / t) 2 floor(X / t).

    A breakdown, a stratum or a form that is not diagonal lists the base
    points (:func:`_base_point_blocks`).  The fiber of y depends only on the
    line through y (the slice values scale as c_j(x, k y) = k^(d-j) c_j(x,
    y)), and a signed permutation sigma with F o sigma = +-F maps it onto
    the fiber of sigma y: sigma keeps the sup-norm box and the zero set,
    maps the slicing lattice at y onto the one at sigma y and keeps the
    Hessian corank, so the total, proportional and stratified counts and the
    number of points enumerated (for a diagonal form, the charge of its
    convolution) are the same.  So one listing of the base points
    (:func:`_orbit_tally`), by a meet in the middle of two half grids of the
    y-box, tallies the orbits of primitive directions +-y under the group
    spanned by the sign changes and signed transpositions that are
    symmetries of F, by a closed-form key per line
    (:func:`_orbit_components`), and the x-side is counted once per orbit,
    at its leader (:func:`_pairs_at_base_point`), under a meter of its
    own.  For a diagonal F the leaders' fibers outside the stratum are
    counted together, as one batch of :func:`_diagonal_fibers` per run of
    leaders whose x-boxes hold at most ``_CONVOLVE_ROWS`` points in all:
    ``count --fixture fermat-3-4 --X 2 --Y 5 --breakdown --csv`` (11
    leaders, one batch) takes 2.8 ms in-process against 7.2 ms with one
    convolution per leader (medians of 200 calls, 2-core VM).  ``budget``
    bounds each leader's fiber and what is charged in all: the pencil path's
    convolutions, or the charge of listing the base points plus, for each
    base point, the charge of its fiber, as if counted afresh.  A batch that
    a leader's meter refuses is counted again one leader at a time, so the
    refusal is the one that counting the leaders in turn, each followed by
    the charge of its base points, meets first.

    Raises:
        DomainError: X < 1 or Y < 1, or ``stratum_rho`` outside 1..n.
        ResourceLimit: the count exceeded the budget.
    """
    if x_bound < 1 or y_bound < 1:
        raise DomainError("x_bound and y_bound must be at least 1")
    if stratum_rho is not None and not 1 <= stratum_rho <= form.nvars:
        raise DomainError(f"rho must be in 1..{form.nvars}")
    meter = _Budget(budget, _ROW_WORK)
    if not breakdown and stratum_rho is None and _is_diagonal(form):
        total, proportional = _pencil_pairs(form, x_bound, y_bound, meter)
        if exclude_proportional:
            total -= proportional
        return PairCountReport(x_bound=x_bound, y_bound=y_bound, total=total,
                               proportional_pairs=proportional)
    leaders, sizes, blocks = _orbit_tally(form, y_bound, meter, keep=breakdown)
    diagonal = _is_diagonal(form)
    # leaders per batch: their x-boxes hold at most one block of points in
    # all, so a batch forms no more entries at once than one fiber does
    step = (max(1, _CONVOLVE_ROWS // (2 * x_bound + 1) ** form.nvars)
            if diagonal else 1)
    counts: List[Tuple[int, int, int]] = []
    while len(counts) < len(leaders):
        start = len(counts)
        batch = leaders[start:start + step]
        owns = [_Budget(budget, _ROW_WORK) for _ in batch]
        convolved = [k for k, y in enumerate(batch) if diagonal and (
            stratum_rho is None or hessian_corank(form, y) < stratum_rho)]
        try:
            fibers = dict(zip(convolved, _diagonal_fibers(
                form, [batch[k] for k in convolved], x_bound,
                [owns[k] for k in convolved]) if convolved else []))
        except ResourceLimit:
            if len(convolved) < 2:
                raise
            # a refusal is certain: count the leaders one at a time from
            # here, so that it is the one counting them in turn meets first
            step = 1
            continue
        for k, (y, own) in enumerate(zip(batch, owns)):
            # a convolved fiber lies outside the stratum
            counts.append(_pairs_at_base_point(
                form, y, x_bound, exclude_proportional,
                None if k in fibers else stratum_rho, own,
                (fibers[k], 0) if k in fibers else None))
            meter.charge(sizes[start + k] * own.spent)
    total, proportional, stratified = (
        sum(size * c[k] for size, c in zip(sizes, counts)) for k in range(3))
    per_y = ({tuple(y): counts[k][0]
              for points, orbit in blocks
              for y, k in zip(points.tolist(), orbit.tolist())}
             if breakdown else None)
    return PairCountReport(
        x_bound=x_bound, y_bound=y_bound, total=total,
        proportional_pairs=proportional, stratum_rho=stratum_rho,
        stratified=stratified if stratum_rho is not None else None,
        per_y_breakdown=per_y)
