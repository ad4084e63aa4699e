"""Exponential sums over the slicing lattice and arc membership tests.

The module evaluates the two basic exponential sums of the counting
integral (the lattice-point sum T and its box-with-linear-twist companion
U), writes their phases as exact polynomials in the lattice coordinates,
measures square-and-difference inequalities on small instances, and decides
major-arc membership — both the final single-denominator form and the
nested per-degree form steered by an exponent profile.

Phases are handled exactly for rational frequencies: the integer slice
values are combined with the rational frequencies and reduced mod 1 before
any rounding, so the only floating-point step is the evaluation of e(x)
itself.  Floating-point frequencies are converted to exact dyadic
rationals on input; arc comparisons then carry a documented 2^-40 slack.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import mpmath
import numpy as np

from .counting import DEFAULT_COUNT_BUDGET, _Budget
from .errors import (
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    ZeroVectorInput,
)
from .exponents import ExponentProfile
from .forms import (
    HomogeneousForm,
    Polynomial,
    evaluate_batch,
    format_rational,
    grid_chunks,
    nonzero_slices,
    parse_rational,
    residues_mod,
)
from .lattice import box_profile, enumerate_points, slicing_lattice

#: Comparison slack applied to arc membership when the input frequencies
#: arrived as binary floats rather than exact rationals.
FLOAT_SLACK = Fraction(1, 2 ** 40)

RationalLike = Union[int, float, str, Fraction]


# ---------------------------------------------------------------------------
# Frequency points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrequencyPoint:
    """Frequencies (alpha_2, ..., alpha_d), keyed by the degree index.

    Values are exact rationals reduced into [0, 1) on construction (the
    sums are 1-periodic in every coordinate, so the reduction loses
    nothing); floats are converted to the exact dyadic rational they
    denote, and ``dyadic_input`` records that so arc comparisons apply the
    documented slack.
    """

    alpha: Mapping[int, Fraction]
    dyadic_input: bool = False

    def __post_init__(self) -> None:
        if not self.alpha:
            raise DomainError("frequency point needs at least one entry")
        keys = sorted(self.alpha)
        if keys[0] < 2:
            raise DomainError("frequencies start at degree 2")
        if keys != list(range(2, keys[-1] + 1)):
            raise DomainError(
                "frequencies must cover the degrees 2..d exactly")
        table = {j: Fraction(value) % 1 for j, value in self.alpha.items()}
        object.__setattr__(self, "alpha", table)

    @property
    def degree(self) -> int:
        return max(self.alpha)

    def __getitem__(self, j: int) -> Fraction:
        return self.alpha[j]

    @classmethod
    def zero(cls, d: int) -> "FrequencyPoint":
        return cls({j: Fraction(0) for j in range(2, d + 1)})

    @classmethod
    def from_values(cls, values: Sequence[RationalLike]) -> "FrequencyPoint":
        """Build from (alpha_2, ..., alpha_d); floats become exact dyadics."""
        table: Dict[int, Fraction] = {}
        dyadic = False
        for j, value in enumerate(values, start=2):
            if isinstance(value, float):
                dyadic = True
                table[j] = Fraction(value)
            elif isinstance(value, str):
                table[j] = parse_rational(value)
            else:
                table[j] = Fraction(value)
        return cls(table, dyadic_input=dyadic)

    def to_json(self) -> dict:
        return {str(j): format_rational(v)
                for j, v in sorted(self.alpha.items())}


def _coerce_frequency(alpha, d: Optional[int]) -> FrequencyPoint:
    """A FrequencyPoint from one or a {j: value} map, of degree d unless
    d is None."""
    if isinstance(alpha, FrequencyPoint):
        point = alpha
    else:
        point = FrequencyPoint({j: Fraction(v) for j, v in alpha.items()})
    if d is not None and point.degree != d:
        raise DimensionMismatch(
            f"frequency point has degree {point.degree}, form has {d}")
    return point


# ---------------------------------------------------------------------------
# Shared slice machinery
# ---------------------------------------------------------------------------

def _box_fractions(slices: Sequence[Tuple[int, Polynomial]],
                   point: FrequencyPoint,
                   ambient: np.ndarray) -> np.ndarray:
    """Exact-mod-1 phase fractions for every row of ``ambient``, float64."""
    out = np.zeros(ambient.shape[0])
    for j, sliced in slices:
        coeff = point[j]
        if coeff == 0:
            continue
        p, q = coeff.numerator, coeff.denominator
        residues = residues_mod(evaluate_batch(sliced, ambient), q)
        if p * (q - 1) >= 2 ** 62:
            residues = residues.astype(object)
        out += (residues * p % q).astype(np.float64) / float(q)
    return np.mod(out, 1.0)


# ---------------------------------------------------------------------------
# The exponential sums
# ---------------------------------------------------------------------------

def exponential_sum_T(form: HomogeneousForm, y: Sequence[int], alpha,
                      x_bound: int, *, precision: int = 120,
                      budget: Optional[int] = None) -> mpmath.mpc:
    """The lattice-point exponential sum at a frequency point, exactly

        sum over x in the slicing lattice with |x| <= x_bound of
        e(sum_j alpha_j * c_j(x, y)),

    where c_j are the integer slice values.  With Q the least common
    denominator of the frequencies, every point's phase is the integer
    residue sum_j (alpha_j Q) c_j(x, y) mod Q, computed exactly over each
    enumerated block; the sum is then :func:`_phase_sum` of the histogram of
    those residues, so e(.) is evaluated once per distinct residue and the
    result is the same number as the compensated per-point sum.  Every
    enumerated lattice point is charged to ``budget`` (no cap when None).

    Raises:
        ZeroVectorInput: y = 0 or the gradient vanishes at y.
        DomainError: x_bound < 1.
        ResourceLimit: the lattice holds more than ``budget`` points of the
            box.
    """
    if x_bound < 1:
        raise DomainError("x_bound must be at least 1")
    point = _coerce_frequency(alpha, form.degree)
    terms = [(point[j], sliced) for j, sliced in nonzero_slices(form, y)
             if point[j]]
    lattice = slicing_lattice(form, y)
    modulus = math.lcm(1, *(coeff.denominator for coeff, _ in terms))
    weights = [(coeff.numerator * (modulus // coeff.denominator), sliced)
               for coeff, sliced in terms]
    # residues stay below the modulus, so weight * residue + residue fits
    # int64 when modulus * weight < 2^62
    wide = modulus * max((w for w, _ in weights), default=0) >= 2 ** 62
    meter = _Budget(budget, "lattice points enumerated")
    histogram: Dict[int, int] = {}
    for block in enumerate_points(lattice, x_bound):
        meter.charge(len(block))
        phases = np.zeros(len(block), dtype=object if wide else np.int64)
        for weight, sliced in weights:
            residues = residues_mod(evaluate_batch(sliced, block), modulus)
            if wide:
                residues = residues.astype(object)
            phases = (phases + weight * residues) % modulus
        values, counts = np.unique(phases, return_counts=True)
        for r, count in zip(values.tolist(), counts.tolist()):
            histogram[r] = histogram.get(r, 0) + count
    return _phase_sum(histogram, modulus, precision)


def _phase_sum(histogram: Mapping[int, int], modulus: int,
               precision: int) -> mpmath.mpc:
    """sum over r of histogram[r] * e(r / modulus), at ``precision`` bits.

    Each e(r / modulus) is evaluated once, from the reduced fraction, as the
    per-point sum would evaluate it; the weights multiply exactly and the
    real and imaginary parts are each summed with one final rounding, so
    the result equals the compensated sum of e(.) over every point.
    """
    with mpmath.mp.workprec(precision):
        real: List[mpmath.mpf] = []
        imag: List[mpmath.mpf] = []
        for r, count in sorted(histogram.items()):
            g = math.gcd(r, modulus)
            value = mpmath.expjpi(2 * mpmath.mpf(r // g) / (modulus // g))
            real.append(mpmath.fmul(count, value.real, exact=True))
            imag.append(mpmath.fmul(count, value.imag, exact=True))
        return mpmath.mpc(mpmath.fsum(real), mpmath.fsum(imag))


def exponential_sum_U(form: HomogeneousForm, y: Sequence[int], alpha,
                      x_bound: int, eta_samples: int,
                      seed: int = 0) -> float:
    """Sampled supremum of the box sum with a linear twist.

    Evaluates |sum over box coordinates xi of e(phase(xi) + eta . xi)| at
    eta = 0 and at a low-discrepancy sample of eta values in the unit cube
    (the sample count is rounded up to a power of two for balance), and
    returns the maximum.  This is a certified lower bound for the true
    supremum over eta, and every consumer treats it as such.

    Raises:
        ZeroVectorInput: y = 0 or the gradient vanishes at y.
        DomainError: bad bounds or sample count.
    """
    if x_bound < 1:
        raise DomainError("x_bound must be at least 1")
    if eta_samples < 1:
        raise DomainError("eta_samples must be positive")
    point = _coerce_frequency(alpha, form.degree)
    lattice = slicing_lattice(form, y)
    bounds = box_profile(lattice, x_bound).int_bounds
    grid = next(grid_chunks([-b for b in bounds], bounds))
    ambient = grid @ np.asarray(lattice.basis, dtype=np.int64)
    base = _box_fractions(nonzero_slices(form, y), point, ambient)

    exponent = max(0, (eta_samples - 1).bit_length())
    from . import sobol     # parsed only by the commands that sample
    table, offset = next(sobol.tiles(lattice.rank, exponent, seed,
                                     1 << exponent))
    # the points u = ((2u - 1) + 1) / 2, exactly
    centred = (table ^ offset[:, None]).view(np.int32)
    etas = np.vstack([np.zeros(lattice.rank),
                      (centred.T * sobol.CENTRED_UNIT + 1) * 0.5])
    best = 0.0
    for start in range(0, etas.shape[0], 64):
        chunk = etas[start:start + 64]
        phases = base[None, :] + chunk @ grid.T.astype(np.float64)
        sums = np.exp(2j * np.pi * phases).sum(axis=1)
        best = max(best, float(np.abs(sums).max()))
    return best


# ---------------------------------------------------------------------------
# Difference machinery and the square-and-difference check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeylReport:
    """Measured square-and-difference ratios for one configuration.

    ``ratios`` holds LHS / RHS-core per frequency point tried, where
    LHS = U^(2^i) (sampled sup) and RHS-core is the boxed sum of absolute
    differenced inner sums; the check passes when no ratio exceeds one
    beyond float tolerance.
    """

    i: int
    x_bound: int
    lattice_points: int
    trials: int
    seed: int
    ratios: Tuple[float, ...]
    max_ratio: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "i": self.i,
            "x_bound": self.x_bound,
            "lattice_points": self.lattice_points,
            "trials": self.trials,
            "seed": self.seed,
            "ratios": list(self.ratios),
            "max_ratio": self.max_ratio,
            "passed": self.passed,
        }


def weyl_inequality_check(form: HomogeneousForm, y: Sequence[int], alpha,
                          i: int, x_bound: int, *, trials: int = 0,
                          seed: int = 0, eta_samples: int = 32,
                          budget: Optional[int] = DEFAULT_COUNT_BUDGET,
                          ) -> WeylReport:
    """Measure the i-fold square-and-difference inequality directly.

    For the given frequency point (plus ``trials`` random rational ones)
    the sampled-sup sum U is raised to the 2^i-th power and compared with

        (#B)^(2^i - i - 1) * sum over shifts h_1..h_i of |inner(h)|,

    where each shift ranges over the difference box (twice the box
    half-widths) and inner(h) sums e(differenced phase) over the exact
    shrunken window on which all subset shifts stay inside the box.  The
    differenced phase is evaluated by subset inclusion-exclusion on the
    exact base fractions, which agrees with the difference polynomial.

    The shifts run in ``itertools.product`` order.  For each prefix
    h_1..h_(i-1) the last shifts h_i are batched by window shape (see
    :func:`_last_shift_sums`); each shift tuple's window size times 2^i is
    charged to ``budget`` in that order before the prefix is computed, and
    the |inner(h)| are added one at a time in that order, so the ratios
    and the point at which ResourceLimit fires are those of a loop over the
    single tuples.  A prefix holds index tables of O(#shifts * (rank + 2^i))
    entries and the blocks of one window shape, at most 2^(i + rank) times
    the box; the product of the shifts is never held.

    Raises:
        IndexOutOfRange: i outside 1..d-1.
        DomainError: ``trials`` < 0.
        ResourceLimit: the shift enumeration exceeds the budget.
    """
    d = form.degree
    if not 1 <= i <= d - 1:
        raise IndexOutOfRange(f"difference count {i} outside 1..{d - 1}")
    if trials < 0:
        raise DomainError("trials must be nonnegative")
    point = _coerce_frequency(alpha, d)
    lattice = slicing_lattice(form, y)
    bounds = box_profile(lattice, x_bound).int_bounds
    grid = next(grid_chunks([-b for b in bounds], bounds))
    ambient = grid @ np.asarray(lattice.basis, dtype=np.int64)
    slices = nonzero_slices(form, y)
    box_count = grid.shape[0]
    ledger = _Budget(budget, "window cells summed")

    rng = random.Random(seed)
    points = [point]
    for _ in range(trials):
        points.append(FrequencyPoint(
            {j: Fraction(rng.randrange(2 ** 16), 2 ** 16)
             for j in range(2, d + 1)}))

    cells = np.arange(box_count).reshape([2 * b + 1 for b in bounds])
    shifts = next(grid_chunks([-2 * b for b in bounds],
                              [2 * b for b in bounds]))
    groups = _shape_groups(shifts)
    ratios = []
    for trial_point in points:
        base = _box_fractions(slices, trial_point, ambient)
        total_inner = 0.0
        for prefix in itertools.product(shifts, repeat=i - 1):
            for value in _last_shift_sums(base, cells, prefix, shifts,
                                          groups, ledger):
                total_inner += value
        lhs = exponential_sum_U(form, y, trial_point, x_bound,
                                eta_samples, seed=seed) ** (2 ** i)
        rhs = box_count ** (2 ** i - i - 1) * total_inner
        ratios.append(lhs / rhs)
    max_ratio = max(ratios)
    return WeylReport(i=i, x_bound=x_bound, lattice_points=box_count,
                      trials=trials, seed=seed, ratios=tuple(ratios),
                      max_ratio=max_ratio,
                      passed=max_ratio <= 1 + 1e-9)


def _shape_groups(shifts: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
    """The rows of ``shifts`` grouped by |h|: (one |h| per group, the
    indices of its rows in increasing order)."""
    magnitudes = np.abs(shifts)
    keys = np.ravel_multi_index(magnitudes.T, magnitudes.max(axis=0) + 1)
    order = np.argsort(keys, kind="stable")
    _, first = np.unique(keys[order], return_index=True)
    return magnitudes[order[first]], np.split(order, first[1:])


def _last_shift_sums(base: np.ndarray, cells: np.ndarray,
                     prefix: Sequence[np.ndarray], shifts: np.ndarray,
                     groups: Tuple[np.ndarray, List[np.ndarray]],
                     ledger: _Budget) -> List[float]:
    """|inner(prefix + (h,))| for the last shifts h of ``shifts`` whose
    window is not empty, in the order of ``shifts``; each window size
    times 2^i is charged to ``ledger`` first, in the same order.

    ``base`` holds the box's phases in the C order of ``cells``, which
    numbers them.  Axis c of the window of h_1..h_i has width
    2 B_c + 1 - sum_t |h_t[c]| and starts at index -sum_t min(h_t[c], 0);
    the block of a subset of the shifts starts that subset's sum further
    on.  The last shifts with one |h| share a window shape and form one
    of ``groups`` (see :func:`_shape_groups`), whose blocks are gathered
    and summed as one batch with the arithmetic of a single tuple: the
    signed blocks added in subset order to zeros, then e(phase) summed
    pairwise over each window.
    """
    i = len(prefix) + 1
    # subset bit t < i - 1 picks prefix[t] = h_(t+1); bit i - 1 picks h_i
    head = np.asarray(prefix, dtype=np.int64).reshape(i - 1, cells.ndim)
    room = np.array(cells.shape) - np.abs(head).sum(axis=0)
    if room.min() <= 0:             # h_i = 0 has the widest window
        return []
    widths = room - np.abs(shifts)
    kept = (widths > 0).all(axis=1)
    for size in widths[kept].prod(axis=1).tolist():
        ledger.charge(size << i)
    magnitudes, members = groups
    windows = room - magnitudes
    nonempty = np.flatnonzero((windows > 0).all(axis=1))

    low = -np.minimum(head, 0).sum(axis=0) - np.minimum(shifts, 0)
    steps = np.array(cells.strides) // cells.itemsize
    corners = []                    # flat index of each block's first cell
    for mask in range(1 << i):
        corner = low + sum(head[t] for t in range(i - 1) if mask >> t & 1)
        if mask >> (i - 1):
            corner = corner + shifts
        corners.append(corner @ steps)
    corners = np.stack(corners)                 # (2^i, #shifts)
    signs = [(-1) ** (i - bin(mask).count("1")) for mask in range(1 << i)]

    values = np.zeros(shifts.shape[0])
    for g in nonempty.tolist():
        window = cells[tuple(slice(0, w) for w in windows[g].tolist())]
        rows = members[g]
        blocks = base[corners[:, rows, None] + window.ravel()]
        phase = np.zeros(blocks.shape[1:])
        for mask in range(1 << i):
            phase = phase + signs[mask] * blocks[mask]
        values[rows] = np.abs(np.exp(2j * np.pi * phase).sum(axis=1))
    return values[kept].tolist()


# ---------------------------------------------------------------------------
# Major-arc membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MajorArcWitness:
    """A single-denominator rational approximation certificate.

    q is at most the window W, the numerators satisfy 0 <= b_j <= q, and
    every distance |alpha_j - b_j / q| is within W * x_bound^-j (plus the
    dyadic slack when the input frequencies were floats).
    """

    q: int
    numerators: Dict[int, int]
    distances: Dict[int, Fraction]
    window: Fraction

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "numerators": {str(j): b for j, b in
                           sorted(self.numerators.items())},
            "distances": {str(j): format_rational(v)
                          for j, v in sorted(self.distances.items())},
            "window": format_rational(self.window),
        }


def major_arc_witness(alpha, x_bound: int, window: RationalLike, *,
                      budget: Optional[int] = DEFAULT_COUNT_BUDGET,
                      ) -> Optional[MajorArcWitness]:
    """Smallest-denominator approximation within the arc window, if any.

    Scans q = 1..floor(window) in order, rounds each q * alpha_j to the
    nearest integer, and returns the first q for which every distance
    |alpha_j - b_j/q| is at most window * x_bound^-j.  Deterministic: the
    smallest admissible q wins.  Returns None when no q qualifies.  Each q
    tried is charged one unit to ``budget``.

    Raises:
        DomainError: window or x_bound below 1.
        ResourceLimit: more denominators are tried than the budget allows.
    """
    point = _coerce_frequency(alpha, None)
    window = Fraction(window) if not isinstance(window, str) \
        else parse_rational(window)
    if window < 1 or x_bound < 1:
        raise DomainError("window and x_bound must be at least 1")
    slack = FLOAT_SLACK if point.dyadic_input else Fraction(0)
    meter = _Budget(budget, "denominators tried")
    for q in range(1, math.floor(window) + 1):
        meter.charge(1)
        numerators: Dict[int, int] = {}
        distances: Dict[int, Fraction] = {}
        good = True
        for j, value in sorted(point.alpha.items()):
            b = round(q * value)
            distance = abs(value - Fraction(b, q))
            if distance > window * Fraction(1, x_bound ** j) + slack:
                good = False
                break
            numerators[j] = b
            distances[j] = distance
        if good:
            return MajorArcWitness(q=q, numerators=numerators,
                                   distances=distances, window=window)
    return None


# ---------------------------------------------------------------------------
# Nested per-degree arc membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NestedArcReport:
    """Outcome of the nested per-degree membership test.

    ``assignment`` maps each degree i to its chosen pair (q_i, a_i) when
    the point is a member; ``margins`` holds the exact relative margin of
    each distance condition along the accepted assignment, and ``slack``
    is their minimum.
    """

    member: bool
    start_degree: int
    assignment: Optional[Dict[int, Tuple[int, int]]]
    margins: Dict[int, Fraction]
    slack: Optional[Fraction]

    def to_json(self) -> dict:
        return {
            "member": self.member,
            "start_degree": self.start_degree,
            "assignment": None if self.assignment is None else {
                str(i): list(pair)
                for i, pair in sorted(self.assignment.items())},
            "margins": {str(i): format_rational(v)
                        for i, v in sorted(self.margins.items())},
            "slack": None if self.slack is None
            else format_rational(self.slack),
        }


def _int_root(value: int, k: int) -> int:
    """floor(value ** (1/k)) for nonnegative integers, exactly."""
    if value < 0 or k < 1:
        raise DomainError("root arguments out of range")
    if value in (0, 1) or k == 1:
        return value
    lo, hi = 1, 1 << (value.bit_length() // k + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= value:
            lo = mid
        else:
            hi = mid
    return lo


def _power_bound(x_bound: int, exponent: Fraction, y_sup: int, y_power: int,
                 mu1_sq: int, mu_power: int) -> Tuple[int, int]:
    """The bound X^exponent * y_sup^y_power * mu1^mu_power as (N, 2r).

    Returns integers (N, k) so that "value <= bound" can be decided as
    value^k <= N; k = 2 * denominator(exponent) clears both the fractional
    power of X and the square root in mu1.
    """
    p, r = exponent.numerator, exponent.denominator
    if p < 0:
        raise DomainError("negative exponent needs the rational comparator")
    n = (x_bound ** (2 * p)) * (y_sup ** (2 * r * y_power)) \
        * (mu1_sq ** (r * mu_power))
    return n, 2 * r


def _distance_bound(x_bound: int, omega: Fraction, degree: int, y_sup: int,
                    y_power: int, mu1_sq: int,
                    mu_power: int) -> Tuple[Fraction, int]:
    """The bound X^(omega - degree) * y_sup^y_power * mu1^mu_power.

    Returned as (B, k): the comparison "delta <= bound" is decided as
    delta^k <= B with k = 2 * denominator(omega); B is an exact rational
    (the X exponent may be negative).
    """
    p, r = omega.numerator, omega.denominator
    k = 2 * r
    x_exp = 2 * (p - degree * r)
    if x_exp >= 0:
        x_part = Fraction(x_bound ** x_exp)
    else:
        x_part = Fraction(1, x_bound ** (-x_exp))
    return (x_part * y_sup ** (k * y_power) * mu1_sq ** (r * mu_power)), k


def arc_geometry(form: HomogeneousForm, y: Sequence[int]) -> Tuple[int, int]:
    """(sup norm of y, squared first-minimum proxy of the slicing lattice)."""
    y_sup = max(abs(int(v)) for v in y)
    if y_sup == 0:
        raise ZeroVectorInput("base point must be nonzero")
    return y_sup, min(slicing_lattice(form, y).minima_proxy)


def nested_arc_membership(alpha, x_bound: int, profile: ExponentProfile,
                          y_sup: int, mu1_sq: int, *, start_degree: int = 2,
                          budget: Optional[int] = DEFAULT_COUNT_BUDGET,
                          ) -> NestedArcReport:
    """Exact membership in the nested per-degree arc system.

    A frequency point belongs to the arcs started at ``start_degree`` when
    integers q_i, a_i exist for every degree i from d down to start_degree
    with

        1 <= q_i <= X^nu_i * |y|^(d-i) * mu_1,     0 <= a_i <= Q_i,
        |alpha_i Q_i - a_i| <= X^(omega_i - i) * |y|^(D_(d-i)) * mu_1^(d-i+1),

    where Q_i is the product of the chosen q_l for l >= i.  All constants
    are one; all comparisons clear the fractional exponents and the square
    root of the minimum proxy, so the decision is exact.  The search
    walks denominators depth-first from the top degree down.

    Raises:
        DomainError: invalid bounds or start degree.
        ResourceLimit: the denominator search exceeds the budget.
    """
    d = profile.d
    point = _coerce_frequency(alpha, d)
    if x_bound < 1 or y_sup < 1 or mu1_sq < 1:
        raise DomainError("x_bound, y_sup and mu1_sq must be at least 1")
    if not 2 <= start_degree <= d:
        raise DomainError(f"start degree {start_degree} outside 2..{d}")
    slack = FLOAT_SLACK if point.dyadic_input else Fraction(0)
    ledger = _Budget(budget, "arc-search work units")
    x_bits = max(1, x_bound.bit_length())
    y_bits = max(1, y_sup.bit_length())
    mu_bits = max(1, mu1_sq.bit_length())

    caps = {}
    bounds_table = {}
    for i in range(start_degree, d + 1):
        nu = profile.nu[i]
        ledger.charge(1 + (2 * nu.numerator * x_bits
                           + 2 * nu.denominator * (d - i) * y_bits
                           + nu.denominator * mu_bits) // 256)
        n, k = _power_bound(x_bound, nu, y_sup, d - i, mu1_sq, 1)
        caps[i] = _int_root(n, k)
        omega = profile.omega[i]
        p, r = omega.numerator, omega.denominator
        ledger.charge(1 + (2 * abs(p - i * r) * x_bits
                           + 2 * r * profile.D(d - i) * y_bits
                           + r * (d - i + 1) * mu_bits) // 256)
        bounds_table[i] = _distance_bound(x_bound, omega, i, y_sup,
                                          profile.D(d - i), mu1_sq,
                                          d - i + 1)

    assignment: Dict[int, Tuple[int, int]] = {}
    margins: Dict[int, Fraction] = {}

    def descend(i: int, q_product: int) -> bool:
        if i < start_degree:
            return True
        bound, k = bounds_table[i]
        for q in range(1, caps[i] + 1):
            big_q = q * q_product
            a = round(point[i] * big_q)
            delta = abs(point[i] * big_q - a)
            effective = max(Fraction(0), delta - slack)
            ledger.charge(1 + k * (effective.numerator.bit_length()
                                   + effective.denominator.bit_length())
                          // 256)
            lhs = effective ** k
            if lhs <= bound:
                assignment[i] = (q, a)
                margins[i] = 1 - lhs / bound if bound else Fraction(0)
                if descend(i - 1, big_q):
                    return True
                del assignment[i]
                del margins[i]
        return False

    if descend(d, 1):
        return NestedArcReport(member=True, start_degree=start_degree,
                               assignment=dict(assignment),
                               margins=dict(margins),
                               slack=min(margins.values()))
    return NestedArcReport(member=False, start_degree=start_degree,
                           assignment=None, margins={}, slack=None)
