"""Tests for the exponential sums and arc-membership machinery."""

import cmath
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import qmc

from linecount import expsums
from linecount.cli import _jsonable
from linecount.counting import _Budget as Budget
from linecount.errors import (
    DimensionMismatch,
    DomainError,
    IndexOutOfRange,
    ResourceLimit,
    ZeroVectorInput,
)
from linecount.exponents import derive_profile, preset_profile
from linecount.expsums import (
    FrequencyPoint,
    arc_geometry,
    exponential_sum_T,
    exponential_sum_U,
    major_arc_witness,
    nested_arc_membership,
    weyl_inequality_check,
)
from linecount.fixtures import (
    QUINTIC_BASE_POINT,
    diagonal_quadric,
    fermat_form,
    fermat_quintic,
    random_dense_form,
)
from linecount.forms import (
    Polynomial,
    grid_chunks,
    integer_slice_form,
    nonzero_slices,
)
from linecount.lattice import box_profile, enumerate_points, slicing_lattice
from lattice_oracle import pullback
from point_blocks import point_tuples

QUINTIC = fermat_quintic()
YQ = QUINTIC_BASE_POINT
CUBIC = fermat_form(3, 3)
YC = (1, -1, 0)


def direct_float_sum(form, y, alpha_map, x_bound):
    """Independent float-arithmetic route to the lattice exponential sum."""
    lattice = slicing_lattice(form, y)
    slices = {j: integer_slice_form(form, y, j)
              for j in range(2, form.degree + 1)}
    total = 0j
    for x in point_tuples(enumerate_points(lattice, x_bound)):
        phase = sum(float(alpha_map.get(j, 0)) * float(slices[j](x))
                    for j in slices)
        total += cmath.exp(2j * cmath.pi * phase)
    return total


def per_point_T(form, y, point, x_bound, precision=120):
    """The lattice sum T point by point, as it was computed before the
    phase histogram: an exact Fraction phase and one e(.) per point, each
    part summed by ``fsum``."""
    slices = nonzero_slices(form, y)
    real, imag = [], []
    with mpmath.mp.workprec(precision):
        for x in point_tuples(enumerate_points(slicing_lattice(form, y),
                                               x_bound)):
            phase = Fraction(0)
            for j, sliced in slices:
                if point[j]:
                    phase += point[j] * sliced(x)
            phase -= math.floor(phase)
            value = mpmath.expjpi(
                2 * mpmath.mpf(phase.numerator) / phase.denominator)
            real.append(value.real)
            imag.append(value.imag)
        return mpmath.mpc(mpmath.fsum(real), mpmath.fsum(imag))


T_CASES = ((QUINTIC, YQ), (CUBIC, YC),
           (random_dense_form(3, 3, 41), (1, 0, 2)))

#: Frequencies a/b with a small denominator, so the common denominator
#: keeps the residues in int64.
RATIONALS = st.one_of(st.just(Fraction(0)),
                      st.fractions(0, 1, max_denominator=10 ** 4))
#: Binary floats k / 2^e with e <= 80: the common denominator reaches
#: 2^80, so the residues run in Python ints.
DYADICS = st.builds(lambda k, e: float(Fraction(k, 2 ** e)),
                    st.integers(0, 2 ** 53 - 1), st.integers(0, 80))


def phase_polynomial(form, y, basis, alpha):
    """The phase as an exact polynomial in the lattice coordinates: every
    integer slice with x = sum_m xi_m b_m substituted, combined with the
    frequencies into sum_j alpha_j c_j(B^T xi), rational coefficients."""
    point = expsums._coerce_frequency(alpha, form.degree)
    n = form.nvars
    if any(len(row) != n for row in basis):
        raise DimensionMismatch("basis rows must have the ambient length")
    # slices of different degree share no monomial, so the sum is a merge
    combined = {exponents: point[j] * value
                for j, sliced in nonzero_slices(form, y) if point[j]
                for exponents, value in sliced.coeffs.items()}
    return pullback(Polynomial(nvars=n, coeffs=combined), basis)


def random_point(d, rng, denominator=997):
    return FrequencyPoint({j: Fraction(rng.randrange(denominator),
                                       denominator)
                           for j in range(2, d + 1)})


class TestFrequencyPoint:
    def test_zero(self):
        point = FrequencyPoint.zero(5)
        assert point.degree == 5
        assert all(point[j] == 0 for j in range(2, 6))

    def test_from_strings(self):
        point = FrequencyPoint.from_values(["1/3", "2/5", "0/1", "7/9"])
        assert point[2] == Fraction(1, 3)
        assert point[5] == Fraction(7, 9)
        assert not point.dyadic_input

    def test_floats_become_exact_dyadics(self):
        point = FrequencyPoint.from_values([0.5, 0.25])
        assert point[2] == Fraction(1, 2)
        assert point[3] == Fraction(1, 4)
        assert point.dyadic_input

    def test_reduction_mod_one(self):
        point = FrequencyPoint({2: Fraction(7, 5), 3: Fraction(-1, 3)})
        assert point[2] == Fraction(2, 5)
        assert point[3] == Fraction(2, 3)

    def test_rejects_gap_in_degrees(self):
        with pytest.raises(DomainError):
            FrequencyPoint({2: Fraction(0), 4: Fraction(0)})

    def test_rejects_degree_below_two(self):
        with pytest.raises(DomainError):
            FrequencyPoint({1: Fraction(0), 2: Fraction(0)})

    def test_json(self):
        point = FrequencyPoint({2: Fraction(1, 3), 3: Fraction(0)})
        assert _jsonable(point.alpha) == {"2": "1/3", "3": "0"}


class TestExponentialSumT:
    def test_zero_frequency_counts_box(self):
        value = exponential_sum_T(QUINTIC, YQ, FrequencyPoint.zero(5), 1)
        assert abs(value - 27) < 1e-12

    def test_zero_frequency_larger_box(self):
        value = exponential_sum_T(QUINTIC, YQ, FrequencyPoint.zero(5), 2)
        assert abs(value - 125) < 1e-12

    def test_modulus_never_exceeds_zero_value(self):
        rng = random.Random(11)
        top = abs(exponential_sum_T(QUINTIC, YQ, FrequencyPoint.zero(5), 1))
        for _ in range(200):
            value = exponential_sum_T(QUINTIC, YQ, random_point(5, rng), 1)
            assert abs(value) <= top + 1e-9

    def test_periodicity_through_reduction(self):
        shifted = {2: Fraction(5, 4), 3: Fraction(1, 3),
                   4: Fraction(9, 7), 5: Fraction(1, 2)}
        value = exponential_sum_T(QUINTIC, YQ, FrequencyPoint(shifted), 2)
        oracle = direct_float_sum(QUINTIC, YQ, shifted, 2)
        assert abs(value - oracle) < 1e-9 * max(1.0, abs(oracle))

    def test_conjugation_symmetry(self):
        rng = random.Random(3)
        for _ in range(20):
            point = random_point(5, rng)
            mirror = FrequencyPoint({j: (1 - v) % 1
                                     for j, v in point.alpha.items()})
            left = exponential_sum_T(QUINTIC, YQ, point, 1)
            right = exponential_sum_T(QUINTIC, YQ, mirror, 1)
            assert abs(left - right.conjugate()) < 1e-9

    def test_matches_direct_float_route(self):
        form = random_dense_form(3, 3, 41)
        y = (1, 0, 2)
        rng = random.Random(5)
        for _ in range(10):
            point = random_point(3, rng)
            value = exponential_sum_T(form, y, point, 3)
            oracle = direct_float_sum(form, y, point.alpha, 3)
            assert abs(value - oracle) <= 1e-8 * max(1.0, abs(oracle))

    def test_accepts_plain_mapping(self):
        value = exponential_sum_T(QUINTIC, YQ, {j: Fraction(0)
                                                for j in range(2, 6)}, 1)
        assert abs(value - 27) < 1e-12

    def test_degree_mismatch(self):
        with pytest.raises(DimensionMismatch):
            exponential_sum_T(QUINTIC, YQ, FrequencyPoint.zero(3), 1)

    def test_zero_base_point(self):
        with pytest.raises(ZeroVectorInput):
            exponential_sum_T(QUINTIC, (0, 0, 0, 0), FrequencyPoint.zero(5), 1)

    def test_bad_bound(self):
        with pytest.raises(DomainError):
            exponential_sum_T(QUINTIC, YQ, FrequencyPoint.zero(5), 0)

    def test_budget(self):
        """The 125 points of the box at X = 2 fit a budget of 125, not 124."""
        value = exponential_sum_T(QUINTIC, YQ, FrequencyPoint.zero(5), 2,
                                  budget=125)
        assert abs(value - 125) < 1e-12
        with pytest.raises(ResourceLimit) as info:
            exponential_sum_T(QUINTIC, YQ, FrequencyPoint.zero(5), 2,
                              budget=124)
        assert info.value.budget == 124

    @given(case=st.sampled_from(T_CASES), x_bound=st.integers(1, 6),
           dyadic=st.booleans(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_histogram_equals_per_point_sum(self, case, x_bound, dyadic,
                                            data):
        """Rational frequencies, or binary floats mixed with them."""
        form, y = case
        values = data.draw(st.lists(
            st.one_of(RATIONALS, DYADICS) if dyadic else RATIONALS,
            min_size=form.degree - 1, max_size=form.degree - 1))
        point = FrequencyPoint.from_values(values)
        assert exponential_sum_T(form, y, point, x_bound) \
            == per_point_T(form, y, point, x_bound)

    @pytest.mark.parametrize("x_bound", [1, 2, 3, 4, 5, 6])
    def test_zero_and_wide_frequencies_equal_per_point_sum(self, x_bound):
        """The zero frequency (common denominator 1); a common denominator
        3 * 2^55, whose residue products pass int64; and 3 * 2^72, which
        does not fit int64 itself."""
        for values in ([0, 0, 0, 0], [0.1, Fraction(1, 3), 0.0, 0.75],
                       [0.1, Fraction(1, 3), 3 * 2.0 ** -72, 0.75]):
            point = FrequencyPoint.from_values(values)
            value = exponential_sum_T(QUINTIC, YQ, point, x_bound)
            assert value == per_point_T(QUINTIC, YQ, point, x_bound)

    def test_precision_is_honoured(self):
        point = random_point(5, random.Random(8))
        for precision in (53, 200):
            assert exponential_sum_T(QUINTIC, YQ, point, 2,
                                     precision=precision) \
                == per_point_T(QUINTIC, YQ, point, 2, precision)


def scipy_eta_U(form, y, alpha, x_bound, eta_samples, seed):
    """exponential_sum_U with its eta values drawn by scipy's Sobol' engine,
    as it was computed before the numpy generator."""
    point = expsums._coerce_frequency(alpha, form.degree)
    lattice = slicing_lattice(form, y)
    bounds = box_profile(lattice, x_bound).int_bounds
    grid = next(grid_chunks([-b for b in bounds], bounds))
    ambient = grid @ np.asarray(lattice.basis, dtype=np.int64)
    base = expsums._box_fractions(nonzero_slices(form, y), point, ambient)
    sampler = qmc.Sobol(d=lattice.rank, scramble=True, seed=seed)
    count = 1 << max(0, (eta_samples - 1).bit_length())
    etas = np.vstack([np.zeros(lattice.rank), sampler.random_base2(
        int(math.log2(count)))])
    best = 0.0
    for start in range(0, etas.shape[0], 64):
        chunk = etas[start:start + 64]
        phases = base[None, :] + chunk @ grid.T.astype(np.float64)
        sums = np.exp(2j * np.pi * phases).sum(axis=1)
        best = max(best, float(np.abs(sums).max()))
    return best


class TestExponentialSumU:
    def test_zero_frequency_equals_box_count(self):
        value = exponential_sum_U(QUINTIC, YQ, FrequencyPoint.zero(5), 1, 8)
        assert value == pytest.approx(27.0, abs=1e-9)

    def test_denominator_beyond_int64(self):
        """alpha_2 = 3 / 2^72: the phases are below 10^-18, so the sum is
        the box count."""
        point = FrequencyPoint.from_values([3 * 2.0 ** -72, 0.0, 0.0, 0.0])
        value = exponential_sum_U(QUINTIC, YQ, point, 1, 8)
        assert value == pytest.approx(27.0, abs=1e-9)

    def test_never_exceeds_box_count(self):
        rng = random.Random(19)
        for _ in range(20):
            value = exponential_sum_U(QUINTIC, YQ, random_point(5, rng),
                                      1, 8, seed=2)
            assert value <= 27.0 + 1e-9

    def test_dominates_untwisted_sum(self):
        rng = random.Random(23)
        for _ in range(10):
            point = random_point(3, rng)
            plain = abs(direct_float_sum(CUBIC, YC, point.alpha, 2))
            value = exponential_sum_U(CUBIC, YC, point, 2, 4, seed=1)
            assert value >= plain - 1e-9

    def test_deterministic_and_monotone_in_samples(self):
        point = FrequencyPoint({2: Fraction(1, 7), 3: Fraction(3, 11)})
        small = exponential_sum_U(CUBIC, YC, point, 2, 8, seed=9)
        again = exponential_sum_U(CUBIC, YC, point, 2, 8, seed=9)
        larger = exponential_sum_U(CUBIC, YC, point, 2, 16, seed=9)
        assert small == again
        assert larger >= small - 1e-12

    def test_bad_sample_count(self):
        with pytest.raises(DomainError):
            exponential_sum_U(CUBIC, YC, FrequencyPoint.zero(3), 2, 0)

    @given(st.sampled_from([(QUINTIC, YQ, 1), (CUBIC, YC, 2),
                            (CUBIC, (1, 2, 0), 3)]),
           st.integers(1, 200),
           st.one_of(st.integers(0, 50), st.integers(2 ** 30, 2 ** 40)),
           st.integers(0, 2 ** 32))
    @settings(max_examples=25, deadline=None)
    def test_equals_scipy_eta_oracle(self, case, eta_samples, seed, draw):
        form, y, x_bound = case
        point = random_point(form.degree, random.Random(draw))
        assert exponential_sum_U(form, y, point, x_bound, eta_samples,
                                 seed=seed) \
            == scipy_eta_U(form, y, point, x_bound, eta_samples, seed)


def _difference_window(bounds, h_tuple):
    """Inclusive per-axis window on which all subset shifts stay inside.

    Coordinate c admits xi_c in [-B_c - sum_t min(h_t[c], 0),
    B_c - sum_t max(h_t[c], 0)]; an empty axis yields None.
    """
    windows = []
    for c, b in enumerate(bounds):
        neg = sum(min(int(h[c]), 0) for h in h_tuple)
        pos = sum(max(int(h[c]), 0) for h in h_tuple)
        lo, hi = -b - neg, b - pos
        if lo > hi:
            return None
        windows.append((lo, hi))
    return windows


def per_shift_weyl(form, y, alpha, i, x_bound, trials=0, seed=0,
                   eta_samples=32, budget=None):
    """weyl_inequality_check as one loop over the single shift tuples
    h_1..h_i in itertools.product order, each with its own window and its
    own charge; returns (ratios, total charge).

    A prefix whose window is already empty is skipped whole: every tuple
    extending it has an empty window and is skipped without a charge.
    """
    d = form.degree
    point = expsums._coerce_frequency(alpha, d)
    lattice = slicing_lattice(form, y)
    bounds = box_profile(lattice, x_bound).int_bounds
    grid = next(grid_chunks([-b for b in bounds], bounds))
    ambient = grid @ np.asarray(lattice.basis, dtype=np.int64)
    slices = nonzero_slices(form, y)
    box_count = grid.shape[0]
    ledger = Budget(budget, "window cells summed")
    rng = random.Random(seed)
    points = [point]
    for _ in range(trials):
        points.append(FrequencyPoint(
            {j: Fraction(rng.randrange(2 ** 16), 2 ** 16)
             for j in range(2, d + 1)}))
    shape = tuple(2 * b + 1 for b in bounds)
    signs = [(-1) ** (i - bin(mask).count("1")) for mask in range(1 << i)]
    shifts = next(grid_chunks([-2 * b for b in bounds],
                              [2 * b for b in bounds]))
    ratios = []
    for trial_point in points:
        base = expsums._box_fractions(slices, trial_point,
                                      ambient).reshape(shape)
        total_inner = 0.0
        for prefix in itertools.product(shifts, repeat=i - 1):
            if _difference_window(bounds, prefix) is None:
                continue
            for last in shifts:
                h_tuple = prefix + (last,)
                windows = _difference_window(bounds, h_tuple)
                if windows is None:
                    continue
                size = 1
                for lo, hi in windows:
                    size *= hi - lo + 1
                ledger.charge(size << i)
                phase = np.zeros(tuple(hi - lo + 1 for lo, hi in windows))
                for mask in range(1 << i):
                    offset = [0] * len(bounds)
                    for t in range(i):
                        if mask >> t & 1:
                            for c, v in enumerate(h_tuple[t]):
                                offset[c] += int(v)
                    block = base[tuple(
                        slice(lo + off + b, hi + off + b + 1)
                        for (lo, hi), off, b in zip(windows, offset,
                                                    bounds))]
                    phase = phase + signs[mask] * block
                total_inner += float(
                    np.abs(np.exp(2j * np.pi * phase).sum()))
        lhs = exponential_sum_U(form, y, trial_point, x_bound,
                                eta_samples, seed=seed) ** (2 ** i)
        rhs = box_count ** (2 ** i - i - 1) * total_inner
        ratios.append(lhs / rhs)
    return ratios, ledger.spent


#: (form, base point) pairs for the Weyl oracle; the dense cubic is drawn
#: by seed.
WEYL_CASES = [(QUINTIC, YQ), (fermat_form(4, 3), (1, -1, 0, 0)),
              (diagonal_quadric(5), (1, 0, 0, 0, 0))]


class TestWeylInequality:
    def test_single_difference_at_zero_is_tight(self):
        report = weyl_inequality_check(CUBIC, YC, FrequencyPoint.zero(3),
                                       1, 2)
        assert report.ratios[0] == pytest.approx(1.0, abs=1e-9)
        assert report.passed

    def test_random_frequencies_single_difference(self):
        report = weyl_inequality_check(CUBIC, YC, FrequencyPoint.zero(3),
                                       1, 3, trials=50, seed=31)
        assert report.trials == 50
        assert len(report.ratios) == 51
        assert report.max_ratio <= 1 + 1e-9
        assert report.passed

    def test_double_difference(self):
        point = FrequencyPoint({2: Fraction(1, 5), 3: Fraction(2, 7)})
        report = weyl_inequality_check(CUBIC, YC, point, 2, 2, trials=3,
                                       seed=7)
        assert report.passed

    def test_quintic_box(self):
        report = weyl_inequality_check(QUINTIC, YQ,
                                       FrequencyPoint.zero(5), 1, 1,
                                       trials=5, seed=13)
        assert report.lattice_points == 27
        assert report.passed

    def test_difference_count_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            weyl_inequality_check(CUBIC, YC, FrequencyPoint.zero(3), 3, 2)

    def test_negative_trials_refused(self):
        with pytest.raises(DomainError, match="trials"):
            weyl_inequality_check(CUBIC, YC, FrequencyPoint.zero(3), 1, 2,
                                  trials=-1)

    def test_budget_exhaustion(self):
        with pytest.raises(ResourceLimit):
            weyl_inequality_check(CUBIC, YC, FrequencyPoint.zero(3), 2, 3,
                                  budget=10)

    @given(st.integers(0, len(WEYL_CASES)), st.integers(0, 50),
           st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
           st.sampled_from([10 ** 3, 10 ** 4, 10 ** 5]))
    @settings(max_examples=30, deadline=None)
    def test_batched_equals_per_shift(self, which, seed, i, x_bound,
                                      trials, budget):
        """The ratios are those of the per-shift loop, ``==`` bit for bit,
        and a budget overrun raises at the same charge.  The cases with
        at most ~10^5 shift tuples run to the end; the larger ones (the
        per-shift loop takes 30 s for i = 3 on the quintic at X = 1) stop
        at the budget."""
        if which == len(WEYL_CASES):
            form, y = random_dense_form(4, 3, seed), (1, 0, 0, 0)
        else:
            form, y = WEYL_CASES[which]
        i = min(i, form.degree - 1)
        if i == 1 or (i, x_bound) == (2, 1):
            budget = None
        alpha = random_point(form.degree, random.Random(seed))
        try:
            want = per_shift_weyl(form, y, alpha, i, x_bound, trials, seed,
                                  budget=budget)[0]
        except ResourceLimit as exc:
            with pytest.raises(ResourceLimit) as got:
                weyl_inequality_check(form, y, alpha, i, x_bound,
                                      trials=trials, seed=seed,
                                      budget=budget)
            assert (str(got.value), got.value.needed) == (str(exc),
                                                          exc.needed)
        else:
            report = weyl_inequality_check(form, y, alpha, i, x_bound,
                                           trials=trials, seed=seed,
                                           budget=budget)
            assert list(report.ratios) == want

    @pytest.mark.parametrize("form, y, i, x_bound", [
        (QUINTIC, YQ, 1, 3), (QUINTIC, YQ, 2, 1),
        (fermat_form(4, 3), (1, -1, 0, 0), 2, 1)])
    def test_budget_boundary(self, form, y, i, x_bound):
        """The check passes at the per-shift loop's total charge and raises
        one below it, having charged that total."""
        alpha = random_point(form.degree, random.Random(5))
        want, total = per_shift_weyl(form, y, alpha, i, x_bound, trials=1,
                                     seed=5)
        report = weyl_inequality_check(form, y, alpha, i, x_bound,
                                       trials=1, seed=5, budget=total)
        assert list(report.ratios) == want
        with pytest.raises(ResourceLimit) as got:
            weyl_inequality_check(form, y, alpha, i, x_bound, trials=1,
                                  seed=5, budget=total - 1)
        assert got.value.needed == total

    @pytest.mark.parametrize("budget", [-1, 0, 1, 1000])
    def test_small_budgets_refuse_like_per_shift(self, budget):
        """Budgets at and below zero refuse at the first tuple whose window
        is not empty, with the per-shift loop's charge."""
        alpha = random_point(5, random.Random(3))
        with pytest.raises(ResourceLimit) as want:
            per_shift_weyl(QUINTIC, YQ, alpha, 2, 1, trials=1, seed=3,
                           budget=budget)
        with pytest.raises(ResourceLimit) as got:
            weyl_inequality_check(QUINTIC, YQ, alpha, 2, 1, trials=1,
                                  seed=3, budget=budget)
        assert (str(got.value), got.value.needed) \
            == (str(want.value), want.value.needed)

    def test_refusal_tabulates_nothing(self):
        """A run whose charges overrun the budget is refused at the charge
        the shift loop would cross, before the box, the (4B + 1)^3 shifts
        and their index tables exist (which took 67 MB at X = 20)."""
        point = FrequencyPoint({2: Fraction(1, 3), 3: Fraction(1, 5),
                                4: Fraction(2, 7), 5: Fraction(1, 2)})
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit) as got:
                weyl_inequality_check(QUINTIC, YQ, point, 1, 20,
                                      budget=10 ** 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.value.needed == 10005722
        assert peak < 2 ** 22

    def test_report_json(self):
        report = weyl_inequality_check(CUBIC, YC, FrequencyPoint.zero(3),
                                       1, 2)
        data = _jsonable(report)
        assert data["passed"] is True
        assert data["i"] == 1
        assert len(data["ratios"]) == 1


class TestDifferencedPhase:
    def test_phase_polynomial_evaluates_like_slices(self):
        basis = slicing_lattice(QUINTIC, YQ).basis
        point = FrequencyPoint({2: Fraction(1, 3), 3: Fraction(1, 5),
                                4: Fraction(2, 7), 5: Fraction(1, 2)})
        poly = phase_polynomial(QUINTIC, YQ, basis, point)
        rng = random.Random(4)
        for _ in range(10):
            xi = [rng.randint(-3, 3) for _ in range(len(basis))]
            x = [sum(b[i] * c for b, c in zip(basis, xi))
                 for i in range(4)]
            direct = sum(point[jj] * integer_slice_form(QUINTIC, YQ, jj)(x)
                         for jj in range(2, 6))
            assert poly(xi) == direct


class TestMajorArcWitness:
    def test_half_integer_frequencies(self):
        point = FrequencyPoint({j: Fraction(1, 2) for j in range(2, 6)})
        witness = major_arc_witness(point, 10, 4)
        assert witness is not None
        assert witness.q == 2
        assert all(v == 0 for v in witness.distances.values())
        assert witness.numerators == {j: 1 for j in range(2, 6)}

    def test_zero_needs_denominator_one(self):
        witness = major_arc_witness(FrequencyPoint.zero(5), 100, 5)
        assert witness is not None
        assert witness.q == 1
        assert all(b == 0 for b in witness.numerators.values())

    def test_exact_sixths(self):
        point = FrequencyPoint({2: Fraction(1, 6), 3: Fraction(5, 6),
                                4: Fraction(1, 6), 5: Fraction(5, 6)})
        witness = major_arc_witness(point, 10, 6)
        assert witness is not None
        assert witness.q == 6
        assert all(v == 0 for v in witness.distances.values())

    def test_generic_point_has_no_witness(self):
        tail = Fraction(math.sqrt(5)).limit_denominator(10 ** 15) % 1
        point = FrequencyPoint({2: Fraction(0), 3: Fraction(0),
                                4: Fraction(0), 5: tail})
        assert major_arc_witness(point, 1000, 10) is None

    def test_monotone_in_window(self):
        point = FrequencyPoint({j: Fraction(1, 3) for j in range(2, 6)})
        narrow = major_arc_witness(point, 10, 3)
        wide = major_arc_witness(point, 10, 8)
        assert narrow is not None and wide is not None
        assert wide.q <= narrow.q

    def test_float_input_gets_slack(self):
        value = 0.5 + 2 ** -50
        point = FrequencyPoint.from_values([value] * 4)
        witness = major_arc_witness(point, 10 ** 6, 2)
        assert witness is not None
        assert witness.q == 2

    def test_bad_window(self):
        with pytest.raises(DomainError):
            major_arc_witness(FrequencyPoint.zero(5), 10, Fraction(1, 2))

    def test_budget_counts_denominators_tried(self):
        """Each q tried costs one unit: the scan that finds q = 6 fits a
        budget of 6 and not of 5, and a scan that finds nothing costs
        floor(window)."""
        point = FrequencyPoint({2: Fraction(1, 6), 3: Fraction(5, 6),
                                4: Fraction(1, 6), 5: Fraction(5, 6)})
        assert major_arc_witness(point, 10, 6, budget=6).q == 6
        with pytest.raises(ResourceLimit) as refused:
            major_arc_witness(point, 10, 6, budget=5)
        assert str(refused.value) == ("the run needs at least 6 "
                                      "denominators tried, more than the "
                                      "budget of 5")
        tail = FrequencyPoint({2: Fraction(0), 3: Fraction(0),
                               4: Fraction(0), 5: Fraction(1, 11)})
        assert major_arc_witness(tail, 1000, Fraction(21, 2),
                                 budget=10) is None
        with pytest.raises(ResourceLimit):
            major_arc_witness(tail, 1000, Fraction(21, 2), budget=9)

    def test_json(self):
        witness = major_arc_witness(FrequencyPoint.zero(5), 10, 3)
        data = _jsonable(witness)
        assert data["q"] == 1
        assert data["window"] == "3"


def tenth_profile():
    """Hand profile with all exponents on a denominator-10 grid."""
    d = 5
    theta = {j: Fraction(1, 10) for j in range(2, d + 1)}
    k = {j: Fraction(10) for j in range(2, d + 1)}
    return derive_profile(d, theta, k, Fraction(1, 1250), Fraction(1, 3000),
                          {j: Fraction(0) for j in range(2, d + 1)})


class TestNestedArcMembership:
    def test_zero_point_is_member(self):
        report = nested_arc_membership(FrequencyPoint.zero(5), 10 ** 4,
                                       tenth_profile(), 1, 1)
        assert report.member
        assert report.assignment == {i: (1, 0) for i in range(2, 6)}
        assert report.slack == 1

    def test_structured_rational_member(self):
        point = FrequencyPoint({2: Fraction(1, 6), 3: Fraction(5, 6),
                                4: Fraction(1, 6), 5: Fraction(1, 3)})
        report = nested_arc_membership(point, 10 ** 4, tenth_profile(), 1, 1)
        assert report.member
        assert report.assignment[5] == (3, 1)
        assert report.assignment[4] == (2, 1)
        assert report.assignment[3] == (1, 5)
        assert report.assignment[2] == (1, 1)
        assert report.slack == 1

    def test_near_miss_is_rejected(self):
        point = FrequencyPoint({2: Fraction(0), 3: Fraction(0),
                                4: Fraction(0),
                                5: Fraction(1, 3) + Fraction(1, 10 ** 9)})
        report = nested_arc_membership(point, 10 ** 4, tenth_profile(), 1, 1)
        assert not report.member
        assert report.assignment is None

    def test_float_input_uses_slack(self):
        point = FrequencyPoint.from_values([1 / 6, 5 / 6, 1 / 6, 1 / 3])
        report = nested_arc_membership(point, 10 ** 4, tenth_profile(), 1, 1)
        assert report.member

    def test_generic_point_not_member(self):
        tail = {j: Fraction(math.sqrt(p)).limit_denominator(10 ** 12) % 1
                for j, p in zip(range(2, 6), (2, 3, 5, 7))}
        report = nested_arc_membership(FrequencyPoint(tail), 50,
                                       tenth_profile(), 1, 1, budget=10 ** 6)
        assert not report.member

    def test_start_degree_skips_lower_levels(self):
        tail = Fraction(math.sqrt(2)).limit_denominator(10 ** 12) % 1
        point = FrequencyPoint({2: tail, 3: tail,
                                4: Fraction(1, 6), 5: Fraction(1, 3)})
        full = nested_arc_membership(point, 10 ** 4, tenth_profile(), 1, 1)
        top = nested_arc_membership(point, 10 ** 4, tenth_profile(), 1, 1,
                                    start_degree=4)
        assert not full.member
        assert top.member
        assert sorted(top.assignment) == [4, 5]

    def test_budget_exhaustion(self):
        tail = {j: Fraction(math.sqrt(p)).limit_denominator(10 ** 12) % 1
                for j, p in zip(range(2, 6), (2, 3, 5, 7))}
        with pytest.raises(ResourceLimit):
            nested_arc_membership(FrequencyPoint(tail), 10 ** 8,
                                  tenth_profile(), 1, 1, budget=20)

    def test_preset_profile_zero_point(self):
        profile = preset_profile("uniform-strict", 5, 3410, 1,
                                 Fraction(1, 1250))
        report = nested_arc_membership(FrequencyPoint.zero(5), 100,
                                       profile, 1, 1, budget=10 ** 6)
        assert report.member
        assert all(pair[0] == 1 for pair in report.assignment.values())

    def test_margins_are_exact(self):
        report = nested_arc_membership(FrequencyPoint.zero(5), 10 ** 4,
                                       tenth_profile(), 1, 1)
        assert all(isinstance(v, Fraction) and v == 1
                   for v in report.margins.values())

    def test_json(self):
        report = nested_arc_membership(FrequencyPoint.zero(5), 100,
                                       tenth_profile(), 1, 1)
        data = _jsonable(report)
        assert data["member"] is True
        assert data["slack"] == "1"
        assert data["assignment"]["5"] == [1, 0]

    def test_bad_start_degree(self):
        with pytest.raises(DomainError):
            nested_arc_membership(FrequencyPoint.zero(5), 100,
                                  tenth_profile(), 1, 1, start_degree=6)


class TestArcGeometry:
    def test_quintic_fixture(self):
        assert arc_geometry(QUINTIC, YQ) == (1, 1)

    def test_scaled_point(self):
        y_sup, mu = arc_geometry(QUINTIC, (0, 0, 2, -2))
        assert y_sup == 2
        assert mu >= 1

    def test_zero_point(self):
        with pytest.raises(ZeroVectorInput):
            arc_geometry(QUINTIC, (0, 0, 0, 0))
