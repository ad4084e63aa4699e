"""Brute-force pair counts, Hessian strata, and tangency dimensions."""

import itertools
import math
import random
import tracemalloc
import warnings
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linecount import counting, forms
from linecount.counting import (
    FallbackFullBox,
    count_fixed_y,
    count_pairs,
    hessian_corank,
    m2_dimension,
    stratum_count,
)
from linecount.errors import (
    DomainError,
    NotOnHypersurface,
    ResourceLimit,
    ZeroVectorInput,
)
from linecount.fixtures import (
    QUINTIC_BASE_POINT,
    diagonal_quadric,
    fermat_form,
    fermat_quintic,
    random_dense_form,
)
from linecount.forms import (
    HomogeneousForm,
    evaluate_batch,
    evaluate_form,
    gradient,
    hessian,
    nonzero_slices,
    parse_form,
    pencil_coefficients,
)
from linecount.lattice import enumerate_points, slicing_lattice

QUINTIC = fermat_quintic()
Y0 = QUINTIC_BASE_POINT
QUADRIC = parse_form("x1*x2 + x3*x4", n_hint=4)


def oracle_pair_count(form, x_bound, y_bound):
    """Direct double loop over the two boxes; shares no slicing logic."""
    n = form.nvars
    total = 0
    for x in itertools.product(range(-x_bound, x_bound + 1), repeat=n):
        if not any(x):
            continue
        for y in itertools.product(range(-y_bound, y_bound + 1), repeat=n):
            if not any(y):
                continue
            if pencil_coefficients(form, x, y).is_line:
                total += 1
    return total


def singular_points_in_box(form, x_bound):
    """All nonzero integer points of the box where the gradient vanishes."""
    box = itertools.product(range(-x_bound, x_bound + 1), repeat=form.nvars)
    return sorted(x for x in box if any(x) and not any(gradient(form, x)))


def lattice_scan(form, y, x_bound):
    """count_fixed_y by a plain scan, whatever the form: the points of the
    slicing lattice at y (the full box when the gradient vanishes at y) at
    which every slice condition of degree 2..d vanishes."""
    if any(gradient(form, y)):
        blocks = enumerate_points(slicing_lattice(form, y), x_bound)
    else:
        box = range(-x_bound, x_bound + 1)
        blocks = [np.array(list(itertools.product(box, repeat=form.nvars)),
                           dtype=np.int64)]
    count = 0
    for block in blocks:
        hit = np.ones(block.shape[0], dtype=bool)
        for _, condition in nonzero_slices(form, y):
            hit &= evaluate_batch(condition, block) == 0
        count += int(hit.sum())
    return count


def diagonal_fiber_charge(form, y, x_bound):
    """The budget the convolution charges for the fiber of a diagonal form
    at y, from the charge's definition: the 2X+1 grid rows of each
    variable of F, plus |left| * |right| for each fold of a half's
    distinct partial sums with the next variable's distinct value vectors
    (c_j)_(j=1..d).  The variables are ordered by their multisets of value
    vectors, all negated when that puts the sorted list of multisets
    first, and go alternately into the two halves."""
    d = form.degree
    box = range(-x_bound, x_bound + 1)
    tables = [[tuple(math.comb(d, j) * a * y[e.index(d)] ** (d - j) * x ** j
                     for j in range(1, d + 1)) for x in box]
              for e, a in form.coeffs.items()]
    signed = [[sorted(tuple(sign * v for v in row) for row in table)
               for table in tables] for sign in (1, -1)]
    keys = min(signed, key=lambda multisets: (sorted(multisets), multisets))
    order = sorted(range(len(tables)), key=keys.__getitem__)
    charge = len(tables) * len(box)
    for half in (order[0::2], order[1::2]):
        sums = None
        for i in half:
            values = set(tables[i])
            if sums is not None:
                charge += len(sums) * len(values)
                values = {tuple(map(sum, zip(u, v)))
                          for u in sums for v in values}
            sums = values
    return charge


def counted(monkeypatch, name):
    """Wrap ``counting.<name>`` and return the list of its argument
    tuples, one per call."""
    calls = []
    original = getattr(counting, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(counting, name, wrapper)
    return calls


class TestCountFixedY:
    def test_quintic_fixture(self):
        assert count_fixed_y(QUINTIC, Y0, 3) == 49

    def test_quadric_fixture(self):
        assert count_fixed_y(QUADRIC, (1, 0, 0, 0), 3) == 91

    def test_x_zero(self):
        assert count_fixed_y(QUINTIC, Y0, 0) == 1
        assert count_fixed_y(QUADRIC, (1, 0, 0, 0), 0) == 1

    def test_quintic_closed_form(self):
        # solutions are exactly x2 = -x1, x4 = -x3
        for x_bound in (1, 2, 5):
            assert count_fixed_y(QUINTIC, Y0, x_bound) \
                == (2 * x_bound + 1) ** 2

    def test_zero_base_point_rejected(self):
        with pytest.raises(ZeroVectorInput):
            count_fixed_y(QUINTIC, (0, 0, 0, 0), 2)

    def test_oracle_equivalence_fixed_y(self):
        rng = random.Random(11)
        for form in (QUINTIC, QUADRIC, fermat_form(3, 3)):
            n = form.nvars
            for _ in range(5):
                y = tuple(rng.randint(-2, 2) for _ in range(n))
                if not any(y):
                    y = (1,) + (0,) * (n - 1)
                expected = 0
                for x in itertools.product(range(-2, 3), repeat=n):
                    pencil = [
                        c == 0
                        for c in _pencil_tail(form, x, y)
                    ]
                    if all(pencil):
                        expected += 1
                assert count_fixed_y(form, y, 2) == expected

    def test_fallback_full_box_warns(self):
        cusp = parse_form("x1^2*x2", n_hint=2)
        with pytest.warns(FallbackFullBox):
            count = count_fixed_y(cusp, (0, 1), 2)
        # gradient vanishes at (0, 1); solutions are the x1 = 0 slab
        assert count == 5

    def test_budget_exhaustion(self):
        with pytest.raises(ResourceLimit) as info:
            count_fixed_y(QUINTIC, Y0, 20, budget=10)
        assert info.value.budget == 10
        assert info.value.needed > 10

    def test_diagonal_refusal_tabulates_nothing(self):
        """A diagonal fiber refused at the charge of its grid rows builds
        none of its (2X + 1)-row value tables (64 MB at X = 2 * 10^5)."""
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit) as info:
                count_fixed_y(diagonal_quadric(5), (1, 0, 0, 0, 0),
                              2 * 10 ** 5, budget=10 ** 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.needed == 5 * (4 * 10 ** 5 + 1)
        assert peak < 2 ** 22

    def test_budget_holds_across_workers(self):
        """One meter charges all 11^3 = 1331 lattice points, so budgets of
        800 and 1330 are refused and 1331 is not."""
        y = (1, 0, 0, 0)
        for budget in (800, 1330):
            with pytest.raises(ResourceLimit) as info:
                count_fixed_y(QUADRIC, y, 5, budget=budget)
            assert info.value.budget == budget
        assert count_fixed_y(QUADRIC, y, 5, budget=1331) == 231

    def test_workers_reduce_the_lattice_once(self, monkeypatch):
        """A form that is not diagonal builds its slicing lattice once, and
        at a vanishing gradient the warning asks for none in addition."""
        calls = counted(monkeypatch, "slicing_lattice")
        assert count_fixed_y(QUADRIC, (1, 0, 0, 0), 3) == 91
        assert len(calls) == 1
        calls.clear()
        with pytest.warns(FallbackFullBox):
            count_fixed_y(parse_form("x1^2*x2", n_hint=2), (0, 1), 2)
        assert len(calls) == 1


@st.composite
def diagonal_cases(draw, max_nvars=6, max_degree=5, min_degree=2):
    """(F, y): F = sum a_i x_i^d with signed a_i, some of them 0 (the
    variable is absent), and a nonzero y in [-2, 2]^n, off F or, half of
    the time, moved onto it by a pair a_i t^d - a_i t^d."""
    n = draw(st.integers(2, max_nvars))
    d = draw(st.integers(min_degree, max_degree))
    a = draw(st.lists(st.sampled_from([-70, -3, -2, -1, 0, 1, 1, 2, 50]),
                      min_size=n, max_size=n).filter(any))
    y = draw(st.lists(st.integers(-2, 2), min_size=n,
                      max_size=n).filter(any))
    if draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        a[i] = draw(st.sampled_from([-2, -1, 1, 3]))
        a[j] = -a[i]
        y = [v if not c else 0 for v, c in zip(y, a)]
        y[i] = y[j] = draw(st.sampled_from([-2, -1, 1, 2]))
    form = HomogeneousForm(nvars=n, degree=d, coeffs={
        tuple(d if k == i else 0 for k in range(n)): c
        for i, c in enumerate(a) if c})
    return form, tuple(y)


class TestDiagonalConvolution:
    """Diagonal forms count their fibers by a convolution over Z; the
    lattice scan stays the oracle."""

    @given(diagonal_cases(), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_lattice_scan(self, case, x_bound):
        form, y = case
        assert counting._is_diagonal(form)
        assert count_fixed_y(form, y, x_bound) \
            == lattice_scan(form, y, x_bound)

    @given(diagonal_cases(min_degree=4))
    @settings(max_examples=40, deadline=None)
    def test_wide_keys_match_lattice_scan(self, case):
        """Degrees 4 and 5 at X = 3, where about a quarter of the cases
        need keys of more than one int64 column."""
        form, y = case
        assert count_fixed_y(form, y, 3) == lattice_scan(form, y, 3)

    @given(diagonal_cases(max_nvars=4, max_degree=4), st.integers(1, 2),
           st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_pair_breakdown_matches_lattice_scan(self, case, x_bound,
                                                 y_bound):
        form, _ = case
        per_y = {y: lattice_scan(form, y, x_bound) - 1
                 for y in itertools.product(range(-y_bound, y_bound + 1),
                                            repeat=form.nvars)
                 if any(y) and evaluate_form(form, y) == 0}
        report = count_pairs(form, x_bound, y_bound, breakdown=True)
        assert report.per_y_breakdown == per_y
        assert report.total == sum(per_y.values())

    @pytest.mark.parametrize("form, y, x_bound, count", [
        (diagonal_quadric(5), (1, 0, 0, 0, 0), 12, 817),
        (diagonal_quadric(5), (3, 4, 0, 0, 5), 16, 7),
        (QUINTIC, Y0, 28, 3249),
        (fermat_form(7, 3), (1, -1, 0, 0, 0, 0, 0), 8, 72097),
    ])
    def test_pinned_counts_equal_the_scan(self, form, y, x_bound, count):
        assert count_fixed_y(form, y, x_bound) == count
        assert lattice_scan(form, y, x_bound) == count

    def test_large_box(self):
        assert count_fixed_y(diagonal_quadric(5), (1, 0, 0, 0, 0), 128) \
            == 87985

    @pytest.mark.parametrize("y", [(1, 1, 0, 0), (1, 1, 2, 2), (2, -1, 1, 0)])
    def test_values_beyond_int64(self, y):
        """Coefficients of 10^18 push c_j past int64: the keys are rows of
        exact object columns."""
        big = 10 ** 18
        form = HomogeneousForm(nvars=4, degree=3, coeffs={
            (3, 0, 0, 0): big, (0, 3, 0, 0): -big, (0, 0, 3, 0): 7,
            (0, 0, 0, 3): -7})
        assert count_fixed_y(form, y, 3) == lattice_scan(form, y, 3)

    def test_counts_beyond_int64(self):
        """x1^2 + ... + x16^2 - x17^2 - ... - x32^2 at e1 with X = 2: x1 = 0
        and the other 31 squares cancel for ~1.9e20 points, against a
        one-variable-at-a-time tally of the sums of a_i x_i^2."""
        n = 32
        a = [1] * (n // 2) + [-1] * (n // 2)
        form = HomogeneousForm(nvars=n, degree=2, coeffs={
            tuple(2 if k == i else 0 for k in range(n)): c
            for i, c in enumerate(a)})
        sums = {0: 1}
        for c in a[1:]:
            tally = {}
            for s, m in sums.items():
                for x in range(-2, 3):
                    tally[s + c * x * x] = tally.get(s + c * x * x, 0) + m
            sums = tally
        assert sums[0] > 2 ** 63
        assert count_fixed_y(form, (1,) + (0,) * (n - 1), 2) == sums[0]

    def test_re_ranked_keys(self, monkeypatch):
        """The quintic's radices at X = 28 multiply to ~2.6e28, so its keys
        are rows of packed columns, re-ranked to match; the quadric's fit
        one int64."""
        calls = counted(monkeypatch, "_row_ids")
        assert count_fixed_y(diagonal_quadric(5), (1, 0, 0, 0, 0), 12) == 817
        assert calls == []
        assert count_fixed_y(QUINTIC, Y0, 28) == 3249
        assert calls

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), max_size=24),
           st.integers(1, 3), st.booleans())
    def test_row_keys_against_sorted_tuples(self, rows, width, wide):
        """Row ids are the ranks of the rows among the distinct rows, and a
        merge sums the counts of equal keys in sorted order, for int64 and
        for object rows beyond int64."""
        rows = [tuple(v * 2 ** 70 if wide else v for v in row[:width])
                for row in rows]
        keys = np.array(rows, dtype=object if wide else np.int64)
        keys = keys.reshape(len(rows), width)
        distinct = sorted(set(rows))
        assert counting._row_ids(keys).tolist() \
            == [distinct.index(row) for row in rows]
        if rows:
            counts = np.arange(1, len(rows) + 1, dtype=np.int64)
            for merged in (keys, keys[:, 0]):
                got_keys, got_counts = counting._merge_histogram(
                    [(merged[:5], counts[:5]), (merged[5:], counts[5:])])
                want: dict = {}
                for key, count in zip(merged.tolist(), counts.tolist()):
                    key = tuple(key) if merged.ndim > 1 else key
                    want[key] = want.get(key, 0) + count
                assert [tuple(k) if merged.ndim > 1 else k
                        for k in got_keys.tolist()] == sorted(want)
                assert got_counts.tolist() == [want[k] for k in sorted(want)]

    def test_no_lattice_and_one_process(self, monkeypatch):
        calls = counted(monkeypatch, "slicing_lattice")
        assert count_fixed_y(QUINTIC, Y0, 3) == 49
        assert calls == []

    def test_budget_boundary(self):
        """The charge is the grid rows plus the histogram entries
        formed."""
        quadric, y = diagonal_quadric(5), (1, 0, 0, 0, 0)
        needed = diagonal_fiber_charge(quadric, y, 5)
        assert needed == 553
        with pytest.raises(ResourceLimit) as info:
            count_fixed_y(quadric, y, 5, budget=needed - 1)
        assert "histogram entries" in str(info.value)
        assert count_fixed_y(quadric, y, 5, budget=needed) == 157


@st.composite
def pencil_cases(draw):
    """(F, X, Y): F = sum a_i x_i^d with n = 2..6, d = 2..4 and signed a_i,
    some of them 0 (the variable is absent), and two distinct bounds X, Y
    in 1..3."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(2, 4))
    a = draw(st.lists(st.sampled_from([-3, -2, -1, -1, 0, 1, 1, 2]),
                      min_size=n, max_size=n).filter(any))
    x_bound, y_bound = draw(st.permutations(range(1, 4)))[:2]
    form = HomogeneousForm(nvars=n, degree=d, coeffs={
        tuple(d if k == i else 0 for k in range(n)): c
        for i, c in enumerate(a) if c})
    return form, x_bound, y_bound


def split_quadric(p, q):
    """x1^2 + .. + x_p^2 - x_(p+1)^2 - .. - x_(p+q)^2."""
    return HomogeneousForm(nvars=p + q, degree=2, coeffs={
        tuple(2 if k == i else 0 for k in range(p + q)):
            1 if i < p else -1 for i in range(p + q)})


class TestPencilPairs:
    """A diagonal pair count without breakdown or stratum is one
    convolution of the pencil over the x-box times the y-box; the y-box
    scan, which ``breakdown=True`` keeps, stays the oracle."""

    @given(pencil_cases(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_scan(self, case, exclude_proportional):
        form, x_bound, y_bound = case
        report = count_pairs(form, x_bound, y_bound,
                             exclude_proportional=exclude_proportional)
        assert report.per_y_breakdown is None
        scan = count_pairs(form, x_bound, y_bound,
                           exclude_proportional=exclude_proportional,
                           breakdown=True)
        assert (report.total, report.proportional_pairs) \
            == (sum(scan.per_y_breakdown.values()), scan.proportional_pairs)
        if exclude_proportional:
            included = count_pairs(form, x_bound, y_bound)
            assert report.total \
                == included.total - included.proportional_pairs

    def test_split_octonary_quadric(self):
        """The n = 8 split quadric at X = Y = 4, as counted by the y-box
        scan, whose 9^8 = 43M rows the pencil convolution never
        evaluates."""
        report = count_pairs(split_quadric(4, 4), 4, 4)
        assert (report.total, report.proportional_pairs) \
            == (51187228672, 2744320)

    def test_no_scan_and_no_fiber(self, monkeypatch):
        tallies = counted(monkeypatch, "_orbit_tally")
        fibers = counted(monkeypatch, "_pairs_at_base_point")
        report = count_pairs(diagonal_quadric(5), 2, 4)
        assert report.total == report.proportional_pairs == 384
        assert tallies == fibers == []


def _pencil_tail(form, x, y):
    """Pencil coefficients of degree >= 1 in x, from the interpolation route
    (independent of the slice-form evaluation used by the counters)."""
    coeffs = pencil_coefficients(form, x, y).coefficients
    return coeffs[1:]


class TestCountPairs:
    def test_oracle_equivalence_small_boxes(self):
        cases = [
            (QUINTIC, 1, 1),
            (QUADRIC, 2, 1),
            (fermat_form(3, 3), 2, 2),
            (fermat_form(4, 3), 1, 1),
        ]
        for form, x_bound, y_bound in cases:
            report = count_pairs(form, x_bound, y_bound)
            assert report.total == oracle_pair_count(form, x_bound, y_bound)

    def test_oracle_equivalence_random_cubic(self):
        form = random_dense_form(3, 3, seed=5)
        report = count_pairs(form, 2, 2)
        assert report.total == oracle_pair_count(form, 2, 2)

    def test_breakdown_identity(self):
        for form, x_bound, y_bound in ((QUINTIC, 2, 1), (QUADRIC, 2, 2)):
            report = count_pairs(form, x_bound, y_bound, breakdown=True)
            assert report.total == sum(report.per_y_breakdown.values())

    def test_transpose_symmetry(self):
        assert count_pairs(QUINTIC, 1, 2).total \
            == count_pairs(QUINTIC, 2, 1).total
        assert count_pairs(QUADRIC, 1, 3).total \
            == count_pairs(QUADRIC, 3, 1).total

    def test_ordered_pairs_counted_both_ways(self):
        report = count_pairs(QUINTIC, 1, 1, breakdown=True)
        x, y = (1, -1, 0, 0), (0, 0, 1, -1)
        assert report.per_y_breakdown[y] > 0
        assert report.per_y_breakdown[x] > 0  # the reversed pair

    def test_proportional_subcount(self):
        report = count_pairs(QUINTIC, 1, 1)
        # 18 nonzero base points on the quintic in the unit box, each with
        # the two proportional partners +-y
        assert report.proportional_pairs == 36
        excluded = count_pairs(QUINTIC, 1, 1, exclude_proportional=True)
        assert excluded.total == report.total - 36
        assert excluded.proportional_pairs == 36

    def test_proportional_pairs_are_line_pairs(self):
        report = count_pairs(QUADRIC, 3, 2)
        assert report.proportional_pairs <= report.total
        # oracle: count proportional pairs directly
        direct = 0
        for x in itertools.product(range(-3, 4), repeat=4):
            if not any(x):
                continue
            for y in itertools.product(range(-2, 3), repeat=4):
                if not any(y):
                    continue
                rank_one = all(
                    x[i] * y[j] == x[j] * y[i]
                    for i in range(4) for j in range(i + 1, 4))
                if rank_one and pencil_coefficients(QUADRIC, x, y).is_line:
                    direct += 1
        assert report.proportional_pairs == direct

    def test_stratified_count(self):
        report = count_pairs(QUINTIC, 1, 1, stratum_rho=2)
        # oracle: both points need corank >= 2 (at least two vanishing
        # coordinates for a diagonal form)
        direct = 0
        for x in itertools.product(range(-1, 2), repeat=4):
            if not any(x):
                continue
            if hessian_corank(QUINTIC, x) < 2:
                continue
            for y in itertools.product(range(-1, 2), repeat=4):
                if not any(y):
                    continue
                if hessian_corank(QUINTIC, y) < 2:
                    continue
                if pencil_coefficients(QUINTIC, x, y).is_line:
                    direct += 1
        assert report.stratified == direct
        assert report.total == count_pairs(QUINTIC, 1, 1).total

    def test_bounds_validated(self):
        with pytest.raises(DomainError):
            count_pairs(QUINTIC, 0, 1)

    @pytest.mark.parametrize("form", [QUINTIC, random_dense_form(4, 3, 0)])
    @pytest.mark.parametrize("rho", [-3, 0, 5, 9])
    def test_stratum_rho_validated(self, form, rho):
        """The corank range stratum_count refuses, on the pencil path of a
        diagonal form and on the base-point listing alike."""
        with pytest.raises(DomainError, match=r"rho must be in 1\.\.4"):
            count_pairs(form, 1, 1, stratum_rho=rho)

    def test_budget_exhaustion(self):
        with pytest.raises(ResourceLimit):
            count_pairs(QUADRIC, 3, 3, budget=50)

    def test_budget_holds_across_workers(self):
        """The scan charges 11699 points: listing the base points (the
        5^2 + 5^2 rows of the two half grids and the 129 zeros of the
        y-box) and the fibers of 128 base points in 9 orbits, none over
        125 points.  Each leader's fiber fits a budget of 10000, but the
        total is charged to it too, so 10000 is refused and 11699 is
        not."""
        assert lister_charge(QUADRIC, 2) == 25 + 25 + 129
        with pytest.raises(ResourceLimit) as info:
            count_pairs(QUADRIC, 2, 2, budget=10000)
        assert info.value.needed > 10000
        assert count_pairs(QUADRIC, 2, 2, budget=11699).total \
            == count_pairs(QUADRIC, 2, 2).total

    def test_budget_boundary_with_repeated_directions(self):
        """Multiples of a direction reuse its fiber but are charged as if
        counted again: the sequential scan needs exactly 11699 points."""
        assert per_base_point_oracle(QUADRIC, 2, 2, False, None)[1] == 11699
        with pytest.raises(ResourceLimit):
            count_pairs(QUADRIC, 2, 2, budget=11698)
        assert count_pairs(QUADRIC, 2, 2, budget=11699).total \
            == count_pairs(QUADRIC, 2, 2).total


class TestFiberEntries:
    """count_fixed_y and count_pairs reach one fiber routine: at every base
    point y, the fixed-y count less the zero vector is y's entry in the
    pair breakdown."""

    @pytest.mark.parametrize("text, n, x_bound, y_bound, base_points, total, "
                             "full_boxes", [
        ("x1*x2 + x3*x4 + x5*x6", 6, 2, 1, 244, 124240, 0),
        ("x1*x2*x3 + x4^3 - x5^3", 5, 2, 2, 360, 44592, 12),
        ("x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x1", 4, 2, 2, 108, 2384, 0),
    ])
    def test_fixed_y_counts_are_the_breakdown(self, text, n, x_bound,
                                               y_bound, base_points, total,
                                               full_boxes):
        form = parse_form(text, n_hint=n)
        report = count_pairs(form, x_bound, y_bound, breakdown=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", FallbackFullBox)
            fixed = {y: count_fixed_y(form, y, x_bound) - 1
                     for y in report.per_y_breakdown}
        assert len(fixed) == base_points
        assert report.total == total
        assert fixed == report.per_y_breakdown
        assert len(caught) == full_boxes == sum(
            not any(gradient(form, y)) for y in fixed)


class TestDirectionReuse:
    """Base points on one line through the origin, and on lines that a
    symmetry of the form maps onto each other, share one fiber count."""

    def test_one_fiber_per_direction(self, monkeypatch):
        """The 120 +-primitive directions fall into the three orbits of
        (1,0,0,0,1), (1,1,1,1,2) and (2,2,1,0,3) under the sign changes and
        the permutations of x1..x4."""
        calls = counted(monkeypatch, "_pairs_at_base_point")
        report = count_pairs(diagonal_quadric(5), 2, 4, breakdown=True)
        assert len(report.per_y_breakdown) == 320
        assert len(calls) == 3
        assert report.total == report.proportional_pairs == 384

    @pytest.mark.parametrize("form, y_bound, fibers", [
        (diagonal_quadric(5), 4, 3),
        (fermat_form(4, 3), 5, 11),
    ])
    def test_workers_enumerate_one_fiber_per_orbit(self, monkeypatch, form,
                                                   y_bound, fibers):
        """The y-box scan (which a breakdown keeps) counts the fiber of
        each orbit leader, so no orbit's fiber is enumerated twice."""
        calls = counted(monkeypatch, "_pairs_at_base_point")
        count_pairs(form, 2, y_bound, breakdown=True)
        assert len(calls) == fibers

    def test_breakdown_keeps_every_base_point(self):
        form = diagonal_quadric(5)
        report = count_pairs(form, 2, 4, breakdown=True)
        assert len(report.per_y_breakdown) == 320
        for y, count in report.per_y_breakdown.items():
            fresh = counting._pairs_at_base_point(
                form, y, 2, False, None,
                counting._Budget(None, counting._ROW_WORK))
            assert count == fresh[0]

    def test_stratum_with_proportional_excluded(self):
        report = count_pairs(diagonal_quadric(5), 2, 2, stratum_rho=1,
                             exclude_proportional=True)
        assert report.proportional_pairs == 192
        assert report.total == 0
        assert report.stratified == 0

    def test_stratum_charge_outside_the_stratum(self, monkeypatch):
        """quadric-5 has no base point of Hessian corank >= 1, so with
        stratum_rho = 1 every fiber is the convolution and no lattice is
        scanned: the charge is that of listing the base points (the
        5^3 + 5^2 rows of the two half grids and the 65 zeros of the
        y-box) plus the convolution charge of every base point's fiber."""
        form = diagonal_quadric(5)
        base_points = [y for y in itertools.product(range(-2, 3), repeat=5)
                       if any(y) and evaluate_form(form, y) == 0]
        assert all(hessian_corank(form, y) == 0 for y in base_points)
        assert lister_charge(form, 2) == 5 ** 3 + 5 ** 2 + 65
        needed = lister_charge(form, 2) + sum(
            diagonal_fiber_charge(form, y, 2) for y in base_points)
        assert needed == 9655
        calls = counted(monkeypatch, "slicing_lattice")
        with pytest.raises(ResourceLimit):
            count_pairs(form, 2, 2, stratum_rho=1, exclude_proportional=True,
                        budget=needed - 1)
        report = count_pairs(form, 2, 2, stratum_rho=1,
                             exclude_proportional=True, budget=needed)
        assert (report.total, report.stratified) == (0, 0)
        assert calls == []


def signed_relabel(form, perm, signs):
    """F o S for the signed permutation (S x)_i = signs[i] * x[perm[i]],
    expanded term by term."""
    coeffs = {}
    for exponents, coefficient in form.coeffs.items():
        moved = [0] * form.nvars
        for i, e in enumerate(exponents):
            moved[perm[i]] = e
            coefficient *= signs[i] ** e
        coeffs[tuple(moved)] = coefficient
    return HomogeneousForm(nvars=form.nvars, degree=form.degree,
                           coeffs=coeffs)


def lister_charge(form, y_bound):
    """What listing the base points of [-Y, Y]^n charges, derived from the
    monomials: with k the prefix of coordinates that no monomial crosses
    nearest n / 2, the (2Y + 1)^k and (2Y + 1)^(n - k)
    rows of the two half grids plus every zero of F in the box, the zero
    vector included; with no such prefix, the (2Y + 1)^n rows of the box."""
    n, side = form.nvars, 2 * y_bound + 1
    cuts = [k for k in range(1, n) if not any(
        any(e[:k]) and any(e[k:]) for e in form.coeffs)]
    if not cuts:
        return side ** n
    k = min(cuts, key=lambda k: max(k, n - k))  # either of two: one charge
    return side ** k + side ** (n - k) + sum(
        1 for y in itertools.product(range(-y_bound, y_bound + 1), repeat=n)
        if evaluate_form(form, y) == 0)


def per_base_point_oracle(form, x_bound, y_bound, exclude_proportional,
                          stratum_rho):
    """count_pairs with a fresh _pairs_at_base_point call for every base
    point and no reuse: ((total, proportional, stratified, per_y), the
    points the scan charges: :func:`lister_charge` and every fiber's)."""
    meter = counting._Budget(None, counting._ROW_WORK)
    meter.charge(lister_charge(form, y_bound))
    total = proportional = stratified = 0
    per_y = {}
    box = range(-y_bound, y_bound + 1)
    for y in itertools.product(box, repeat=form.nvars):
        if not any(y) or evaluate_form(form, y) != 0:
            continue
        total_y, prop_y, strat_y = counting._pairs_at_base_point(
            form, y, x_bound, exclude_proportional, stratum_rho, meter)
        total += total_y
        proportional += prop_y
        stratified += strat_y
        per_y[y] = total_y
    if stratum_rho is None:
        stratified = None
    return (total, proportional, stratified, per_y), meter.spent


@st.composite
def symmetric_forms(draw):
    """Forms with many signed-permutation symmetries under a random signed
    relabelling: diagonal forms sum a_i x_i^d with repeated a_i, or sums
    of products x1 x2 + x3 x4 (+ x5^2)."""
    n = draw(st.integers(2, 5))
    if draw(st.booleans()):
        degree = draw(st.integers(2, 4))
        coeffs = {}
        for i in range(n):
            e = tuple(degree if k == i else 0 for k in range(n))
            coeffs[e] = draw(st.sampled_from([1, 1, -1, 2]))
        form = HomogeneousForm(nvars=n, degree=degree, coeffs=coeffs)
    else:
        n = max(n, 4)
        text = "x1*x2 + x3*x4" + (" - x5^2" if n == 5 else "")
        form = parse_form(text, n_hint=n)
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n,
                          max_size=n))
    return signed_relabel(form, perm, signs)


class TestOrbitReuse:
    """One fiber per symmetry orbit of directions: every count, every
    base point of the breakdown and every charge equal a scan that counts
    each base point afresh."""

    @staticmethod
    def check(form, x_bound, y_bound, exclude_proportional, stratum_rho):
        want, charged = per_base_point_oracle(
            form, x_bound, y_bound, exclude_proportional, stratum_rho)
        report = count_pairs(form, x_bound, y_bound,
                             exclude_proportional=exclude_proportional,
                             stratum_rho=stratum_rho, breakdown=True,
                             budget=charged)
        with pytest.raises(ResourceLimit):
            count_pairs(form, x_bound, y_bound,
                        exclude_proportional=exclude_proportional,
                        stratum_rho=stratum_rho, breakdown=True,
                        budget=charged - 1)
        assert (report.total, report.proportional_pairs,
                report.stratified, report.per_y_breakdown) == want
        plain = count_pairs(form, x_bound, y_bound,
                            exclude_proportional=exclude_proportional,
                            stratum_rho=stratum_rho)
        assert (plain.total, plain.proportional_pairs,
                plain.stratified) == want[:3]

    @given(symmetric_forms(), st.integers(1, 2), st.integers(1, 3),
           st.booleans(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_relabelled_symmetric_forms(self, form, x_bound, y_bound,
                                        exclude_proportional, data):
        y_bound = min(y_bound, {2: 3, 3: 3, 4: 2, 5: 1}[form.nvars])
        rho = data.draw(st.sampled_from([None] + list(
            range(1, form.nvars + 1))))
        self.check(form, x_bound, y_bound, exclude_proportional, rho)

    @given(st.sampled_from([(3, 3, 0), (3, 3, 2), (3, 3, 8), (4, 2, 1),
                            (4, 2, 3), (3, 2, 6)]),
           st.integers(1, 2), st.integers(1, 3), st.booleans(),
           st.sampled_from([None, 1, 2]))
    @settings(max_examples=12, deadline=None)
    def test_random_dense_forms(self, shape, x_bound, y_bound,
                                exclude_proportional, rho):
        n, degree, seed = shape
        form = random_dense_form(n, degree, seed=seed)
        self.check(form, x_bound, min(y_bound, 5 - n),
                   exclude_proportional, rho)

    @pytest.mark.parametrize("form, halves, zeros, needed", [
        (diagonal_quadric(5), 7 ** 3 + 7 ** 2, 273, 40505),
        (parse_form("x1^3 - x2^3 + x3^3 + x4^3", n_hint=4), 7 ** 2 + 7 ** 2,
         127, 9045),
    ])
    def test_budget_boundary(self, form, halves, zeros, needed):
        """Reused fibers are charged as if counted again: the scan at
        (X, Y) = (2, 3), kept by a breakdown, needs exactly ``needed``,
        the rows of the two half grids and the zeros of the y-box that
        listing the base points forms, plus the convolution charge of
        every base point's fiber, as when every base point was counted
        afresh."""
        assert lister_charge(form, 3) == halves + zeros
        assert needed == halves + zeros + sum(
            diagonal_fiber_charge(form, y, 2)
            for y in itertools.product(range(-3, 4), repeat=form.nvars)
            if any(y) and evaluate_form(form, y) == 0)
        assert per_base_point_oracle(form, 2, 3, False, None)[1] == needed
        with pytest.raises(ResourceLimit):
            count_pairs(form, 2, 3, breakdown=True, budget=needed - 1)
        count_pairs(form, 2, 3, breakdown=True, budget=needed)

    @pytest.mark.parametrize("form, needed", [
        (diagonal_quadric(5), 4044),
        (parse_form("x1^3 - x2^3 + x3^3 + x4^3", n_hint=4), 2816),
    ])
    def test_pencil_budget_boundary(self, form, needed):
        """Without a breakdown the count at (X, Y) = (2, 3) needs exactly
        ``needed``, the charges of the convolution of the pencil and of F
        at B = 1, 2, 3."""
        n = form.nvars
        meter = counting._Budget(None, counting._ROW_WORK)
        counting._convolution_count(form.pencil, [(-2, 2)] * n
                                    + [(-3, 3)] * n, None, meter)
        for bound in (1, 2, 3):
            counting._convolution_count([form], [(-bound, bound)] * n, None,
                                        meter)
        assert meter.spent == needed
        with pytest.raises(ResourceLimit):
            count_pairs(form, 2, 3, budget=needed - 1)
        count_pairs(form, 2, 3, budget=needed)

    @pytest.mark.parametrize("scale, columns", [
        (10 ** 6, 2),  # the leader digit shares the first column
        (8 * 10 ** 6, 3),  # the leader digit takes a column of its own
        (10 ** 17, 4),  # every radix passes 2^62: exact object values
    ])
    def test_leaders_with_multi_column_keys(self, monkeypatch, scale,
                                            columns):
        """The cubic scale * (x1^3 - x2^3 + x3^3 - x4^3) at X = 2 has
        radices of about 200 * scale per slice, so its three leaders'
        keys are rows of several columns, matched by re-ranking."""
        form = HomogeneousForm(nvars=4, degree=3, coeffs={
            (3, 0, 0, 0): scale, (0, 3, 0, 0): -scale,
            (0, 0, 3, 0): scale, (0, 0, 0, 3): -scale})
        calls = counted(monkeypatch, "_row_ids")
        self.check(form, 2, 2, False, None)
        assert {rows.shape[1] for rows, in calls} >= {columns}

    @pytest.mark.parametrize("batch", [2, 5])
    @pytest.mark.parametrize("form", [diagonal_quadric(5),
                                      fermat_form(5, 3)])
    def test_leaders_in_batches(self, monkeypatch, batch, form):
        """Blocks of ``batch`` x-boxes of 5^5 points: the leaders' fibers
        are convolved ``batch`` at a time (or fewer, the last batch)."""
        monkeypatch.setattr(counting, "_CONVOLVE_ROWS", batch * 5 ** 5)
        batches = counted(monkeypatch, "_diagonal_fibers")
        self.check(form, 2, 3, True, None)
        sizes = [len(args[1]) for args in batches]
        assert 1 < max(sizes) <= batch and sum(sizes) > max(sizes)

    @pytest.mark.parametrize("rows", [None, 7, 60])
    @pytest.mark.parametrize("form, x_bound, y_bound", [
        (diagonal_quadric(5), 2, 3),
        (fermat_form(4, 3), 3, 2),
        (signed_relabel(fermat_form(4, 5), (2, 0, 3, 1), (-1, 1, 1, -1)),
         2, 2),
    ])
    def test_batch_fibers_equal_single_ones(self, monkeypatch, rows, form,
                                            x_bound, y_bound):
        """Every base point of the y-box in one batch, its sums formed in
        blocks of ``rows`` pairs (the default, or blocks that split the
        entries of one leader and join those of several): each count
        equals the scan of its slicing lattice, and each meter is charged
        the convolution charge of its own fiber."""
        if rows:
            monkeypatch.setattr(counting, "_CONVOLVE_ROWS", rows)
        ys = [y for y in itertools.product(range(-y_bound, y_bound + 1),
                                           repeat=form.nvars)
              if any(y) and evaluate_form(form, y) == 0]
        meters = [counting._Budget(None, counting._ROW_WORK) for _ in ys]
        counts = counting._diagonal_fibers(form, ys, x_bound, meters)
        assert counts == [lattice_scan(form, y, x_bound) for y in ys]
        assert [meter.spent for meter in meters] \
            == [diagonal_fiber_charge(form, y, x_bound) for y in ys]

    @pytest.mark.parametrize("x_bound, budget", [
        (4, 81), (4, 120), (4, 1600), (3, 84), (3, 752), (3, 753)])
    def test_refusal_is_the_one_met_leader_by_leader(self, x_bound, budget):
        """x1^2 - x2^2 + x3^2 - 2 x4^2 at Y = 1 has two leaders, of charges
        36, 45, 45 and 36, 81, 45 at X = 4 (28, 28, 28 and 28, 49, 28 at
        X = 3), each reused by 8 base points.  The second leader's meter
        refuses a step before the first's does, so a batch refused by any
        meter is counted again one leader at a time: the refusal is the
        first one that counting each leader in turn, its reuses charged
        after it, meets."""
        form = HomogeneousForm(nvars=4, degree=2, coeffs={
            (2, 0, 0, 0): 1, (0, 2, 0, 0): -1, (0, 0, 2, 0): 1,
            (0, 0, 0, 2): -2})

        def refusal(count):
            try:
                count()
            except ResourceLimit as exc:
                return str(exc)

        def leader_by_leader():
            meter = counting._Budget(budget, counting._ROW_WORK)
            leaders, sizes, _ = counting._orbit_tally(form, 1, meter)
            for y, size in zip(leaders, sizes):
                own = counting._Budget(budget, counting._ROW_WORK)
                counting._pairs_at_base_point(form, y, x_bound, False, None,
                                              own)
                meter.charge(size * own.spent)

        want = refusal(leader_by_leader)
        assert want is not None
        assert refusal(lambda: count_pairs(
            form, x_bound, 1, breakdown=True, budget=budget)) == want

    def test_breakdown_builds_no_slice_form_or_pencil(self, monkeypatch):
        """A diagonal breakdown reads the coefficients of F alone: no
        slice form, pencil or polynomial is built for any leader."""
        def refuse(*args, **kwargs):
            raise AssertionError("built per leader")

        monkeypatch.setattr(forms, "integer_slice_form", refuse)
        monkeypatch.setattr(counting, "Polynomial", refuse)
        monkeypatch.setattr(HomogeneousForm, "pencil", property(refuse))
        report = count_pairs(fermat_form(4, 3), 2, 5, breakdown=True)
        assert (len(report.per_y_breakdown), report.total) == (330, 8520)

    def test_generators_of_the_fixtures(self):
        """Even degree: every sign change; odd degree: none.  Transpositions
        x_i <-> +-x_j join variables with equal coefficients (up to the
        sign an odd power can absorb)."""
        quadric = counting._symmetry_generators(diagonal_quadric(5))
        assert len(quadric) == 5 + 2 * 6
        cubic = counting._symmetry_generators(
            parse_form("x1^3 - x2^3 + x3^3 + x4^3", n_hint=4))
        assert all(sorted(perm) == list(range(4)) and perm != (0, 1, 2, 3)
                   for perm, _ in cubic)
        assert len(cubic) == 6
        assert counting._symmetry_generators(
            random_dense_form(3, 3, seed=0)) == []
        assert direction_orbit((1, 2, 0), []) == [(1, 2, 0)]


def direction_orbit(direction, generators):
    """The primitive directions sigma y for sigma in the group the
    generators span, y = ``direction``, by a breadth-first walk.  A signed
    permutation keeps the content, so each image is normalised as
    ``counting._primitive_direction`` would by its sign alone."""
    orbit = {direction}
    frontier = [direction]
    for y in frontier:
        for perm, signs in generators:
            image = tuple([s * y[p] for p, s in zip(perm, signs)])
            if next(v for v in image if v) < 0:
                image = tuple([-v for v in image])
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return frontier


def row_base_points(form, y_bound):
    """(y, leader) for each nonzero zero y of F in [-Y, Y]^n, in grid order,
    one row at a time: the leader is the first base point whose primitive
    direction lies in the walked orbit of y's."""
    generators = counting._symmetry_generators(form)
    leaders = {}
    box = range(-y_bound, y_bound + 1)
    for y in itertools.product(box, repeat=form.nvars):
        if not any(y) or evaluate_form(form, y) != 0:
            continue
        key = counting._primitive_direction(y)
        if key not in leaders:
            for mate in direction_orbit(key, generators):
                leaders[mate] = y
        yield y, leaders[key]


def row_pair_count(form, x_bound, y_bound, exclude_proportional,
                   stratum_rho):
    """count_pairs over :func:`row_base_points`: ((total, proportional,
    stratified, per_y), leaders in the order their fibers are counted)."""
    sizes = {}
    per_leader = {}
    for y, leader in row_base_points(form, y_bound):
        sizes[leader] = sizes.get(leader, 0) + 1
        per_leader[y] = leader
    counts = {leader: counting._pairs_at_base_point(
        form, leader, x_bound, exclude_proportional, stratum_rho,
        counting._Budget(None, counting._ROW_WORK))
        for leader in sizes}
    total, proportional, stratified = (
        sum(size * counts[leader][k] for leader, size in sizes.items())
        for k in range(3))
    per_y = {y: counts[leader][0] for y, leader in per_leader.items()}
    return ((total, proportional,
             stratified if stratum_rho is not None else None, per_y),
            list(sizes))


def row_stratum_count(form, y_bound, rho):
    """(count, dyadic counts, coranked leaders) of stratum_count over
    :func:`row_base_points`, one corank per leader."""
    coranks = {}
    norms = []
    for y, leader in row_base_points(form, y_bound):
        if leader not in coranks:
            coranks[leader] = hessian_corank(form, leader)
        if coranks[leader] >= rho:
            norms.append(max(abs(v) for v in y))
    dyadic = []
    size = 2
    while size <= y_bound:
        dyadic.append((size, sum(1 for m in norms if m <= size)))
        size *= 2
    return len(norms), tuple(dyadic), list(coranks)


def orbit_kinds(form, y_bound):
    """The kinds of the form's orbit components, after checking that the
    line keys split the nonzero points of [-Y, Y]^n as the walked orbits
    of their primitive directions do."""
    generators = counting._symmetry_generators(form)
    components = counting._orbit_components(generators, form.nvars)
    box = [y for y in itertools.product(range(-y_bound, y_bound + 1),
                                        repeat=form.nvars) if any(y)]
    keys = counting._line_keys(np.array(box, dtype=np.int64), components,
                               y_bound)
    by_key = defaultdict(set)
    for y, key in zip(box, keys.tolist()):
        by_key[key].add(y)
    orbit_of = {}
    by_walk = defaultdict(set)
    for y in box:
        direction = counting._primitive_direction(y)
        if direction not in orbit_of:
            orbit = direction_orbit(direction, generators)
            orbit_of.update(dict.fromkeys(orbit, direction))
        by_walk[orbit_of[direction]].add(y)
    assert sorted(map(sorted, by_key.values())) \
        == sorted(map(sorted, by_walk.values()))
    assert sorted(i for group, _, _ in components for i in group) \
        == list(range(form.nvars))
    return {kind for _, kind, _ in components}


@st.composite
def orbit_forms(draw):
    """Forms whose symmetry groups have components of every kind, under a
    random signed relabelling: diagonal forms sum a_i x_i^d (n = 2..6,
    d = 2..5, a_i in +-1, +-2), x1x2 +- x3x4, x1x2x3,
    x1x2 + x2x3 + x1x3, and dense random forms."""
    shape = draw(st.sampled_from(["diagonal", "text", "dense"]))
    if shape == "diagonal":
        n = draw(st.integers(2, 6))
        degree = draw(st.integers(2, 5))
        form = HomogeneousForm(nvars=n, degree=degree, coeffs={
            tuple(degree if k == i else 0 for k in range(n)):
                draw(st.sampled_from([1, -1, 2, -2])) for i in range(n)})
    elif shape == "text":
        text, n = draw(st.sampled_from([
            ("x1*x2 + x3*x4", 4), ("x1*x2 - x3*x4", 4), ("x1*x2*x3", 3),
            ("x1*x2 + x2*x3 + x1*x3", 3)]))
        form = parse_form(text, n_hint=n)
    else:
        n, degree, seed = draw(st.sampled_from(
            [(3, 3, 0), (3, 3, 2), (4, 2, 1), (3, 2, 6)]))
        form = random_dense_form(n, degree, seed=seed)
    perm = draw(st.permutations(range(form.nvars)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=form.nvars,
                          max_size=form.nvars))
    return signed_relabel(form, perm, signs)


class TestOrbitKeys:
    """The closed-form line key splits directions as the breadth-first
    orbit walk does, and the counts built on it equal the per-row scan."""

    @given(orbit_forms())
    @settings(max_examples=60, deadline=None)
    def test_keys_match_the_orbit_walk(self, form):
        orbit_kinds(form, {2: 3, 3: 2, 4: 2}.get(form.nvars, 1))

    def test_every_kind_occurs(self):
        """Even-degree diagonal forms have every sign change (B); x1^3 +
        x2^3 has x1 <-> x2 with both signs and no sign change (D);
        x1x2 + x2x3 + x1x3 has the transpositions with one sign (S), also
        after a signed relabelling; x1x2 + x3^2 + x4x5 + x5^2 has all three."""
        cases = [
            (diagonal_quadric(5), {"B"}),
            (fermat_form(2, 3), {"D"}),
            (parse_form("x1*x2 + x2*x3 + x1*x3", n_hint=3), {"S"}),
            (signed_relabel(parse_form("x1*x2 + x2*x3 + x1*x3", n_hint=3),
                            (1, 2, 0), (1, -1, 1)), {"S"}),
            (parse_form("x1*x2 - x3*x4", n_hint=4), {"D"}),
            (parse_form("x1*x2*x3", n_hint=3), {"B"}),
            (parse_form("x1*x2 + x3^2 + x4*x5 + x5^2", n_hint=5),
             {"B", "D", "S"}),
            (random_dense_form(3, 3, seed=0), {"S"}),
        ]
        for form, kinds in cases:
            assert orbit_kinds(form, 2) == kinds
        relabelled = counting._orbit_components(
            counting._symmetry_generators(cases[3][0]), 3)
        # the relabelled form is x1x2 - x2x3 - x1x3: delta flips x3
        assert [d.tolist() for _, _, d in relabelled] == [[1, 1, -1]]

    def test_keys_beyond_int64(self):
        """When (2Y + 1)^width passes int64 the keys are Python ints, and
        they split the lines as the int64 keys of a small Y do."""
        form = parse_form("x1*x2 + x3^2 + x4*x5 + x5^2", n_hint=5)
        components = counting._orbit_components(
            counting._symmetry_generators(form), 5)
        box = np.array([y for y in itertools.product(range(-2, 3), repeat=5)
                        if any(y)])
        small = counting._line_keys(box, components, 2)
        wide = counting._line_keys(box, components, 2 ** 20)
        assert (small.dtype, wide.dtype) == (np.int64, object)
        pairs = set(zip(small.tolist(), wide.tolist()))
        assert len(pairs) == len(set(small.tolist())) \
            == len(set(wide.tolist())) > 1

    @given(orbit_forms(), st.integers(1, 2), st.integers(1, 3),
           st.booleans(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_pairs_match_the_row_scan(self, form, x_bound, y_bound,
                                      exclude_proportional, data):
        y_bound = min(y_bound, {2: 3, 3: 2, 4: 2}.get(form.nvars, 1))
        rho = data.draw(st.sampled_from([None, 1, 2]))
        want, leaders = row_pair_count(form, x_bound, y_bound,
                                       exclude_proportional, rho)
        calls = []
        original = counting._pairs_at_base_point

        def recorded(*args):
            calls.append(args[1])
            return original(*args)

        with mock.patch.object(counting, "_pairs_at_base_point", recorded):
            report = count_pairs(form, x_bound, y_bound,
                                 exclude_proportional=exclude_proportional,
                                 stratum_rho=rho, breakdown=True)
        assert (report.total, report.proportional_pairs,
                report.stratified, report.per_y_breakdown) == want
        assert list(report.per_y_breakdown) == list(want[3])
        assert calls == leaders

    @pytest.mark.parametrize("rows", [5, 64])
    @pytest.mark.parametrize("form, y_bound", [
        (diagonal_quadric(5), 3),
        (fermat_form(4, 3), 3),
        (signed_relabel(parse_form("x1*x2 + x2*x3 + x1*x3", n_hint=3),
                        (1, 2, 0), (1, -1, 1)), 4),
    ])
    def test_many_blocks_match_the_row_scan(self, monkeypatch, rows, form,
                                            y_bound):
        """With chunks of a few rows the base points are keyed in many
        blocks, and an orbit met again in a later block keeps its leader
        and number."""
        want, leaders = row_pair_count(form, 1, y_bound, False, 1)
        count, dyadic, _ = row_stratum_count(form, y_bound, 1)
        monkeypatch.setattr(counting, "_CHUNK_ROWS", rows)
        calls = counted(monkeypatch, "_pairs_at_base_point")
        report = count_pairs(form, 1, y_bound, stratum_rho=1, breakdown=True)
        assert (report.total, report.proportional_pairs, report.stratified,
                report.per_y_breakdown) == want
        assert list(report.per_y_breakdown) == list(want[3])
        assert [args[1] for args in calls] == leaders
        strata = stratum_count(form, y_bound, 1)
        assert (strata.count, strata.dyadic_counts) == (count, dyadic)

    @pytest.mark.parametrize("form, y_bound", [
        (QUINTIC, 4),
        (random_dense_form(3, 3, seed=0), 4),
        (signed_relabel(fermat_form(4, 3), (2, 0, 3, 1), (-1, 1, 1, -1)), 4),
        (parse_form("x1*x2*x3", n_hint=3), 4),
        (parse_form("x1*x2 + x2*x3 + x1*x3", n_hint=3), 4),
        (parse_form("x1*x2 - x3*x4", n_hint=4), 3),
    ])
    @pytest.mark.parametrize("rho", [1, 2])
    def test_strata_match_the_row_scan(self, monkeypatch, form, y_bound,
                                       rho):
        count, dyadic, leaders = row_stratum_count(form, y_bound, rho)
        calls = counted(monkeypatch, "hessian_corank")
        report = stratum_count(form, y_bound, rho)
        assert (report.count, report.dyadic_counts) == (count, dyadic)
        assert [y for _, y in calls] == leaders

    @pytest.mark.parametrize("p, q, total, proportional", [
        (4, 3, 4944704, 16448),
        (4, 4, 169270272, 92160),
    ])
    def test_split_quadrics(self, p, q, total, proportional):
        """The split quadrics x1^2 + .. + x_p^2 - .. - x_(p+q)^2 at
        X = Y = 2, as counted by the per-row orbit walk."""
        report = count_pairs(split_quadric(p, q), 2, 2)
        assert (report.total, report.proportional_pairs) \
            == (total, proportional)


def per_y_stratum_scan(form, y_bound, rho):
    """(count, dyadic counts) with one hessian_corank call per base point."""
    norms = [max(abs(v) for v in y) for y in itertools.product(
        range(-y_bound, y_bound + 1), repeat=form.nvars)
        if any(y) and evaluate_form(form, y) == 0
        and hessian_corank(form, y) >= rho]
    dyadic = []
    size = 2
    while size <= y_bound:
        dyadic.append((size, sum(1 for m in norms if m <= size)))
        size *= 2
    return len(norms), tuple(dyadic)


def scanned_blocks(form, y_bound, meter):
    """The scan of the y-box that listed the base points before the meet
    in the middle, kept as the oracle of a form with no split: each chunk
    of ``_CHUNK_ROWS`` rows of the box charged and then evaluated, and the
    nonzero zeros gathered into blocks of at least ``_CHUNK_ROWS`` rows."""
    n = form.nvars
    pending, rows = [], 0
    for chunk in forms.grid_chunks([-y_bound] * n, [y_bound] * n,
                                   counting._CHUNK_ROWS):
        meter.charge(chunk.shape[0])
        points = chunk[evaluate_batch(form, chunk) == 0]
        pending.append(points[np.any(points, axis=1)])
        rows += pending[-1].shape[0]
        if rows >= counting._CHUNK_ROWS:
            yield np.concatenate(pending)
            pending, rows = [], 0
    if rows:
        yield np.concatenate(pending)


@st.composite
def signed_diagonal_forms(draw):
    """(F, Y): F = sum a_i x_i^d with n = 1..6, d = 2..5 and signed a_i,
    some of them 0, and Y in 1..4, cut so that the box holds at most 9^4
    points."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(2, 5))
    a = draw(st.lists(st.sampled_from([-3, -2, -1, -1, 0, 1, 1, 2]),
                      min_size=n, max_size=n).filter(any))
    form = HomogeneousForm(nvars=n, degree=d, coeffs={
        tuple(d if k == i else 0 for k in range(n)): c
        for i, c in enumerate(a) if c})
    return form, min(draw(st.integers(1, 4)), {5: 2, 6: 1}.get(n, 4))


def scaled_cubic(scale):
    """scale * (x1^3 - x2^3 + x3^3 - x4^3)."""
    return HomogeneousForm(nvars=4, degree=3, coeffs={
        (3, 0, 0, 0): scale, (0, 3, 0, 0): -scale,
        (0, 0, 3, 0): scale, (0, 0, 0, 3): -scale})


class TestBasePointLister:
    """The base points are listed by a meet in the middle of two half
    grids: joined, the blocks are the base points of the per-row scan in
    grid order, and the charge is :func:`lister_charge`."""

    @staticmethod
    def check(form, y_bound):
        meter = counting._Budget(None, counting._ROW_WORK)
        blocks = list(counting._base_point_blocks(form, y_bound, meter))
        assert [tuple(y) for block in blocks for y in block.tolist()] \
            == [y for y, _ in row_base_points(form, y_bound)]
        assert all(block.shape[0] >= counting._CHUNK_ROWS
                   for block in blocks[:-1])
        assert meter.spent == lister_charge(form, y_bound)
        return blocks, meter.spent

    @given(signed_diagonal_forms())
    @settings(max_examples=60, deadline=None)
    def test_signed_diagonal_forms(self, case):
        self.check(*case)

    def test_multi_component_form(self):
        """x1^2 x2 + x3^3 - x4^3 splits after x2 into two half grids of
        9^2 rows, where the box has 9^4."""
        _, spent = self.check(parse_form("x1^2*x2 + x3^3 - x4^3", n_hint=4),
                              4)
        assert spent == 81 + 81 + 205

    @pytest.mark.parametrize("rows", [None, 5, 64])
    @pytest.mark.parametrize("form, y_bound", [
        (random_dense_form(3, 3, seed=0), 4),
        (parse_form("x1*x2 + x2*x3 + x1*x3", n_hint=3), 4),
        (parse_form("x1*x3 + x2*x4", n_hint=4), 2),  # no prefix splits it
    ])
    def test_forms_without_a_split_are_scanned(self, monkeypatch, rows, form,
                                               y_bound):
        """A form that no prefix of the coordinates splits is listed by
        the scan of the box: the same blocks, the same charge and the same
        refusals."""
        if rows:
            monkeypatch.setattr(counting, "_CHUNK_ROWS", rows)
        blocks, spent = self.check(form, y_bound)
        meter = counting._Budget(None, counting._ROW_WORK)
        assert [block.tolist() for block in blocks] == [
            block.tolist() for block in scanned_blocks(form, y_bound, meter)]
        assert spent == meter.spent == (2 * y_bound + 1) ** form.nvars
        for budget in (1, spent // 2, spent - 1):
            refusals = []
            for lister in (counting._base_point_blocks, scanned_blocks):
                with pytest.raises(ResourceLimit) as info:
                    list(lister(form, y_bound, counting._Budget(
                        budget, counting._ROW_WORK)))
                refusals.append(str(info.value))
            assert refusals[0] == refusals[1]

    @pytest.mark.parametrize("rows, pairs", [(5, None), (7, 3), (64, 20)])
    @pytest.mark.parametrize("form, y_bound", [
        (diagonal_quadric(5), 3),
        (fermat_form(4, 3), 4),
        (parse_form("x1^2*x2 + x3^3 - x4^3", n_hint=4), 3),
    ])
    def test_small_blocks(self, monkeypatch, rows, pairs, form, y_bound):
        """With chunks of a few rows, and blocks of a few pairs, the left
        grid is matched in many chunks, and no block pairs more than
        ``_CONVOLVE_ROWS`` rows unless one left row alone has more
        matches."""
        monkeypatch.setattr(counting, "_CHUNK_ROWS", rows)
        if pairs:
            monkeypatch.setattr(counting, "_CONVOLVE_ROWS", pairs)
        sizes = []
        original = counting._pair_blocks

        def recorded(first, fan):
            for left, partners in original(first, fan):
                sizes.append((left.shape[0], np.unique(left).shape[0]))
                yield left, partners

        monkeypatch.setattr(counting, "_pair_blocks", recorded)
        self.check(form, y_bound)
        assert len(sizes) > 1
        assert all(size <= counting._CONVOLVE_ROWS or left == 1
                   for size, left in sizes)
        if pairs == 3:  # F(l, 0) = 0 has more partners than that
            assert any(size > 3 for size, _ in sizes)

    @pytest.mark.parametrize("form, rows, dtypes", [
        (scaled_cubic(10 ** 17), None, {object}),
        # chunks of two rows, some of entries at most 1, whose values fit
        (scaled_cubic(10 ** 17), 2, {object, np.int64}),
        # no split: the right half is the one point 0, of value 0 in int64
        (HomogeneousForm(nvars=3, degree=2, coeffs={
            (1, 1, 0): 10 ** 17, (0, 1, 1): 10 ** 17, (1, 0, 1): 10 ** 17}),
         None, {object, np.int64}),
    ])
    def test_values_past_int64(self, monkeypatch, form, rows, dtypes):
        """Coefficients of 10^17 put the values at Y = 4 past what the
        int64 preflight allows, so they are matched as Python ints, also
        against values of the other half that fit int64."""
        if rows:
            monkeypatch.setattr(counting, "_CHUNK_ROWS", rows)
        seen = set()
        original = counting.evaluate_batch

        def recorded(form, points):
            values = original(form, points)
            seen.add(values.dtype)
            return values

        monkeypatch.setattr(counting, "evaluate_batch", recorded)
        self.check(form, 4)
        assert seen == {np.dtype(t) for t in dtypes}


@st.composite
def padded_dense_forms(draw):
    """A random dense form in the first k of n variables, so that its
    Hessian has corank at least n - k."""
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, n))
    dense = random_dense_form(k, draw(st.integers(2, 4)),
                              draw(st.integers(0, 10 ** 6)))
    return HomogeneousForm(
        nvars=n, degree=dense.degree,
        coeffs={e + (0,) * (n - k): c for e, c in dense.coeffs.items()})


def through_point(form, y):
    """y_j^d F - F(y) x_j^d for the first j with y_j != 0: a form with the
    zero y, or None when that cancels to 0."""
    j = next(i for i, v in enumerate(y) if v)
    pure = tuple(form.degree if i == j else 0 for i in range(form.nvars))
    coeffs = {e: y[j] ** form.degree * c for e, c in form.coeffs.items()}
    coeffs[pure] = coeffs.get(pure, 0) - evaluate_form(form, y)
    coeffs = {e: c for e, c in coeffs.items() if c}
    return HomogeneousForm(nvars=form.nvars, degree=form.degree,
                           coeffs=coeffs) if coeffs else None


def points_of(n):
    return st.lists(st.integers(-3, 3), min_size=n, max_size=n)


class TestHessianCorank:
    @given(padded_dense_forms(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy_rank(self, form, data):
        y = data.draw(points_of(form.nvars))
        assert hessian_corank(form, y) \
            == form.nvars - sympy.Matrix(hessian(form, y)).rank()

    def test_fixture_values(self):
        assert hessian_corank(QUINTIC, Y0) == 2
        assert hessian_corank(QUINTIC, (1, 1, 1, 1)) == 0
        assert hessian_corank(QUINTIC, (0, 0, 0, 0)) == 4

    def test_fermat_closed_form(self):
        """For diagonal forms of degree >= 3 the corank counts the zero
        coordinates."""
        rng = random.Random(3)
        for degree in (3, 5):
            for n in (3, 4, 5):
                form = fermat_form(n, degree)
                for _ in range(20):
                    y = tuple(rng.choice([-2, -1, 0, 0, 1, 3])
                              for _ in range(n))
                    zeros = sum(1 for v in y if v == 0)
                    assert hessian_corank(form, y) == zeros

    def test_quadric_constant_hessian(self):
        assert hessian_corank(QUADRIC, (0, 0, 0, 0)) == 0
        assert hessian_corank(QUADRIC, (5, 2, -1, 7)) == 0


class TestStratumCount:
    def test_quintic_fixture(self):
        report = stratum_count(QUINTIC, 1, 2)
        assert report.count == 12

    def test_corank_n_empty(self):
        for y_bound in (1, 2):
            assert stratum_count(QUINTIC, y_bound, 4).count == 0

    def test_rho_one_matches_scan(self):
        report = stratum_count(QUINTIC, 1, 1)
        direct = sum(
            1 for y in itertools.product(range(-1, 2), repeat=4)
            if any(y) and sum(v ** 5 for v in y) == 0 and 0 in y)
        assert report.count == direct

    def test_monotone_in_rho(self):
        counts = [stratum_count(QUINTIC, 2, rho).count
                  for rho in (1, 2, 3, 4)]
        assert counts == sorted(counts, reverse=True)

    def test_fitted_exponent_desk_scale(self):
        report = stratum_count(QUINTIC, 8, 2)
        assert report.dyadic_counts[0][0] == 2
        assert report.fitted_exponent <= 4 - 2 + 0.5

    def test_fitted_exponent_nan_when_unfittable(self):
        report = stratum_count(QUINTIC, 1, 2)
        assert math.isnan(report.fitted_exponent)
        assert report.dyadic_counts == ()

    def test_rho_validated(self):
        with pytest.raises(DomainError):
            stratum_count(QUINTIC, 2, 0)
        with pytest.raises(DomainError):
            stratum_count(QUINTIC, 2, 5)


    @pytest.mark.parametrize("y_bound", [1, 2, 3, 4])
    @pytest.mark.parametrize("rho", [1, 2, 3, 4])
    def test_orbits_match_per_y_scan_quintic(self, y_bound, rho):
        report = stratum_count(QUINTIC, y_bound, rho)
        assert (report.count, report.dyadic_counts) \
            == per_y_stratum_scan(QUINTIC, y_bound, rho)

    @pytest.mark.parametrize("form", [
        random_dense_form(3, 3, seed=0),
        signed_relabel(fermat_form(4, 3), (2, 0, 3, 1), (-1, 1, 1, -1)),
        parse_form("x1^2*x2 + x3^3", n_hint=3),
    ])
    @pytest.mark.parametrize("rho", [1, 2])
    def test_orbits_match_per_y_scan(self, form, rho):
        report = stratum_count(form, 4, rho)
        assert (report.count, report.dyadic_counts) \
            == per_y_stratum_scan(form, 4, rho)

    def test_one_corank_per_orbit(self, monkeypatch):
        calls = counted(monkeypatch, "hessian_corank")
        stratum_count(QUINTIC, 4, 1)
        zeros = per_y_stratum_scan(QUINTIC, 4, 0)[0]
        assert 0 < len(calls) < zeros // 10


class TestM2Dimension:
    def test_quintic_fixture(self):
        report = m2_dimension(QUINTIC, Y0)
        assert report.span_dim == 3
        assert report.system_dim == 3
        assert report.agree
        assert int(report) == 3

    def test_corank_zero_gives_line(self):
        report = m2_dimension(QUINTIC, (1, 1, -1, -1))
        assert hessian_corank(QUINTIC, (1, 1, -1, -1)) == 0
        assert report.span_dim == 1
        assert report.agree

    def test_bounded_by_corank_plus_one(self):
        rng = random.Random(17)
        for _ in range(40):
            y = _random_fermat_zero(rng, 4)
            report = m2_dimension(QUINTIC, y)
            assert report.span_dim <= hessian_corank(QUINTIC, y) + 1

    def test_two_methods_agree_on_random_instances(self):
        rng = random.Random(29)
        checked = 0
        for degree in (3, 5):
            for n in (4, 6):
                form = fermat_form(n, degree)
                for _ in range(25):
                    y = _random_fermat_zero(rng, n)
                    report = m2_dimension(form, y)
                    assert report.agree, (degree, n, y, report)
                    checked += 1
        assert checked == 100

    @given(padded_dense_forms(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_both_dimensions_match_sympy(self, form, data):
        """span_dim is dim(ker H + <y>) from sympy's nullspace of H, and
        system_dim is s minus the rank of B H B^T, B the slicing-lattice
        basis (the identity where the gradient vanishes)."""
        y = data.draw(points_of(form.nvars).filter(any))
        form = through_point(form, y)
        assume(form is not None)
        matrix = sympy.Matrix(hessian(form, y))
        span = sympy.Matrix.hstack(*matrix.nullspace(), sympy.Matrix(y))
        try:
            basis = sympy.Matrix(slicing_lattice(form, y).basis)
        except ZeroVectorInput:
            basis = sympy.eye(form.nvars)
        report = m2_dimension(form, y)
        assert report.span_dim == span.rank()
        assert report.system_dim \
            == basis.rows - (basis * matrix * basis.T).rank()

    def test_errors(self):
        with pytest.raises(ZeroVectorInput):
            m2_dimension(QUINTIC, (0, 0, 0, 0))
        with pytest.raises(NotOnHypersurface):
            m2_dimension(QUINTIC, (1, 1, 1, 1))


def _random_fermat_zero(rng, n):
    """Nonzero integer zero of the degree-odd diagonal form: coordinates in
    cancelling pairs, padded with zeros, randomly placed."""
    while True:
        values = []
        for _ in range(n // 2):
            a = rng.randint(-3, 3)
            values.extend([a, -a])
        values.extend([0] * (n - 2 * (n // 2)))
        rng.shuffle(values)
        if any(values):
            return tuple(values)


class TestSingularPoints:
    def test_quintic_smooth(self):
        assert singular_points_in_box(QUINTIC, 5) == []

    def test_cuspidal_curve(self):
        form = parse_form("x1^2*x2", n_hint=2)
        points = singular_points_in_box(form, 2)
        assert (0, 1) in points and (0, -1) in points
        assert (0, 2) in points and (0, -2) in points

    def test_monotone_in_box_size(self):
        form = parse_form("x1^2*x2", n_hint=2)
        small = set(singular_points_in_box(form, 2))
        large = set(singular_points_in_box(form, 4))
        assert small <= large

    def test_quadric_cone(self):
        cone = parse_form("x1^2 + x2^2 - x3^2", n_hint=3)
        assert singular_points_in_box(cone, 3) == []
        degenerate = parse_form("x1^2 + x2^2", n_hint=3)
        points = singular_points_in_box(degenerate, 2)
        assert points == [(0, 0, -2), (0, 0, -1), (0, 0, 1), (0, 0, 2)]
