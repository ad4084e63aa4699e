"""Slicing lattice: kernels, reduction, boxes, enumeration, residues."""

import math
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linecount.lattice as lattice_module
from linecount.errors import ZeroVectorInput
from linecount.fixtures import (
    QUINTIC_BASE_POINT,
    fermat_form,
    fermat_quintic,
)
from linecount.lattice import (
    box_profile,
    covolume_squared,
    enumerate_points,
    hermite_normal_form,
    kernel_lattice,
    lattice_from_basis,
    lattice_to_json,
    linear_slice_coefficients,
    lll_reduce,
    reduce_basis,
    residue_image,
    slicing_lattice,
)
from point_blocks import point_tuples

QUINTIC = fermat_quintic()
Y0 = QUINTIC_BASE_POINT


def quintic_lattice():
    return slicing_lattice(QUINTIC, Y0)


class TestLinearSlice:
    def test_quintic_fixture(self):
        sliced = linear_slice_coefficients(QUINTIC, Y0)
        assert sliced.vector == (0, 0, 1, 1)
        assert not sliced.all_zero

    def test_fermat_cubic(self):
        cubic = fermat_form(4, 3)
        assert linear_slice_coefficients(cubic, (1, -1, 0, 0)).vector \
            == (1, 1, 0, 0)

    def test_content_divided_out(self):
        sliced = linear_slice_coefficients(QUINTIC, (0, 0, 2, -2))
        assert sliced.vector == (0, 0, 1, 1)
        assert sliced.content == 80  # gcd of (0, 0, 5*16, 5*16)

    def test_sign_normalisation(self):
        cubic = fermat_form(2, 3)
        sliced = linear_slice_coefficients(cubic, (-1, 0))
        assert sliced.vector[0] > 0

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorInput):
            linear_slice_coefficients(QUINTIC, (0, 0, 0, 0))

    def test_all_zero_flag_at_singular_point(self):
        # x1^2 * x2 has vanishing gradient along the x2 axis... use a form
        # with a genuinely singular point: F = x1^3 at (0, 1) has grad 0.
        from linecount.forms import parse_form
        form = parse_form("x1^3", n_hint=2)
        sliced = linear_slice_coefficients(form, (0, 1))
        assert sliced.all_zero
        assert sliced.content == 0


class TestKernelLattice:
    def test_quintic_kernel(self):
        lat = kernel_lattice((0, 0, 1, 1))
        assert lat.basis == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, -1))
        assert lat.covolume_sq == 2
        assert lat.rank == 3

    def test_saturation_of_scaled_form(self):
        lat = kernel_lattice((2, 0))
        assert lat.basis == ((0, 1),)
        assert lat.covolume_sq == 1

    def test_all_ones(self):
        lat = kernel_lattice((1, 1, 1))
        assert lat.rank == 2
        assert lat.covolume_sq == 3

    def test_zero_rejected(self):
        with pytest.raises(ZeroVectorInput):
            kernel_lattice((0, 0, 0))

    def test_random_kernels_are_orthogonal_and_saturated(self):
        rng = random.Random(2)
        for _ in range(100):
            n = rng.randint(2, 6)
            l = [rng.randint(-9, 9) for _ in range(n)]
            if all(v == 0 for v in l):
                l[0] = 3
            lat = kernel_lattice(l)
            assert lat.rank == n - 1
            for row in lat.basis:
                assert sum(a * b for a, b in zip(l, row)) == 0
            # saturation: covolume^2 of the kernel of a primitive vector
            # equals |l/g|^2; scaling l never changes the lattice
            g = 0
            for v in l:
                g = math.gcd(g, abs(v))
            prim = [v // g for v in l]
            assert lat.covolume_sq == sum(v * v for v in prim)
            assert kernel_lattice(prim).basis == lat.basis

    def test_saturation_residue_images_are_full(self):
        """A saturated lattice surjects onto (Z/p)^s in lattice coordinates:
        the residue image mod p has exactly p^rank classes for every small
        prime, which fails for unsaturated sublattices such as 2*Z x Z."""
        lat = quintic_lattice()
        for p in (2, 3, 5, 7, 11, 13):
            assert residue_image(lat, p).cardinality == p ** lat.rank
        skew = lattice_from_basis([[2, 0], [0, 1]])
        assert residue_image(skew, 2).cardinality == 2  # not 4: unsaturated


class TestReduction:
    def test_reduces_skew_basis(self):
        reduced = lll_reduce([[1, 0], [10, 1]])
        assert all(sum(v * v for v in row) <= 2 for row in reduced)

    def test_covolume_preserved(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(2, 5)
            l = [rng.randint(-20, 20) for _ in range(n)]
            if all(v == 0 for v in l):
                l[0] = 1
            lat = kernel_lattice(l)
            red = reduce_basis(lat)
            assert red.covolume_sq == lat.covolume_sq
            for row in red.basis:
                assert sum(a * b for a, b in zip(l, row)) == 0

    def test_quality_bound(self):
        """prod |b_i|^2 <= 2^(s(s-1)/2) * covolume_sq after reduction."""
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(2, 6)
            l = [rng.randint(-50, 50) for _ in range(n)]
            if all(v == 0 for v in l):
                l[0] = 7
            red = reduce_basis(kernel_lattice(l))
            s = red.rank
            product = 1
            for norm_sq in red.minima_proxy:
                product *= norm_sq
            assert product <= 2 ** (s * (s - 1) // 2) * red.covolume_sq

    def test_idempotent_up_to_sign_and_order(self):
        lat = reduce_basis(kernel_lattice((3, 5, 7, 11)))
        again = reduce_basis(lat)
        normalise = lambda basis: sorted(
            tuple(row) if (next((v for v in row if v), 0) > 0)
            else tuple(-v for v in row)
            for row in basis)
        assert normalise(again.basis) == normalise(lat.basis)

    def test_minima_proxy_matches_rows(self):
        lat = quintic_lattice()
        assert lat.minima_proxy == tuple(
            sum(v * v for v in row) for row in lat.basis)


class TestEnumeration:
    def test_quintic_fixture_small_box(self):
        assert len(point_tuples(enumerate_points(quintic_lattice(), 1))) \
            == 27

    def test_x_zero(self):
        assert point_tuples(enumerate_points(quintic_lattice(), 0)) \
            == [(0, 0, 0, 0)]

    def test_membership_and_norm(self):
        lat = reduce_basis(kernel_lattice((1, 2, 3)))
        for point in point_tuples(enumerate_points(lat, 6)):
            assert point[0] + 2 * point[1] + 3 * point[2] == 0
            assert max(abs(v) for v in point) <= 6

    def test_no_duplicates_and_symmetry(self):
        lat = reduce_basis(kernel_lattice((2, -3, 5, 1)))
        points = point_tuples(enumerate_points(lat, 4))
        as_set = set(points)
        assert len(points) == len(as_set)
        for point in points:
            assert tuple(-v for v in point) in as_set

    def test_exhaustive_against_direct_scan(self):
        """Every solution of l . x = 0 in the cube appears exactly once."""
        from itertools import product
        l = (1, -2, 3)
        lat = reduce_basis(kernel_lattice(l))
        for x_bound in (0, 1, 2, 3, 5):
            direct = {
                p for p in product(range(-x_bound, x_bound + 1), repeat=3)
                if sum(a * b for a, b in zip(l, p)) == 0
            }
            stream = point_tuples(enumerate_points(lat, x_bound))
            assert len(stream) == len(direct)
            assert set(stream) == direct

    def test_leading_range_partition(self):
        lat = quintic_lattice()
        full = point_tuples(enumerate_points(lat, 3))
        box = box_profile(lat, 3).int_bounds
        merged = []
        for lo in range(-box[0], box[0] + 1):
            merged.extend(point_tuples(
                enumerate_points(lat, 3, leading_range=(lo, lo))))
        assert merged == full

    def test_growth_rate_matches_covolume(self):
        """Count ~ (2X+1)^s / sqrt(covolume_sq) within a factor 2."""
        lat = quintic_lattice()
        proxy_max = max(lat.minima_proxy)
        x_bound = 10 * math.isqrt(proxy_max) + 10
        count = len(point_tuples(enumerate_points(lat, x_bound)))
        prediction_sq = Fraction((2 * x_bound + 1) ** (2 * lat.rank),
                                 lat.covolume_sq)
        ratio_sq = Fraction(count * count) / prediction_sq
        assert Fraction(1, 4) <= ratio_sq <= 4

    def test_box_contains_all_points(self):
        lat = reduce_basis(kernel_lattice((3, 1, -2, 5)))
        box = box_profile(lat, 5)
        duals = __import__(
            "linecount.lattice", fromlist=["dual_basis"]).dual_basis(lat)
        for point in point_tuples(enumerate_points(lat, 5)):
            for t, dual in enumerate(duals):
                xi = sum(d * p for d, p in zip(dual, point))
                assert abs(xi) <= box.half_widths[t]


class TestResidueImage:
    def test_quintic_mod_two(self):
        image = residue_image(quintic_lattice(), 2)
        assert image.cardinality == 8
        residues = sorted(image)
        assert len(residues) == 8
        for r in residues:
            assert r[2] == r[3]

    def test_modulus_one(self):
        image = residue_image(quintic_lattice(), 1)
        assert image.cardinality == 1
        assert list(image) == [(0, 0, 0, 0)]

    def test_unsaturated_congruence_gap(self):
        """Image of the kernel of (2, 0) mod 2 is smaller than the solution
        set of 2*x1 = 0 mod 2 (which is everything)."""
        image = residue_image(kernel_lattice((2, 0)), 2)
        assert image.cardinality == 2
        assert sorted(image) == [(0, 0), (0, 1)]

    def test_cardinality_divides_q_to_s(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(2, 5)
            l = [rng.randint(-9, 9) for _ in range(n)]
            if all(v == 0 for v in l):
                l[0] = 2
            lat = kernel_lattice(l)
            q = rng.randint(1, 12)
            image = residue_image(lat, q)
            assert q ** lat.rank % image.cardinality == 0

    def test_enumeration_matches_cardinality_and_membership(self):
        lat = quintic_lattice()
        for q in (2, 3, 4, 6):
            image = residue_image(lat, q)
            residues = set(image)
            assert len(residues) == image.cardinality
            # every reduced lattice point is in the image
            for point in point_tuples(enumerate_points(lat, 2)):
                assert tuple(v % q for v in point) in residues

    def test_saturated_image_is_full_for_primitive_prime(self):
        """For the saturated kernel of a primitive vector, the image mod p
        has exactly p^s classes whenever p does not divide covolume-related
        degeneracies; check the fixture for several primes."""
        lat = quintic_lattice()
        for p in (2, 3, 5, 7, 11, 13):
            assert residue_image(lat, p).cardinality == p ** lat.rank


class TestHermite:
    def test_hnf_idempotent(self):
        rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        hnf = hermite_normal_form(rows)
        assert hermite_normal_form(hnf) == hnf

    def test_hnf_preserves_row_module(self):
        rows = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        hnf = hermite_normal_form(rows)
        assert abs(_det3(rows)) == _det3(hnf)

    def test_pivots_positive_and_reduced(self):
        hnf = hermite_normal_form([[0, 7, 14], [3, -2, 1], [6, 6, 6]])
        pivots = []
        for row in hnf:
            col = next(i for i, v in enumerate(row) if v)
            assert row[col] > 0
            pivots.append((col, row[col]))
        for i, row in enumerate(hnf):
            for col, pivot in pivots[i + 1:]:
                assert 0 <= row[col] < pivot


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class TestDiscriminantWindow:
    def test_covolume_comparable_to_gradient_norm(self):
        """sqrt(covolume_sq)/|l|_inf stays within [1/n, n] on random y."""
        rng = random.Random(5)
        seen = 0
        for degree in (3, 5):
            form = fermat_form(4, degree)
            while seen < 50 * (1 if degree == 3 else 2):
                y = tuple(rng.randint(-6, 6) for _ in range(4))
                if all(v == 0 for v in y):
                    continue
                sliced = linear_slice_coefficients(form, y)
                if sliced.all_zero:
                    continue
                lat = kernel_lattice(sliced.vector)
                linf = max(abs(v) for v in sliced.vector)
                n = form.nvars
                # compare on squares: 1/n^2 <= cov_sq / linf^2 <= n^2
                ratio = Fraction(lat.covolume_sq, linf * linf)
                assert Fraction(1, n * n) <= ratio <= n * n
                seen += 1

    def test_covolume_equals_norm_sq_for_primitive_kernel(self):
        """The kernel of a primitive vector l has covolume_sq = |l|_2^2."""
        rng = random.Random(31)
        for _ in range(50):
            n = rng.randint(2, 6)
            l = [rng.randint(-9, 9) for _ in range(n)]
            g = 0
            for v in l:
                g = math.gcd(g, abs(v))
            if g == 0:
                l[0] = 1
            elif g > 1:
                l = [v // g for v in l]
            lat = kernel_lattice(l)
            assert lat.covolume_sq == sum(v * v for v in l)


class TestSerialisation:
    def test_json_fields(self):
        dump = lattice_to_json(quintic_lattice())
        assert dump["rank"] == 3
        assert dump["covolume_sq"] == "2"
        assert len(dump["basis"]) == 3


@given(st.lists(st.integers(-30, 30), min_size=2, max_size=5))
@settings(max_examples=80, deadline=None)
def test_kernel_rank_and_orthogonality(l):
    if all(v == 0 for v in l):
        l = l[:-1] + [1]
    lat = kernel_lattice(l)
    assert lat.rank == len(l) - 1
    for row in lat.basis:
        assert sum(a * b for a, b in zip(l, row)) == 0
    assert covolume_squared(lat.basis) == lat.covolume_sq


@given(st.integers(0, 4), st.lists(st.integers(-6, 6), min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_enumeration_exact_vs_scan(x_bound, l):
    from itertools import product
    if all(v == 0 for v in l):
        l = [1, 0, 0]
    lat = reduce_basis(kernel_lattice(l))
    direct = {
        p for p in product(range(-x_bound, x_bound + 1), repeat=3)
        if sum(a * b for a, b in zip(l, p)) == 0
    }
    stream = point_tuples(enumerate_points(lat, x_bound))
    assert len(stream) == len(set(stream))
    assert set(stream) == direct


# ---------------------------------------------------------------------------
# Block enumerator against the recursive tuple stream
# ---------------------------------------------------------------------------

def tuple_stream(lattice, x_bound, leading_range=None):
    """Reference point stream: one tuple per point, by recursive interval
    bounding over Python ints (the enumerator before it yielded blocks)."""
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

    first_lo, first_hi = -box[0], box[0]
    if leading_range is not None:
        first_lo = max(first_lo, leading_range[0])
        first_hi = min(first_hi, leading_range[1])

    partial = [0] * n

    def rec(t):
        if t == s:
            if all(abs(v) <= x_bound for v in partial):
                yield tuple(partial)
            return
        lo = first_lo if t == 0 else -box[t]
        hi = first_hi if t == 0 else box[t]
        row = basis[t]
        for i in range(n):
            b = row[i]
            slack = x_bound + tail_bound[t + 1][i]
            if b > 0:
                # partial[i] + xi*b must lie within +-slack
                lo = max(lo, _ceil_div(-slack - partial[i], b))
                hi = min(hi, _floor_div(slack - partial[i], b))
            elif b < 0:
                lo = max(lo, _ceil_div(slack - partial[i], b))
                hi = min(hi, _floor_div(-slack - partial[i], b))
            elif abs(partial[i]) > slack:
                return
        for xi in range(lo, hi + 1):
            for i in range(n):
                partial[i] += xi * row[i]
            yield from rec(t + 1)
            for i in range(n):
                partial[i] -= xi * row[i]

    yield from rec(0)


def _floor_div(a, b):
    return a // b


def _ceil_div(a, b):
    return -((-a) // b)


def blocks_with_cap(cap, *args):
    with mock.patch.object(lattice_module, "_BLOCK_ROWS", cap):
        return list(enumerate_points(*args))


SKEWED = st.one_of(st.integers(-3, 3), st.integers(-60, 60))
LEADING = st.none() | st.tuples(st.integers(-9, 9), st.integers(-9, 9))
CAPS = st.sampled_from([1, 2, 3, 7, 64, 1 << 14])


@st.composite
def kernel_lattices(draw):
    """Kernels of random skewed forms, as stored (echelon) or reduced."""
    n = draw(st.integers(2, 6))
    l = draw(st.lists(SKEWED, min_size=n, max_size=n).filter(any))
    lat = kernel_lattice(l)
    return reduce_basis(lat) if draw(st.booleans()) else lat


@given(kernel_lattices(), st.integers(0, 4), LEADING, CAPS)
@settings(max_examples=150, deadline=None)
def test_blocks_match_tuple_stream(lat, x_bound, leading_range, cap):
    blocks = blocks_with_cap(cap, lat, x_bound, leading_range)
    for block in blocks:
        assert block.dtype == np.int64
        assert block.shape[1] == lat.ambient_dim
        assert 0 < block.shape[0] <= cap
    assert point_tuples(blocks) \
        == list(tuple_stream(lat, x_bound, leading_range))


@given(st.lists(SKEWED, min_size=1, max_size=4).filter(any),
       st.integers(0, 60), LEADING, CAPS)
@settings(max_examples=80, deadline=None)
def test_rank_one_blocks_match_tuple_stream(row, x_bound, leading_range,
                                            cap):
    lat = lattice_from_basis([row])
    blocks = blocks_with_cap(cap, lat, x_bound, leading_range)
    assert all(0 < len(block) <= cap for block in blocks)
    assert point_tuples(blocks) \
        == list(tuple_stream(lat, x_bound, leading_range))


@pytest.mark.parametrize("cap, sizes", [
    (4, [4, 1] * 5), (5, [5] * 5), (9, [5] * 5), (10, [10, 10, 5]),
    (24, [20, 5]), (25, [25]), (26, [25])])
def test_row_cap_boundary(cap, sizes):
    """Z^2 in the cube of radius 2: five rows of five points each; a row
    longer than the cap is cut, shorter rows are packed whole."""
    lat = lattice_from_basis([[1, 0], [0, 1]])
    blocks = blocks_with_cap(cap, lat, 2)
    assert [len(block) for block in blocks] == sizes
    assert point_tuples(blocks) == list(product(range(-2, 3), repeat=2))


def test_object_blocks_beyond_int64():
    """A cube wider than 2^63 switches to object arrays of Python ints."""
    lat = lattice_from_basis([[1, 2]])
    x_bound = 2 ** 64 + 3
    edge = x_bound // 2  # xi (1, 2) lies in the cube iff |xi| <= edge
    for leading_range in ((edge - 2, edge + 2), (-edge - 2, -edge + 2)):
        blocks = list(enumerate_points(lat, x_bound, leading_range))
        assert all(block.dtype == object for block in blocks)
        stream = point_tuples(blocks)
        assert stream == list(tuple_stream(lat, x_bound, leading_range))
        assert stream == [(xi, 2 * xi) for xi in range(
            max(leading_range[0], -edge), min(leading_range[1], edge) + 1)]


# ---------------------------------------------------------------------------
# Integral LLL against the Fraction LLL
# ---------------------------------------------------------------------------

def fraction_lll(rows, lovasz=Fraction(3, 4)):
    """Reference LLL over Fractions (the reduction before it kept its
    Gram-Schmidt data as integers): the whole Gram-Schmidt is recomputed
    after every size reduction."""
    basis = [list(map(int, row)) for row in rows]
    s = len(basis)
    if s <= 1:
        return basis
    k = 1
    while k < s:
        mu, norms = _gram_schmidt(basis)
        for j in range(k - 1, -1, -1):
            if abs(mu[k][j]) > Fraction(1, 2):
                r = _round_half_even(mu[k][j])
                basis[k] = [a - r * b for a, b in zip(basis[k], basis[j])]
                mu, norms = _gram_schmidt(basis)
        if norms[k] >= (lovasz - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            k = max(k - 1, 1)
    return basis


def _gram_schmidt(basis):
    s = len(basis)
    star = []
    norms = []
    mu = [[Fraction(0)] * s for _ in range(s)]
    for i in range(s):
        vec = [Fraction(v) for v in basis[i]]
        for j in range(i):
            if norms[j] == 0:
                continue
            mu[i][j] = Fraction(
                sum(Fraction(a) * b for a, b in zip(basis[i], star[j]))
            ) / norms[j]
            vec = [a - mu[i][j] * b for a, b in zip(vec, star[j])]
        star.append(vec)
        norms.append(sum(v * v for v in vec))
    return mu, norms


def _round_half_even(x):
    floor = x.numerator // x.denominator
    rem = x - floor
    if rem > Fraction(1, 2):
        return floor + 1
    if rem < Fraction(1, 2):
        return floor
    return floor + (floor % 2)


LLL_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))


@st.composite
def skewed_bases(draw):
    """Independent rows: a kernel basis, or a random nonsingular square
    matrix, times a random unimodular skew; entries up to 10^6, and small
    ones often, so that rounding ties occur."""
    n = draw(st.integers(2, 7))
    if draw(st.booleans()):
        l = draw(st.lists(LLL_ENTRIES, min_size=n, max_size=n).filter(any))
        rows = [list(row) for row in kernel_lattice(l).basis]
    else:
        rows = draw(st.lists(
            st.lists(LLL_ENTRIES, min_size=n, max_size=n),
            min_size=n, max_size=n).filter(
                lambda m: covolume_squared(m) != 0))
    # row operations b_i += c * b_j keep the lattice and skew the basis
    for _ in range(draw(st.integers(0, 3 * len(rows)))):
        i, j = draw(st.tuples(st.integers(0, len(rows) - 1),
                              st.integers(0, len(rows) - 1)))
        if i != j:
            c = draw(st.integers(-50, 50))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return rows


@given(skewed_bases())
@settings(max_examples=150, deadline=None)
def test_lll_matches_fraction_lll(rows):
    assert lll_reduce(rows) == fraction_lll(rows)


@given(skewed_bases(), st.sampled_from([Fraction(99, 100), Fraction(1, 2),
                                        Fraction(1, 4)]))
@settings(max_examples=60, deadline=None)
def test_lll_matches_fraction_lll_other_lovasz(rows, lovasz):
    assert lll_reduce(rows, lovasz) == fraction_lll(rows, lovasz)


@pytest.mark.parametrize("rows", [
    [[0, 0, 0]],
    [[1, 2, 3], [2, 4, 6]],
    [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
    [[3, 1], [0, 0]],
])
def test_lll_rejects_dependent_rows(rows):
    with pytest.raises(ZeroVectorInput):
        lll_reduce(rows)
