"""Tests for complete sums, local densities, and prediction assembly."""

import cmath
import functools
import itertools
import math
import os
import sys
import threading
import tracemalloc
import types
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.stats import qmc
from sympy import divisors, factorint, mobius

from linecount import counting, density, expsums, sobol
from linecount.density import (
    DensityEstimate,
    EulerCache,
    Prediction,
    chi_global_padic,
    chi_global_real,
    chi_p_fixed_y,
    count_congruence_solutions,
    lattice_congruence_count,
    oscillatory_v,
    predict_fixed_y,
    predict_pairs,
    real_density_window,
    singular_integral_truncated,
    singular_series_truncated,
)
from linecount.errors import (
    DimensionMismatch,
    DomainError,
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
    Polynomial,
    evaluate_batch,
    evaluate_form,
    gradient,
    grid_chunks,
    integer_slice_form,
    nonzero_slices,
    parse_form,
    pencil_coefficients,
    residues_mod,
)
from linecount.lattice import slicing_lattice
from lattice_oracle import lattice_system, sheared
from test_counting import counted, split_quadric

QUINTIC = fermat_quintic()
YQ = QUINTIC_BASE_POINT
CUBIC4 = fermat_form(4, 3)
YC4 = (1, 0, 2, 0)
CUBIC7 = fermat_form(7, 3)
YC7 = (1, -1, 0, 0, 0, 0, 0)
QUADRIC4 = diagonal_quadric(4)
QUADRIC5 = diagonal_quadric(5)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def lattice_residues(form, y, q):
    """All ambient representatives of the lattice image mod q, by brute force."""
    basis = slicing_lattice(form, y).basis
    out = []
    for t in itertools.product(range(q), repeat=len(basis)):
        x = [sum(c * row[i] for c, row in zip(t, basis)) % q
             for i in range(len(basis[0]))]
        out.append(tuple(x))
    return out


def direct_complete_sum(form, y, q, a):
    """Float reference for the complete sum, slice values taken literally."""
    d = form.degree
    slices = [integer_slice_form(form, y, j) for j in range(2, d + 1)]
    total = 0j
    for x in lattice_residues(form, y, q):
        phase = sum(int(aj) * int(s(x)) for aj, s in zip(a, slices)) / q
        total += cmath.exp(2j * cmath.pi * phase)
    return total


def exact_coprime_a_sum(form, y, q):
    """Sum of S(q, a) over phase vectors with gcd(a, q) = 1, as a rational.

    Accumulates the integer phase histogram over all coprime a; the combined
    histogram must be constant on each class {r : gcd(r, q) = g}, and the
    class sums of e(r/q) are the Moebius values mu(q/g), so the total is an
    exact integer combination — no floating point anywhere.
    """
    d = form.degree
    combined = {r: 0 for r in range(q)}
    for a in itertools.product(range(q), repeat=d - 1):
        if math.gcd(*a, q) != 1:
            continue
        for r, c in phase_histogram(form, y, q, list(a)).items():
            combined[r] += c
    total = Fraction(0)
    for g in divisors(q):
        orbit = [r for r in range(q) if math.gcd(r, q) == g]
        counts = {combined[r] for r in orbit}
        assert len(counts) == 1, "histogram must be constant on gcd classes"
        total += counts.pop() * int(mobius(q // g))
    return total


def scanned_series(form, y, window):
    """The truncated singular series with every N(m), m <= window, from a
    direct scan of the lattice coordinates mod m (no CRT, no Hensel)."""
    polys, s = lattice_system(form, y)
    counts = {m: sum(1 for xi in itertools.product(range(m), repeat=s)
                     if all(int(poly(xi)) % m == 0 for poly in polys))
              for m in range(1, window + 1)}
    d = form.degree
    total = Fraction(0)
    for q in range(1, window + 1):
        inner = sum(int(mobius(e)) * e ** s * (q // e) ** (d - 1)
                    * counts[q // e] for e in divisors(q))
        total += Fraction(inner, q ** s)
    return total


def scan_count(polys, nvars, modulus):
    """#{x mod modulus: every poly vanishes}, by a scan of the whole grid
    in row chunks, masking one poly at a time."""
    total = 0
    for block in grid_chunks([0] * nvars, [modulus - 1] * nvars, 1 << 16):
        mask = np.ones(block.shape[0], dtype=bool)
        for poly in polys:
            mask &= residues_mod(evaluate_batch(poly, block), modulus) == 0
        total += int(mask.sum())
    return total


def convolution_count(polys, nvars, modulus):
    """#{x mod modulus: every poly vanishes}, by the unmetered convolution
    of the whole residue grid, at any modulus, prime or composite."""
    return counting._convolution_count(polys, [(0, modulus - 1)] * nvars,
                                       modulus,
                                       counting._Budget(None, "residues"))


@functools.lru_cache(maxsize=None)
def inverse_vandermonde(d):
    """(A, D) with A / D the exact inverse of the Vandermonde matrix
    [u^j] for u, j = 0..d: A integral, D its common denominator."""
    matrix = [[Fraction(u ** j) for j in range(d + 1)]
              + [Fraction(int(u == r)) for r in range(d + 1)]
              for u in range(d + 1)]
    for col in range(d + 1):
        pivot = next(r for r in range(col, d + 1) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inv = 1 / matrix[col][col]
        matrix[col] = [v * inv for v in matrix[col]]
        for r in range(d + 1):
            if r != col and matrix[r][col]:
                f = matrix[r][col]
                matrix[r] = [v - f * w for v, w in zip(matrix[r], matrix[col])]
    inverse = [row[d + 1:] for row in matrix]
    denominator = math.lcm(*(v.denominator for row in inverse for v in row))
    return ([[int(v * denominator) for v in row] for row in inverse],
            denominator)


def brute_pencil(form, x, y):
    """Exact pencil coefficients of F(u x + y): the values at u = 0..d
    times the inverse Vandermonde matrix of degree d."""
    d = form.degree
    values = [form(tuple(u * a + b for a, b in zip(x, y)))
              for u in range(d + 1)]
    inverse, denominator = inverse_vandermonde(d)
    coefficients = []
    for row in inverse:
        scaled = sum(a * v for a, v in zip(row, values))
        assert scaled % denominator == 0
        coefficients.append(scaled // denominator)
    return coefficients


def brute_pair_chi(form, p, H):
    """Pair-system density oracle by exhaustive scan with exact pencils.

    The outer pencil coefficients are c_0 = F(y) and c_d = F(x), so only
    pairs of zeros of F mod p^H can count; every coefficient of those is
    checked."""
    n = form.nvars
    d = form.degree
    modulus = p ** H
    zeros = [x for x in itertools.product(range(modulus), repeat=n)
             if form(x) % modulus == 0]
    count = sum(1 for x in zeros for y in zeros
                if all(c % modulus == 0 for c in brute_pencil(form, x, y)))
    return Fraction(p) ** (H * (d + 1 - 2 * n)) * count


# ---------------------------------------------------------------------------
# DensityEstimate / Prediction plumbing
# ---------------------------------------------------------------------------

class TestDensityEstimate:
    def test_exact_json(self):
        est = DensityEstimate(kind="series", value=Fraction(7, 3))
        assert est.is_exact
        assert est.to_json() == {"kind": "series", "value": "7/3"}
        assert est.magnitude() == pytest.approx(7 / 3)

    def test_sampled_json(self):
        est = DensityEstimate(kind="real", mean=1.5, stderr=0.1,
                              samples=1024, seed=7)
        out = est.to_json()
        assert out["mean"] == 1.5 and out["stderr"] == 0.1
        assert out["samples"] == 1024 and out["seed"] == 7

    def test_complex_mean_json(self):
        est = DensityEstimate(kind="integral", mean=1 + 2j, stderr=0.1,
                              samples=16, seed=0)
        assert est.to_json()["mean"] == [1.0, 2.0]

    def test_rejects_both_shapes(self):
        with pytest.raises(DomainError):
            DensityEstimate(kind="real", value=Fraction(1), mean=1.0,
                            stderr=0.1, samples=16, seed=0)

    def test_rejects_neither_shape(self):
        with pytest.raises(DomainError):
            DensityEstimate(kind="real")

    def test_rejects_missing_metadata(self):
        with pytest.raises(DomainError):
            DensityEstimate(kind="real", mean=1.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            DensityEstimate(kind="adelic", value=Fraction(1))

    @given(st.fractions(max_denominator=50))
    @settings(max_examples=25, deadline=None)
    def test_exact_never_carries_sampling_fields(self, value):
        est = DensityEstimate(kind="p-adic", value=value)
        assert est.stderr is None and est.samples is None


class TestPencilCoefficientForm:
    """``form.pencil``, the coefficients of F(u x + y) as forms in (x, y),
    and the two paths derived from it, against the inverse Vandermonde."""

    def test_matches_vandermonde_oracle(self):
        rng = np.random.default_rng(3)
        for form in (CUBIC4, QUINTIC):
            pencil = form.pencil
            for _ in range(5):
                x = tuple(int(v) for v in rng.integers(-3, 4, form.nvars))
                y = tuple(int(v) for v in rng.integers(-3, 4, form.nvars))
                expected = brute_pencil(form, x, y)
                got = [evaluate_form(g, x + y) for g in pencil]
                assert got == expected

    def test_outer_coefficients(self):
        x, y = (1, 2, -1, 3), (0, 1, 1, -2)
        low, high = QUINTIC.pencil[0], QUINTIC.pencil[5]
        assert evaluate_form(low, x + y) == QUINTIC(y)
        assert evaluate_form(high, x + y) == QUINTIC(x)

    @pytest.mark.parametrize("form", [CUBIC4, QUINTIC, QUADRIC5,
                                      random_dense_form(3, 4, seed=5)])
    def test_pencil_forms_shape(self, form):
        """d + 1 integer forms of degree d in the 2n variables (x, y),
        built once per form."""
        pencil = form.pencil
        assert len(pencil) == form.degree + 1
        for c_j in pencil:
            assert (c_j.nvars, c_j.degree) == (2 * form.nvars, form.degree)
            assert all(isinstance(c, int) for c in c_j.coeffs.values())
        assert form.pencil is pencil

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(0, 10 ** 6),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_three_paths_match_vandermonde(self, n, d, seed, data):
        form = random_dense_form(n, d, seed)
        vector = st.tuples(*[st.integers(-3, 3)] * n)
        x, y = data.draw(vector), data.draw(vector)
        expected = brute_pencil(form, x, y)
        assert [evaluate_form(c_j, x + y) for c_j in form.pencil] == expected
        assert list(pencil_coefficients(form, x, y).coefficients) == expected
        assert [evaluate_form(integer_slice_form(form, y, j), x)
                for j in range(d + 1)] == expected

    @given(st.integers(0, 10 ** 6), st.data())
    @settings(max_examples=10, deadline=None)
    def test_dense_quintic_beyond_int64(self, seed, data):
        """The pencil of a dense quintic in 6 variables (4,368 terms) at
        points whose pencil values overflow int64."""
        form = random_dense_form(6, 5, seed)
        vector = st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * 6)
        x, y = data.draw(vector), data.draw(vector)
        coefficients = pencil_coefficients(form, x, y).coefficients
        assert all(type(c) is int for c in coefficients)
        assert list(coefficients) == brute_pencil(form, x, y)


# ---------------------------------------------------------------------------
# Complete sums
# ---------------------------------------------------------------------------

class TestPhaseHistogram:
    def test_quintic_mod_two_hand_enumeration(self):
        # the 8 residues are (x1, x2, x3, x3) with free x1, x2, x3 mod 2;
        # every slice value is even there, so all phases collapse to 0
        hist = phase_histogram(QUINTIC, YQ, 2, [1, 0, 0, 0])
        slices = [integer_slice_form(QUINTIC, YQ, j) for j in range(2, 6)]
        expected = {}
        for x1, x2, x3 in itertools.product(range(2), repeat=3):
            x = (x1, x2, x3, x3)
            r = int(slices[0](x)) % 2
            expected[r] = expected.get(r, 0) + 1
        assert hist == expected == {0: 8}

    @pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
    def test_mass_equals_lattice_residue_count(self, q):
        hist = phase_histogram(QUINTIC, YQ, q, [1, 2, 0, 1])
        assert sum(hist.values()) == q ** 3

    @pytest.mark.parametrize("moduli", [(2, 3), (3, 4)])
    def test_crt_multiplicativity_exact(self, moduli):
        # 1/(q1 q2) = q2bar/q1 + q1bar/q2 mod 1 transports the histogram of
        # the product modulus onto a convolution of the factor histograms
        q1, q2 = moduli
        q = q1 * q2
        q2bar = pow(q2, -1, q1)
        q1bar = pow(q1, -1, q2)
        rng = np.random.default_rng(11)
        for _ in range(3):
            a = [int(v) for v in rng.integers(0, q, CUBIC4.degree - 1)]
            h1 = phase_histogram(CUBIC4, YC4, q1, [v * q2bar for v in a])
            h2 = phase_histogram(CUBIC4, YC4, q2, [v * q1bar for v in a])
            combined = {}
            for (r1, c1), (r2, c2) in itertools.product(h1.items(), h2.items()):
                r = (r1 * q2 + r2 * q1) % q
                combined[r] = combined.get(r, 0) + c1 * c2
            assert combined == phase_histogram(CUBIC4, YC4, q, a)

    def test_wrong_phase_length(self):
        with pytest.raises(DimensionMismatch):
            phase_histogram(QUINTIC, YQ, 2, [1, 0])

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            phase_histogram(QUINTIC, YQ, 0, [1, 0, 0, 0])


def phase_histogram(form, y, q, a, *, budget=density.DEFAULT_COUNT_BUDGET):
    """Counts of (sum_j a_j c_j(x, y)) mod q over the lattice image mod q.

    The histogram determines the complete sum exactly: the sum equals
    sum_r count[r] e(r / q).  Exposed separately so that algebraic
    identities (multiplicativity under coprime factorisation) can be
    verified in exact integer arithmetic.
    """
    if q < 1:
        raise DomainError("modulus must be at least 1")
    d = form.degree
    if len(a) != d - 1:
        raise DimensionMismatch(
            f"need {d - 1} phase coefficients, got {len(a)}")
    lattice = slicing_lattice(form, y)
    slices = nonzero_slices(form, y)
    ledger = counting._Budget(budget, "lattice residues scanned")
    counts = np.zeros(q, dtype=np.int64)
    coeff = {j: int(a[j - 2]) % q for j in range(2, d + 1)}
    basis = np.asarray(lattice.basis, dtype=np.int64)
    for grid in density._residue_grid(lattice.rank, q):
        # ambient representatives of the lattice image mod q
        block = (grid @ basis) % q
        ledger.charge(block.shape[0])
        total = np.zeros(block.shape[0], dtype=np.int64)
        for j, sliced in slices:
            if coeff[j] == 0:
                continue
            residues = residues_mod(evaluate_batch(sliced, block), q)
            total = (total + coeff[j] * residues) % q
        counts += np.bincount(total, minlength=q)
    return {r: int(c) for r, c in enumerate(counts) if c}


def complete_sum_S(form, y, q, a, *, precision=120,
                   budget=density.DEFAULT_COUNT_BUDGET):
    """The complete exponential sum over the lattice residues mod q:
    e((a_2 c_2(x) + ... + a_d c_d(x)) / q) summed over the image of the
    slicing lattice in (Z/q)^n, from the exact :func:`phase_histogram`
    through the histogram-to-sum step of ``expsums.exponential_sum_T``
    (e(.) once per residue, weighted by its count exactly, each part
    rounded once).  Satisfies |S| <= q^rank, with equality at a = 0."""
    return expsums._phase_sum(phase_histogram(form, y, q, a, budget=budget),
                              q, precision)


class TestCompleteSum:
    def test_single_residue_class(self):
        assert complete_sum_S(QUINTIC, YQ, 1, [0, 0, 0, 0]) == 1

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_zero_phase_counts_residues(self, q):
        assert complete_sum_S(QUINTIC, YQ, q, [0, 0, 0, 0]) == q ** 3

    def test_matches_direct_enumeration(self):
        value = complete_sum_S(QUINTIC, YQ, 2, [1, 0, 0, 0])
        direct = direct_complete_sum(QUINTIC, YQ, 2, [1, 0, 0, 0])
        assert abs(complex(value) - direct) < 1e-12
        assert complex(value) == pytest.approx(8)

    def test_random_phases_respect_residue_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            q = int(rng.integers(2, 9))
            a = [int(v) for v in rng.integers(0, q, 2)]
            value = complete_sum_S(CUBIC4, YC4, q, a)
            assert abs(complex(value)) <= q ** 3 + 1e-9

    def test_float_multiplicativity(self):
        a = [1, 1]
        q2bar = pow(4, -1, 3)
        q1bar = pow(3, -1, 4)
        left = complex(complete_sum_S(CUBIC4, YC4, 12, a))
        right = (complex(complete_sum_S(CUBIC4, YC4, 3, [v * q2bar for v in a]))
                 * complex(complete_sum_S(CUBIC4, YC4, 4, [v * q1bar for v in a])))
        assert abs(left - right) < 1e-9 * 12 ** 3

    def test_degenerate_point_rejected(self):
        with pytest.raises(ZeroVectorInput):
            complete_sum_S(QUINTIC, (0, 0, 0, 0), 2, [1, 0, 0, 0])

    def test_budget(self):
        with pytest.raises(ResourceLimit):
            complete_sum_S(QUINTIC, YQ, 5, [1, 0, 0, 0], budget=20)


# ---------------------------------------------------------------------------
# Congruence counting
# ---------------------------------------------------------------------------

@st.composite
def diagonal_base_points(draw):
    """(form, y, m): a diagonal form sum a_i x_i^d with n <= 6 and d <= 4,
    or its shear (:func:`lattice_oracle.sheared`), a base point y with
    grad F(y) != 0, and a modulus m <= 12 with m^n <= 10^5."""
    n = draw(st.integers(2, 6))
    d = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    y = tuple(draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    assume(any(a * v for a, v in zip(weights, y)))
    form = HomogeneousForm(nvars=n, degree=d, coeffs={
        tuple(d * (i == k) for i in range(n)): a
        for k, a in enumerate(weights) if a})
    if draw(st.booleans()):
        form, y = sheared(form, y)
    return form, y, draw(st.integers(1, min(12, int(10 ** (5 / n)))))


class TestCongruenceCounting:
    @pytest.mark.parametrize("q,expected", [(2, 4), (3, 9), (4, 24)])
    def test_quintic_lattice_counts(self, q, expected):
        slices = [integer_slice_form(QUINTIC, YQ, j) for j in range(2, 6)]
        brute = sum(
            1 for x in lattice_residues(QUINTIC, YQ, q)
            if all(int(s(x)) % q == 0 for s in slices))
        assert lattice_congruence_count(QUINTIC, YQ, q) == brute == expected

    def test_composite_modulus(self):
        slices = [integer_slice_form(QUINTIC, YQ, j) for j in range(2, 6)]
        brute = sum(
            1 for x in lattice_residues(QUINTIC, YQ, 6)
            if all(int(s(x)) % 6 == 0 for s in slices))
        assert lattice_congruence_count(QUINTIC, YQ, 6) == brute == 36

    @staticmethod
    def hensel_calls(monkeypatch):
        """The (nvars, modulus) of every residue grid the Hensel route
        scans: the base mod p, then each singular fiber."""
        calls = []
        original = density._residue_grid

        def wrapper(nvars, modulus):
            calls.append((nvars, modulus))
            return original(nvars, modulus)

        monkeypatch.setattr(density, "_residue_grid", wrapper)
        return calls

    def test_hensel_matches_direct_quintic(self, monkeypatch):
        # the sheared quintic joins its 4 variables into one component, so
        # mod 9 the direct count streams 9^4 residues and a budget below
        # that takes the Hensel route; both give the quintic's N(9)
        form, y = sheared(QUINTIC, YQ)
        polys = density._slice_system(form, y, True)
        calls = self.hensel_calls(monkeypatch)
        direct = count_congruence_solutions(polys, 4, 3, 2, budget=None)
        assert calls == []
        hensel = count_congruence_solutions(polys, 4, 3, 2, budget=10 ** 3)
        assert calls[0] == (4, 3)
        assert direct == hensel == 135

    def test_hensel_matches_direct_cubic_fullspace(self, monkeypatch):
        form, y = sheared(CUBIC7, YC7)
        polys = density._slice_system(form, y, False)
        calls = self.hensel_calls(monkeypatch)
        direct = count_congruence_solutions(polys, 7, 3, 2, budget=None)
        assert calls == []
        hensel = count_congruence_solutions(polys, 7, 3, 2,
                                            budget=9 ** 7 - 1)
        assert calls[0] == (7, 3)
        assert direct == hensel == 334611

    def test_hensel_handles_all_singular_base(self, monkeypatch):
        # c_2 = 3 (x1^2 - x2^2) vanishes to second order on ker h mod 3,
        # so the Jacobian never reaches full rank: each of the 243 base
        # solutions is lifted by an exhaustive scan of its fiber
        form, y = sheared(CUBIC7, YC7)
        polys = density._slice_system(form, y, True)
        calls = self.hensel_calls(monkeypatch)
        direct = count_congruence_solutions(polys, 7, 3, 2, budget=None)
        assert calls == []
        forced = count_congruence_solutions(polys, 7, 3, 2, budget=10 ** 6)
        assert calls == [(7, 3)] * (1 + 243)
        assert direct == forced == 111537

    def test_vacuous_equation_dropped(self):
        tripled = Polynomial(nvars=1, coeffs={(2,): Fraction(3)})
        assert count_congruence_solutions([tripled], 1, 3, 1) == 3
        brute = sum(1 for x in range(9) if (3 * x * x) % 9 == 0)
        assert count_congruence_solutions([tripled], 1, 3, 2) == brute == 3

    def test_empty_system_counts_everything(self):
        assert count_congruence_solutions([], 3, 2, 1) == 8

    def test_bad_modulus(self):
        with pytest.raises(DomainError):
            count_congruence_solutions([], 2, 1, 1)
        with pytest.raises(DomainError):
            count_congruence_solutions([], 2, 2, 0)
        with pytest.raises(DomainError):
            lattice_congruence_count(QUINTIC, YQ, 0)

    def test_budget(self):
        polys = density._slice_system(QUINTIC, YQ, True)
        with pytest.raises(ResourceLimit):
            count_congruence_solutions(polys, 4, 3, 2, budget=10)

    @pytest.mark.parametrize("system,p,expected", [
        ("quintic-lattice", 5, 25), ("cubic7-fullspace", 2, 32)])
    def test_scan_charge_boundary(self, system, p, expected):
        """The direct count charges what the convolution forms: the
        residue grids of the single-variable components (2 * 5 for the
        quintic's x3, x4; 7 * 2 for the cubic), then the entries of each
        fold.  One below that the count stops, at it the count is the
        scan's."""
        form, y, primitive = ((QUINTIC, YQ, True)
                              if system == "quintic-lattice"
                              else (CUBIC7, YC7, False))
        polys = density._slice_system(form, y, primitive)
        nvars = form.nvars
        charge = {"quintic-lattice": 70, "cubic7-fullspace": 46}[system]
        with pytest.raises(ResourceLimit):
            count_congruence_solutions(polys, nvars, p, 1,
                                       budget=charge - 1)
        assert count_congruence_solutions(polys, nvars, p, 1,
                                          budget=charge) \
            == scan_count(polys, nvars, p) == expected

    def test_composite_modulus_charge_boundary(self):
        """Mod 6 the count is N(2) N(3), each prime power charged to its
        own budget: the larger charge, 30 for mod 3, is the boundary."""
        for m, charge in [(2, 16), (3, 30), (6, 30)]:
            with pytest.raises(ResourceLimit):
                lattice_congruence_count(QUINTIC, YQ, m, budget=charge - 1)
        assert lattice_congruence_count(QUINTIC, YQ, 6, budget=30) == 36

    @pytest.mark.parametrize("p", [4, 6, 9])
    def test_rejects_composite_p(self, p):
        """A composite p is refused on either route: the Hensel route's
        elimination mod p would need inverses that do not exist."""
        # x1 x2 + x2 x3 + x3^2 + x1, one component of grid p^6 mod p^2
        poly = Polynomial(nvars=3, coeffs={
            (1, 1, 0): Fraction(1), (0, 1, 1): Fraction(1),
            (0, 0, 2): Fraction(1), (1, 0, 0): Fraction(1)})
        for budget in (None, p ** 6 - 1):
            with pytest.raises(DomainError, match="prime"):
                count_congruence_solutions([poly], 3, p, 2, budget=budget)

    @settings(max_examples=60, deadline=None)
    @given(diagonal_base_points())
    @example((QUADRIC5, (1, 0, 0, 0, 0), 2))
    def test_ambient_count_matches_lattice_scan(self, case):
        """The ambient count of the lattice residues equals a scan of the
        pulled-back system in the lattice coordinates, on diagonal forms
        and on their shears, whose variables join.  The content of
        grad F(y) is a multiple of d, so m often shares a factor with it,
        where h . x and grad F(y) . x differ (as mod 2 in the example)."""
        form, y, m = case
        assert lattice_congruence_count(form, y, m, budget=None) \
            == scan_count(*lattice_system(form, y), m)


@st.composite
def partitioned_systems(draw):
    """(polys, nvars, modulus): sparse integer systems whose monomials
    each stay inside one block of a drawn partition of the variables, so
    the system splits into at most that many components.  Covers free
    variables (in no monomial), constant terms and coefficients that
    vanish mod the modulus, at prime, prime-power and composite moduli."""
    modulus = draw(st.sampled_from([2, 3, 5, 7, 11, 4, 8, 9, 6, 10, 12]))
    most = max(1, int(math.log(4096, modulus)))
    nvars = draw(st.sampled_from(range(most, 0, -1)))
    nblocks = draw(st.sampled_from(range(nvars, 0, -1)))
    order = draw(st.permutations(range(nvars)))
    blocks = [order.index(v) % nblocks for v in range(nvars)]
    free = set(draw(st.lists(st.integers(0, nvars - 1),
                             max_size=nvars - 1)))
    members = {}
    for v, b in enumerate(blocks):
        if v not in free:
            members.setdefault(b, []).append(v)
    polys = []
    for _ in range(draw(st.sampled_from([3, 2, 1]))):
        coeffs = {}
        if draw(st.booleans()):
            coeffs[(0,) * nvars] = draw(st.integers(-modulus, modulus))
        for _ in range(draw(st.sampled_from([4, 3, 2, 1]))):
            block = members[draw(st.sampled_from(sorted(members)))]
            exponents = [0] * nvars
            for v in block:
                exponents[v] = draw(st.integers(0, 3))
            exponents[block[0]] = max(exponents[block[0]], 1)
            coefficient = (draw(st.integers(1, 2 * modulus))
                           * draw(st.sampled_from([1, -1])))
            if draw(st.integers(0, 4)) == 4:
                coefficient = modulus * draw(st.sampled_from([1, -1, 2]))
            coeffs[tuple(exponents)] = coeffs.get(tuple(exponents), 0) \
                + coefficient
        polys.append(Polynomial(nvars=nvars, coeffs={
            e: Fraction(c) for e, c in coeffs.items() if c}))
    return polys, nvars, modulus


#: One component, with a constant term.
ONE_COMPONENT = [{(3, 0, 0, 0): 1, (0, 3, 0, 0): 2, (1, 0, 1, 0): 1,
                  (0, 0, 2, 0): -1, (0, 0, 0, 0): 5},
                 {(1, 1, 0, 0): 1, (0, 0, 1, 1): 3}]


class TestResidueCount:
    """The component count against the scan of the whole grid."""

    @settings(max_examples=300, deadline=None)
    @given(partitioned_systems())
    def test_matches_scan(self, system):
        polys, nvars, modulus = system
        assert convolution_count(polys, nvars, modulus) \
            == scan_count(polys, nvars, modulus)

    @pytest.mark.parametrize("modulus", [2, 3, 4, 5, 6, 7, 8, 9, 11])
    @pytest.mark.parametrize("system", [
        ONE_COMPONENT,
        # four singletons
        [{(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1,
          (0, 0, 0, 2): -1},
         {(1, 0, 0, 0): 1, (0, 0, 0, 3): 2}],
        # a pair and a singleton, x4 free
        [{(1, 1, 0, 0): 1, (0, 0, 2, 0): 3, (0, 0, 0, 0): 7},
         {(0, 0, 3, 0): 1, (0, 0, 0, 0): -1}],
        # x1 is free mod 2, joined to x2 mod 3 and mod 9
        [{(2, 0, 0, 0): 6, (0, 3, 0, 0): 1},
         {(1, 1, 0, 0): 4, (0, 1, 0, 0): 1}],
    ])
    def test_fixed_systems(self, system, modulus):
        polys = [Polynomial(nvars=4, coeffs={e: Fraction(c)
                                             for e, c in terms.items()})
                 for terms in system]
        assert convolution_count(polys, 4, modulus) \
            == scan_count(polys, 4, modulus)

    def test_value_vectors_too_wide_for_a_key(self, monkeypatch):
        """Nine polys mod 257 would need digit weights up to 257^8 > 2^62,
        so a key is a row of two int64 columns, matched by re-ranking."""
        calls = counted(monkeypatch, "_row_ids")
        polys = [Polynomial(nvars=2, coeffs={(k, 0): Fraction(1),
                                             (0, k): Fraction(k)})
                 for k in range(1, 10)]
        assert convolution_count(polys, 2, 257) \
            == scan_count(polys, 2, 257) == 1
        assert calls and all(rows.shape[1] == 2 for rows, in calls)

    @pytest.mark.parametrize("modulus", [7, 49])
    def test_one_component_streams(self, monkeypatch, modulus):
        """A system of one component is never accumulated: its grid rows
        are looked up, block by block, in the one-entry histogram at minus
        the constant terms."""
        accumulated = counted(monkeypatch, "_accumulate")
        merged = counted(monkeypatch, "_merge_histogram")
        polys = [Polynomial(nvars=4, coeffs={e: Fraction(c)
                                             for e, c in terms.items()})
                 for terms in ONE_COMPONENT]
        assert convolution_count(polys, 4, modulus) \
            == scan_count(polys, 4, modulus)
        assert accumulated == []
        assert [sum(len(keys) for keys, _ in parts)
                for parts, in merged] == [1]

    @settings(max_examples=100, deadline=None)
    @given(partitioned_systems(),
           st.lists(st.tuples(st.integers(-2, 0), st.integers(0, 2)),
                    min_size=12, max_size=12))
    @example(([Polynomial(nvars=1, coeffs={(1,): Fraction(1),
                                           (0,): Fraction(c)})
               for c in (1, -1)], 1, 2), [(0, 0)] * 12)
    def test_integer_box_matches_scan(self, system, bounds):
        """The same counter over Z, on a box prod_i [low_i, high_i], one
        bound pair per variable.  The example has values 1 and -1 at the
        one point 0, so the radices must leave room for the constant
        terms."""
        polys, nvars, _ = system
        bounds = bounds[:nvars]
        assume(math.prod(high - low + 1 for low, high in bounds) <= 4096)
        want = sum(1 for x in itertools.product(
                       *(range(low, high + 1) for low, high in bounds))
                   if all(poly(x) == 0 for poly in polys))
        assert counting._convolution_count(
            polys, bounds, None,
            counting._Budget(None, counting._ROW_WORK)) == want

    def test_components(self):
        from linecount.counting import _variable_components
        monomials = [(1, 1, 0, 0, 0, 0), (0, 0, 2, 0, 0, 0),
                     (0, 1, 0, 1, 0, 0), (0, 0, 0, 0, 0, 3)]
        assert _variable_components(monomials, 6) == [[0, 1, 3], [2], [5]]

    def test_nonzero_constant_has_no_solutions(self):
        polys = [Polynomial(nvars=2, coeffs={(1, 0): Fraction(1)}),
                 Polynomial(nvars=2, coeffs={(0, 0): Fraction(4),
                                             (0, 2): Fraction(6)})]
        assert convolution_count(polys, 2, 6) == scan_count(polys, 2, 6) == 0
        assert convolution_count(polys, 2, 2) == scan_count(polys, 2, 2) == 2


# ---------------------------------------------------------------------------
# Singular series
# ---------------------------------------------------------------------------

class TestSingularSeries:
    def test_window_one(self):
        assert singular_series_truncated(QUINTIC, YQ, 1).value == 1

    def test_window_two_matches_direct_two_term_evaluation(self):
        # S(2, a) is an exact integer (hist[0] - hist[1]); sum over the 15
        # phase vectors that are odd somewhere and add the q = 1 term
        second = Fraction(0)
        for a in itertools.product(range(2), repeat=4):
            if any(a):
                hist = phase_histogram(QUINTIC, YQ, 2, list(a))
                second += hist.get(0, 0) - hist.get(1, 0)
        expected = 1 + Fraction(second, 2 ** 3)
        assert singular_series_truncated(QUINTIC, YQ, 2).value == expected

    def test_window_four_matches_coprime_sum_oracle(self):
        expected = sum(
            (exact_coprime_a_sum(QUINTIC, YQ, q) / q ** 3 for q in range(1, 5)),
            Fraction(0))
        value = singular_series_truncated(QUINTIC, YQ, 4).value
        assert value == expected == 122

    def test_cubic_nondegenerate_point(self):
        expected = sum(
            (exact_coprime_a_sum(CUBIC4, YC4, q) / q ** 3 for q in range(1, 4)),
            Fraction(0))
        assert singular_series_truncated(CUBIC4, YC4, 3).value == expected

    def test_bad_window(self):
        with pytest.raises(DomainError):
            singular_series_truncated(QUINTIC, YQ, 0)

    def test_budget(self):
        with pytest.raises(ResourceLimit):
            singular_series_truncated(QUINTIC, YQ, 50, budget=100)

    def test_series_builds_no_slicing_lattice(self, monkeypatch):
        """The series counts in the ambient coordinates, so it reduces no
        lattice basis."""
        builds = []

        def counted(form, y):
            builds.append(tuple(y))
            return slicing_lattice(form, y)

        monkeypatch.setattr(density, "slicing_lattice", counted)
        value = singular_series_truncated(CUBIC7, YC7, 12).value
        assert builds == []
        assert value == Fraction(2774, 49)

    @pytest.mark.parametrize("form,y", [(QUINTIC, YQ), (CUBIC4, YC4)])
    def test_crt_matches_scan_of_every_modulus(self, form, y):
        assert singular_series_truncated(form, y, 12).value \
            == scanned_series(form, y, 12)

    def test_only_prime_powers_are_scanned(self, monkeypatch):
        scanned = []
        original = density.count_congruence_solutions

        def counted(polys, nvars, p, H, *, budget):
            scanned.append(p ** H)
            return original(polys, nvars, p, H, budget=budget)

        monkeypatch.setattr(density, "count_congruence_solutions", counted)
        singular_series_truncated(CUBIC4, YC4, 12)
        assert scanned == [2, 3, 4, 5, 7, 8, 9, 11]

    def test_composite_modulus_charges_nothing(self):
        """Each prime power is charged to its own budget, and N(6) is
        N(2) N(3) by CRT: the window-6 series needs the 70 that counting
        mod 5 is charged, and N(6) alone the 30 of counting mod 3.  One
        below 70 the series stops, at it the series passes."""
        with pytest.raises(ResourceLimit) as info:
            singular_series_truncated(QUINTIC, YQ, 6, budget=70 - 1)
        assert info.value.budget == 70 - 1
        assert lattice_congruence_count(QUINTIC, YQ, 6, budget=70) == 36
        value = singular_series_truncated(QUINTIC, YQ, 6, budget=70)
        assert value.value == scanned_series(QUINTIC, YQ, 6)

    def test_ten_variable_cubic_at_the_default_budget(self):
        """Fermat-3-10 at an indefinite y has a rank-9 slicing lattice.
        In the ambient coordinates every modulus of the window-16 series
        is a convolution of single variables, within the default budget;
        N(1..4) agree with a scan of the lattice coordinates."""
        form = fermat_form(10, 3)
        y = (1, 1, 1, 1, 1, -1, -1, -1, -1, 2)
        polys, s = lattice_system(form, y)
        assert [lattice_congruence_count(form, y, m) for m in range(1, 5)] \
            == [scan_count(polys, s, m) for m in range(1, 5)] \
            == [1, 256, 19683, 35072]
        assert singular_series_truncated(form, y, 16).value > 0

    def test_factorise_matches_sympy(self):
        from linecount.density import _factorise, _moebius
        for q in range(1, 400):
            factors = sorted(factorint(q).items())
            assert _factorise(q) == factors
            assert _moebius(q) == int(mobius(q))


# ---------------------------------------------------------------------------
# p-adic densities for fixed y
# ---------------------------------------------------------------------------

class TestChiPFixedY:
    def test_cubic_fullspace_example(self):
        # mod 2 the conditions collapse to x2 = x1 and an even coordinate
        # sum: 2 * 16 = 32 of the 128 points, so the density is 2
        slices = [integer_slice_form(CUBIC7, YC7, j) for j in range(1, 4)]
        brute = sum(
            1 for x in itertools.product(range(2), repeat=7)
            if all(int(s(x)) % 2 == 0 for s in slices))
        assert brute == 32
        _, full = chi_p_fixed_y(CUBIC7, YC7, 2, 1)
        assert full == Fraction(2) ** (3 - 7) * brute == 2

    def test_zero_solution_floor(self):
        lattice_value, _ = chi_p_fixed_y(QUINTIC, YQ, 11, 1)
        count = lattice_value / Fraction(11) ** (5 - 1 - 3)
        assert count.denominator == 1 and count >= 1

    @pytest.mark.parametrize("p,H", [(2, 1), (2, 2), (3, 1)])
    def test_orthogonality_identity_quintic(self, p, H):
        partial = Fraction(1)
        for h in range(1, H + 1):
            partial += exact_coprime_a_sum(QUINTIC, YQ, p ** h) / p ** (h * 3)
        lattice_value, _ = chi_p_fixed_y(QUINTIC, YQ, p, H)
        assert lattice_value == partial

    @pytest.mark.parametrize("p,H", [(2, 2), (3, 1)])
    def test_orthogonality_identity_cubic(self, p, H):
        partial = Fraction(1)
        for h in range(1, H + 1):
            partial += exact_coprime_a_sum(CUBIC4, YC4, p ** h) / p ** (h * 3)
        lattice_value, _ = chi_p_fixed_y(CUBIC4, YC4, p, H)
        assert lattice_value == partial

    @pytest.mark.parametrize("p,H", [(2, 1), (3, 1)])
    def test_display_convention_breaks_orthogonality(self, p, H):
        partial = Fraction(1)
        for h in range(1, H + 1):
            partial += exact_coprime_a_sum(QUINTIC, YQ, p ** h) / p ** (h * 3)
        display, _ = chi_p_fixed_y(QUINTIC, YQ, p, H, display_convention=True)
        honest, _ = chi_p_fixed_y(QUINTIC, YQ, p, H)
        assert honest == partial
        assert display != partial
        # the two conventions differ by exactly the triangular-number gap
        assert display == honest * Fraction(p) ** (H * (15 - 5))

    def test_rejects_composite_p(self):
        with pytest.raises(DomainError):
            chi_p_fixed_y(QUINTIC, YQ, 4, 1)
        with pytest.raises(DomainError):
            chi_p_fixed_y(QUINTIC, YQ, 6, 1)

    def test_rejects_bad_level(self):
        with pytest.raises(DomainError):
            chi_p_fixed_y(QUINTIC, YQ, 2, 0)

    def test_quintic_mod_125_at_the_default_budget(self):
        """Both systems of the quintic are single-variable components, so
        mod 5^3 each count is a few small convolutions; charged the whole
        grid it was refused at the default budget."""
        assert chi_p_fixed_y(QUINTIC, YQ, 5, 3) \
            == (Fraction(17578125), Fraction(87890625))

    def test_degenerate_point_rejected(self):
        with pytest.raises(ZeroVectorInput):
            chi_p_fixed_y(QUINTIC, (0, 0, 0, 0), 2, 1)


# ---------------------------------------------------------------------------
# Oscillatory slab integrals
# ---------------------------------------------------------------------------

class TestOscillatoryV:
    def test_slab_volume(self):
        est = oscillatory_v(QUINTIC, YQ, {2: 0.0, 3: 0.0, 4: 0.0, 5: 0.0},
                            1, 4096, seed=7)
        value = est.mean.real if isinstance(est.mean, complex) else est.mean
        assert value / math.sqrt(2) == pytest.approx(
            8, abs=max(3 * est.stderr, 1e-9))

    def test_zero_frequency_dominates(self):
        base = oscillatory_v(QUINTIC, YQ, [0.0] * 4, 1, 4096, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            beta = [float(v) for v in rng.uniform(-2, 2, 4)]
            est = oscillatory_v(QUINTIC, YQ, beta, 1, 4096, seed=1)
            assert abs(est.mean) <= abs(base.mean) + 3 * (est.stderr
                                                          + base.stderr)

    def test_scaling_to_unit_box(self):
        rng = np.random.default_rng(4)
        x_bound = 2
        for _ in range(3):
            beta = [float(v) for v in rng.uniform(-0.2, 0.2, 4)]
            gamma = [x_bound ** j * b for j, b in enumerate(beta, start=2)]
            lhs = oscillatory_v(QUINTIC, YQ, beta, x_bound, 1 << 14, seed=6)
            rhs = oscillatory_v(QUINTIC, YQ, gamma, 1, 1 << 14, seed=6)
            combined = 3 * (lhs.stderr + x_bound ** 3 * rhs.stderr) + 1e-9
            assert abs(lhs.mean - x_bound ** 3 * rhs.mean) <= combined

    def test_seed_reproducible(self):
        a = oscillatory_v(QUINTIC, YQ, [0.3, 0.0, 0.0, 0.1], 1, 2048, seed=9)
        b = oscillatory_v(QUINTIC, YQ, [0.3, 0.0, 0.0, 0.1], 1, 2048, seed=9)
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_mapping_and_sequence_agree(self):
        a = oscillatory_v(QUINTIC, YQ, [0.5, 0.0, 0.0, 0.25], 1, 2048, seed=3)
        b = oscillatory_v(QUINTIC, YQ, {2: 0.5, 3: 0.0, 4: 0.0, 5: 0.25},
                          1, 2048, seed=3)
        assert a.mean == b.mean

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            oscillatory_v(QUINTIC, YQ, [0.0] * 4, 1, 512, seed=0)

    def test_bad_beta_length(self):
        with pytest.raises(DimensionMismatch):
            oscillatory_v(QUINTIC, YQ, [0.0] * 3, 1, 2048, seed=0)

    def test_degenerate_point(self):
        with pytest.raises(ZeroVectorInput):
            oscillatory_v(QUINTIC, (0, 0, 0, 0), [0.0] * 4, 1, 2048, seed=0)


class TestSingularIntegral:
    def test_small_window_limit(self):
        # as the frequency box shrinks the kernel freezes at its center and
        # the integral degenerates to (2W)^(d-1) times the slab volume ratio
        est = singular_integral_truncated(QUINTIC, YQ, Fraction(1, 1000),
                                          1 << 14, seed=3)
        assert est.mean == pytest.approx((2 / 1000) ** 4 * 8, rel=0.01)

    def test_seed_stability(self):
        a = singular_integral_truncated(QUADRIC5, (1, 0, 0, 0, 0), 8,
                                        1 << 14, seed=3)
        b = singular_integral_truncated(QUADRIC5, (1, 0, 0, 0, 0), 8,
                                        1 << 14, seed=4)
        assert abs(a.mean - b.mean) <= 3 * (a.stderr + b.stderr)

    def test_truncation_settles_on_isotropic_quadric(self):
        values = {W: singular_integral_truncated(QUADRIC5, (3, 4, 0, 0, 5),
                                                 W, 1 << 16, seed=2)
                  for W in (1, 2, 8, 16)}
        early = abs(values[2].mean - values[1].mean)
        late = abs(values[16].mean - values[8].mean)
        assert late < early

    def test_bad_window(self):
        with pytest.raises(DomainError):
            singular_integral_truncated(QUINTIC, YQ, 0, 2048, seed=0)

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            singular_integral_truncated(QUINTIC, YQ, 1, 100, seed=0)


class TestRealDensityWindow:
    def test_saturated_window_is_exact(self):
        # every slice is bounded by 20 on the unit box, so width-50 windows
        # accept everything and the estimate is the deterministic ratio
        est = real_density_window(QUINTIC, YQ, [50.0] * 5, 4096, seed=11)
        assert est.mean == pytest.approx(2 ** 4 / 50.0 ** 5, rel=1e-12)
        assert est.stderr == 0

    def test_doubling_windows_is_locally_flat(self):
        a = real_density_window(QUADRIC4, (1, 0, 0, 0), [0.2, 0.2],
                                1 << 18, seed=9)
        b = real_density_window(QUADRIC4, (1, 0, 0, 0), [0.4, 0.4],
                                1 << 18, seed=9)
        assert abs(a.mean - b.mean) <= 3 * math.hypot(a.stderr, b.stderr)

    def test_seed_reproducible(self):
        a = real_density_window(QUINTIC, YQ, [0.5] * 5, 4096, seed=11)
        b = real_density_window(QUINTIC, YQ, [0.5] * 5, 4096, seed=11)
        assert a.mean == b.mean and a.mean >= 0

    def test_wrong_width_count(self):
        with pytest.raises(DimensionMismatch):
            real_density_window(QUINTIC, YQ, [0.5] * 4, 2048, seed=0)

    def test_nonpositive_width(self):
        with pytest.raises(DomainError):
            real_density_window(QUINTIC, YQ, [0.5, 0.5, 0.5, 0.5, 0.0],
                                2048, seed=0)


# ---------------------------------------------------------------------------
# Global pair densities
# ---------------------------------------------------------------------------

@st.composite
def pair_cases(draw):
    """(form, p, H): a diagonal form with n <= 3 and d in {2, 3}, or its
    shear, whose monomials join neighbouring variables, with p in {2, 3}
    and H <= 2, at most 3^8 pairs mod p^H.  Some coefficient is a unit
    mod p, so F mod p does not vanish everywhere."""
    p = draw(st.sampled_from([2, 3]))
    # sheared quadrics mostly take the pairing path, sheared cubics at
    # level 2 (listed twice) can take Hensel lifting, diagonal forms split
    d, shear, H = draw(st.sampled_from([(2, True, 1), (2, True, 2),
                                        (3, True, 2), (3, True, 2),
                                        (2, False, 2), (3, False, 1)]))
    n = draw(st.integers(1, 3 if p ** H < 9 else 2))
    weights = draw(st.lists(st.integers(-4, 4).filter(bool),
                            min_size=n, max_size=n))
    assume(any(w % p for w in weights))
    form = HomogeneousForm(nvars=n, degree=d, coeffs={
        tuple(d * (i == k) for i in range(n)): w
        for k, w in enumerate(weights)})
    if shear:
        form, _ = sheared(form, (1,) * n)
    return form, p, H


class TestChiGlobal:
    @settings(max_examples=40, deadline=None)
    @given(pair_cases())
    @example((sheared(diagonal_quadric(2), (1, 1))[0], 3, 1))
    @example((diagonal_quadric(2), 3, 2))
    @example((sheared(fermat_form(2, 3), (1, 1))[0], 2, 2))
    def test_every_route_matches_the_pair_oracle(self, case):
        """The pairing path (a quadric pencil of one component), the
        direct convolution (every other pencil, at no budget) and Hensel
        lifting (a pencil of one component at level 2, one below its
        grid) all give the exhaustive pair scan.  The residue grids each
        route scans tell the routes apart."""
        form, p, H = case
        n = form.nvars
        modulus = p ** H
        groups = counting._variable_components(
            [e for poly in form.pencil for e, c in poly.coeffs.items()
             if c % modulus], 2 * n)
        want = brute_pair_chi(form, p, H)
        pairing = form.degree == 2 and len(groups) == 1
        with mock.patch.object(density, "_residue_grid",
                               wraps=density._residue_grid) as grids:
            assert chi_global_padic(form, p, H, budget=None).value == want
        assert [c.args for c in grids.call_args_list] \
            == ([(n, modulus)] if pairing else [])
        if not pairing and H == 2 and groups == [list(range(2 * n))]:
            with mock.patch.object(density, "_residue_grid",
                                   wraps=density._residue_grid) as grids:
                assert chi_global_padic(form, p, H,
                                        budget=modulus ** (2 * n) - 1
                                        ).value == want
            assert grids.call_args_list[0].args == (2 * n, p)

    def test_cubic_matches_exhaustive_pair_scan(self):
        assert chi_global_padic(CUBIC4, 2, 1).value \
            == brute_pair_chi(CUBIC4, 2, 1) == Fraction(5, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_quadric_component_path_matches_oracle(self, p):
        assert chi_global_padic(QUADRIC4, p, 1).value \
            == brute_pair_chi(QUADRIC4, p, 1)

    def test_quadric_higher_level_matches_oracle(self):
        cubic3 = diagonal_quadric(3)
        assert chi_global_padic(cubic3, 2, 2).value \
            == brute_pair_chi(cubic3, 2, 2)

    def test_zero_pair_always_solves(self):
        value = chi_global_padic(QUINTIC, 2, 1).value
        count = value / Fraction(2) ** (5 + 1 - 8)
        assert count.denominator == 1 and count >= 1

    def test_real_mode_saturates_exactly(self):
        est = chi_global_real(QUADRIC4, [1000.0] * 3, 4096, seed=1)
        assert est.mean == pytest.approx(4 ** 4 / 1000.0 ** 3, rel=1e-12)
        assert est.stderr == 0

    def test_rejects_composite_p(self):
        with pytest.raises(DomainError):
            chi_global_padic(QUADRIC4, 9, 1)

    @pytest.mark.parametrize("p,expected", [(2, Fraction(5, 2)),
                                            (3, Fraction(9))])
    def test_cubic_charge_boundary(self, p, expected):
        """A diagonal cubic pencil splits into the pairs (x_i, y_i), and
        is charged what its convolution forms: the 4 p^2 rows of their
        grids, then the entries of each fold."""
        charge = {2: 48, 3: 114}[p]
        with pytest.raises(ResourceLimit):
            chi_global_padic(CUBIC4, p, 1, budget=charge - 1)
        assert chi_global_padic(CUBIC4, p, 1, budget=charge).value \
            == expected

    @pytest.mark.parametrize("p,solutions", [(2, 8), (3, 21)])
    def test_split_quadric_charge_boundary(self, p, solutions):
        """A diagonal quadric pencil splits into the pairs (x_i, y_i) like
        a cubic one, and is charged what its convolution forms: less than
        the pairing path would be charged, the p^n residues of F and the
        pairs of its ``solutions`` zeros."""
        assert scan_count([QUADRIC4], 4, p) == solutions
        charge = {2: 48, 3: 86}[p]
        assert charge < p ** 4 + solutions ** 2
        with pytest.raises(ResourceLimit):
            chi_global_padic(QUADRIC4, p, 1, budget=charge - 1)
        assert chi_global_padic(QUADRIC4, p, 1, budget=charge).value \
            == brute_pair_chi(QUADRIC4, p, 1)

    def test_split_octonary_quadric_at_the_default_budget(self):
        """The n = 8 split quadric's pencil splits into the pairs
        (x_i, y_i), so each level below is a few small convolutions
        within the default budget."""
        form = split_quadric(4, 4)
        values = {(2, 1): "2", (2, 2): "23/8", (2, 3): "791/256",
                  (3, 1): "803/729", (5, 1): "16229/15625",
                  (7, 1): "120007/117649", (13, 1): "4855213/4826809"}
        for (p, H), value in values.items():
            assert chi_global_padic(form, p, H).value == Fraction(value)

    @pytest.mark.parametrize("p,solutions", [(2, 4), (3, 9)])
    def test_connected_quadric_pair_path(self, p, solutions):
        """A quadric whose pencil does not split keeps the pairing path
        and its charge."""
        form = parse_form("x1*x2 + x2*x3 + x3^2", n_hint=3)
        assert scan_count([form], 3, p) == solutions
        charge = p ** 3 + solutions ** 2
        with pytest.raises(ResourceLimit):
            chi_global_padic(form, p, 1, budget=charge - 1)
        assert chi_global_padic(form, p, 1, budget=charge).value \
            == brute_pair_chi(form, p, 1)


class TestStreamedScrambles:
    """Means and standard errors recorded when all 16 scrambles were drawn
    before the first was used; drawing them one at a time must keep them
    bit for bit."""

    def test_oscillatory(self):
        est = oscillatory_v(QUINTIC, YQ, [0.3, 0.0, 0.0, 0.1], 2, 4096,
                            seed=9)
        assert est.mean == complex(22.004242655412206, -0.39092066554366467)
        assert est.stderr == 0.5526266178929573

    def test_singular_integral(self):
        est = singular_integral_truncated(QUADRIC5, (1, 0, 0, 0, 0), 4,
                                          1 << 14, seed=3)
        assert (est.mean, est.stderr) == (6.332464031869834,
                                          0.17636658454011503)

    def test_window(self):
        est = real_density_window(QUADRIC5, (1, 0, 0, 0, 0), [0.5, 0.5],
                                  1 << 14, seed=11)
        assert (est.mean, est.stderr) == (3.15625, 0.14170591521263323)

    def test_pair_window(self):
        est = chi_global_real(QUADRIC4, [0.5, 0.5, 0.5], 8192, seed=4)
        assert (est.mean, est.stderr) == (18.75, 2.0832291640623697)

    def test_batches_are_drawn_lazily(self, monkeypatch):
        """Scramble i is drawn only after scramble i - 1 was integrated."""
        drawn = []
        real = sobol.scramble

        def counted(dim, seed):
            drawn.append(seed)
            return real(dim, seed)

        monkeypatch.setattr(sobol, "scramble", counted)
        seen = []

        def integrand(points, rows, out):
            seen.append(len(drawn))
            assert points.shape == (8, 3)
            out[:] = 0.0

        total, means = density._sample_means(3, unit_columns(3), range(3),
                                             100, 5, None, np.float64,
                                             integrand)
        assert total == density.SCRAMBLES * 8
        assert seen == list(range(1, density.SCRAMBLES + 1))
        assert drawn == [5 + i for i in range(density.SCRAMBLES)]


def unit_columns(dim):
    """Sampling columns of the points 2u - 1 of [-1, 1)^dim."""
    return [(k, 1.0) for k in range(dim)]


def _scramble_batches(dim, samples, seed):
    """The scipy scrambles the sampling loop reproduces: SCRAMBLES batches
    of the smallest power of two 2^k giving at least ``samples`` points
    overall, scramble i seeded with seed + i; returns (total, batches)."""
    per = max(1, -(-samples // density.SCRAMBLES))
    exponent = max(0, (per - 1).bit_length())
    batches = (qmc.Sobol(d=dim, scramble=True, seed=seed + i)
               .random_base2(exponent) for i in range(density.SCRAMBLES))
    return density.SCRAMBLES * (1 << exponent), batches


def symmetric(words):
    """The points 2u - 1 in [-1, 1)^dim of Sobol' words q, u = q 2^-30,
    computed exactly as (q - 2^29) 2^-29."""
    return (words.astype(np.int64) - (1 << (sobol.BITS - 1))) \
        * 2.0 ** (1 - sobol.BITS)


def random_words(dim, rows, seed):
    """(dim, rows) random Sobol' words q, with the extreme words 0 (the
    corner -r) and 2^30 - 1 among them."""
    words = np.random.default_rng(seed).integers(
        0, 1 << sobol.BITS, size=(dim, rows), dtype=np.uint32)
    words[:, 0] = 0
    words[:, -1] = (1 << sobol.BITS) - 1
    return words


def stored_tiles(words, seed):
    """A stand-in for :func:`sobol.tiles` that hands out the Sobol' words
    ``words`` as one tile of every scramble, stored as the generator stores
    them: centred, shifted and masked by a random offset."""
    def tiles(dim, exponent, scramble_seed, tile):
        assert words.shape == (dim, 1 << exponent) and tile >= 1 << exponent
        offset = np.random.default_rng(seed).integers(
            0, 1 << sobol.BITS, size=dim, dtype=np.uint32) << 2
        centred = (words ^ np.uint32(1 << (sobol.BITS - 1))) << 2
        yield centred ^ offset[:, None], offset
    return tiles


def built_points(words, columns, reads, picked):
    """(points, rows(picked)) the sampling loop hands an integrand for a
    scramble of one tile holding ``words``; both are F-ordered."""
    dim, rows = words.shape
    seen = []

    def integrand(points, rows_of, out):
        built = rows_of(picked)
        assert points.flags.f_contiguous and built.flags.f_contiguous
        seen.append((points.copy(), built))
        out[:] = 0.0

    with mock.patch.object(sobol, "tiles", stored_tiles(words, rows)):
        density._sample_means(dim, columns, reads,
                              rows * density.SCRAMBLES, 0, None,
                              np.float64, integrand)
    assert len(seen) == density.SCRAMBLES
    return seen[0]


class TestScaledPoints:
    """The sampling loop builds column (k, r) of a point as the centred
    word 4 (q - 2^29) of coordinate k times r 2^-31, both for the columns
    built on every row and for the rows an integrand asks for: bit for bit
    ``symmetric(q) * r``, F-ordered, and zero for a zero column."""

    @staticmethod
    def check(words, columns, reads, picked):
        points, rows = built_points(words, columns, reads, picked)
        assert points.shape == (words.shape[1], len(columns))
        assert rows.shape == (len(picked), len(columns))
        for j, (k, radius) in enumerate(columns):
            if radius == 0:
                assert not points[:, j].any() and not rows[:, j].any()
                continue
            want = symmetric(words[k]) * radius
            if j in reads:
                assert points[:, j].tobytes() == want.tobytes()
            else:
                assert not points[:, j].any()
            assert rows[:, j].tobytes() == want[picked].tobytes()

    @given(st.integers(1, 6), st.sampled_from([1, 2, 8, 64, 256]),
           st.integers(0, 2 ** 32), st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_symmetric_times_radii(self, dim, rows, seed, data):
        width = data.draw(st.integers(1, 7))
        columns = [(data.draw(st.integers(0, dim - 1)),
                    data.draw(st.sampled_from([0.0, 1.0]))
                    * data.draw(st.floats(1e-6, 1e6))
                    * data.draw(st.sampled_from([1.0, -1.0])))
                   for _ in range(width)]
        reads = data.draw(st.sets(st.integers(0, width - 1)))
        picked = np.array(sorted(data.draw(st.sets(
            st.integers(0, rows - 1), max_size=rows))), dtype=np.intp)
        self.check(random_words(dim, rows, seed), columns, reads, picked)

    def test_non_dyadic_radii(self):
        radii = [1e-6, 1 / 3, 0.68, 2 ** 0.5, 1e6]
        words = np.array([[0] * 5, [(1 << sobol.BITS) - 1] * 5,
                          [1, 2, 3, 1 << 29, 12345]] * 64,
                         dtype=np.uint32)[:128].T.copy()
        columns = [(k, r) for k, r in enumerate(radii)] \
            + [(4, -radii[4]), (2, 0.0), (0, -radii[0])]
        self.check(words, columns, {1, 3, 5, 6}, np.arange(0, 128, 3))


class TestSobol:
    """sobol.tiles against scipy's engine: each tile is one read-only
    C-contiguous (dim, rows) Gray table shared by the scramble's tiles and
    an offset, the centred words 4 (q - 2^29) of the tiles side by side are
    those of qmc.Sobol(dim, scramble=True, seed=seed).random_base2(m), and
    the sampling loop's points are 2u - 1 of scipy's points u, bit for
    bit."""

    @staticmethod
    def check(dim, m, seed, tile):
        want = qmc.Sobol(d=dim, scramble=True, seed=seed).random_base2(m)
        tiles = list(sobol.tiles(dim, m, seed, tile))
        assert len(tiles) == max(1, (1 << m) // tile)
        table = tiles[0][0]
        assert table.dtype == np.uint32
        assert table.shape == (dim, min(tile, 1 << m))
        assert table.flags.c_contiguous and not table.flags.writeable
        assert all(other is table and offset.dtype == np.uint32
                   and offset.shape == (dim,) for other, offset in tiles)
        centred = np.hstack([(table ^ offset[:, None]).view(np.int32)
                             for table, offset in tiles]).T
        assert np.array_equal(centred * sobol.CENTRED_UNIT, 2 * want - 1)
        assert np.array_equal((centred * sobol.CENTRED_UNIT + 1) * 0.5, want)
        assert np.array_equal(symmetric(centred // 4 + (1 << 29)),
                              2 * want - 1)

    @given(st.sampled_from([1, 2, 5]), st.integers(0, 14),
           st.one_of(st.integers(0, 100), st.integers(2 ** 30, 2 ** 64)),
           st.sampled_from([8, 128, density.QMC_TILE]))
    @example(5, 10, 2 ** 30, density.QMC_TILE)   # 2^m below the tile
    @example(2, 13, 2 ** 30 + 1, density.QMC_TILE)   # one whole tile
    @example(1, 14, 2 ** 31, density.QMC_TILE)   # two tiles
    @settings(max_examples=40, deadline=None)
    def test_tiles_equal_scipy(self, dim, m, seed, tile):
        self.check(dim, m, seed, tile)

    @pytest.mark.parametrize("dim", [1000, sobol.MAXDIM])
    @pytest.mark.parametrize("m, tile", [(0, 1), (2, 4), (3, 2)])
    def test_large_dimensions(self, dim, m, tile):
        self.check(dim, m, 2 ** 30 + dim, tile)

    def test_bad_sizes_raise(self):
        with pytest.raises(ValueError):
            next(sobol.tiles(sobol.MAXDIM + 1, 1, 0, 2))
        with pytest.raises(ValueError):
            next(sobol.tiles(3, sobol.BITS + 1, 0, 2))
        with pytest.raises(ValueError):
            next(sobol.tiles(3, 10, 0, 100))



def whole_table_directions(dim):
    """The direction words of the first ``dim`` coordinates built from
    ``np.load`` of scipy's whole table, by the Bratley-Fox recurrence."""
    with np.load(sobol._table_path()) as table:
        poly = table["poly"][:dim]
        vinit = table["vinit"][:dim]
    v = np.zeros((dim, sobol.BITS), dtype=np.int64)
    v[0] = 1
    for row in range(1, dim):
        m = int(poly[row]).bit_length() - 1
        v[row, :m] = vinit[row, :m]
        for j in range(m, sobol.BITS):
            new = v[row, j - m]
            for k in range(m):
                if int(poly[row]) >> (m - 1 - k) & 1:
                    new ^= v[row, j - k - 1] << (k + 1)
            v[row, j] = new
    return (v << np.arange(sobol.BITS - 1, -1, -1)).astype(np.uint32)


class TestDirections:
    """sobol._directions reads only the leading rows of scipy's table, and
    one cached table grown to the largest dimension asked serves every
    smaller one: the words equal those built from the whole table, in
    either order of asking."""

    # 13 and 14 straddle a degree step: 5 and 6 columns of vinit
    DIMS = [1, 4, 5, 10, 13, 14, 1111, sobol.MAXDIM]

    @pytest.fixture(scope="class")
    def want(self):
        whole = whole_table_directions(sobol.MAXDIM)
        return {dim: whole[:dim] for dim in self.DIMS}

    @pytest.mark.parametrize("order", [DIMS, DIMS[::-1]],
                             ids=["increasing", "decreasing"])
    def test_equal_whole_table_rows(self, order, want, monkeypatch):
        monkeypatch.setattr(sobol, "_DIRECTIONS",
                            np.empty((0, sobol.BITS), dtype=np.uint32))
        for dim in order:
            got = sobol._directions(dim)
            assert got.dtype == np.uint32 and not got.flags.writeable
            assert np.array_equal(got, want[dim])
        assert len(sobol._DIRECTIONS) == sobol.MAXDIM

    def test_table_is_read_once_per_largest_dimension(self, monkeypatch):
        """Dimensions 10, 4 and 5, as a circle pass asks for them, read
        the table once."""
        monkeypatch.setattr(sobol, "_DIRECTIONS",
                            np.empty((0, sobol.BITS), dtype=np.uint32))
        reads = []
        real = sobol._leading_rows

        def counted(member, rows, *columns):
            reads.append(rows)
            return real(member, rows, *columns)

        monkeypatch.setattr(sobol, "_leading_rows", counted)
        for dim in (10, 4, 5):
            sobol._directions(dim)
        assert reads == [10, 10]


def pairwise_vectors(dtype, size, seed):
    """Values of ``dtype`` spread over many binades and signs, so that a
    change of summation order shows in the last bits."""
    rng = np.random.default_rng(seed)
    if dtype == bool:
        return rng.random(size) < rng.random()

    def reals():
        return (rng.standard_normal(size)
                * 10.0 ** rng.integers(-8, 9, size=size))

    if dtype == complex:
        return reals() + 1j * reals()
    return reals()


class TestStreamedMean:
    """The sampling loop's mean over a reused tile buffer is ``np.mean`` of
    the whole value vector, bit for bit."""

    @staticmethod
    def streamed(values, tile):
        buffer = np.empty(tile, dtype=values.dtype)

        def tiles():
            for start in range(0, len(values), tile):
                buffer[:] = values[start:start + tile]
                yield buffer

        return density._streamed_mean(tiles(), len(values))

    @given(st.sampled_from([np.float64, complex, bool]), st.integers(7, 13),
           st.integers(0, 4), st.integers(0, 2 ** 32))
    @example(np.float64, 7, 0, 1)
    @settings(max_examples=60, deadline=None)
    def test_equals_np_mean(self, dtype, log_tile, log_tiles, seed):
        tile = 1 << log_tile
        values = pairwise_vectors(dtype, tile << log_tiles, seed)
        got, want = self.streamed(values, tile), np.mean(values)
        assert type(got) is type(want)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, complex, bool])
    @pytest.mark.parametrize("size", [1, 8, 64])
    def test_one_short_tile(self, dtype, size):
        """A scramble smaller than 128 values is one tile."""
        values = pairwise_vectors(dtype, size, size)
        assert self.streamed(values, size).tobytes() \
            == np.mean(values).tobytes()


class TestSampleMemory:
    """The sampling loop's memory does not grow with the sample count: the
    peak memory numpy reports to tracemalloc at 2^22 samples is within 10%
    of the peak at 2^20 (a whole value vector of 2^18 doubles is 2 MB)."""

    ESTIMATORS = {
        "oscillatory": lambda samples: oscillatory_v(
            QUADRIC5, (1, 0, 0, 0, 0), [0.3], 1, samples),
        "integral": lambda samples: singular_integral_truncated(
            QUADRIC5, (1, 0, 0, 0, 0), 16, samples),
        "window": lambda samples: real_density_window(
            QUADRIC5, (1, 0, 0, 0, 0), [0.1, 0.1], samples),
        "pair-window": lambda samples: chi_global_real(
            QUADRIC4, [0.5, 0.5, 0.5], samples),
    }

    @staticmethod
    def peak(run, samples):
        tracemalloc.start()
        try:
            run(samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_peak_does_not_grow_with_samples(self, name):
        run = self.ESTIMATORS[name]
        run(1 << 12)            # reads the direction numbers it needs
        small, large = self.peak(run, 1 << 20), self.peak(run, 1 << 22)
        assert large <= 1.1 * small, (small, large)

def whole_batch_oscillatory(form, y, beta, x_bound, samples, seed):
    """oscillatory_v as one whole-scramble loop of its own: every scramble
    is transformed, box-tested row-wise and integrated at once."""
    table = density._beta_table(beta, form.degree)
    lattice, radii, basis, root_cov = density._slab_geometry(form, y,
                                                             x_bound)
    slices = density.nonzero_slices(form, y)
    volume = float(np.prod(2 * radii))
    total, batches = _scramble_batches(lattice.rank, samples, seed)
    means = []
    for batch in batches:
        t = (2 * batch - 1) * radii
        ambient = t @ basis
        inside = np.max(np.abs(ambient), axis=1) <= float(x_bound)
        phase = np.zeros(ambient.shape[0])
        for j, sliced in slices:
            if table[j]:
                phase += table[j] * density.evaluate_batch(sliced, ambient)
        values = np.where(inside, np.exp(2j * np.pi * phase), 0)
        means.append(complex(values.mean()) * volume * root_cov)
    return density._combine("integral", means, total, seed)


def whole_batch_integral(form, y, window, samples, seed):
    """singular_integral_truncated as one whole-scramble loop of its own,
    with np.sinc."""
    window = float(window)
    lattice, radii, basis, _ = density._slab_geometry(form, y, 1)
    slices = density.nonzero_slices(form, y)
    volume = float(np.prod(2 * radii))
    total, batches = _scramble_batches(lattice.rank, samples, seed)
    means = []
    for batch in batches:
        t = (2 * batch - 1) * radii
        ambient = t @ basis
        inside = np.max(np.abs(ambient), axis=1) <= 1.0
        kernel = np.ones(ambient.shape[0])
        for _, sliced in slices:
            values = density.evaluate_batch(sliced, ambient)
            kernel *= 2 * window * np.sinc(2 * window * values)
        means.append(float(np.mean(np.where(inside, kernel, 0.0)))
                     * volume)
    return density._combine("integral", means, total, seed)


def whole_batch_window(eps, windows, dim, samples, seed):
    """The window volume estimate as one whole-scramble loop of its own,
    with every window evaluated on every row."""
    scale = 2.0 ** dim / math.prod(eps)
    total, batches = _scramble_batches(dim, samples, seed)
    means = []
    for batch in batches:
        points = 2 * batch - 1
        inside = np.ones(points.shape[0], dtype=bool)
        for width, g in windows:
            inside &= np.abs(density.evaluate_batch(g, points)) <= width / 2
        means.append(float(inside.mean()) * scale)
    return density._combine("real", means, total, seed)


#: (form, base points) pairs for the sampling-loop comparisons.
SAMPLED_FORMS = [
    (QUADRIC5, [(1, 0, 0, 0, 0), (3, 4, 0, 0, 5), (1, 1, 0, 0, 1)]),
    (QUINTIC, [YQ, (1, -1, 0, 0), (2, 1, -1, 0)]),
    (CUBIC4, [YC4, (1, -1, 0, 0), (1, 1, 1, 2)]),
]

def tile_samples(tile):
    """Sample counts whose scrambles hold a quarter of a tile of ``tile``
    rows, one tile and four tiles."""
    return [density.SCRAMBLES * tile // 4, density.SCRAMBLES * tile,
            density.SCRAMBLES * tile * 4]


#: Sample counts whose scrambles hold a quarter, one and four QMC_TILE
#: rows.  For a slab integral that is an eighth, a half and two tiles,
#: and the last count runs its scrambles on the usable CPUs.
TILE_SAMPLES = tile_samples(density.QMC_TILE)

#: The ten signed unit base points of quadric-5.  Each slab basis is a
#: signed coordinate basis with one zero column, and the first window,
#: 2 y_k x_k, reads one of the five coordinates, so its tiles hold
#: 4 QMC_TILE rows.
UNIT_POINTS = [tuple(sign * (i == k) for i in range(5))
               for k in range(5) for sign in (1, -1)]


class TestSamplingLoop:
    """The tiled sampling loop against the whole-scramble loops it
    replaced: means and stderrs equal bit for bit."""

    @staticmethod
    def same(got, want):
        assert (got.mean, got.stderr, got.samples) == (want.mean, want.stderr,
                                                        want.samples)

    @given(st.sampled_from(range(len(SAMPLED_FORMS))), st.integers(0, 2),
           st.sampled_from(TILE_SAMPLES), st.integers(0, 50), st.data())
    @settings(max_examples=20, deadline=None)
    def test_oscillatory_equals_whole_batch(self, which, k, samples, seed,
                                            data):
        form, points = SAMPLED_FORMS[which]
        beta = data.draw(st.lists(
            st.sampled_from([0.0, 0.1, -0.25, 0.3, 1.5]),
            min_size=form.degree - 1, max_size=form.degree - 1))
        x_bound = data.draw(st.sampled_from([1, 2, 3]))
        self.same(oscillatory_v(form, points[k], beta, x_bound, samples,
                                seed=seed),
                  whole_batch_oscillatory(form, points[k], beta, x_bound,
                                          samples, seed))

    @given(st.sampled_from(range(len(SAMPLED_FORMS))), st.integers(0, 2),
           st.sampled_from(TILE_SAMPLES), st.integers(0, 50),
           st.sampled_from([0.3, 1.5, 3, 16]))
    @settings(max_examples=20, deadline=None)
    def test_integral_equals_whole_batch(self, which, k, samples, seed,
                                         window):
        form, points = SAMPLED_FORMS[which]
        self.same(singular_integral_truncated(form, points[k], window,
                                              samples, seed=seed),
                  whole_batch_integral(form, points[k], window, samples,
                                       seed))

    @given(st.sampled_from(range(len(SAMPLED_FORMS))), st.integers(0, 2),
           st.sampled_from(TILE_SAMPLES), st.integers(0, 50),
           st.sampled_from([0.1, 0.5, 2.0]))
    @settings(max_examples=20, deadline=None)
    def test_window_equals_whole_batch(self, which, k, samples, seed, width):
        form, points = SAMPLED_FORMS[which]
        eps = [width] * form.degree
        windows = [(eps[j - 1], sliced) for j, sliced
                   in density.nonzero_slices(form, points[k], 1)]
        self.same(real_density_window(form, points[k], eps, samples,
                                      seed=seed),
                  whole_batch_window(eps, windows, form.nvars, samples,
                                     seed))

    #: QUADRIC5 base points, sample counts and seeds whose tiles have all,
    #: some or no rows inside the box (1000 samples give 64-row tiles; at
    #: (5, -3, 8, -1, 7) about 4% of the rows fall inside the box, and the
    #: tile of scramble 5 holds none).
    BOX_ROWS = {"all": ((1, 0, 0, 0, 0), TILE_SAMPLES[1], 3),
                "some": ((3, 4, 0, 0, 5), TILE_SAMPLES[1], 3),
                "none": ((5, -3, 8, -1, 7), 1000, 5)}

    @pytest.mark.parametrize("estimator", ["oscillatory", "integral"])
    @pytest.mark.parametrize("rows", sorted(BOX_ROWS))
    def test_rows_inside_the_box(self, rows, estimator, monkeypatch):
        """The rows outside the box give zero; the means equal the
        whole-scramble loops when a tile has all, some or none of its rows
        inside.  At y = e1 the slab cannot leave the box, so no row is
        box-tested."""
        y, samples, seed = self.BOX_ROWS[rows]
        counts = []
        in_box = density._in_box

        def counted(points, bound):
            inside = in_box(points, bound)
            counts.append((int(inside.sum()), inside.shape[0]))
            return inside

        monkeypatch.setattr(density, "_in_box", counted)
        if estimator == "oscillatory":
            got = oscillatory_v(QUADRIC5, y, [0.3], 2, samples, seed=seed)
            want = whole_batch_oscillatory(QUADRIC5, y, [0.3], 2, samples,
                                           seed)
        else:
            got = singular_integral_truncated(QUADRIC5, y, 1.5, samples,
                                              seed=seed)
            want = whole_batch_integral(QUADRIC5, y, 1.5, samples, seed)
        self.same(got, want)
        if rows == "all":
            assert counts == []
        elif rows == "some":
            assert any(0 < k < n for k, n in counts)
        else:
            assert any(k == 0 for k, _ in counts)

    @given(st.sampled_from([QUADRIC4, CUBIC4]),
           st.sampled_from(TILE_SAMPLES[:2]), st.integers(0, 50),
           st.sampled_from([0.5, 1.0]))
    @settings(max_examples=8, deadline=None)
    def test_pair_window_equals_whole_batch(self, form, samples, seed,
                                            width):
        eps = [width] * (form.degree + 1)
        self.same(chi_global_real(form, eps, samples, seed=seed),
                  whole_batch_window(eps, list(zip(eps, form.pencil)),
                                     2 * form.nvars, samples, seed))

    @pytest.mark.parametrize("which", range(len(UNIT_POINTS)))
    def test_signed_unit_base_points(self, which):
        """Every signed unit y of quadric-5: the slab integrands sample the
        ambient points with no matmul and no box test, the window builds
        one coordinate on every row; scrambles of an eighth, a half and two
        slab tiles and of a quarter, one and four window tiles, by
        turns."""
        y = UNIT_POINTS[which]
        _, radii, basis, _ = density._slab_geometry(QUADRIC5, y, 2)
        columns = density._signed_columns(basis, radii)
        assert columns is not None and (0, 0.0) in columns
        assert not density._slab_points(basis, radii, 2.0)[2]
        samples = TILE_SAMPLES[which % 3]
        seed = 3 + which
        self.same(singular_integral_truncated(QUADRIC5, y, 16, samples,
                                              seed=seed),
                  whole_batch_integral(QUADRIC5, y, 16, samples, seed))
        self.same(oscillatory_v(QUADRIC5, y, [0.3], 2, samples, seed=seed),
                  whole_batch_oscillatory(QUADRIC5, y, [0.3], 2, samples,
                                          seed))
        eps = [0.1, 0.1]
        windows = [(eps[j - 1], sliced) for j, sliced
                   in density.nonzero_slices(QUADRIC5, y, 1)]
        samples = tile_samples(4 * density.QMC_TILE)[which % 3]
        self.same(real_density_window(QUADRIC5, y, eps, samples, seed=seed),
                  whole_batch_window(eps, windows, 5, samples, seed))

    @pytest.mark.parametrize("samples", TILE_SAMPLES)
    def test_negated_column(self, samples):
        """The quintic at (0, 0, 1, -1): ambient coordinates 3 and 4 are
        t_3 and -t_3, both sampled from one Sobol' coordinate."""
        _, radii, basis, _ = density._slab_geometry(QUINTIC, YQ, 1)
        assert density._signed_columns(basis, radii) == [
            (0, 1.0), (1, 1.0), (2, 1.0), (2, -1.0)]
        self.same(singular_integral_truncated(QUINTIC, YQ, 3, samples,
                                              seed=7),
                  whole_batch_integral(QUINTIC, YQ, 3, samples, 7))
        self.same(oscillatory_v(QUINTIC, YQ, [0.3, 0.0, 0.0, 0.1], 2,
                                samples, seed=7),
                  whole_batch_oscillatory(QUINTIC, YQ, [0.3, 0.0, 0.0, 0.1],
                                          2, samples, 7))


def random_tile(radii, rows, seed):
    """A (rows, dim) F-ordered tile of points of the box of ``radii`` from
    random Sobol' words, with the extreme words among them."""
    return np.asfortranarray(symmetric(random_words(len(radii), rows,
                                                    seed).T) * radii)


class TestBoxTestSkip:
    """The slab integrands sample a signed coordinate basis without the
    matmul, and skip the box test only where it cannot drop a row: each
    basis column has at most one nonzero entry, of size 1, whose row's
    radius is at most the bound."""

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 32),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_row_is_inside_when_the_skip_holds(self, rank, n, seed,
                                                     data):
        """Bases of signed unit columns (some zero) and any bound at least
        the radii of the rows they pick: the skip holds, the points the
        loop builds from random words equal the matmul, and every row lies
        in the box."""
        radii = np.array(data.draw(st.lists(
            st.floats(1e-6, 1e6), min_size=rank, max_size=rank)))
        basis = np.zeros((rank, n))
        for j in range(n):
            k = data.draw(st.integers(-1, rank - 1))
            if k >= 0:
                basis[k, j] = data.draw(st.sampled_from([1.0, -1.0]))
        used = radii[(basis != 0).any(axis=1)]
        least = float(used.max()) if used.size else 0.0
        bound = least * data.draw(st.sampled_from([1.0, 1.5, 1e3]))
        columns, ambient_of, box_test = density._slab_points(basis, radii,
                                                             bound)
        assert not box_test
        words = random_words(rank, 256, seed)
        points, _ = built_points(words, columns, range(n), np.arange(0))
        ambient = ambient_of(points)
        # equal values; a zero may differ in sign, which no output sees
        assert np.array_equal(ambient,
                              density._ambient(symmetric(words.T) * radii,
                                               basis))
        assert density._in_box(ambient, bound).all()

    @pytest.mark.parametrize("column, bound", [
        ([1.0, 0.0], np.nextafter(2.0, 0.0)),   # radius 2 above the bound
        ([2.0, 0.0], 4.0),                      # an entry of size 2
        ([0.5, 0.0], 4.0),                      # an entry of size 1/2
        ([1.0, 1.0], 4.0),                      # two nonzero entries
    ])
    def test_other_bases_keep_the_box_test(self, column, bound):
        radii = np.array([2.0, 1.0])
        basis = np.array([column, [0.0, 1.0]]).T
        assert density._slab_points(basis, radii, bound)[2]

    @pytest.mark.parametrize("column", [[2.0, 0.0], [0.5, 0.0], [1.0, 1.0]])
    def test_other_bases_are_mapped_by_the_matmul(self, column):
        radii = np.array([2.0, 1.0])
        basis = np.array([column, [0.0, 1.0]]).T
        assert density._signed_columns(basis, radii) is None
        columns, ambient_of, _ = density._slab_points(basis, radii, 4.0)
        assert columns == [(0, 2.0), (1, 1.0)]
        tile = random_tile(radii, 8, 0)
        assert ambient_of(tile).tobytes() \
            == density._ambient(tile, basis).tobytes()

    def test_the_corner_leaves_a_box_one_ulp_too_small(self):
        """Word 0 is the point -r exactly, so a radius above the bound
        puts that row outside."""
        radii = np.array([2.0])
        ambient = density._ambient(random_tile(radii, 4, 0),
                                   np.array([[1.0]]))
        inside = density._in_box(ambient, float(np.nextafter(2.0, 0.0)))
        assert not inside[0]

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("x_bound", [1, 2, 20])
    def test_quadric_at_unit_base_points(self, k, sign, x_bound):
        """Every relabelling of the bench's quadric-5 at y = e1 skips the
        box test; the skewed base points keep it."""
        y = [0] * 5
        y[k] = sign
        _, radii, basis, _ = density._slab_geometry(QUADRIC5, y, x_bound)
        assert not density._slab_points(basis, radii, float(x_bound))[2]
        for skewed in [(3, 4, 0, 0, 5), (5, -3, 8, -1, 7)]:
            _, radii, basis, _ = density._slab_geometry(QUADRIC5, skewed,
                                                        x_bound)
            assert density._slab_points(basis, radii, float(x_bound))[2]


class TestTileLayout:
    """Integrands and the slab estimators read each coordinate as one
    contiguous column.  A window's tile holds QMC_TILE * dim values of the
    coordinates built for every row; a slab integral's tile holds
    _SLAB_TILE rows."""

    @pytest.mark.parametrize("samples", [100, TILE_SAMPLES[0],
                                         TILE_SAMPLES[2]])
    def test_integrand_tiles_are_f_contiguous(self, samples):
        layouts = []

        def integrand(points, rows, out):
            layouts.append((points.shape[1], points.flags.f_contiguous,
                            rows(np.arange(3)).flags.f_contiguous))
            out[:] = 0.0

        density._sample_means(3, unit_columns(3), range(3), samples, 1, None,
                              np.float64, integrand)
        assert layouts and set(layouts) == {(3, True, True)}

    #: (dim, reads, samples per scramble, tile rows) of the window rule,
    #: for bool values: QMC_TILE 2^t rows for 2^t <= dim / (coordinates
    #: read on every row) < 2^(t + 1), and the whole scramble when it is
    #: smaller.
    RULE = [(5, [0], 1 << 17, 4 * density.QMC_TILE),
            (5, [4], 1 << 15, 4 * density.QMC_TILE),
            (5, range(5), 1 << 15, density.QMC_TILE),
            (4, [2, 3], 1 << 15, 2 * density.QMC_TILE),
            (3, [1], 1 << 15, 2 * density.QMC_TILE),
            (8, [4, 5, 6, 7], 1 << 15, 2 * density.QMC_TILE),
            (10, [5, 6, 7, 8, 9], 1 << 10, 1 << 10),
            (5, [0], 8, 8)]

    #: (dim, reads, samples per scramble, dtype, tile rows) of the slab
    #: rule, for numeric values: _SLAB_TILE rows whatever is read, and the
    #: whole scramble when it is smaller.
    SLAB_RULE = [(5, range(5), 1 << 15, np.float64, density._SLAB_TILE),
                 (5, [0], 1 << 15, complex, density._SLAB_TILE),
                 (3, [1], 1 << 14, np.float64, density._SLAB_TILE),
                 (4, range(4), 1 << 12, np.float64, 1 << 12),
                 (5, [0], 8, complex, 8)]

    @staticmethod
    def tiles(dim, reads, rows, dtype):
        """The point shapes the integrand gets; only the columns read on
        every row are built, the others read zero."""
        shapes = set()

        def integrand(points, rows_of, out):
            shapes.add(points.shape)
            assert all(points[:, j].any() == (j in reads)
                       for j in range(dim))
            out[:] = 0

        density._sample_means(dim, unit_columns(dim), reads,
                              rows * density.SCRAMBLES, 1, None, dtype,
                              integrand)
        return shapes

    @pytest.mark.parametrize("dim, reads, rows, tile", RULE)
    def test_tile_rule(self, dim, reads, rows, tile):
        assert self.tiles(dim, reads, rows, bool) == {(tile, dim)}

    @pytest.mark.parametrize("dim, reads, rows, dtype, tile", SLAB_RULE)
    def test_slab_tile_rule(self, dim, reads, rows, dtype, tile):
        assert self.tiles(dim, reads, rows, dtype) == {(tile, dim)}

    @staticmethod
    def layouts(estimator, y, monkeypatch):
        """(name, columns, F-ordered) of the points each call of
        evaluate_batch and _in_box reads in one run of ``estimator``."""
        layouts = []

        def recorded(name, position):
            real = getattr(density, name)

            def wrapper(*args):
                points = args[position]
                layouts.append((name, points.shape[1],
                                points.flags.f_contiguous))
                return real(*args)

            monkeypatch.setattr(density, name, wrapper)

        recorded("evaluate_batch", 1)
        recorded("_in_box", 0)
        if estimator == "oscillatory":
            oscillatory_v(QUADRIC5, y, [0.3], 2, 4096, seed=1)
        else:
            singular_integral_truncated(QUADRIC5, y, 1.5, 4096, seed=1)
        return set(layouts)

    @pytest.mark.parametrize("estimator", ["oscillatory", "integral"])
    def test_slab_ambient_is_f_contiguous(self, estimator, monkeypatch):
        """At a skewed base point, where both the slices and the box test
        read the ambient points the matmul maps."""
        assert self.layouts(estimator, (3, 4, 0, 0, 5), monkeypatch) == {
            ("evaluate_batch", 5, True), ("_in_box", 5, True)}

    @pytest.mark.parametrize("estimator", ["oscillatory", "integral"])
    def test_sampled_ambient_is_f_contiguous(self, estimator, monkeypatch):
        """At a unit base point the slices read the sampled ambient points,
        and no row is box-tested."""
        assert self.layouts(estimator, (0, 0, 0, -1, 0), monkeypatch) == {
            ("evaluate_batch", 5, True)}


def usable_cpus(monkeypatch, count):
    """Make ``os.sched_getaffinity`` report ``count`` usable CPUs, and
    return the list of the threads the sampling loop starts."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))
    monkeypatch.setattr(density, "threading",
                        types.SimpleNamespace(Thread=Recorded))
    return started


class TestThreads:
    """The slab integrals run their scrambles on min(SCRAMBLES, usable
    CPUs) threads, the calling thread among them, once a scramble fills a
    tile; the seeded estimates do not depend on the number of threads, and
    no thread outlives the call."""

    ESTIMATORS = {
        "integral": lambda y, samples: singular_integral_truncated(
            QUADRIC5, y, 16, samples, seed=9),
        "oscillatory": lambda y, samples: oscillatory_v(
            QUADRIC5, y, [0.3], 2, samples, seed=9),
    }

    #: Two tiles per scramble.
    SAMPLES = 2 * density.SCRAMBLES * density._SLAB_TILE

    @pytest.mark.parametrize("y", [(1, 0, 0, 0, 0), (3, 4, 0, 0, 5)])
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_estimate_does_not_depend_on_cpus(self, name, y, monkeypatch):
        """At e1 (a signed coordinate basis) and at (3, 4, 0, 0, 5) (the
        matmul and the box test)."""
        estimates = []
        for cpus in (1, 2, 3, 16):
            started = usable_cpus(monkeypatch, cpus)
            estimates.append(self.ESTIMATORS[name](y, self.SAMPLES))
            assert len(started) == cpus - 1
        assert all(estimate == estimates[0] for estimate in estimates)

    def test_more_threads_than_cores_switching_often(self, monkeypatch):
        """Sixteen threads that switch every 10 microseconds: a scramble
        lost, run twice or written to another slot would change the
        estimate."""
        usable_cpus(monkeypatch, 1)
        want = self.ESTIMATORS["integral"]((3, 4, 0, 0, 5), self.SAMPLES)
        started = usable_cpus(monkeypatch, 16)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = self.ESTIMATORS["integral"]((3, 4, 0, 0, 5), self.SAMPLES)
        finally:
            sys.setswitchinterval(interval)
        assert got == want and len(started) == 15

    @pytest.mark.parametrize("samples", [density.SCRAMBLES * 1000,
                                         density.SCRAMBLES * (1 << 13)])
    def test_scrambles_below_a_tile_run_on_one_thread(self, samples,
                                                      monkeypatch):
        started = usable_cpus(monkeypatch, 2)
        self.ESTIMATORS["integral"]((1, 0, 0, 0, 0), samples)
        assert started == []

    def test_windows_run_on_one_thread(self, monkeypatch):
        started = usable_cpus(monkeypatch, 4)
        real_density_window(QUADRIC5, (1, 0, 0, 0, 0), [0.1, 0.1],
                            self.SAMPLES)
        chi_global_real(QUADRIC4, [0.5, 0.5, 0.5], self.SAMPLES)
        assert started == []

    def test_a_failing_scramble_raises_in_the_caller(self, monkeypatch):
        """An integrand that raises in scramble 5 raises the same exception
        in the caller, after every thread has ended."""
        before = threading.active_count()
        started = usable_cpus(monkeypatch, 4)
        drawing = threading.local()
        real = sobol.tiles

        def tiles(dim, exponent, seed, tile):
            drawing.seed = seed
            return real(dim, exponent, seed, tile)

        monkeypatch.setattr(sobol, "tiles", tiles)
        error = RuntimeError("scramble 5")

        def integrand(points, rows, out):
            if drawing.seed == 100 + 5:
                raise error
            out[:] = 1.0

        with pytest.raises(RuntimeError) as raised:
            density._sample_means(3, unit_columns(3), range(3),
                                  self.SAMPLES, 100, None, np.float64,
                                  integrand)
        assert raised.value is error
        assert len(started) == 3
        assert not any(thread.is_alive() for thread in started)
        assert threading.active_count() == before

    def test_no_thread_outlives_a_call(self, monkeypatch):
        """A refused budget starts no thread; a run joins those it
        started."""
        before = threading.active_count()
        started = usable_cpus(monkeypatch, 2)
        with pytest.raises(ResourceLimit):
            singular_integral_truncated(QUADRIC5, (1, 0, 0, 0, 0), 16,
                                        self.SAMPLES,
                                        budget=self.SAMPLES - 1)
        assert started == []
        assert threading.active_count() == before
        singular_integral_truncated(QUADRIC5, (1, 0, 0, 0, 0), 16,
                                    self.SAMPLES, budget=self.SAMPLES)
        assert len(started) == 1 and not started[0].is_alive()
        assert threading.active_count() == before


def first_window_reads(monkeypatch):
    """Records (dim, columns read on every row, tile rows) of each
    sampling loop run."""
    runs = []
    real = density._sample_means

    def recorded(dim, columns, reads, samples, seed, budget, dtype,
                 integrand):
        def wrapped(points, rows, out):
            runs.append((dim, tuple(sorted(reads)), points.shape[0]))
            integrand(points, rows, out)

        return real(dim, columns, reads, samples, seed, budget, dtype,
                    wrapped)

    monkeypatch.setattr(density, "_sample_means", recorded)
    return runs


class TestWindowSurvivors:
    """The first window is evaluated on every row, built from the
    coordinates it reads; later windows are evaluated only on the rows
    still inside, built whole.  The booleans, and so the seeded means,
    equal the all-rows loop, also when few or no rows survive the first
    window."""

    @given(st.sampled_from(range(len(SAMPLED_FORMS))), st.integers(0, 2),
           st.integers(0, 50), st.sampled_from([1e-9, 0.01, 0.1, 0.5]))
    @settings(max_examples=20, deadline=None)
    def test_narrow_windows_equal_all_rows(self, which, k, seed, width):
        form, points = SAMPLED_FORMS[which]
        eps = [width] * form.degree
        windows = [(eps[j - 1], sliced) for j, sliced
                   in density.nonzero_slices(form, points[k], 1)]
        samples = density.SCRAMBLES * density.QMC_TILE
        TestSamplingLoop.same(
            real_density_window(form, points[k], eps, samples, seed=seed),
            whole_batch_window(eps, windows, form.nvars, samples, seed))

    @pytest.mark.parametrize("eps", [[0.1, 0.1], [1e-9, 0.5], [0.5, 1e-9]])
    def test_bench_window_job(self, eps):
        """The ``--window 0.1,0.1`` job's estimator at y = e1, where 2.3% of
        the rows pass the linear window."""
        windows = [(eps[j - 1], sliced) for j, sliced
                   in density.nonzero_slices(QUADRIC5, (1, 0, 0, 0, 0), 1)]
        TestSamplingLoop.same(
            real_density_window(QUADRIC5, (1, 0, 0, 0, 0), eps, 1 << 17,
                                seed=7),
            whole_batch_window(eps, windows, 5, 1 << 17, 7))

    @pytest.mark.parametrize("form", [QUADRIC4, CUBIC4])
    def test_pair_windows(self, form):
        eps = [0.05] * (form.degree + 1)
        TestSamplingLoop.same(
            chi_global_real(form, eps, 1 << 15, seed=2),
            whole_batch_window(eps, list(zip(eps, form.pencil)),
                               2 * form.nvars, 1 << 15, 2))

    #: name: (form, base point, the coordinates its first window reads,
    #: tile rows).  The quintic's c_1 = 5 x_3 + 5 x_4 reads two of four
    #: coordinates; the dense c_1 of CUBIC4 at (1, 1, 1, 2) reads all four;
    #: the skewed quadric-5 point reads three of five.
    FIRST_WINDOWS = {
        "quintic": (QUINTIC, YQ, [2, 3], 2 * density.QMC_TILE),
        "dense": (CUBIC4, (1, 1, 1, 2), [0, 1, 2, 3], density.QMC_TILE),
        "skewed": (QUADRIC5, (3, 4, 0, 0, 5), [0, 1, 4], density.QMC_TILE),
        "unit": (QUADRIC5, (0, 0, 0, 0, -1), [4], 4 * density.QMC_TILE),
    }

    @pytest.mark.parametrize("scale", range(3))
    @pytest.mark.parametrize("name", sorted(FIRST_WINDOWS))
    def test_first_window_reads(self, name, scale, monkeypatch):
        """Scrambles of a quarter, one and four tiles of the tile rule."""
        form, y, reads, tile = self.FIRST_WINDOWS[name]
        runs = first_window_reads(monkeypatch)
        eps = [0.2] * form.degree
        windows = [(eps[j - 1], sliced) for j, sliced
                   in density.nonzero_slices(form, y, 1)]
        samples = tile_samples(tile)[scale]
        TestSamplingLoop.same(
            real_density_window(form, y, eps, samples, seed=4),
            whole_batch_window(eps, windows, form.nvars, samples, 4))
        assert {run[:2] for run in runs} == {(form.nvars, tuple(reads))}
        assert {run[2] for run in runs} == {min(tile, samples // 16)}

    @pytest.mark.parametrize("scale", range(3))
    def test_pair_window_reads_the_y_half(self, scale, monkeypatch):
        """c_0 = F(y) reads the last four of the eight coordinates of a
        QUADRIC4 pair, so the tiles hold 2 QMC_TILE rows."""
        runs = first_window_reads(monkeypatch)
        eps = [0.3] * 3
        samples = tile_samples(2 * density.QMC_TILE)[scale]
        TestSamplingLoop.same(
            chi_global_real(QUADRIC4, eps, samples, seed=6),
            whole_batch_window(eps, list(zip(eps, QUADRIC4.pencil)), 8,
                               samples, 6))
        assert {run[:2] for run in runs} == {(8, (4, 5, 6, 7))}
        assert {run[2] for run in runs} == {
            min(2 * density.QMC_TILE, samples // 16)}


class TestSampleBudget:
    """Each estimator charges its rounded sample total SCRAMBLES * 2^k
    before the first scramble is drawn."""

    ESTIMATORS = {
        "oscillatory": lambda samples, budget: oscillatory_v(
            QUINTIC, YQ, [0.3, 0.0, 0.0, 0.1], 2, samples, budget=budget),
        "integral": lambda samples, budget: singular_integral_truncated(
            QUADRIC5, (1, 0, 0, 0, 0), 4, samples, budget=budget),
        "window": lambda samples, budget: real_density_window(
            QUADRIC5, (1, 0, 0, 0, 0), [0.5, 0.5], samples, budget=budget),
        "pairs": lambda samples, budget: chi_global_real(
            QUADRIC4, [0.5, 0.5, 0.5], samples, budget=budget),
    }

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_boundary_at_the_rounded_total(self, name):
        estimate = self.ESTIMATORS[name]
        assert estimate(4096, 4096).samples == 4096
        with pytest.raises(ResourceLimit):
            estimate(4096, 4095)
        # 4097 samples round up to 16 scrambles of 512
        assert estimate(4097, 8192).samples == 8192
        with pytest.raises(ResourceLimit):
            estimate(4097, 8191)

    @pytest.mark.parametrize("samples", [0, -5])
    @pytest.mark.parametrize("name", ["window", "pairs"])
    def test_non_positive_samples_are_refused(self, name, samples,
                                              monkeypatch):
        """The sampling loop refuses fewer than one sample before drawing
        a scramble, whatever the budget."""
        def undrawable(*args):
            raise AssertionError("a scramble was drawn")

        monkeypatch.setattr(sobol, "scramble", undrawable)
        for budget in (None, 4096):
            with pytest.raises(DomainError,
                               match=f"at least one QMC sample, got "
                                     f"{samples}"):
                self.ESTIMATORS[name](samples, budget)
        with pytest.raises(DomainError, match="at least one QMC sample"):
            predict_pairs(QUADRIC5, 2, 2, 3, 1, [0.5] * 3, samples)

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_no_limit_by_default(self, name):
        assert self.ESTIMATORS[name](4096, None).samples == 4096

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_overrun_draws_no_scramble(self, name, monkeypatch):
        def undrawable(*args):
            raise AssertionError("a scramble was drawn")

        monkeypatch.setattr(sobol, "scramble", undrawable)
        with pytest.raises(ResourceLimit):
            self.ESTIMATORS[name](4096, 4095)

    def test_predictions_charge_the_sample_budget(self):
        with pytest.raises(ResourceLimit, match="4096 QMC samples"):
            predict_fixed_y(QUADRIC5, (1, 0, 0, 0, 0), 10, 2, 4096,
                            budget=4095)
        predict_fixed_y(QUADRIC5, (1, 0, 0, 0, 0), 10, 2, 4096,
                        budget=4096)
        with pytest.raises(ResourceLimit, match="4096 QMC samples"):
            predict_pairs(QUADRIC4, 5, 5, 1, 1, [1.0] * 3, 4096,
                          budget=4095)
        predict_pairs(QUADRIC4, 5, 5, 1, 1, [1.0] * 3, 4096,
                      budget=4096)


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

class TestPredictions:
    def test_fixed_y_recombination_is_exact(self):
        prediction = predict_fixed_y(QUINTIC, YQ, 100, 2, 4096, seed=5)
        series = singular_series_truncated(QUINTIC, YQ, 2).value
        integral = Fraction(prediction.components["integral"]["mean"])
        assert prediction.main_term / (series * integral) \
            == Fraction(100) ** (3 - 15 + 1)

    def test_fixed_y_reduces_one_lattice(self, monkeypatch):
        """Only the integral samples the slicing lattice; the series and
        the exponent s = n - 1 need none."""
        builds = []

        def counted(form, y):
            builds.append(tuple(y))
            return slicing_lattice(form, y)

        monkeypatch.setattr(density, "slicing_lattice", counted)
        prediction = predict_fixed_y(QUINTIC, YQ, 100, 2, 4096, seed=5)
        assert builds == [YQ]
        assert prediction.components["rank"] == 3

    def test_fixed_y_smoke_order_of_magnitude(self):
        from linecount.counting import count_fixed_y
        brute = count_fixed_y(QUADRIC5, (1, 0, 0, 0, 0), 10)
        prediction = predict_fixed_y(QUADRIC5, (1, 0, 0, 0, 0), 10, 8,
                                     1 << 14, seed=8)
        assert 0.5 < float(prediction.main_term) / brute < 1.5

    def test_pairs_recombination_without_primes(self):
        prediction = predict_pairs(QUADRIC4, 10, 10, 1, 1, [1.0] * 3,
                                   4096, seed=4)
        chi_inf = Fraction(prediction.components["chi_infinity"]["mean"])
        assert prediction.main_term / chi_inf == Fraction(100) ** (4 - 3)

    def test_pairs_symmetric_in_box_sizes(self):
        a = predict_pairs(QUADRIC4, 6, 15, 3, 1, [1.0] * 3, 4096, seed=4)
        b = predict_pairs(QUADRIC4, 15, 6, 3, 1, [1.0] * 3, 4096, seed=4)
        assert a.main_term == b.main_term

    def test_euler_tail_is_small_on_quadric(self):
        small = predict_pairs(QUADRIC5, 10, 10, 7, 1, [1.0] * 3, 4096, seed=4)
        large = predict_pairs(QUADRIC5, 10, 10, 13, 1, [1.0] * 3, 4096, seed=4)
        ratio = float(large.main_term / small.main_term)
        assert abs(ratio - 1) < 0.1

    def test_prediction_json_carries_conventions(self):
        prediction = predict_pairs(QUADRIC4, 5, 5, 2, 1, [1.0] * 3,
                                   2048, seed=0)
        out = prediction.to_json()
        assert out["tag"] == "global"
        assert "2n variables" in out["components"]["convention"]
        assert out["components"]["chi_p"]["2"]["kind"] == "p-adic"

    def test_euler_cache_failed_write_keeps_previous_file(self, tmp_path,
                                                          monkeypatch):
        path = os.path.join(tmp_path, "euler.json")
        cache = EulerCache(path)
        cache.put(QUADRIC4, None, 2, 1, Fraction(3, 4))

        def crash(obj, handle, **kwargs):
            handle.write('{"truncated')
            raise OSError("disk full")

        monkeypatch.setattr("linecount.density.json.dump", crash)
        with pytest.raises(OSError):
            cache.put(QUADRIC4, None, 3, 1, Fraction(1, 2))
        monkeypatch.undo()
        reloaded = EulerCache(path)
        assert reloaded.get(QUADRIC4, None, 2, 1) == Fraction(3, 4)
        assert reloaded.get(QUADRIC4, None, 3, 1) is None
        assert os.listdir(tmp_path) == ["euler.json"]

    @pytest.mark.parametrize("name, other", [
        ("__version__", "0.0.0"),
        ("_PAIR_CONVENTION", "d pencil equations over 2n variables"),
    ])
    def test_euler_cache_misses_other_version_or_convention(
            self, tmp_path, monkeypatch, name, other):
        path = os.path.join(tmp_path, "euler.json")
        monkeypatch.setattr(density, name, other)
        EulerCache(path).put(QUADRIC4, None, 2, 1, Fraction(3, 4))
        assert EulerCache(path).get(QUADRIC4, None, 2, 1) == Fraction(3, 4)
        monkeypatch.undo()
        assert EulerCache(path).get(QUADRIC4, None, 2, 1) is None

    def test_euler_cache_round_trip(self, tmp_path):
        path = os.path.join(tmp_path, "euler.json")
        cache = EulerCache(path)
        first = predict_pairs(QUADRIC4, 10, 10, 3, 1, [1.0] * 3, 2048,
                              seed=9, cache=cache)
        reloaded = EulerCache(path)
        assert reloaded.get(QUADRIC4, None, 2, 1) \
            == chi_global_padic(QUADRIC4, 2, 1).value
        assert reloaded.get(QUADRIC4, None, 2, 2) is None
        again = predict_pairs(QUADRIC4, 10, 10, 3, 1, [1.0] * 3, 2048,
                              seed=9, cache=reloaded)
        assert again.main_term == first.main_term
