"""The shared primitives of ``forms`` against independent oracles.

The batch evaluator is pinned to the scalar evaluator in its exact modes
and, in float mode, to the per-monomial float loop it replaced; the ranks
and integer kernels read off the Hermite normal form to sympy over Q and
over GF(p); the grid enumerator to ``itertools.product``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from linecount import forms
from linecount.forms import (
    HomogeneousForm,
    compiled_monomials,
    evaluate_batch,
    evaluate_form,
    gradient,
    grid_chunks,
    hermite_normal_form,
    hessian,
    integer_kernel,
    matrix_rank,
    residues_mod,
)


@st.composite
def small_forms(draw, max_vars=4, max_degree=4):
    n = draw(st.integers(1, max_vars))
    d = draw(st.integers(1, max_degree))
    monomials = [e for e in itertools.product(range(d + 1), repeat=n)
                 if sum(e) == d]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=1,
                           max_size=6, unique=True))
    coeffs = {e: draw(st.integers(-50, 50).filter(bool)) for e in chosen}
    return HomogeneousForm(nvars=n, degree=d, coeffs=coeffs)


@st.composite
def forms_and_points(draw, coordinate):
    form = draw(small_forms())
    points = draw(st.lists(st.lists(coordinate, min_size=form.nvars,
                                    max_size=form.nvars),
                           min_size=1, max_size=8))
    return form, points


def float_values_reference(form, points):
    """The float evaluator that lived in ``density`` before the float mode
    of ``evaluate_batch`` replaced it, kept verbatim as the oracle."""
    matrix, coefficients = compiled_monomials(form)
    out = np.zeros(points.shape[0])
    for row, coefficient in zip(matrix, coefficients):
        term = np.full(points.shape[0], float(coefficient))
        for i, e in enumerate(row):
            if e:
                term = term * points[:, i] ** int(e)
        out += term
    return out


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------

class TestEvaluateBatch:
    @given(forms_and_points(st.integers(-10 ** 6, 10 ** 6)))
    @settings(max_examples=60, deadline=None)
    def test_int64_points_match_scalar(self, case):
        form, points = case
        values = evaluate_batch(form, np.array(points, dtype=np.int64))
        assert [int(v) for v in values] \
            == [evaluate_form(form, p) for p in points]

    @given(forms_and_points(st.integers(-10 ** 12, 10 ** 12)))
    @settings(max_examples=40, deadline=None)
    def test_object_points_match_scalar(self, case):
        form, points = case
        values = evaluate_batch(form, np.array(points, dtype=object))
        assert values.dtype == object
        assert list(values) == [evaluate_form(form, p) for p in points]

    def test_overflow_preflight_picks_the_mode(self):
        form = HomogeneousForm(nvars=2, degree=4, coeffs={(4, 0): 3,
                                                          (1, 3): -7})
        small = evaluate_batch(form, np.array([[5, -6]], dtype=np.int64))
        big = evaluate_batch(form, np.array([[10 ** 6, 1]], dtype=np.int64))
        assert small.dtype == np.int64
        assert big.dtype == object
        assert big[0] == 3 * 10 ** 24 - 7 * 10 ** 6

    @given(forms_and_points(st.integers(-10 ** 9, 10 ** 9)),
           st.integers(1, 10 ** 6))
    @settings(max_examples=60, deadline=None)
    def test_residues_match_exact_values(self, case, q):
        form, points = case
        residues = residues_mod(
            evaluate_batch(form, np.array(points, dtype=np.int64)), q)
        assert residues.dtype == np.int64
        assert list(residues) == [evaluate_form(form, p) % q for p in points]

    @given(forms_and_points(st.integers(-10 ** 9, 10 ** 9)),
           st.integers(2 ** 63, 2 ** 80))
    @settings(max_examples=30, deadline=None)
    def test_residues_beyond_int64_modulus(self, case, q):
        form, points = case
        residues = residues_mod(
            evaluate_batch(form, np.array(points, dtype=np.int64)), q)
        assert residues.dtype == object
        assert list(residues) == [evaluate_form(form, p) % q for p in points]

    @given(forms_and_points(st.floats(-3, 3, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_float_mode_is_bitwise_the_old_loop(self, case):
        form, points = case
        array = np.array(points, dtype=np.float64)
        values = evaluate_batch(form, array)
        assert values.dtype == np.float64
        assert values.tobytes() == float_values_reference(form,
                                                          array).tobytes()

    def test_monomials_compile_once_per_form(self, monkeypatch):
        calls = []
        original = forms.compiled_monomials

        def counting(form):
            calls.append(form)
            return original(form)

        monkeypatch.setattr(forms, "compiled_monomials", counting)
        form = HomogeneousForm(nvars=3, degree=2, coeffs={(2, 0, 0): 1,
                                                          (0, 1, 1): -2})
        for block in grid_chunks([-2] * 3, [2] * 3, 10):
            evaluate_batch(form, block)
        evaluate_batch(form, np.ones((4, 3)))
        assert calls == [form]

    def test_rational_coefficients_are_refused(self):
        poly = forms.Polynomial(nvars=1, coeffs={(1,): Fraction(1, 2)})
        with pytest.raises(ValueError):
            evaluate_batch(poly, np.array([[2]]))


class TestDerivatives:
    @given(small_forms(), st.lists(st.integers(-6, 6), min_size=4,
                                   max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_gradient_and_hessian_match_sympy(self, form, point):
        point = point[:form.nvars]
        xs = sympy.symbols(f"x0:{form.nvars}")
        poly = sum(c * sympy.prod(x ** e for x, e in zip(xs, exps))
                   for exps, c in form.coeffs.items())
        at = dict(zip(xs, point))
        grad = gradient(form, point)
        assert all(type(v) is int for v in grad)
        assert list(grad) == [int(sympy.diff(poly, x).subs(at)) for x in xs]
        matrix = hessian(form, point)
        assert all(type(v) is int for row in matrix for v in row)
        assert [list(row) for row in matrix] == [
            [int(sympy.diff(poly, a, b).subs(at)) for b in xs] for a in xs]


# ---------------------------------------------------------------------------
# Exact elimination
# ---------------------------------------------------------------------------

@st.composite
def integer_matrices(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    matrix = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    if rows > 1 and draw(st.booleans()):
        # force a dependency: the last row a combination of earlier ones
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        matrix[-1] = [a * u + b * v
                      for u, v in zip(matrix[0], matrix[1 % (rows - 1)])]
    return matrix


def maximal_minors_gcd(rows):
    """gcd of the k x k minors of a k x n integer matrix: 1 exactly when
    its rows are a saturated basis of the lattice they span over Q."""
    k = len(rows)
    g = 0
    for columns in itertools.combinations(range(len(rows[0])), k):
        minor = sympy.Matrix([[row[c] for c in columns] for row in rows])
        g = math.gcd(g, int(minor.det()))
    return g


class TestRankOverQ:
    @given(integer_matrices())
    @settings(max_examples=80, deadline=None)
    def test_rank_matches_sympy(self, rows):
        assert matrix_rank(rows) == sympy.Matrix(rows).rank()

    @given(integer_matrices())
    @settings(max_examples=80, deadline=None)
    def test_integer_kernel_is_saturated(self, rows):
        """n - rank vectors, each with A k = 0, spanning a saturated
        lattice, and already in Hermite normal form."""
        kernel = integer_kernel(rows)
        assert len(kernel) == len(rows[0]) - sympy.Matrix(rows).rank()
        for vector in kernel:
            assert all(sum(a * v for a, v in zip(row, vector)) == 0
                       for row in rows)
        if kernel:
            assert maximal_minors_gcd(kernel) == 1
            assert hermite_normal_form(kernel) == kernel

    def test_empty_matrix(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([], 5) == 0


class TestRankOverFp:
    @given(integer_matrices(), st.sampled_from([2, 3, 5, 7, 11]))
    @settings(max_examples=80, deadline=None)
    def test_rank_matches_domain_matrix(self, rows, p):
        field = sympy.GF(p)
        domain = DomainMatrix([[field(v) for v in row] for row in rows],
                              (len(rows), len(rows[0])), field)
        assert matrix_rank(rows, p) == domain.rank()


# ---------------------------------------------------------------------------
# Grid enumeration
# ---------------------------------------------------------------------------

class TestGridChunks:
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 3)),
                    min_size=1, max_size=4),
           st.one_of(st.none(), st.integers(1, 50)))
    @settings(max_examples=80, deadline=None)
    def test_order_matches_itertools_product(self, axes, chunk_rows):
        lows = [lo for lo, _ in axes]
        highs = [lo + width for lo, width in axes]
        blocks = list(grid_chunks(lows, highs, chunk_rows))
        expected = list(itertools.product(
            *[range(lo, hi + 1) for lo, hi in zip(lows, highs)]))
        rows = [tuple(int(v) for v in row)
                for block in blocks for row in block]
        assert rows == expected
        assert all(block.dtype == np.int64 for block in blocks)
        if chunk_rows is None:
            assert len(blocks) == 1
        else:
            assert all(len(block) == chunk_rows for block in blocks[:-1])

    @pytest.mark.parametrize("sides,chunk_rows", [
        ((3, 5, 7), 1),       # one row per chunk
        ((3, 5, 7), 4),       # 105 rows: 26 chunks of 4 and one of 1
        ((3, 5, 7), 13),      # a chunk spans several runs of every column
        ((3, 5, 7), 104),     # one short last chunk
        ((2, 11), 9),         # the last column wraps inside a chunk
        ((40,), 7),           # one column wider than a chunk
        ((1, 6, 1, 4), 5),    # sides of one
        ((4, 4, 4, 4, 4), 37),
    ])
    def test_chunks_that_do_not_divide_the_grid(self, sides, chunk_rows):
        lows = [-(side // 2) for side in sides]
        highs = [lo + side - 1 for lo, side in zip(lows, sides)]
        blocks = list(grid_chunks(lows, highs, chunk_rows))
        expected = list(itertools.product(
            *[range(lo, hi + 1) for lo, hi in zip(lows, highs)]))
        assert [tuple(row) for block in blocks
                for row in block.tolist()] == expected
        assert [len(block) for block in blocks[:-1]] \
            == [chunk_rows] * (len(blocks) - 1)
        assert 0 < len(blocks[-1]) <= chunk_rows
