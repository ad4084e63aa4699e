"""Exact form algebra: parsing, pencil expansion, slices."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecount.errors import (
    DimensionMismatch,
    FormSyntaxError,
    IndexOutOfRange,
    NotHomogeneous,
    ZeroForm,
)
from linecount.fixtures import (
    QUINTIC_BASE_POINT,
    fermat_quintic,
    random_dense_form,
)
from linecount.forms import (
    compiled_monomials,
    evaluate_batch,
    evaluate_form,
    form_from_json,
    form_to_json,
    gradient,
    hessian,
    integer_slice_form,
    parse_form,
    pencil_coefficients,
)

QUINTIC = fermat_quintic()
Y0 = QUINTIC_BASE_POINT


# ---------------------------------------------------------------------------
# Parsing and serialisation
# ---------------------------------------------------------------------------

class TestParse:
    def test_fermat_quintic_literal(self):
        form = parse_form("x1^5+x2^5+x3^5+x4^5")
        assert form.degree == 5
        assert form.nvars == 4
        assert len(form.coeffs) == 4
        assert all(c == 1 for c in form.coeffs.values())

    def test_mixed_degree_rejected(self):
        with pytest.raises(NotHomogeneous):
            parse_form("x1^2 + x1")

    def test_cancellation_rejected(self):
        with pytest.raises(ZeroForm):
            parse_form("x1*x2 - x2*x1")

    def test_cancelled_form_object_rejected(self):
        with pytest.raises(ZeroForm):
            form_from_json({"n": 2, "d": 2, "monomials": [
                {"exp": [2, 0], "coef": "1"}, {"exp": [2, 0], "coef": "-1"}]})

    def test_malformed(self):
        with pytest.raises(FormSyntaxError):
            parse_form("x1 + ")
        with pytest.raises(FormSyntaxError):
            parse_form("x1/2")
        with pytest.raises(FormSyntaxError):
            parse_form("y^2")
        with pytest.raises(FormSyntaxError):
            parse_form("3")

    def test_n_hint_widens(self):
        form = parse_form("x1^2", n_hint=3)
        assert form.nvars == 3
        assert evaluate_form(form, (2, 9, 9)) == 4

    def test_signs_and_products(self):
        form = parse_form("-2*x1*x2 + x2^2")
        assert form.coeffs == {(1, 1): -2, (0, 2): 1}

    def test_json_round_trip(self):
        for seed in range(5):
            form = random_dense_form(3, 4, seed=seed, coeff_bound=10 ** 12)
            again = form_from_json(form_to_json(form))
            assert again == form

    def test_json_order_is_graded_lex(self):
        form = parse_form("x2^2 + x1*x2 + x1^2")
        exps = [tuple(m["exp"]) for m in form_to_json(form)["monomials"]]
        assert exps == sorted(exps)

    def test_json_coefficients_are_strings(self):
        obj = form_to_json(parse_form("7*x1^3"))
        assert obj["monomials"][0]["coef"] == "7"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_quintic_values(self):
        assert evaluate_form(QUINTIC, (1, -1, 2, 0)) == 32
        assert evaluate_form(QUINTIC, (3, 0, 0, 0)) == 243
        assert evaluate_form(QUINTIC, (0, 0, 0, 0)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate_form(QUINTIC, (1, 2, 3))

    def test_no_overflow(self):
        big = 10 ** 9
        assert evaluate_form(QUINTIC, (big, 0, 0, 0)) == big ** 5

    def test_batch_matches_scalar(self):
        import numpy as np
        rng = random.Random(11)
        pts = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(200)]
        values = evaluate_batch(QUINTIC, np.array(pts))
        for p, v in zip(pts, values):
            assert int(v) == evaluate_form(QUINTIC, p)

    def test_batch_object_fallback_exact(self):
        import numpy as np
        pts = np.array([[10 ** 7, 1, 0, 0], [2, 3, 4, 5]], dtype=object)
        values = evaluate_batch(QUINTIC, pts)
        assert int(values[0]) == 10 ** 35 + 1


# ---------------------------------------------------------------------------
# Pencil expansion
# ---------------------------------------------------------------------------

class TestPencil:
    def test_disjoint_fermat_pair_is_line(self):
        pencil = pencil_coefficients(QUINTIC, (1, -1, 0, 0), (0, 0, 1, -1))
        assert pencil.coefficients == (0,) * 6
        assert pencil.is_line

    def test_proportional_pair_on_hypersurface(self):
        pencil = pencil_coefficients(QUINTIC, (1, -1, 0, 0), (1, -1, 0, 0))
        assert pencil.is_line

    def test_coordinate_pair(self):
        pencil = pencil_coefficients(QUINTIC, (1, 0, 0, 0), (0, 1, 0, 0))
        assert pencil.coefficients == (1, 0, 0, 0, 0, 1)

    def test_endpoints(self):
        rng = random.Random(3)
        for _ in range(20):
            form = random_dense_form(3, 4, seed=rng.randint(0, 10 ** 6))
            x = [rng.randint(-4, 4) for _ in range(3)]
            y = [rng.randint(-4, 4) for _ in range(3)]
            pencil = pencil_coefficients(form, x, y)
            assert pencil.coefficients[-1] == evaluate_form(form, x)
            assert pencil.coefficients[0] == evaluate_form(form, y)

    def test_pencil_identity_thousand_samples(self):
        """F(u*x + v*y) == sum_j c_j u^j v^(d-j), exactly, en masse."""
        rng = random.Random(20260816)
        for trial in range(1000):
            n = rng.randint(2, 5)
            d = rng.randint(2, 5)
            form = random_dense_form(n, d, seed=trial)
            x = [rng.randint(-5, 5) for _ in range(n)]
            y = [rng.randint(-5, 5) for _ in range(n)]
            u = rng.randint(-5, 5)
            v = rng.randint(-5, 5)
            pencil = pencil_coefficients(form, x, y)
            lhs = evaluate_form(form, [u * a + v * b for a, b in zip(x, y)])
            rhs = sum(c * u ** j * v ** (d - j)
                      for j, c in enumerate(pencil.coefficients))
            assert lhs == rhs

    def test_line_pair_predicate(self):
        assert pencil_coefficients(QUINTIC, (1, -1, 0, 0),
                                   (0, 0, 1, -1)).is_line
        assert not pencil_coefficients(QUINTIC, (1, 0, 0, 0),
                                       (0, 1, 0, 0)).is_line
        y = (1, -1, 0, 0)
        assert pencil_coefficients(QUINTIC, tuple(2 * v for v in y),
                                   y).is_line


# ---------------------------------------------------------------------------
# Slices
# ---------------------------------------------------------------------------

class TestSlices:
    """integer_slice_form(F, y, j) is c_j(x, y) = binom(d, j) *
    Phi(x, .., x, y, .., y) as a polynomial in x."""

    def test_quintic_degree_two_slice(self):
        slice2 = integer_slice_form(QUINTIC, Y0, 2)
        assert dict(slice2.coeffs) == {(0, 0, 2, 0): 10, (0, 0, 0, 2): -10}

    def test_quintic_degree_one_slice(self):
        slice1 = integer_slice_form(QUINTIC, Y0, 1)
        assert dict(slice1.coeffs) == {(0, 0, 1, 0): 5, (0, 0, 0, 1): 5}

    def test_top_slice_is_form_itself(self):
        top = integer_slice_form(QUINTIC, Y0, 5)
        assert dict(top.coeffs) == dict(QUINTIC.coeffs)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            integer_slice_form(QUINTIC, Y0, 6)
        with pytest.raises(IndexOutOfRange):
            integer_slice_form(QUINTIC, Y0, -1)

    def test_scaled_slice_consistency(self):
        """The slice at x is the pencil coefficient, on random samples."""
        rng = random.Random(99)
        for trial in range(200):
            n = rng.randint(2, 4)
            d = rng.randint(2, 5)
            form = random_dense_form(n, d, seed=1000 + trial)
            x = [rng.randint(-3, 3) for _ in range(n)]
            y = [rng.randint(-3, 3) for _ in range(n)]
            pencil = pencil_coefficients(form, x, y)
            for j in range(d + 1):
                scaled = evaluate_form(integer_slice_form(form, y, j), x)
                assert scaled == pencil.coefficients[j]

    def test_integer_slice_has_integer_coefficients(self):
        for j in range(6):
            sliced = integer_slice_form(QUINTIC, (2, -3, 5, 7), j)
            assert all(type(c) is int for c in sliced.coeffs.values())

    def test_linear_slice_matches_gradient(self):
        """c_1(x, y) = grad F(y) . x."""
        rng = random.Random(5)
        for trial in range(100):
            n = rng.randint(2, 4)
            d = rng.randint(2, 5)
            form = random_dense_form(n, d, seed=2000 + trial)
            y = [rng.randint(-3, 3) for _ in range(n)]
            x = [rng.randint(-3, 3) for _ in range(n)]
            grad = gradient(form, y)
            lhs = evaluate_form(integer_slice_form(form, y, 1), x)
            assert lhs == sum(g * v for g, v in zip(grad, x))

    def test_quadratic_slice_matches_hessian(self):
        """2 c_2(x, y) = x^T H(y) x."""
        rng = random.Random(6)
        for trial in range(100):
            n = rng.randint(2, 4)
            d = rng.randint(2, 5)
            form = random_dense_form(n, d, seed=2500 + trial)
            y = [rng.randint(-3, 3) for _ in range(n)]
            x = [rng.randint(-3, 3) for _ in range(n)]
            matrix = hessian(form, y)
            lhs = 2 * evaluate_form(integer_slice_form(form, y, 2), x)
            assert lhs == sum(x[i] * matrix[i][k] * x[k]
                              for i in range(n) for k in range(n))


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

class TestDerivatives:
    def test_quintic_hessian_diagonal(self):
        matrix = hessian(QUINTIC, Y0)
        expected = [[0] * 4 for _ in range(4)]
        expected[2][2], expected[3][3] = 20, -20
        assert [list(r) for r in matrix] == expected

    def test_quintic_gradient(self):
        assert gradient(QUINTIC, Y0) == (0, 0, 5, 5)

    def test_hessian_zero_at_origin(self):
        form = random_dense_form(3, 4, seed=7)
        assert all(v == 0 for row in hessian(form, (0, 0, 0)) for v in row)

    def test_hessian_symmetric(self):
        form = random_dense_form(4, 3, seed=8)
        matrix = hessian(form, (1, -2, 3, 4))
        for i in range(4):
            for j in range(4):
                assert matrix[i][j] == matrix[j][i]

    def test_euler_identities(self):
        """x . grad F(x) = d F(x) and H_x x = (d-1) grad F(x)."""
        rng = random.Random(17)
        for trial in range(50):
            n = rng.randint(2, 4)
            d = rng.randint(2, 5)
            form = random_dense_form(n, d, seed=3000 + trial)
            x = [rng.randint(-4, 4) for _ in range(n)]
            grad = gradient(form, x)
            assert sum(g * v for g, v in zip(grad, x)) == d * evaluate_form(form, x)
            matrix = hessian(form, x)
            for i in range(n):
                assert sum(matrix[i][j] * x[j] for j in range(n)) \
                    == (d - 1) * grad[i]


# ---------------------------------------------------------------------------
# Structural properties (hypothesis)
# ---------------------------------------------------------------------------

@st.composite
def small_forms(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    d = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    return random_dense_form(n, d, seed=seed)


@given(small_forms(), st.integers(-6, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_homogeneity_scaling(form, lam, data):
    point = [data.draw(st.integers(-5, 5)) for _ in range(form.nvars)]
    scaled = [lam * v for v in point]
    assert evaluate_form(form, scaled) == \
        lam ** form.degree * evaluate_form(form, point)


@given(small_forms())
@settings(max_examples=30, deadline=None)
def test_monomials_canonical_and_nonzero(form):
    matrix, coefficients = compiled_monomials(form)
    keys = [(sum(row), tuple(row)) for row in matrix.tolist()]
    assert keys == sorted(keys)
    assert len(keys) == len(form.coeffs)
    assert all(c != 0 for c in coefficients)
