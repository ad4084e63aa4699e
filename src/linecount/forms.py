"""Exact algebra of integer homogeneous forms.

A homogeneous form F of degree d in n variables is stored sparsely as a map
from exponent tuples to integer coefficients, a :class:`HomogeneousForm`.
Every polynomial derived from it (its integer slices, partial derivatives
and differences) is a :class:`Polynomial`, the same map without the
homogeneity requirement.  Everything in this module is exact: coefficients
are Python ints or :class:`fractions.Fraction`, and the only floating point
is the float64 mode of the batch evaluator, which serves the
quasi-Monte-Carlo estimators and never decides an exact result.

The central identity is the pencil expansion.  Writing Phi for the symmetric
d-linear form with Phi(x, ..., x) = F(x), substituting a line u*x + v*y into
F and collecting powers gives

    F(u*x + v*y) = sum_{j=0}^{d} c_j(x, y) * u^j * v^(d-j),

where c_j(x, y) = binom(d, j) * Phi(x, ..., x, y, ..., y) with j slots x and
d - j slots y.  The pair (x, y) spans a line inside the hypersurface F = 0
exactly when every c_j vanishes.  Each form expands this pencil once, on
first use: its ``pencil`` attribute holds c_0, ..., c_d as integer forms in
the 2n variables (x, y), and everything else reads them.  The pair-density
code takes them whole, :func:`pencil_coefficients` evaluates them at
(x, y), and the slices put a fixed y into them.  For fixed y, the degree-j
piece x -> Phi(x, ..., x, y, ..., y) is the "slice" of F along y; the
integer rescaling binom(d, j) * slice = c_j(x, y) is what all congruence
and exponential-sum code in this package works with, because its values
are guaranteed integers.  The binomial expansion of c * (x + h)^e behind
the pencil also gives :func:`discrete_difference` its shifted terms.

The module also holds the one implementation of three primitives the rest
of the package shares: :func:`evaluate_batch`, the batch evaluator whose
mode (int64, exact object, float64) follows the dtype of its points, with
:func:`residues_mod` for the mod-q reduction of its values;
:func:`hermite_normal_form`, the one exact elimination, which every rank
over Q or F_p (:func:`matrix_rank`), saturated integer kernel
(:func:`integer_kernel`) and dual basis reads; and :func:`grid_chunks`,
the lexicographic integer grid in row chunks.  It also holds the "p/q"
text of rationals, :func:`parse_rational` and :func:`format_rational`,
which every JSON output uses.  Each form object compiles its monomials
and builds its partial derivatives and its pencil forms once, on first
use.
"""

from __future__ import annotations

import ast
import functools
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BasisNotSpanning,
    DimensionMismatch,
    FormSyntaxError,
    IndexOutOfRange,
    NotHomogeneous,
    ZeroForm,
)

Exponent = Tuple[int, ...]
IntVector = Sequence[int]

_VARIABLE_RE = re.compile(r"^x([1-9][0-9]*)$")
_MAX_PARSED_EXPONENT = 1000


def _sorted_items(coeffs: Mapping[Exponent, object]) -> List[Tuple[Exponent, object]]:
    """The terms in graded-lexicographic order of their exponents."""
    return sorted(coeffs.items(), key=lambda item: (sum(item[0]), item[0]))


def _validate_coeffs(nvars: int, coeffs: Mapping[Exponent, object],
                     degree: Optional[int] = None) -> None:
    """Shape checks; with ``degree`` also homogeneity of that degree."""
    for exponents, coefficient in coeffs.items():
        if len(exponents) != nvars:
            raise DimensionMismatch(
                f"exponent tuple {exponents} has length {len(exponents)}, "
                f"expected {nvars}")
        if any(e < 0 for e in exponents):
            raise ValueError(f"negative exponent in {exponents}")
        if coefficient == 0:
            raise ValueError(f"stored zero coefficient at {exponents}")
    for exponents in coeffs if degree is not None else ():
        if sum(exponents) != degree:
            raise NotHomogeneous(
                f"monomial {exponents} has degree {sum(exponents)}, "
                f"form degree is {degree}")


def _add_term(out: Dict[Exponent, object], key: Exponent, value) -> None:
    """out[key] += value, dropping the key when the sum vanishes."""
    value = out.get(key, 0) + value
    if value:
        out[key] = value
    else:
        out.pop(key, None)


@dataclass(frozen=True)
class CompiledForm:
    """Monomials of a form laid out for :func:`evaluate_batch`.

    Fields:
        factors: entry k holds the (variable, exponent) pairs of the
            nonzero exponents of the k-th monomial (graded-lex).
        coefficients: the coefficients as ints, in the same order.
        degree: largest total degree of a monomial (0 for the zero form).
        weight: sum of the absolute coefficients, for the overflow preflight.
        integral: True when every coefficient is an integer.
    """

    factors: Tuple[Tuple[Tuple[int, int], ...], ...]
    coefficients: Tuple[int, ...]
    degree: int
    weight: int
    integral: bool


class _Sparse:
    """What the input form and its derived polynomials share.

    They are immutable, so their compiled monomials and their partial
    derivatives are built once, on first use.
    """

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, point: IntVector):
        """Exact value at an integer point (see :func:`evaluate_form`)."""
        return evaluate_form(self, point)

    @functools.cached_property
    def compiled(self) -> CompiledForm:
        """The monomials compiled for :func:`evaluate_batch`."""
        matrix, coefficients = compiled_monomials(self)
        return CompiledForm(
            factors=tuple(tuple((i, int(e)) for i, e in enumerate(row) if e)
                          for row in matrix),
            coefficients=tuple(coefficients),
            degree=max((int(row.sum()) for row in matrix), default=0),
            weight=sum(abs(c) for c in coefficients),
            integral=all(Fraction(c).denominator == 1
                         for c in self.coeffs.values()))

    @functools.cached_property
    def partials(self) -> tuple:
        """The first partial derivatives d/dx_1, ..., d/dx_n as
        Polynomials, exact.  Coefficients keep their type, so an integer
        form has integer derivatives.
        """
        out = []
        for t in range(self.nvars):
            coeffs: Dict[Exponent, object] = {}
            for exponents, coefficient in self.coeffs.items():
                e = exponents[t]
                if not e:
                    continue
                _add_term(coeffs, tuple(v - 1 if i == t else v
                                        for i, v in enumerate(exponents)),
                          e * coefficient)
            out.append(Polynomial(nvars=self.nvars, coeffs=coeffs))
        return tuple(out)


@dataclass(frozen=True)
class HomogeneousForm(_Sparse):
    """Integer homogeneous polynomial of degree >= 1.

    Fields:
        nvars: number of variables n.
        degree: common total degree d of every monomial.
        coeffs: sparse map exponent tuple -> nonzero integer coefficient.
    """

    nvars: int
    degree: int
    coeffs: Mapping[Exponent, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("a form must have degree >= 1")
        _validate_coeffs(self.nvars, self.coeffs, self.degree)
        if not all(isinstance(c, int) for c in self.coeffs.values()):
            raise ValueError("coefficients of a HomogeneousForm are ints")

    @functools.cached_property
    def pencil(self) -> Tuple["HomogeneousForm", ...]:
        """The pencil forms c_0, ..., c_d in the 2n variables (x, y).

        c_j is the coefficient of u^j in F(u*x + y), homogeneous of degree
        d with integer coefficients; variables 0..n-1 are the x block and
        n..2n-1 the y block.  The term x^k y^(e-k) of c_{|k|} comes from
        the monomial x^e of F alone, so no two terms collide.
        """
        coeffs: List[Dict[Exponent, int]] = [{} for _ in
                                             range(self.degree + 1)]
        for exponents, coefficient in self.coeffs.items():
            for k, rest, weight in _expanded_terms(coefficient, exponents):
                coeffs[sum(k)][k + rest] = weight
        return tuple(HomogeneousForm(nvars=2 * self.nvars,
                                     degree=self.degree, coeffs=c)
                     for c in coeffs)


@dataclass(frozen=True)
class Polynomial(_Sparse):
    """Sparse polynomial with exact int or Fraction coefficients, possibly
    inhomogeneous and possibly zero (an empty coefficient map).

    The one type of every polynomial derived from a form: integer slices,
    partial derivatives and differences.
    """

    nvars: int
    coeffs: Mapping[Exponent, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _validate_coeffs(self.nvars, self.coeffs)

    @property
    def degree(self) -> int:
        """Maximal total degree; the zero polynomial has degree -1."""
        if not self.coeffs:
            return -1
        return max(sum(e) for e in self.coeffs)


@dataclass(frozen=True)
class PencilExpansion:
    """Coefficients of F(u*x + v*y) collected by powers of u.

    coefficients[j] is the exact integer multiplying u^j * v^(d-j); in
    particular coefficients[0] = F(y) and coefficients[d] = F(x).
    """

    degree: int
    coefficients: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.degree + 1:
            raise ValueError("need exactly degree + 1 coefficients")

    @property
    def is_line(self) -> bool:
        """True when the whole pencil lies inside the hypersurface."""
        return all(c == 0 for c in self.coefficients)


# ---------------------------------------------------------------------------
# Parsing and serialisation
# ---------------------------------------------------------------------------

def _collect_variables(tree: ast.AST) -> int:
    """Largest index among variables x1, x2, ...; 0 if none occur."""
    largest = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            match = _VARIABLE_RE.match(node.id)
            if match is None:
                raise FormSyntaxError(
                    f"unknown symbol {node.id!r}; variables are x1, x2, ...")
            largest = max(largest, int(match.group(1)))
    return largest


def _poly_mul(a: Dict[Exponent, Fraction], b: Dict[Exponent, Fraction],
              ) -> Dict[Exponent, Fraction]:
    out: Dict[Exponent, Fraction] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _add_term(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def _poly_add(a: Dict[Exponent, Fraction], b: Dict[Exponent, Fraction],
              sign: int = 1) -> Dict[Exponent, Fraction]:
    out = dict(a)
    for e, c in b.items():
        _add_term(out, e, sign * c)
    return out


def _eval_expression(node: ast.AST, nvars: int) -> Dict[Exponent, Fraction]:
    zero = (0,) * nvars
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, int):
            raise FormSyntaxError(
                f"only integer literals are allowed, got {node.value!r}")
        return {zero: Fraction(node.value)} if node.value else {}
    if isinstance(node, ast.Name):
        index = int(_VARIABLE_RE.match(node.id).group(1))
        e = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return {e: Fraction(1)}
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        inner = _eval_expression(node.operand, nvars)
        if isinstance(node.op, ast.UAdd):
            return inner
        return {e: -c for e, c in inner.items()}
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Add):
            return _poly_add(_eval_expression(node.left, nvars),
                             _eval_expression(node.right, nvars))
        if isinstance(node.op, ast.Sub):
            return _poly_add(_eval_expression(node.left, nvars),
                             _eval_expression(node.right, nvars), sign=-1)
        if isinstance(node.op, ast.Mult):
            return _poly_mul(_eval_expression(node.left, nvars),
                             _eval_expression(node.right, nvars))
        if isinstance(node.op, ast.Pow):
            exponent_node = node.right
            if not (isinstance(exponent_node, ast.Constant)
                    and isinstance(exponent_node.value, int)
                    and exponent_node.value >= 0):
                raise FormSyntaxError(
                    "exponents must be literal non-negative integers")
            exponent = exponent_node.value
            if exponent > _MAX_PARSED_EXPONENT:
                raise FormSyntaxError(
                    f"exponent {exponent} exceeds the parser cap "
                    f"{_MAX_PARSED_EXPONENT}")
            base = _eval_expression(node.left, nvars)
            out: Dict[Exponent, Fraction] = {zero: Fraction(1)}
            for _ in range(exponent):
                out = _poly_mul(out, base)
            return out
        raise FormSyntaxError(
            f"operator {type(node.op).__name__} is not part of the grammar")
    raise FormSyntaxError(
        f"unsupported syntax element {type(node).__name__}")


def parse_form(text: str, n_hint: int | None = None) -> HomogeneousForm:
    """Parse an expression in x1..xn with integer literals, +, -, * and ^.

    Args:
        text: the expression, e.g. ``"x1^5 + x2^5 - 3*x1*x2^4"``.
        n_hint: optional variable count; may only widen the inferred count.

    Returns:
        The expanded form in canonical (graded-lexicographic) order.

    Raises:
        FormSyntaxError: the expression is malformed or uses foreign syntax.
        NotHomogeneous: monomials of different total degree survive expansion.
        ZeroForm: every term cancels.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as exc:
        raise FormSyntaxError(f"cannot parse {text!r}: {exc.msg}") from exc
    inferred = _collect_variables(tree)
    nvars = max(inferred, n_hint or 0)
    if nvars == 0:
        raise FormSyntaxError("expression mentions no variables")
    coeffs = _eval_expression(tree.body, nvars)
    if not coeffs:
        raise ZeroForm(f"all terms of {text!r} cancel")
    degrees = {sum(e) for e in coeffs}
    if len(degrees) > 1:
        raise NotHomogeneous(
            f"mixed total degrees {sorted(degrees)} in {text!r}")
    degree = degrees.pop()
    if degree == 0:
        raise FormSyntaxError("a constant expression does not define a form")
    return HomogeneousForm(
        nvars=nvars, degree=degree,
        coeffs={e: int(c) for e, c in coeffs.items()})


def form_to_json(form: HomogeneousForm) -> dict:
    """Canonical JSON object for a form; round-trips losslessly.

    Coefficients are emitted as decimal strings so arbitrarily large values
    survive any 64-bit JSON reader.
    """
    return {
        "n": form.nvars,
        "d": form.degree,
        "monomials": [
            {"exp": list(e), "coef": str(c)}
            for e, c in _sorted_items(form.coeffs)
        ],
    }


def form_from_json(obj: dict) -> HomogeneousForm:
    """Inverse of :func:`form_to_json`; accepts int or string coefficients."""
    try:
        nvars = int(obj["n"])
        degree = int(obj["d"])
        coeffs: Dict[Exponent, int] = {}
        for entry in obj["monomials"]:
            e = tuple(int(v) for v in entry["exp"])
            c = int(entry["coef"])
            if c:
                coeffs[e] = coeffs.get(e, 0) + c
    except (KeyError, TypeError, ValueError) as exc:
        raise FormSyntaxError(f"malformed form object: {exc}") from exc
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        raise ZeroForm("form object carries no surviving monomials")
    return HomogeneousForm(nvars=nvars, degree=degree, coeffs=coeffs)


def load_form(path: str) -> HomogeneousForm:
    """Read a canonical JSON form file."""
    with open(path, "r", encoding="utf-8") as handle:
        return form_from_json(json.load(handle))


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") into an exact rational; no decimals allowed."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """The "p/q" string of a rational ("p" when it is an integer), the
    inverse of :func:`parse_rational`."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _check_point(form, point: IntVector) -> None:
    if len(point) != form.nvars:
        raise DimensionMismatch(
            f"point has length {len(point)}, form has {form.nvars} variables")


def evaluate_form(form, point: IntVector):
    """Exact value of a form (or general polynomial) at an integer point.

    Args:
        form: HomogeneousForm or Polynomial.
        point: integer vector of length ``form.nvars``.

    Returns:
        int for integer forms, Fraction otherwise; always exact.
    """
    _check_point(form, point)
    return sum(_term_value(coefficient, point, exponents)
               for exponents, coefficient in form.coeffs.items())


def _term_value(coefficient, point: IntVector, exponents: Exponent):
    """coefficient * prod_i point_i^exponents_i, exact."""
    for value, e in zip(point, exponents):
        if e:
            coefficient *= value ** e
    return coefficient


def compiled_monomials(form) -> Tuple[np.ndarray, List[int]]:
    """Exponent matrix and coefficient list in graded-lex order.

    Row k of the matrix is the exponent tuple of the k-th monomial.  Every
    form caches the result in its ``compiled`` attribute.
    """
    items = _sorted_items(form.coeffs)
    if items:
        matrix = np.array([e for e, _ in items], dtype=np.int64)
    else:
        matrix = np.zeros((0, form.nvars), dtype=np.int64)
    coefficients = [int(c) for _, c in items]
    return matrix, coefficients


def evaluate_batch(form, points: np.ndarray) -> np.ndarray:
    """Values of an integer-coefficient form on many points at once.

    The dtype of ``points`` picks the mode:

    * integers: exact.  An int64 fast path runs when a preflight bound
      proves no intermediate can overflow; otherwise the values are
      computed in object (arbitrary precision) arithmetic.
    * object: exact, always in object arithmetic.
    * float: float64, summing the monomials in graded-lex order, each
      built left to right from its coefficient.

    In the exact modes the result equals
    ``[evaluate_form(form, p) for p in points]``.

    Args:
        form: form or polynomial with integer coefficients (a Fraction
            coefficient that is not an integer is refused).
        points: array of shape (m, nvars).

    Returns:
        Array of shape (m,): float64 for float points, int64 when the fast
        path is safe, otherwise object (Python ints).
    """
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] != form.nvars:
        raise DimensionMismatch(
            f"points must have shape (m, {form.nvars})")
    compiled = form.compiled
    if not compiled.integral:
        raise ValueError("evaluate_batch needs integer coefficients")
    if points.dtype.kind == "f":
        return _sum_monomials(compiled, points, np.float64)
    if points.size == 0:
        return np.zeros(points.shape[0], dtype=np.int64)
    if points.dtype != object:
        biggest = max(int(np.abs(points).max()), 1)
        if compiled.weight * biggest ** compiled.degree < 2 ** 62:
            return _sum_monomials(compiled, points.astype(np.int64),
                                  np.int64)
    return _sum_monomials(compiled, points.astype(object), object)


def _sum_monomials(compiled: CompiledForm, points: np.ndarray,
                   dtype) -> np.ndarray:
    values = np.zeros(points.shape[0], dtype=dtype)
    for factors, coefficient in zip(compiled.factors,
                                    compiled.coefficients):
        if not factors:
            values += coefficient
            continue
        # coefficient * p_1 * p_2 * ..., left to right; the first product
        # is taken as p_1 * coefficient, the same value in every mode
        (i, e), *rest = factors
        term = (points[:, i] ** e).astype(dtype, copy=False)
        if coefficient != 1:
            term *= coefficient
        for i, e in rest:
            term *= points[:, i] ** e
        values += term
    return values


def residues_mod(values: np.ndarray, modulus: int) -> np.ndarray:
    """Exact values from :func:`evaluate_batch` reduced into [0, modulus),
    as int64 whichever exact mode produced them, or as Python ints when
    the modulus does not fit int64."""
    if modulus >= 2 ** 63:
        return values.astype(object) % modulus
    if values.dtype == object:
        return (values % modulus).astype(np.int64)
    return values % modulus


def grid_chunks(lows: Sequence[int], highs: Sequence[int],
                chunk_rows: Optional[int] = None) -> Iterator[np.ndarray]:
    """The integer grid prod_i [lows_i, highs_i] as int64 row blocks.

    Rows run in lexicographic order, last coordinate fastest (the order of
    ``itertools.product``): row r holds the mixed-radix digits of r.  Each
    block holds ``chunk_rows`` rows (the last may hold fewer), or the whole
    grid when ``chunk_rows`` is None.
    """
    sides = [int(hi) - int(lo) + 1 for lo, hi in zip(lows, highs)]
    total = math.prod(sides)
    step = chunk_rows or max(total, 1)
    return (_grid_block(lows, sides, start, min(start + step, total))
            for start in range(0, total, step))


def _grid_block(lows: Sequence[int], sides: Sequence[int], start: int,
                stop: int) -> np.ndarray:
    """Rows start..stop-1 of the grid, without a division per row.

    Column i of row r is lows[i] + (r // stride_i) % sides[i], stride_i the
    product of the later sides.  Over a row range that is the run of
    digits (q % sides[i] for consecutive q), each repeated stride_i times,
    the first and last repeats cut to the range.
    """
    block = np.empty((stop - start, len(sides)), dtype=np.int64)
    stride = 1
    for i in range(len(sides) - 1, -1, -1):
        if sides[i] == 1:  # one digit, and the stride stays
            block[:, i] = lows[i]
            continue
        first, last = start // stride, (stop - 1) // stride
        digits = _digit_run(first, last - first + 1, sides[i])
        digits += int(lows[i])
        if stride > 1:
            counts = np.full(last - first + 1, stride, dtype=np.int64)
            counts[0] -= start - first * stride
            counts[-1] -= (last + 1) * stride - stop
            digits = np.repeat(digits, counts)
        block[:, i] = digits
        stride *= sides[i]
    return block


def _digit_run(first: int, count: int, side: int) -> np.ndarray:
    """(first + k) % side for k = 0..count-1, as int64."""
    offset = first % side
    if count >= side:
        laps = -(-(offset + count) // side)
        return np.tile(np.arange(side, dtype=np.int64), laps)[
            offset:offset + count]
    digits = np.arange(offset, offset + count, dtype=np.int64)
    digits[side - offset:] -= side  # count < side: at most one wrap
    return digits


# ---------------------------------------------------------------------------
# Pencil expansion and slices
# ---------------------------------------------------------------------------

def _expanded_terms(coefficient, exponents: Exponent,
                   ) -> Iterator[Tuple[Exponent, Exponent, object]]:
    """The terms of coefficient * prod_i (x_i + h_i)^e_i: one triple
    (k, e - k, coefficient * prod_i binom(e_i, k_i)) per k with
    0 <= k_i <= e_i, the last entry the weight of x^k h^(e - k).

    The package's one binomial expansion: the pencil forms substitute
    u*x + y, and :func:`discrete_difference` a fixed shift h.
    """
    for k in itertools.product(*(range(e + 1) for e in exponents)):
        weight = coefficient
        for e, kk in zip(exponents, k):
            weight *= math.comb(e, kk)
        yield k, tuple(e - kk for e, kk in zip(exponents, k)), weight


def pencil_coefficients(form: HomogeneousForm, x: IntVector,
                        y: IntVector) -> PencilExpansion:
    """Exact coefficients c_j of u^j v^(d-j) in F(u*x + v*y): the pencil
    forms of F evaluated at (x, y)."""
    _check_point(form, x)
    _check_point(form, y)
    point = tuple(x) + tuple(y)
    return PencilExpansion(degree=form.degree, coefficients=tuple(
        evaluate_form(c_j, point) for c_j in form.pencil))


def integer_slice_form(form: HomogeneousForm, y: IntVector,
                       j: int) -> Polynomial:
    """The integer-scaled slice binom(d, j) * Phi(x, .., x, y, .., y).

    This is the pencil form c_j(x, y) with y put in, the coefficient of u^j
    in F(u*x + y) read as a polynomial in x, so its coefficients are
    integers; it is the degree-j polynomial whose vanishing (for j = 1..d)
    characterises x spanning a line with y.

    Args:
        form: the form F.
        y: integer base point (d - j slots).
        j: slice degree, 0 <= j <= d.

    Returns:
        Polynomial in x, homogeneous of degree j or zero, with int
        coefficients.  At j = d it is F itself, and at j = 1 it is
        grad F(y) . x.
    """
    _check_point(form, y)
    if not 0 <= j <= form.degree:
        raise IndexOutOfRange(
            f"slice degree {j} outside 0..{form.degree}")
    n = form.nvars
    out: Dict[Exponent, int] = {}
    for key, coefficient in form.pencil[j].coeffs.items():
        _add_term(out, key[:n], _term_value(coefficient, y, key[n:]))
    return Polynomial(nvars=n, coeffs=out)


def nonzero_slices(form: HomogeneousForm, y: IntVector,
                   lowest: int = 2) -> List[Tuple[int, Polynomial]]:
    """The integer slices of degree lowest..d that are not identically zero,
    as (degree, slice) pairs in increasing degree.

    With the default lowest = 2 these are the line conditions: a point x of
    the slicing lattice spans a line with y exactly when all of them vanish
    at x (degree 1 is lattice membership and degree 0 is F(y) = 0).
    """
    out = []
    for j in range(lowest, form.degree + 1):
        sliced = integer_slice_form(form, y, j)
        if not sliced.is_zero:
            out.append((j, sliced))
    return out


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------

def gradient(form: HomogeneousForm, point: IntVector) -> Tuple[int, ...]:
    """Exact gradient vector (dF/dx_1, ..., dF/dx_n) at an integer point."""
    _check_point(form, point)
    return tuple(evaluate_form(partial, point) for partial in form.partials)


def hessian(form: HomogeneousForm, point: IntVector,
            ) -> Tuple[Tuple[int, ...], ...]:
    """Exact symmetric Hessian matrix of F at an integer point."""
    _check_point(form, point)
    n = form.nvars
    rows = [[0] * n for _ in range(n)]
    for i, partial in enumerate(form.partials):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = evaluate_form(partial.partials[j], point)
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# Differencing and polarisation
# ---------------------------------------------------------------------------

def discrete_difference(p, h: IntVector) -> Polynomial:
    """Forward difference p(x + h) - p(x), exact.

    Accepts a HomogeneousForm or Polynomial; iterating the operator with
    shifts h_1, ..., h_k yields the k-fold difference, whose degree drops
    by one per nonzero shift.
    """
    if len(h) != p.nvars:
        raise DimensionMismatch(
            f"shift has length {len(h)}, polynomial has {p.nvars} variables")
    out: Dict[Exponent, object] = {}
    for exponents, coefficient in p.coeffs.items():
        # expand prod_i (x_i + h_i)^{e_i} and subtract the original term
        for k, rest, weight in _expanded_terms(coefficient, exponents):
            weight = _term_value(weight, h, rest)
            _add_term(out, k, weight - coefficient if k == exponents
                      else weight)
    return Polynomial(nvars=p.nvars, coeffs=out)


def iterated_difference(p, shifts: Sequence[IntVector]):
    """Apply :func:`discrete_difference` once per shift, left to right
    (``p`` itself when there is none)."""
    for h in shifts:
        p = discrete_difference(p, h)
    return p


def multilinear_evaluate(form: HomogeneousForm,
                         vectors: Sequence[IntVector]) -> Fraction:
    """The symmetric d-linear form Phi at (v_1, ..., v_d), exact.

    Phi is recovered from F by finite-difference polarisation:

        Phi(v_1, .., v_d) = (1/d!) * sum_{S nonempty} (-1)^(d-|S|) F(sum_S v_i),

    so d! * Phi(v_1, ..., v_d) is always an integer, and Phi(x, ..., x) = F(x).
    """
    d = form.degree
    if len(vectors) != d:
        raise DimensionMismatch(
            f"need exactly {d} vectors, got {len(vectors)}")
    for v in vectors:
        _check_point(form, v)
    n = form.nvars
    total = 0
    for mask in range(1, 1 << d):
        point = [0] * n
        bits = 0
        m = mask
        index = 0
        while m:
            if m & 1:
                bits += 1
                vec = vectors[index]
                for i in range(n):
                    point[i] += vec[i]
            m >>= 1
            index += 1
        value = evaluate_form(form, point)
        total += value if (d - bits) % 2 == 0 else -value
    return Fraction(total, math.factorial(d))


def b_coefficient_vector(form: HomogeneousForm, y: IntVector,
                         basis: Sequence[IntVector], j: int,
                         shifts: Sequence[IntVector]) -> Tuple[Fraction, ...]:
    """Linear coefficients of the polarised degree-j slice in lattice coordinates.

    Writing Psi_j(xi) for the slice Phi(x, .., x, y, .., y) pulled back
    through x = sum_m xi_m b_m (b_m the basis rows), the polar form of Psi_j
    evaluated at (e_m, h_1, ..., h_{j-1}) is

        B_m(h_1, .., h_{j-1}) = Phi(b_m, B^T h_1, .., B^T h_{j-1}, y, .., y),

    and Psi_j's polarisation satisfies
    Psi_j(xi, h_1, .., h_{j-1}) = sum_m xi_m B_m(h_1, .., h_{j-1}).

    Args:
        form: the form F.
        y: base point (fills the last d - j slots).
        basis: s linearly independent integer vectors orthogonal to
            gradient(F, y), rows of the lattice basis.
        j: slice degree, 2 <= j <= d.
        shifts: j - 1 lattice-coordinate vectors of length s.

    Returns:
        Tuple of s exact rationals (B_1, ..., B_s).

    Raises:
        IndexOutOfRange: j outside 2..d.
        BasisNotSpanning: basis not of rank n - 1 or not orthogonal to the
            gradient at y.
        DimensionMismatch: wrong shift count or lengths.
    """
    _check_point(form, y)
    if not 2 <= j <= form.degree:
        raise IndexOutOfRange(f"slice degree {j} outside 2..{form.degree}")
    n = form.nvars
    s = n - 1
    if len(basis) != s or any(len(row) != n for row in basis):
        raise BasisNotSpanning(
            f"basis must consist of {s} vectors of length {n}")
    grad = gradient(form, y)
    for row in basis:
        if sum(g * b for g, b in zip(grad, row)) != 0:
            raise BasisNotSpanning(
                "basis vector not orthogonal to the gradient at y")
    if matrix_rank(basis) != s:
        raise BasisNotSpanning("basis rows are linearly dependent")
    if len(shifts) != j - 1:
        raise DimensionMismatch(
            f"need {j - 1} shift vectors, got {len(shifts)}")
    for h in shifts:
        if len(h) != s:
            raise DimensionMismatch(
                f"shift vectors live in {s} lattice coordinates")
    ambient_shifts = [
        [sum(h[m] * basis[m][i] for m in range(s)) for i in range(n)]
        for h in shifts
    ]
    out = []
    for m in range(s):
        slots = [list(basis[m])] + ambient_shifts + [list(y)] * (form.degree - j)
        out.append(multilinear_evaluate(form, slots))
    return tuple(out)


# ---------------------------------------------------------------------------
# Exact elimination
# ---------------------------------------------------------------------------

def hermite_normal_form(rows: Sequence[IntVector]) -> List[List[int]]:
    """Row-style Hermite normal form (pivots positive, entries above them
    reduced into [0, pivot)); zero rows are dropped.
    """
    matrix = [list(map(int, row)) for row in rows]
    if not matrix:
        return []
    ncols = len(matrix[0])
    pivot_row = 0
    for col in range(ncols):
        # find a row at or below pivot_row with nonzero entry in col, and
        # run a gcd sweep so only one survives
        while True:
            nonzero = [i for i in range(pivot_row, len(matrix))
                       if matrix[i][col] != 0]
            if len(nonzero) <= 1:
                break
            nonzero.sort(key=lambda i: abs(matrix[i][col]))
            small, other = nonzero[0], nonzero[1]
            factor = matrix[other][col] // matrix[small][col]
            matrix[other] = [a - factor * b
                             for a, b in zip(matrix[other], matrix[small])]
        survivors = [i for i in range(pivot_row, len(matrix))
                     if matrix[i][col] != 0]
        if not survivors:
            continue
        r = survivors[0]
        matrix[pivot_row], matrix[r] = matrix[r], matrix[pivot_row]
        if matrix[pivot_row][col] < 0:
            matrix[pivot_row] = [-v for v in matrix[pivot_row]]
        pivot = matrix[pivot_row][col]
        for i in range(pivot_row):
            factor = matrix[i][col] // pivot  # floor => remainder in [0, pivot)
            if factor:
                matrix[i] = [a - factor * b
                             for a, b in zip(matrix[i], matrix[pivot_row])]
        pivot_row += 1
    return [row for row in matrix[:pivot_row]]


def matrix_rank(rows: Sequence[IntVector],
                modulus: Optional[int] = None) -> int:
    """Rank of an integer matrix A over Q, or over F_p for a prime
    ``modulus`` p.

    Over Q it is the number of rows of the Hermite normal form.  Over F_p,
    the rows of [A mod p ; p I] span a lattice L with pZ^n inside it, of
    index p^(n - rank_p A); so every pivot of its Hermite normal form is 1
    or p, and the unit pivots number rank_p A.
    """
    if modulus is None or not rows:
        return len(hermite_normal_form(rows))
    n = len(rows[0])
    hnf = hermite_normal_form(
        [[v % modulus for v in row] for row in rows]
        + [[modulus if i == j else 0 for j in range(n)] for i in range(n)])
    return sum(1 for i, row in enumerate(hnf) if row[i] == 1)


def integer_kernel(rows: Sequence[IntVector]) -> List[List[int]]:
    """Saturated basis of {k in Z^n : A k = 0}, in Hermite normal form.

    The rows (column i of A | e_i) span {(A k, k) : k in Z^n}, so the rows
    of their Hermite normal form that vanish on the left are (0 | k) with
    A k = 0, and they span every such k (Cohen, *A Course in Computational
    Algebraic Number Theory*, Sec. 2.4).
    """
    m, n = len(rows), len(rows[0])
    hnf = hermite_normal_form(
        [[row[i] for row in rows] + [int(i == j) for j in range(n)]
         for i in range(n)])
    return [row[m:] for row in hnf if not any(row[:m])]
