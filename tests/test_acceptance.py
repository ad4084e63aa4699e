"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the checklist; each
test prints ``criterion N: PASS/FAIL — detail`` before asserting.  Tolerances
are pinned in the asserts; nothing here adapts to the measured values.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

from linecount.counting import (
    count_fixed_y,
    count_pairs,
    hessian_corank,
    m2_dimension,
    stratum_count,
)
from linecount.density import (
    chi_p_fixed_y,
    lattice_congruence_count,
    oscillatory_v,
    predict_fixed_y,
    real_density_window,
    singular_integral_truncated,
)
from linecount.exponents import (
    aux_quantities,
    identity_suite,
    theorem_thresholds,
    thresholds,
)
from linecount.expsums import FrequencyPoint, exponential_sum_T
from linecount.fixtures import (
    QUINTIC_BASE_POINT,
    diagonal_quadric,
    fermat_form,
    fermat_quintic,
    random_dense_form,
)
from linecount.forms import (
    HomogeneousForm,
    evaluate_form,
    gradient,
    integer_slice_form,
)
from linecount.lattice import enumerate_points, slicing_lattice
from point_blocks import point_tuples

QUINTIC = fermat_quintic()
YQ = QUINTIC_BASE_POINT

HYPERBOLIC_QUADRIC = HomogeneousForm(
    nvars=4, degree=2, coeffs={(1, 1, 0, 0): 1, (0, 0, 1, 1): 1})


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Oracle helpers (independent of the package's counting/density internals)
# ---------------------------------------------------------------------------

def oracle_eval(form, points):
    """Evaluate a form on int64 rows by plain per-monomial accumulation."""
    values = np.zeros(points.shape[0], dtype=np.int64)
    for exponents, coeff in form.coeffs.items():
        term = np.full(points.shape[0], int(coeff), dtype=np.int64)
        for i, e in enumerate(exponents):
            if e:
                term = term * points[:, i] ** e
        values = values + term
    return values


def double_loop_pairs(form, x_bound, y_bound):
    """Independent pair count: F(x + u*y) = 0 at u = 0..d kills the pencil."""
    n, d = form.nvars, form.degree
    grid = np.array(list(itertools.product(range(-x_bound, x_bound + 1),
                                           repeat=n)), dtype=np.int64)
    grid = grid[np.any(grid != 0, axis=1)]
    on_surface = grid[oracle_eval(form, grid) == 0]
    total = 0
    for y in itertools.product(range(-y_bound, y_bound + 1), repeat=n):
        if not any(y):
            continue
        ys = np.array(y, dtype=np.int64)
        alive = on_surface
        for u in range(1, d + 1):
            if alive.shape[0] == 0:
                break
            alive = alive[oracle_eval(form, alive + u * ys) == 0]
        total += alive.shape[0]
    return total


def pair_fixtures():
    forms = [fermat_form(n, d) for d in (2, 3, 5) for n in (3, 4)]
    forms += [random_dense_form(4, 3, seed) for seed in (11, 12, 13)]
    return forms


def joint_slice_histogram(form, y, q, block_rows=1 << 19):
    """Histogram of slice-value tuples mod q over the slicing lattice.

    Every residue of the lattice mod q is visited once.  The ambient
    residues of the trailing lattice coordinates are tabulated once (at
    most ``block_rows`` rows); each combination of the leading coordinates
    then adds its shift mod q to the whole table.  Each point is scored by
    the tuple of integer slice values (degrees 2..d) reduced mod q.  The
    returned array is indexed by the base-q encoding of that tuple, most
    significant digit first.
    """
    lattice = slicing_lattice(form, y)
    basis = np.array(lattice.basis, dtype=np.int64)
    rank = basis.shape[0]
    tables = []
    for j in range(2, form.degree + 1):
        sliced = integer_slice_form(form, y, j)
        table = {}
        for exponents, coeff in sliced.coeffs.items():
            assert coeff == int(coeff)
            table[tuple(int(e) for e in exponents)] = int(coeff)
        tables.append(table)
    trailing = rank
    while trailing and q ** trailing > block_rows:
        trailing -= 1
    lead = rank - trailing
    codes = np.arange(q ** trailing, dtype=np.int64)
    radix = q ** np.arange(trailing - 1, -1, -1, dtype=np.int64)
    coords = (codes[:, None] // radix[None, :]) % q
    residues = (coords @ basis[lead:]) % q
    histogram = np.zeros(q ** len(tables), dtype=np.int64)
    for head in itertools.product(range(q), repeat=lead):
        shift = [sum(h * int(row[i]) for h, row in zip(head, basis)) % q
                 for i in range(basis.shape[1])]
        ambient = residues + np.array(shift, dtype=np.int64)
        ambient[ambient >= q] -= q
        key = np.zeros(ambient.shape[0], dtype=np.int64)
        for table in tables:
            value = np.zeros(ambient.shape[0], dtype=np.int64)
            for exponents, coeff in table.items():
                term = coeff
                for i, e in enumerate(exponents):
                    if e:
                        term = term * ambient[:, i] ** e
                value += term
            key = key * q + (value % q)
        histogram += np.bincount(key, minlength=q ** len(tables))
    return histogram


def coprime_phase_sum(form, y, p, h):
    """Sum of the complete sums S_y(p^h, a) over frequencies a coprime to p.

    Character orthogonality collapses the sum over a into exact histogram
    masses: q^(d-1) on slice tuples vanishing mod q, minus (q/p)^(d-1) on
    tuples vanishing mod q/p.
    """
    d = form.degree
    q = p ** h
    histogram = joint_slice_histogram(form, y, q)
    size = d - 1
    codes = np.arange(histogram.shape[0])
    digits = np.stack([(codes // q ** (size - 1 - i)) % q
                       for i in range(size)], axis=1)
    full = int(histogram[np.all(digits == 0, axis=1)].sum())
    partial = int(histogram[np.all(digits % (q // p) == 0, axis=1)].sum())
    return Fraction(q ** (d - 1) * full - (q // p) ** (d - 1) * partial)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_pencil_oracle_equivalence():
    started = time.monotonic()
    runs = 0
    for form in pair_fixtures():
        for x_bound, y_bound in itertools.product((1, 2, 3), repeat=2):
            expected = double_loop_pairs(form, x_bound, y_bound)
            got = count_pairs(form, x_bound, y_bound).total
            assert got == expected, (form.degree, form.nvars, x_bound,
                                     y_bound, got, expected)
            runs += 1
    elapsed = time.monotonic() - started
    verdict(1, elapsed < 60,
            f"count_pairs == double-loop oracle on {runs} runs "
            f"({elapsed:.1f}s < 60s)")


def test_criterion_02_decomposition_identity():
    checked = 0
    for form in pair_fixtures():
        report = count_pairs(form, 2, 2, breakdown=True)
        assert report.total == sum(report.per_y_breakdown.values())
        checked += 1
    report = count_pairs(QUINTIC, 2, 2, breakdown=True)
    for y, count in report.per_y_breakdown.items():
        # the slice-system fiber always contains x = 0; pairs exclude it
        assert count == count_fixed_y(QUINTIC, y, 2) - 1, y
    verdict(2, True,
            f"total == sum of per-y breakdown on {checked} fixtures; "
            f"quintic breakdown matches per-point recounts exactly")


def test_criterion_03_fixed_y_closed_forms():
    for x_bound in range(1, 11):
        assert count_fixed_y(QUINTIC, YQ, x_bound) \
            == (2 * x_bound + 1) ** 2
        assert count_fixed_y(HYPERBOLIC_QUADRIC, (1, 0, 0, 0), x_bound) \
            == (2 * x_bound + 1) * (4 * x_bound + 1)
    verdict(3, True, "(2X+1)^2 and (2X+1)(4X+1) reproduced for X <= 10")


def test_criterion_04_exponential_sum_ground_truth():
    cases = []
    for form, y in [(QUINTIC, YQ), (QUINTIC, (1, -1, 0, 0)),
                    (fermat_form(4, 3), (1, -1, 0, 0)),
                    (fermat_form(4, 3), (0, 1, 0, -1)),
                    (fermat_form(3, 3), (1, -1, 0)),
                    (diagonal_quadric(4), (1, 0, 0, 0)),
                    (diagonal_quadric(5), (1, 0, 0, 0, 0))]:
        for box in (1, 2, 3):
            cases.append((form, y, box))
    assert len(cases) >= 20
    for form, y, box in cases:
        points = len(point_tuples(
            enumerate_points(slicing_lattice(form, y), box)))
        value = exponential_sum_T(form, y, FrequencyPoint.zero(form.degree),
                                  box)
        assert abs(complex(value) - points) <= 1e-9 * points, (y, box)
    top = abs(exponential_sum_T(QUINTIC, YQ, FrequencyPoint.zero(5), 1))
    rng = np.random.default_rng(17)
    for _ in range(1000):
        alpha = FrequencyPoint.from_values(
            [Fraction(v).limit_denominator(10 ** 6)
             for v in rng.uniform(0, 1, 4)])
        assert abs(exponential_sum_T(QUINTIC, YQ, alpha, 1)) \
            <= top + Fraction(1, 10 ** 9)
    verdict(4, True,
            f"T(0;P) equals the box point count on {len(cases)} fixtures; "
            f"|T(alpha)| <= T(0) held on 1000 random frequencies")


def test_criterion_05_euler_factor_orthogonality():
    cubic = fermat_form(7, 3)
    y = (1, -1, 0, 0, 0, 0, 0)
    s = slicing_lattice(cubic, y).rank
    d = cubic.degree
    D = d * (d + 1) // 2
    checked = []
    for p in (2, 3, 5):
        for H in (1, 2):
            partial = Fraction(1)
            for h in range(1, H + 1):
                partial += coprime_phase_sum(cubic, y, p, h) \
                    / Fraction(p) ** (h * s)
            count = lattice_congruence_count(cubic, y, p ** H,
                                             budget=10 ** 8)
            rhs = Fraction(p) ** (H * (d - 1 - s)) * count
            assert partial == rhs, (p, H, partial, rhs)
            display = Fraction(p) ** (H * (D - 1 - s)) * count
            assert display != partial, (p, H)
            working, _ = chi_p_fixed_y(cubic, y, p, H, budget=10 ** 8)
            assert working == rhs, (p, H)
            shown, _ = chi_p_fixed_y(cubic, y, p, H,
                                     display_convention=True,
                                     budget=10 ** 8)
            assert shown == display, (p, H)
            checked.append((p, H))
    verdict(5, True,
            f"orthogonality exact at (p, H) in {checked}; the display "
            f"normalisation violates it on every one of them")


def test_criterion_06_v_scaling():
    x_bound = 2
    s = slicing_lattice(QUINTIC, YQ).rank
    rng = np.random.default_rng(23)
    for trial in range(20):
        beta = [float(v) for v in rng.uniform(-0.25, 0.25, 4)]
        gamma = [x_bound ** j * b for j, b in enumerate(beta, start=2)]
        lhs = oscillatory_v(QUINTIC, YQ, beta, x_bound, 10 ** 5, seed=trial)
        rhs = oscillatory_v(QUINTIC, YQ, gamma, 1, 10 ** 5, seed=trial)
        combined = 3 * (lhs.stderr + x_bound ** s * rhs.stderr)
        assert abs(lhs.mean - x_bound ** s * rhs.mean) <= combined, trial
    slab = oscillatory_v(QUINTIC, YQ, [0.0] * 4, 1, 10 ** 5, seed=5)
    value = slab.mean.real if isinstance(slab.mean, complex) else slab.mean
    covolume = math.sqrt(2)
    assert abs(value / covolume - 8) \
        <= 3 * slab.stderr / covolume + 1e-12
    verdict(6, True,
            "X^s scaling held within 3 combined stderr on 20 trials; "
            "v(0,1)/sqrt(covolume_sq) == 8 within 3 stderr")


def test_criterion_07_density_cross_validation():
    window = real_density_window(QUINTIC, YQ, [0.05] * 5, 1 << 24, seed=1)
    integral = singular_integral_truncated(QUINTIC, YQ, 8, 1 << 20, seed=1)
    rel_window = window.stderr / abs(window.mean)
    rel_integral = integral.stderr / abs(integral.mean)
    assert rel_window < 0.01, f"window stderr {rel_window:.2%}"
    assert rel_integral < 0.01, f"integral stderr {rel_integral:.2%}"
    gap = abs(window.mean - integral.mean) / abs(integral.mean)
    verdict(7, gap <= 0.05,
            f"window density {window.mean:.5g} vs truncated integral "
            f"{integral.mean:.5g}: gap {gap:.1%} (tolerance 5%, both "
            f"stderr < 1%)")


def test_criterion_08_second_order_two_path_agreement():
    box = [y for y in itertools.product(range(-2, 3), repeat=4) if any(y)]
    instances = 0
    seed = 0
    while instances < 100 and seed < 200:
        seed += 1
        form = random_dense_form(4, 3, seed)
        candidates = [y for y in box
                      if evaluate_form(form, y) == 0
                      and any(gradient(form, y))]
        for y in candidates[:4]:
            report = m2_dimension(form, y)
            assert report.span_dim == report.system_dim, (seed, y)
            assert report.span_dim <= hessian_corank(form, y) + 1, (seed, y)
            instances += 1
            if instances >= 100:
                break
    assert instances >= 100
    verdict(8, True,
            "span and linear-system dimensions agree on 100 instances; "
            "dim <= corank + 1 throughout")


def test_criterion_09_stratum_scaling():
    exact = stratum_count(QUINTIC, 1, 2)
    assert exact.count == 12
    fitted = {}
    for rho in (1, 2):
        report = stratum_count(QUINTIC, 32, rho)
        bound = QUINTIC.nvars - rho + 0.5
        assert report.fitted_exponent <= bound, (rho, report.fitted_exponent)
        fitted[rho] = report.fitted_exponent
    verdict(9, True,
            f"fitted exponents {fitted[1]:.2f}, {fitted[2]:.2f} within "
            f"n - rho + 0.5 up to Y = 32; exact count 12 at Y = 1, rho = 2")


def test_criterion_10_exponent_ledger():
    started = time.monotonic()
    assert identity_suite(30).all_hold
    for d in range(5, 13):
        psi1 = thresholds(d, Fraction(1, 2 * d ** 4))["psi1"]
        table = thresholds(d, psi1)
        volume = 2 ** d * d * (d * d - 1)
        assert table["n1"] < volume, d
        assert table["n2"] <= volume - d * (d + 1) // 2 - 1, d
    psi1 = thresholds(5, Fraction(1, 1250))["psi1"]
    for k in range(1, 21):
        psi = psi1 * Fraction(k, 21)
        varpi0 = aux_quantities(5, Fraction(1, 10 ** 6), psi)["varpi0"]
        crossing = aux_quantities(5, varpi0, psi)
        assert crossing["a1"] == crossing["b2"], k
    for d in range(5, 21):
        assert theorem_thresholds(d)["closing_holds"], d
    for d in (5, 8):
        top = thresholds(d, Fraction(1, 2 * d ** 4))["psi1"]
        grid = [thresholds(d, top * Fraction(k, 50)) for k in range(1, 40, 2)]
        assert all(a["n1"] < b["n1"] for a, b in zip(grid, grid[1:])), d
        assert all(a["n2"] < b["n2"] for a, b in zip(grid, grid[1:])), d
    elapsed = time.monotonic() - started
    verdict(10, elapsed < 5,
            f"identities to N=30, threshold bounds d=5..12, 20 crossing "
            f"fixed points, closing inequality d=5..20, monotone grids "
            f"({elapsed:.2f}s < 5s)")


def test_criterion_11_smoke_prediction():
    started = time.monotonic()
    quadric = diagonal_quadric(5)
    y = (1, 0, 0, 0, 0)
    brute = count_fixed_y(quadric, y, 20)
    prediction = predict_fixed_y(quadric, y, 20, 16, 1 << 18, seed=0)
    ratio = float(prediction.main_term) / brute
    elapsed = time.monotonic() - started
    ok = abs(ratio - 1) <= 0.30 and elapsed < 600
    verdict(11, ok,
            f"predicted/actual = {ratio:.3f} at X = 20, W = 16 "
            f"(tolerance 30%; {elapsed:.0f}s < 600s)")
