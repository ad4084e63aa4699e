"""Tests for the exact exponent bookkeeping."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linecount.cli import _jsonable
from linecount.errors import DomainError, PsiOutOfRange
from linecount.exponents import (
    CONDITION_LABELS,
    aux_quantities,
    check_conditions,
    derive_profile,
    format_rational,
    identity_suite,
    parse_rational,
    preset_profile,
    theorem_thresholds,
    thresholds,
)

PSI_EXAMPLE = Fraction(1, 1250)


def _steady_profile(d=5, t=Fraction(1, 2), k=Fraction(40)):
    """Profile with constant step size k_j theta_j = t."""
    theta = {j: t / k for j in range(2, d + 1)}
    return derive_profile(
        d, theta, {j: k for j in range(2, d + 1)},
        psi=Fraction(1, 1250), varpi=Fraction(1, 700),
        delta={j: Fraction(1, 100) for j in range(2, d + 1)})


class TestDeriveProfile:
    def test_triangular_and_tail_numbers(self):
        prof = _steady_profile(d=5)
        assert prof.D(5) == 15
        assert prof.Delta(2) == 10
        # the defining sum over the triangular tail agrees with the closed
        # cubic form
        assert prof.Delta(2) == sum(prof.D(5 - i) for i in range(2, 6))
        assert prof.Delta(5) == 0

    def test_omega_tail_vanishes(self):
        prof = _steady_profile()
        assert prof.omega[6] == 0
        assert prof.Omega[6] == 0

    def test_proportional_identities(self):
        t = Fraction(1, 2)
        prof = _steady_profile(t=t)
        assert prof.proportional
        assert prof.omega[2] == prof.sigma[2] * t
        for j in range(2, 6):
            assert prof.Omega[j] == prof.Sigma[j] * t

    def test_derived_tables(self):
        prof = _steady_profile()
        for j in range(2, 6):
            assert prof.nu[j] == (j - 1) * prof.theta[j]
            assert prof.omega[j] == sum(prof.nu[i] for i in range(j, 6))
            assert prof.sigma[j] == sum(
                Fraction(i - 1) / prof.k[i] for i in range(j, 6))

    def test_sequence_input(self):
        prof = derive_profile(
            3, [Fraction(1, 4), Fraction(1, 8)], [4, 8],
            psi="1/100", varpi="1/50", delta=[0, 0])
        assert prof.theta == {2: Fraction(1, 4), 3: Fraction(1, 8)}
        assert prof.k == {3: Fraction(8), 2: Fraction(4)}

    def test_rejects_bad_parameters(self):
        good = dict(psi=Fraction(1, 100), varpi=Fraction(1, 50),
                    delta=[0, 0])
        with pytest.raises(DomainError):
            derive_profile(1, [], [], **good)
        with pytest.raises(DomainError):
            derive_profile(3, [Fraction(3, 2), Fraction(1, 2)], [1, 1],
                           **good)
        with pytest.raises(DomainError):
            derive_profile(3, [Fraction(1, 2), Fraction(1, 2)], [0, 1],
                           **good)
        with pytest.raises(DomainError):
            derive_profile(3, [Fraction(1, 2), Fraction(1, 2)], [1, 1],
                           psi=Fraction(1, 100), varpi=Fraction(1, 50),
                           delta=[-1, 0])
        with pytest.raises(DomainError):
            derive_profile(3, [Fraction(1, 2)], [1, 1], **good)

    def test_json_round_trip_strings(self):
        prof = _steady_profile()
        blob = _jsonable(prof)
        assert blob["psi"] == "1/1250"
        assert parse_rational(blob["theta"]["2"]) == prof.theta[2]


class TestRationalStrings:
    def test_parse_and_format(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational(" -7 ") == Fraction(-7)
        assert format_rational(Fraction(10, 4)) == "5/2"
        assert format_rational(Fraction(8, 2)) == "4"

    def test_no_decimal_guessing(self):
        with pytest.raises(ValueError):
            parse_rational("0.5")


class TestConditions:
    def test_report_is_total_and_ordered(self):
        prof = _steady_profile()
        report = check_conditions(prof, n=3410, rho=1)
        assert tuple(report.conditions) == CONDITION_LABELS

    def test_example_recipe_all_hold(self):
        prof = preset_profile("uniform-strict", 5, 3410, 1, PSI_EXAMPLE)
        report = check_conditions(prof, n=3410, rho=1)
        assert report.all_hold, report.failing()

    def test_psi_cap_boundary_fails_with_zero_slack(self):
        d = 5
        base = _steady_profile(d=d)
        prof = derive_profile(d, base.theta, base.k,
                              psi=Fraction(1, 2 * d * d),
                              varpi=base.varpi, delta=base.delta)
        report = check_conditions(prof, n=3410, rho=1)
        assert not report["psi-cap"].holds
        assert report["psi-cap"].slack == 0

    def test_anchor_boundary_fails_with_zero_slack(self):
        base = preset_profile("uniform-strict", 5, 3410, 1, PSI_EXAMPLE)
        k = dict(base.k)
        delta = dict(base.delta)
        k[5] = Fraction(15 - 1) + delta[5]
        prof = derive_profile(5, base.theta, k, base.psi, base.varpi, delta)
        report = check_conditions(prof, n=3410, rho=1)
        assert not report["top-degree-anchor"].holds
        assert report["top-degree-anchor"].slack == 0

    def test_slack_sign_agrees_with_outcome(self):
        prof = preset_profile("uniform-strict", 5, 3410, 1, PSI_EXAMPLE)
        for report in (check_conditions(prof, 3410, 1),
                       check_conditions(prof, 300, 1),
                       check_conditions(_steady_profile(), 3410, 1)):
            for label, chk in report.conditions.items():
                if chk.slack > 0:
                    assert chk.holds, label
                if chk.slack < 0:
                    assert not chk.holds, label

    def test_insufficient_rank_fails_doubling(self):
        prof = preset_profile("uniform-strict", 5, 3410, 1, PSI_EXAMPLE)
        report = check_conditions(prof, n=300, rho=1)
        assert not report["rank-vs-doubling"].holds

    def test_report_json(self):
        prof = _steady_profile()
        blob = _jsonable(check_conditions(prof, 3410, 1).conditions)
        assert set(blob) == set(CONDITION_LABELS)
        for entry in blob.values():
            assert isinstance(entry["holds"], bool)
            parse_rational(entry["slack"])


class TestIdentities:
    def test_small_values(self):
        report = identity_suite(3)
        assert report.all_hold
        assert sum(n * 2 ** n for n in range(1, 4)) == 34 == 2 ** 4 * 2 + 2
        assert sum(n * n * 2 ** n for n in range(1, 4)) == 90 \
            == 2 ** 4 * 6 - 6
        assert identity_suite(1).all_hold  # 2 = 2^2 * 0 + 2

    def test_long_run(self):
        report = identity_suite(60)
        assert report.checked == 60
        assert report.all_hold
        assert report.failures == ()

    def test_rejects_empty_range(self):
        with pytest.raises(DomainError):
            identity_suite(0)


def _displayed_first_threshold(d: int) -> Fraction:
    num = (24 * d ** 7 - 38 * d ** 6 + 39 * d ** 5 + 152 * d ** 4
           - 517 * d ** 3 + 732 * d * d - 8 * d - 240)
    den = 24 * d ** 4 - 36 * d ** 3 + 132 * d * d - 24 * d - 48
    return Fraction(2 ** d * num, den)


def _displayed_second_threshold(d: int) -> Fraction:
    num = (24 * d ** 7 - 38 * d ** 6 + 33 * d ** 5 + 155 * d ** 4
           - 481 * d ** 3 + 639 * d * d + 52 * d - 240)
    den = 24 * d ** 4 - 36 * d ** 3 + 120 * d * d - 12 * d - 48
    return Fraction(2 ** d * num, den)


class TestThresholds:
    def test_frozen_values_at_degree_five(self):
        out = thresholds(5, PSI_EXAMPLE)
        assert out["n1"] == Fraction(241920, 71)
        assert out["n2"] == Fraction(319360, 93)
        assert out["p6"] == 29040
        assert out["q6"] == 30240
        assert out["psi1"] == Fraction(1, 1250)

    def test_thresholds_beat_simple_rank_bound(self):
        for d in range(5, 13):
            psi1 = Fraction(1, 2 * d ** 4)
            out = thresholds(d, psi1)
            simple = 2 ** d * d * (d * d - 1)
            assert out["n1"] < simple
            assert out["n2"] <= simple - Fraction(d * (d + 1), 2) - 1

    def test_matches_displayed_closed_forms(self):
        for d in range(5, 13):
            out = thresholds(d, Fraction(1, 2 * d ** 4))
            assert out["n1"] == _displayed_first_threshold(d)
            assert out["n2"] == _displayed_second_threshold(d)

    def test_monotone_in_psi(self):
        for d in range(5, 13):
            cap = 1 / (Fraction(2 * d ** 4 + 3 * d ** 3 - 10 * d * d
                                + d + 4, 2))
            grid = [Fraction(i, 101) * cap for i in range(1, 101)]
            values = [thresholds(d, psi) for psi in grid]
            for lo, hi in zip(values, values[1:]):
                assert lo["n1"] < hi["n1"]
                assert lo["n2"] < hi["n2"]

    def test_rejects_psi_outside_caps(self):
        with pytest.raises(PsiOutOfRange):
            thresholds(5, Fraction(1, 600))
        # between the two caps: passes the first, trips the second
        assert Fraction(682) < Fraction(2, 1365) ** -1 < Fraction(692)
        with pytest.raises(PsiOutOfRange):
            thresholds(5, Fraction(2, 1365))
        with pytest.raises(PsiOutOfRange):
            thresholds(5, Fraction(-1, 1250))


class TestAuxQuantities:
    def test_crossing_point_identity(self):
        for d in range(5, 13):
            for i in (1, 3, 7):
                psi = Fraction(i, 8) * Fraction(1, 2 * d ** 4)
                varpi0 = aux_quantities(d, Fraction(1, 10 ** 6),
                                        psi)["varpi0"]
                at_crossing = aux_quantities(d, varpi0, psi)
                assert at_crossing["a1"] == at_crossing["b2"]

    def test_first_curve_dominates(self):
        for d in range(5, 13):
            volume = Fraction(d * (d - 1) ** 2 * (3 * d * d + d + 10), 12)
            psi = Fraction(1, 2 * d ** 4)
            for i in range(1, 20, 3):
                varpi = Fraction(i, 21) / volume
                out = aux_quantities(d, varpi, psi)
                assert out["a1"] >= out["a0"]
                assert out["a1"] >= out["b1"]
                assert out["b2"] >= out["a2"]

    def test_crossing_point_increasing_in_psi(self):
        for d in (5, 8, 12):
            cap = Fraction(2, 2 * d ** 4 + 3 * d ** 3 - 10 * d * d + d + 4)
            grid = [Fraction(i, 30) * cap for i in range(1, 30)]
            values = [aux_quantities(d, Fraction(1, 10 ** 6), psi)
                      for psi in grid]
            for lo, hi in zip(values, values[1:]):
                assert lo["varpi0"] < hi["varpi0"]
                assert lo["varpi1"] < hi["varpi1"]

    def test_crossing_point_inside_step_cap(self):
        for d in range(5, 13):
            volume = Fraction(d * (d - 1) ** 2 * (3 * d * d + d + 10), 12)
            cap = Fraction(2, 2 * d ** 4 + 3 * d ** 3 - 11 * d * d
                           + 2 * d + 4)
            for i in (1, 15, 29):
                psi = Fraction(i, 30) * cap
                varpi0 = aux_quantities(d, Fraction(1, 10 ** 6),
                                        psi)["varpi0"]
                assert 1 / varpi0 > volume

    def test_rejects_degenerate_denominator(self):
        with pytest.raises(DomainError):
            aux_quantities(5, Fraction(1, 600), Fraction(1, 1250))
        with pytest.raises(DomainError):
            aux_quantities(5, Fraction(0), Fraction(1, 1250))


class TestTheoremThresholds:
    def test_degree_five_values(self):
        out = theorem_thresholds(5)
        assert out["full_rank_threshold"] == 420000
        assert out["stratified_rank_base"] == 3840
        assert out["closing_lhs"] == 390016
        assert out["closing_holds"]

    def test_closing_inequality_through_degree_twenty(self):
        for d in range(5, 21):
            out = theorem_thresholds(d)
            assert out["closing_holds"], d
            assert out["closing_lhs"] <= out["closing_rhs"]

    def test_rejects_small_degree(self):
        with pytest.raises(DomainError):
            theorem_thresholds(4)


class TestPresets:
    def test_strict_recipe_holds_everywhere(self):
        prof = preset_profile("uniform-strict", 5, 3410, 1, PSI_EXAMPLE)
        assert check_conditions(prof, 3410, 1).all_hold
        assert all(0 < prof.theta[j] <= 1 for j in prof.theta)
        assert not prof.proportional

    def test_relaxed_recipe_holds_everywhere(self):
        prof = preset_profile("uniform-relaxed", 5, 3460, 17, PSI_EXAMPLE)
        assert check_conditions(prof, 3460, 17).all_hold

    def test_strict_recipe_other_degree(self):
        d, rho = 6, 1
        psi = Fraction(1, 2 * d ** 4)
        need = thresholds(d, psi)["n1"]
        n = int(need) + rho + 3
        prof = preset_profile("uniform-strict", d, n, rho, psi)
        assert check_conditions(prof, n, rho).all_hold

    def test_insufficient_rank_margin(self):
        with pytest.raises(DomainError):
            preset_profile("uniform-strict", 5, 3408, 1, PSI_EXAMPLE)

    def test_psi_cap_enforced(self):
        with pytest.raises(PsiOutOfRange):
            preset_profile("uniform-strict", 5, 3410, 1, Fraction(1, 682))

    def test_relaxed_rho_range(self):
        with pytest.raises(DomainError):
            preset_profile("uniform-relaxed", 5, 3460, 16, PSI_EXAMPLE)
        with pytest.raises(DomainError):
            preset_profile("uniform-relaxed", 5, 3460, 1, PSI_EXAMPLE)

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            preset_profile("bespoke", 5, 3410, 1, PSI_EXAMPLE)


@settings(max_examples=60, deadline=None)
@given(
    t_num=st.integers(min_value=1, max_value=8),
    k_scale=st.integers(min_value=1, max_value=50),
    d=st.integers(min_value=2, max_value=7),
)
def test_proportional_identities_always_hold(t_num, k_scale, d):
    t = Fraction(t_num, 9)
    k = {j: Fraction(k_scale + j) for j in range(2, d + 1)}
    theta = {j: t / k[j] for j in range(2, d + 1)}
    if any(v > 1 for v in theta.values()):
        theta = {j: v / (2 * max(theta.values())) for j, v in theta.items()}
        t = None
    prof = derive_profile(d, theta, k, Fraction(1, 1000), Fraction(1, 500),
                          {j: 0 for j in range(2, d + 1)})
    if t is not None:
        assert prof.proportional
        assert prof.omega[2] == prof.sigma[2] * t


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=5000),
    rho=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)
def test_slack_signs_property(n, rho, seed):
    import random

    rng = random.Random(seed)
    d = rng.choice([3, 4, 5, 6])
    theta = {j: Fraction(rng.randint(1, 99), 100) for j in range(2, d + 1)}
    k = {j: Fraction(rng.randint(1, 400), rng.randint(1, 4))
         for j in range(2, d + 1)}
    prof = derive_profile(
        d, theta, k, Fraction(1, rng.randint(100, 10 ** 4)),
        Fraction(1, rng.randint(500, 10 ** 4)),
        {j: Fraction(rng.randint(0, 50), 1000) for j in range(2, d + 1)})
    report = check_conditions(prof, n, rho)
    assert tuple(report.conditions) == CONDITION_LABELS
    for label, chk in report.conditions.items():
        if chk.slack > 0:
            assert chk.holds, label
        if chk.slack < 0:
            assert not chk.holds, label
