"""Exact rational bookkeeping for the exponent system of the arc method.

Everything in this module is a pure function over `fractions.Fraction`; no
floats appear anywhere.  The module owns four jobs: deriving the dependent
exponent tables from the free parameters (theta_j, k_j, psi, varpi,
delta_j), evaluating the full catalogue of admissibility inequalities with
exact slacks, computing the auxiliary threshold curves and their fixed
points, and verifying the final rank thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import DomainError, PsiOutOfRange
from .forms import format_rational, parse_rational

RationalLike = Union[int, str, Fraction]

#: Labels of every admissibility condition, in dependency order.  Each is a
#: descriptive name for one inequality of the parameter system; the same
#: strings key the :class:`ConditionReport` map and the CLI table.
CONDITION_LABELS: Tuple[str, ...] = (
    "psi-cap",              # psi below the global cap 1/(2 d^2)
    "minor-arc-room",       # room for the next minor-arc iteration
    "theta-window",         # theta_j inside its admissible interval
    "psi-vs-step",          # psi smaller than varpi * (step size)
    "rank-vs-doubling",     # rank margin beats the 2^(j-1) doubling cost
    "top-degree-anchor",    # k_d clears the dimension anchor
    "top-degree-saving",    # top-degree pruning saves enough
    "descent-saving",       # descent step saves enough at each lower degree
    "pruning-saving",       # pruning condition at every degree
    "arc-width-cap",        # arc widths stay below totality
    "arc-exponent-budget",  # combined exponent budget below one
    "arc-slope-cap",        # slope of the arc system below varpi/psi
    "quadratic-floor",      # floor for the quadratic step size
    "simplified-budget",    # uniform simplification of the exponent budget
    "step-cap",             # cap on 1/varpi by the degree polynomial
    "quadratic-window",     # two-sided window for the quadratic step
    "window-nonempty",      # the window above is nonempty
)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise DomainError("exponent parameters must be exact rationals")
    return Fraction(value)


def _family(values, d: int, name: str) -> Dict[int, Fraction]:
    """Coerce a sequence or {j: value} mapping into {2..d: Fraction}."""
    if isinstance(values, Mapping):
        table = {int(j): _as_fraction(v) for j, v in values.items()}
    else:
        seq = list(values)
        if len(seq) != d - 1:
            raise DomainError(
                f"{name} needs {d - 1} entries for degrees 2..{d}")
        table = {j: _as_fraction(v) for j, v in zip(range(2, d + 1), seq)}
    if sorted(table) != list(range(2, d + 1)):
        raise DomainError(f"{name} must cover degrees 2..{d} exactly")
    return table


# ---------------------------------------------------------------------------
# Profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentProfile:
    """Free exponent parameters plus every derived table, all exact.

    The tables are keyed by the degree index j = 2..d; ``omega`` carries the
    extra entry omega[d+1] = 0 used by the window conditions.
    """

    d: int
    theta: Dict[int, Fraction]
    k: Dict[int, Fraction]
    psi: Fraction
    varpi: Fraction
    delta: Dict[int, Fraction]
    nu: Dict[int, Fraction]
    omega: Dict[int, Fraction]
    Omega: Dict[int, Fraction]
    sigma: Dict[int, Fraction]
    Sigma: Dict[int, Fraction]

    def D(self, j: int) -> int:
        """Triangular number j(j+1)/2 (the count of degrees of freedom of a
        symmetric j-tensor slot)."""
        if j < 0:
            raise DomainError("triangular index must be nonnegative")
        return j * (j + 1) // 2

    def Delta(self, j: int) -> int:
        """Tetrahedral tail (d-j)(d-j+1)(d-j+2)/6; zero at j = d."""
        m = self.d - j
        return m * (m + 1) * (m + 2) // 6

    def step(self, j: int) -> Fraction:
        """The product k_j * theta_j (the saving exponent at degree j)."""
        return self.k[j] * self.theta[j]

    @property
    def proportional(self) -> bool:
        """Whether all step sizes k_j * theta_j agree."""
        steps = {self.step(j) for j in range(2, self.d + 1)}
        return len(steps) == 1


def derive_profile(d: int, theta, k, psi: RationalLike,
                   varpi: RationalLike, delta) -> ExponentProfile:
    """Build the full exponent profile from the free parameters.

    Derives nu_j = (j-1) theta_j, the tail sums omega_j and Omega_j, and the
    reciprocal-step sums sigma_j and Sigma_j, then self-checks the two exact
    identities omega_j = sigma_j * (k_j theta_j) and
    Omega_j = Sigma_j * (k_j theta_j) whenever the step sizes k_j theta_j
    are all equal.

    Raises:
        DomainError: d < 2, theta outside (0, 1], k not positive, or a
            negative delta.
    """
    if d < 2:
        raise DomainError("degree must be at least 2")
    theta = _family(theta, d, "theta")
    k = _family(k, d, "k")
    delta = _family(delta, d, "delta")
    psi = _as_fraction(psi)
    varpi = _as_fraction(varpi)
    for j, value in theta.items():
        if not 0 < value <= 1:
            raise DomainError(f"theta[{j}] = {value} outside (0, 1]")
    for j, value in k.items():
        if value <= 0:
            raise DomainError(f"k[{j}] must be positive")
    for j, value in delta.items():
        if value < 0:
            raise DomainError(f"delta[{j}] must be nonnegative")

    nu = {j: (j - 1) * theta[j] for j in range(2, d + 1)}
    omega = {d + 1: Fraction(0)}
    for j in range(d, 1, -1):
        omega[j] = omega[j + 1] + nu[j]
    Omega = {d + 1: Fraction(0)}
    for j in range(d, 1, -1):
        Omega[j] = Omega[j + 1] + omega[j]
    sigma = {d + 1: Fraction(0)}
    Sigma = {d + 1: Fraction(0)}
    for j in range(d, 1, -1):
        sigma[j] = sigma[j + 1] + Fraction(j - 1) / k[j]
        Sigma[j] = sum(((i - j + 1) * Fraction(i - 1) / k[i]
                        for i in range(j, d + 1)), Fraction(0))

    profile = ExponentProfile(d=d, theta=theta, k=k, psi=psi, varpi=varpi,
                              delta=delta, nu=nu, omega=omega, Omega=Omega,
                              sigma=sigma, Sigma=Sigma)
    if profile.proportional:
        t = profile.step(2)
        for j in range(2, d + 1):
            assert omega[j] == sigma[j] * t
            assert Omega[j] == Sigma[j] * t
    return profile


# ---------------------------------------------------------------------------
# Condition report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    """One admissibility inequality: outcome and its exact margin.

    ``slack`` is how far the inequality is from failing: positive margins
    always hold, negative ones always fail, and a zero margin holds exactly
    when the printed inequality is non-strict.
    """

    holds: bool
    slack: Fraction


@dataclass(frozen=True)
class ConditionReport:
    """Map from condition label to check; total over CONDITION_LABELS."""

    conditions: Dict[str, ConditionCheck]

    def __getitem__(self, label: str) -> ConditionCheck:
        return self.conditions[label]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.conditions.values())

    def failing(self) -> Tuple[str, ...]:
        return tuple(label for label, check in self.conditions.items()
                     if not check.holds)


def _strict(margin: Fraction) -> ConditionCheck:
    return ConditionCheck(holds=margin > 0, slack=Fraction(margin))


def _family_check(checks: Iterable[ConditionCheck]) -> ConditionCheck:
    """Conjunction over a degree family: all must hold; slack is the worst.

    An empty family (possible for small d) is vacuously true with unit
    slack.
    """
    checks = list(checks)
    if not checks:
        return ConditionCheck(holds=True, slack=Fraction(1))
    return ConditionCheck(holds=all(c.holds for c in checks),
                          slack=min(c.slack for c in checks))


def check_conditions(profile: ExponentProfile, n: int,
                     rho: int) -> ConditionReport:
    """Evaluate every admissibility inequality exactly.

    Families indexed by the degree j are aggregated: the condition holds
    when it holds for every applicable j, and the reported slack is the
    minimum over the family.  Strictness follows each inequality as stated:
    boundary cases of strict inequalities report slack 0 and holds False.
    """
    p = profile
    d = p.d
    s = n - 1
    psi, varpi = p.psi, p.varpi
    out: Dict[str, ConditionCheck] = {}

    out["psi-cap"] = _strict(Fraction(1, 2 * d * d) - psi)

    def room(j: int) -> Fraction:
        return psi * (p.D(d - j) + (d - 1) * (d - j))

    out["minor-arc-room"] = _family_check(
        _strict(1 - p.omega[j + 1] - room(j)) for j in range(2, d))

    out["theta-window"] = _family_check(
        ConditionCheck(
            holds=(p.theta[j] > 0
                   and p.theta[j] <= 1 - p.omega[j + 1] - room(j)),
            slack=min(p.theta[j], 1 - p.omega[j + 1] - room(j) - p.theta[j]))
        for j in range(2, d + 1))

    out["psi-vs-step"] = _family_check(
        _strict(varpi * p.step(j) - psi) for j in range(2, d + 1))

    def doubling(j: int) -> ConditionCheck:
        denom = 1 - (d - 1) * varpi * p.k[j]
        if denom <= 0:
            return ConditionCheck(holds=False, slack=Fraction(denom))
        return _strict((s - rho) - 2 ** (j - 1) * p.k[j] / denom)

    out["rank-vs-doubling"] = _family_check(
        doubling(j) for j in range(2, d + 1))

    out["top-degree-anchor"] = _strict(
        p.k[d] - (p.D(d) - 1 + p.delta[d]))

    def saving(j: int) -> ConditionCheck:
        lhs = (1 - (p.Sigma[j] + p.sigma[j])) * p.step(j)
        return _strict(lhs - (p.D(j - 1) - 1 + p.delta[j]))

    out["top-degree-saving"] = saving(d)
    out["descent-saving"] = _family_check(
        saving(i) for i in range(3, d + 1))
    out["pruning-saving"] = _family_check(
        saving(j) for j in range(2, d + 1))

    def width_budget(j: int) -> Fraction:
        return 1 - (p.D(d - j + 1) + (d - 1) * (d - j + 1)) * psi

    out["arc-width-cap"] = _family_check(
        _strict(width_budget(j) - (p.sigma[j] + 1 / p.k[j - 1]) * p.step(j))
        for j in range(3, d + 1))

    def exponent_budget(j: int) -> ConditionCheck:
        budget = width_budget(j)
        if budget <= 0:
            return ConditionCheck(holds=False, slack=Fraction(budget))
        lhs = ((p.sigma[j] + 1 / p.k[j - 1])
               * (p.D(j - 1) - 1 + p.delta[j]) / budget
               + p.Sigma[j] + p.sigma[j])
        return _strict(1 - lhs)

    out["arc-exponent-budget"] = _family_check(
        exponent_budget(j) for j in range(3, d + 1))

    out["arc-slope-cap"] = _family_check(
        _strict(width_budget(j) * varpi / psi
                - (p.sigma[j] + 1 / p.k[j - 1]))
        for j in range(3, d + 1))

    quad_base = 1 - (p.Sigma[2] + p.sigma[2])
    if quad_base <= 0:
        out["quadratic-floor"] = ConditionCheck(holds=False,
                                                slack=Fraction(quad_base))
    else:
        floor = max(p.delta[2] / quad_base, psi / varpi)
        out["quadratic-floor"] = _strict(p.step(2) - floor)

    out["simplified-budget"] = _family_check(
        _strict(1 - (Fraction(d * (d - 1), 2)
                     * (p.sigma[j] + 1 / p.k[j - 1])
                     + p.Sigma[j] + p.sigma[j]))
        for j in range(3, d + 1))

    out["step-cap"] = _strict(
        1 / varpi - Fraction((d - 1) ** 2 * d * (3 * d * d + d + 10), 12))

    window = _quadratic_window(d, psi, p.sigma[2], p.Sigma[2])
    if window is None:
        out["quadratic-window"] = ConditionCheck(holds=False,
                                                 slack=Fraction(-1))
    else:
        low, high = window
        out["quadratic-window"] = _family_check(
            [_strict(p.step(2) - low), _strict(high - p.step(2))])

    out["window-nonempty"] = _window_nonempty(d, psi, p.sigma[2], p.Sigma[2])

    ordered = {label: out[label] for label in CONDITION_LABELS}
    return ConditionReport(conditions=ordered)


def _quadratic_window(d: int, psi: Fraction, sigma2: Fraction,
                      Sigma2: Fraction
                      ) -> Optional[Tuple[Fraction, Fraction]]:
    """Two-sided admissible window for the quadratic step size k_2 theta_2.

    Returns None when a denominator degenerates (the window is then
    meaningless and the condition is reported as failing).
    """
    head = 1 - Sigma2 - sigma2
    if head <= 0 or sigma2 <= 0:
        return None
    low = (Fraction(4 * d ** 3 - 19 * d + 15, 3) * psi / head
           + Fraction(3 * d * d - 7 * d + 4, 2) * psi / sigma2)
    high = ((1 - Fraction(6 * d ** 3 - 11 * d * d + d + 4, 2) * psi)
            / ((2 * d + 1) * sigma2))
    return low, high


def _window_nonempty(d: int, psi: Fraction, sigma2: Fraction,
                     Sigma2: Fraction) -> ConditionCheck:
    denom = 1 - (6 * d ** 3 - 11 * d * d + d + 4) * psi
    if denom <= 0:
        return ConditionCheck(holds=False, slack=Fraction(denom))
    factor = 1 + (Fraction(8 * d ** 4 + 4 * d ** 3 - 38 * d * d
                           + 11 * d + 15, 3) * psi) / denom
    return _strict(1 - (factor * sigma2 + Sigma2))


# ---------------------------------------------------------------------------
# Power-sum identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityReport:
    n_max: int
    checked: int
    all_hold: bool
    failures: Tuple[int, ...] = ()


def identity_suite(n_max: int) -> IdentityReport:
    """Verify the two closed forms for the weighted power sums
    sum n 2^n = 2^(N+1)(N-1) + 2 and sum n^2 2^n = 2^(N+1)(N^2-2N+3) - 6
    for every N up to n_max, exactly.
    """
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    failures = []
    linear = 0
    square = 0
    for n in range(1, n_max + 1):
        linear += n * 2 ** n
        square += n * n * 2 ** n
        ok = (linear == 2 ** (n + 1) * (n - 1) + 2
              and square == 2 ** (n + 1) * (n * n - 2 * n + 3) - 6)
        if not ok:
            failures.append(n)
    return IdentityReport(n_max=n_max, checked=n_max,
                          all_hold=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Threshold polynomials and auxiliary curves
# ---------------------------------------------------------------------------

def _poly_head(d: int) -> Fraction:
    """d^3 + d^2/2 - 11 d/2 + 10 (shared numerator head of the curves)."""
    return Fraction(2 * d ** 3 + d * d - 11 * d + 20, 2)


def _weight(d: int) -> int:
    """(d - 1)(2 d + 1)."""
    return (d - 1) * (2 * d + 1)


def _volume(d: int) -> Fraction:
    """d (d-1)^2 (3 d^2 + d + 10) / 12."""
    return Fraction(d * (d - 1) ** 2 * (3 * d * d + d + 10), 12)


def _rate_strict(d: int) -> Fraction:
    """d^4 + 3 d^3/2 - 11 d^2/2 + d + 2 (cap polynomial, first variant)."""
    return Fraction(2 * d ** 4 + 3 * d ** 3 - 11 * d * d + 2 * d + 4, 2)


def _rate_relaxed(d: int) -> Fraction:
    """d^4 + 3 d^3/2 - 5 d^2 + d/2 + 2 (cap polynomial, second variant)."""
    return Fraction(2 * d ** 4 + 3 * d ** 3 - 10 * d * d + d + 4, 2)


def _sextic_first(d: int) -> Fraction:
    """(50 d^6 - 171 d^5 + 88 d^4 + 517 d^3 - 732 d^2 + 8 d + 240) / 12."""
    return Fraction(50 * d ** 6 - 171 * d ** 5 + 88 * d ** 4
                    + 517 * d ** 3 - 732 * d * d + 8 * d + 240, 12)


def _sextic_second(d: int) -> Fraction:
    """(50 d^6 - 165 d^5 + 85 d^4 + 481 d^3 - 639 d^2 - 52 d + 240) / 12."""
    return Fraction(50 * d ** 6 - 165 * d ** 5 + 85 * d ** 4
                    + 481 * d ** 3 - 639 * d * d - 52 * d + 240, 12)


def _crossing_first(d: int, psi: Fraction) -> Fraction:
    """varpi at which the a1 and b2 curves meet: 2 w psi / (A - p psi)."""
    den = _poly_head(d) - _sextic_first(d) * psi
    if den <= 0:
        raise DomainError("denominator of varpi0 is not positive")
    return 2 * _weight(d) * psi / den


def _crossing_second(d: int, psi: Fraction) -> Fraction:
    """varpi at which the a1 and beta2 curves meet: 2 w psi / (A - q psi)."""
    den = _poly_head(d) - _sextic_second(d) * psi
    if den <= 0:
        raise DomainError("denominator of varpi1 is not positive")
    return 2 * _weight(d) * psi / den


def aux_quantities(d: int, varpi: RationalLike,
                   psi: RationalLike) -> Dict[str, Fraction]:
    """The nine auxiliary threshold curves at one parameter point.

    a0, a1, b1, beta1 depend on varpi alone; a2, b2, beta2 combine varpi and
    psi; varpi0 and varpi1 are the crossing points where a1 meets b2 and
    beta2 respectively (a1(varpi0) = b2(varpi0, psi) exactly).

    Raises:
        DomainError: a denominator is not positive (outside admissibility).
    """
    varpi = _as_fraction(varpi)
    psi = _as_fraction(psi)
    if varpi <= 0 or psi <= 0:
        raise DomainError("varpi and psi must be positive")
    head = _poly_head(d)
    weight = _weight(d)

    def guarded(num: Fraction, den: Fraction, name: str) -> Fraction:
        if den <= 0:
            raise DomainError(f"denominator of {name} is not positive")
        return num / den

    out: Dict[str, Fraction] = {}
    out["a0"] = guarded(
        Fraction(2 ** (d - 2) * d * (d + 1)),
        1 - Fraction(d * (d * d - 1), 2) * varpi, "a0")
    out["a1"] = guarded(
        Fraction(2 ** (d - 1)) * head, 1 - _volume(d) * varpi, "a1")
    out["a2"] = guarded(
        Fraction(2 ** (d - 1) * (2 * d - 1)) * psi,
        varpi * (1 - Fraction(d * (d * d + d - 2), 2) * psi), "a2")
    out["b1"] = guarded(
        Fraction(2 ** d * (d * d + 5 * d - 3)),
        1 - Fraction(d * (d - 1) ** 2 * (d + 13), 3) * varpi, "b1")
    out["b2"] = guarded(
        Fraction(2 ** d * weight) * psi,
        varpi * (1 - _rate_strict(d) * psi), "b2")
    out["beta1"] = guarded(
        Fraction(2 ** d) * Fraction(3 * d * d + 16 * d - 10, 3),
        1 - Fraction(d * (d - 1) ** 2 * (2 * d + 27), 6) * varpi, "beta1")
    out["beta2"] = guarded(
        Fraction(2 ** d * weight) * psi,
        varpi * (1 - _rate_relaxed(d) * psi), "beta2")
    out["varpi0"] = _crossing_first(d, psi)
    out["varpi1"] = _crossing_second(d, psi)
    return out


def thresholds(d: int, psi: RationalLike) -> Dict[str, Fraction]:
    """Rank thresholds n1, n2 with their sextic coefficients, exactly.

    n1 is computed two ways — the displayed closed form and the composition
    of the crossing point varpi0 into the threshold curve — and the two
    results are required to agree; n2 likewise through varpi1.

    Raises:
        PsiOutOfRange: psi violates either reciprocal cap.
    """
    psi = _as_fraction(psi)
    if psi <= 0:
        raise PsiOutOfRange("psi must be positive")
    if 1 / psi <= _rate_strict(d):
        raise PsiOutOfRange(
            f"1/psi must exceed {format_rational(_rate_strict(d))}")
    if 1 / psi <= _rate_relaxed(d):
        raise PsiOutOfRange(
            f"1/psi must exceed {format_rational(_rate_relaxed(d))}")
    head = _poly_head(d)
    p6 = _sextic_first(d)
    q6 = _sextic_second(d)
    n1 = Fraction(2 ** (d - 1)) * (head - p6 * psi) / (1 - _rate_strict(d)
                                                       * psi)
    n2 = Fraction(2 ** (d - 1)) * (head - q6 * psi) / (1 - _rate_relaxed(d)
                                                       * psi)
    crossed = aux_quantities(d, _crossing_first(d, psi), psi)
    assert n1 == crossed["b2"] and n1 == crossed["a1"]
    assert n2 == aux_quantities(d, _crossing_second(d, psi), psi)["beta2"]
    return {
        "n1": n1,
        "n2": n2,
        "p6": p6,
        "q6": q6,
        "psi1": Fraction(1, 2 * d ** 4),
    }


def theorem_thresholds(d: int) -> Dict[str, object]:
    """The final rank thresholds and the closing comparison between them.

    ``full_rank_threshold`` is the clean bound for the strongest statement;
    ``stratified_rank_base`` the base of the stratified variant; the
    ``closing_*`` fields verify exactly that the refined threshold (built
    from psi0) is dominated by the clean one.
    """
    if d < 5:
        raise DomainError("thresholds are stated for degree at least 5")
    psi0 = Fraction(2, d ** 3 * (2 * d + 3) - 2)
    refined_lhs = (Fraction(2 ** (d - 1) * d * (d + 1)) * (1 + 1 / psi0)
                   + Fraction(d * (d + 1), 2) + 1)
    full = 2 ** (d - 1) * d ** 4 * (d + 1) * (d + 2)
    return {
        "full_rank_threshold": full,
        "stratified_rank_base": 2 ** d * d * (d * d - 1),
        "psi0": psi0,
        "closing_lhs": refined_lhs,
        "closing_rhs": Fraction(full),
        "closing_holds": refined_lhs <= full,
    }


# ---------------------------------------------------------------------------
# Presets replaying the two endgame parameter recipes
# ---------------------------------------------------------------------------

def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """A smallest-denominator fraction strictly inside the interval (lo, hi).

    Walks the continued-fraction (Stern-Brocot) expansion shared by the two
    endpoints; both endpoints are excluded.
    """
    if not lo < hi:
        raise DomainError("empty interval")
    shift = lo.numerator // lo.denominator
    lo, hi = lo - shift, hi - shift
    if hi > 1:
        return Fraction(shift + 1)
    if lo == 0:
        return shift + Fraction(1, hi.denominator // hi.numerator + 1)
    return shift + 1 / _simplest_between(1 / hi, 1 / lo)


def _grid_in_window(lo: Fraction, hi: Fraction, base: int) -> Optional[int]:
    """An integer a with lo < a/base < hi, preferring the centre; or None."""
    mid = round(base * (lo + hi) / 2)
    if lo * base < mid < hi * base:
        return mid
    first = lo.numerator * base // lo.denominator + 1
    if Fraction(first) < hi * base:
        return first
    return None


def preset_profile(name: str, d: int, n: int, rho: int,
                   psi: RationalLike) -> ExponentProfile:
    """Concrete parameter choices replaying one of the two endgame recipes.

    ``uniform-strict`` uses the stricter psi cap, the crossing point varpi0,
    and the plain delta recipe; ``uniform-relaxed`` uses the relaxed cap,
    varpi1, the delta recipe with the extra dimension-gap term, and
    requires rho strictly between D + 1 and n.  Both pick each 1/k_j
    strictly between its admissible floor at the given rank margin and the
    floor at the threshold margin (so the doubling conditions hold with
    genuine room), then place each step size k_j theta_j inside its
    admissible window: the saving-to-width window for degrees three and up,
    and the quadratic window intersected with its floor at degree two.

    Within each window the simplest rational is preferred, so the emitted
    exponents have small denominators and stay cheap to use in the exact
    arc-membership comparisons (which clear all rational exponents to
    integer powers); if the snapped choice fails any condition the exact
    window midpoints are used instead.

    Raises:
        DomainError: unknown preset, insufficient rank margin, rho outside
            the preset's range, or an empty step window.
        PsiOutOfRange: psi outside the preset's cap.
    """
    psi = _as_fraction(psi)
    if name not in ("uniform-strict", "uniform-relaxed"):
        raise DomainError(f"unknown preset {name!r}")
    strict = name == "uniform-strict"
    cap = _rate_strict(d) if strict else _rate_relaxed(d)
    if psi <= 0 or 1 / psi <= cap:
        raise PsiOutOfRange(
            f"preset needs 1/psi > {format_rational(cap)}")
    D = d * (d + 1) // 2
    if strict:
        if not 1 <= rho <= n:
            raise DomainError("rho must lie in [1, n]")
    elif not D + 1 < rho < n:
        raise DomainError(
            f"rho must lie strictly between {D + 1} and {n}")
    s = n - 1
    varpi = (_crossing_first if strict else _crossing_second)(d, psi)
    threshold = thresholds(d, psi)["n1" if strict else "n2"]
    if s - rho <= threshold:
        raise DomainError(
            f"rank margin s - rho = {s - rho} does not exceed the "
            f"threshold {format_rational(threshold)}")
    profile = _preset_recipe(d, n, rho, psi, strict, varpi, threshold,
                             snap=True)
    if check_conditions(profile, n, rho).all_hold:
        return profile
    return _preset_recipe(d, n, rho, psi, strict, varpi, threshold,
                          snap=False)


def _preset_recipe(d: int, n: int, rho: int, psi: Fraction, strict: bool,
                   varpi: Fraction, threshold: Fraction,
                   snap: bool) -> ExponentProfile:
    """One pass of the preset recipe.

    With ``snap`` the k_j become simplest-in-window rationals and all the
    theta_j land on one shared small-denominator grid, which keeps the
    derived per-degree exponents cheap for exact arc comparisons; without
    it every quantity sits at the exact midpoint of its window.
    """
    s = n - 1
    D = d * (d + 1) // 2

    # an effective rank budget halfway between the threshold and the actual
    # margin leaves every strict inequality genuine room on both sides
    effective = (threshold + (s - rho)) / 2
    k = {}
    for j in range(2, d + 1):
        k_mid = 1 / (Fraction(2 ** (j - 1)) / effective + (d - 1) * varpi)
        k_cap = 1 / (Fraction(2 ** (j - 1)) / (s - rho) + (d - 1) * varpi)
        k[j] = _simplest_between(k_mid, k_cap) if snap else k_mid
    sigma = {j: sum((Fraction(i - 1) / k[i] for i in range(j, d + 1)),
                    Fraction(0))
             for j in range(2, d + 1)}
    Sigma = {j: sum(((i - j + 1) * Fraction(i - 1) / k[i]
                     for i in range(j, d + 1)), Fraction(0))
             for j in range(2, d + 1)}
    D_table = {j: j * (j + 1) // 2 for j in range(0, d + 3)}
    delta = {}
    for j in range(2, d + 1):
        m = d - j
        tail = m * (m + 1) * (m + 2) // 6
        base = tail + D_table[d - j] + (D_table[d - j + 2] - 2) * (d - 1)
        if not strict:
            base += D - d
        delta[j] = psi * base

    windows = {}
    for j in range(3, d + 1):
        saved = 1 - Sigma[j] - sigma[j]
        width = (1 - (D_table[d - j + 1] + (d - 1) * (d - j + 1)) * psi)
        if saved <= 0:
            raise DomainError(f"no saving room at degree {j}")
        low = (D_table[j - 1] - 1 + delta[j]) / saved
        high = width / (sigma[j] + 1 / k[j - 1])
        if low >= high:
            raise DomainError(f"empty step window at degree {j}")
        windows[j] = (low, high)
    if strict:
        window = _quadratic_window(d, psi, sigma[2], Sigma[2])
        if window is None:
            raise DomainError("quadratic window degenerate for this preset")
        low, high = window
    else:
        head = 1 - sigma[2] - Sigma[2]
        if head <= 0 or sigma[2] <= 0:
            raise DomainError("quadratic window degenerate for this preset")
        low = (Fraction(8 * d ** 3 + 3 * d * d - 41 * d + 30, 6) * psi / head
               + Fraction(3 * d * d - 7 * d + 4, 2) * psi / sigma[2])
        high = ((1 - (3 * d ** 3 - 5 * d * d + 2) * psi)
                / ((2 * d + 1) * sigma[2]))
    head = 1 - Sigma[2] - sigma[2]
    low = max(low, psi / varpi, delta[2] / head)
    if low >= high:
        raise DomainError("empty step window at degree 2")
    windows[2] = (low, high)

    theta = None
    if snap:
        theta = _snap_theta(windows, k)
    if theta is None:
        theta = {j: (lo + hi) / 2 / k[j] for j, (lo, hi) in windows.items()}
    return derive_profile(d, theta, k, psi, varpi, delta)


def _snap_theta(windows: Mapping[int, Tuple[Fraction, Fraction]],
                k: Mapping[int, Fraction],
                ) -> Optional[Dict[int, Fraction]]:
    """Place every theta_j on one shared denominator grid inside its window.

    The step windows (for k_j theta_j) translate to open windows for
    theta_j; the grid denominator starts highly composite and doubles until
    every window contains a grid point.  Returns None when no reasonable
    grid works.
    """
    bounds = {j: (lo / k[j], hi / k[j]) for j, (lo, hi) in windows.items()}
    base = 720
    for _ in range(24):
        numerators = {j: _grid_in_window(lo, hi, base)
                      for j, (lo, hi) in bounds.items()}
        if all(a is not None for a in numerators.values()):
            return {j: Fraction(a, base) for j, a in numerators.items()}
        base *= 2
    return None
