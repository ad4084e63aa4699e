"""Command-line entry point orchestrating counting, densities, and ledgers.

JSON is the only machine output; ``--csv`` projects the tabular sections of
``count --breakdown`` and ``ledger`` instead.  Rationals serialize as "p/q"
strings and integers beyond the exact double range as decimal strings, so
every value survives a round trip through standard parsers.  Floats use the
canonical shortest representation, which is deterministic for identical
computations.

The six subcommands that run a potentially exponential loop (count,
expsum, arcs, density, predict and selftest) take ``--budget``, the one
source of the work budget (default 10^7).  Each stage charges its own work
to it: lattice points enumerated, rows scanned and histogram entries
formed, residues scanned, window cells summed, denominators tried,
arc-search work units or QMC samples.  An overrun exits 3 with an error
naming the work and the budget; a budget below 1 is a validation failure.
``ledger`` and ``lattice`` charge nothing and take no budget.  Validation
failures exit 2 with a machine-readable error object; usage errors exit 64,
with the usage of the parser that refused the argument.

``--manifest-out FILE`` records the run (command, parameters, seeds, tool
version, wall time, digest of the emitted bytes); ``--from-manifest FILE``
replays a recorded run, writing no manifest, and prints its standard output
only when the sha256 of that output equals the recorded digest, and exits 2
naming both digests otherwise.

Each subcommand imports the layers it runs when it runs, so ``count`` and
``lattice`` load neither density, exponents, expsums nor mpmath.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .counting import (DEFAULT_COUNT_BUDGET, count_fixed_y, count_pairs,
                       hessian_corank, m2_dimension)
from .errors import DomainError, LineCountError, ResourceLimit
from .forms import (form_to_json, format_rational, gradient, load_form,
                    parse_rational)
from .lattice import (lattice_to_json, linear_slice_coefficients,
                      slicing_lattice)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64

_MAX_SAFE_INT = 2 ** 53


#: A number of a vector flag: an integer, a decimal with an optional
#: exponent, or a rational p/q.
_NUMBER = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(/\d+)?"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit 64 instead of 2, and
    which reads a comma-separated list of numbers whose first is negative
    (``--y -1,1,0,0``) as a value, not as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            f"^-{_NUMBER}(,-?{_NUMBER})*$")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _SubcommandParser(_Parser):
    """Parser of one subcommand: it refuses the arguments it does not
    take itself, so the error shows its own usage, not the root's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@dataclass(frozen=True)
class RunManifest:
    """Replayable record of one invocation."""

    command: str
    argv: List[str]
    form_hash: Optional[str]
    parameters: Dict[str, object]
    seeds: List[int]
    tool_version: str
    wall_time: float
    outputs_digest: str

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "argv": list(self.argv),
            "form_hash": self.form_hash,
            "parameters": self.parameters,
            "seeds": list(self.seeds),
            "tool_version": self.tool_version,
            "wall_time": self.wall_time,
            "outputs_digest": self.outputs_digest,
        }

    @staticmethod
    def from_file(path: str) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError("a manifest must be a JSON object")
        argv = raw["argv"]
        if not (isinstance(argv, list)
                and all(isinstance(part, str) for part in argv)):
            raise ValueError("manifest argv must be a list of strings")
        if argv[:1] == ["--from-manifest"]:
            raise ValueError("manifest argv must not replay a manifest")
        for key, kind, name in (("parameters", dict, "an object"),
                                ("seeds", list, "a list"),
                                ("wall_time", (int, float), "a number")):
            if key in raw and not isinstance(raw[key], kind):
                raise ValueError(f"manifest {key} must be {name}")
        return RunManifest(
            command=raw["command"], argv=argv,
            form_hash=raw.get("form_hash"),
            parameters=raw.get("parameters", {}),
            seeds=list(raw.get("seeds", [])),
            tool_version=raw.get("tool_version", ""),
            wall_time=float(raw.get("wall_time", 0.0)),
            outputs_digest=raw.get("outputs_digest", ""))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _jsonable(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, int):
        return str(value) if abs(value) >= _MAX_SAFE_INT else value
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return [value.real, value.imag]
    mpmath = sys.modules.get("mpmath")  # its values exist only once it loads
    if mpmath is not None:
        if isinstance(value, mpmath.mpf):
            return float(value)
        if isinstance(value, mpmath.mpc):
            return [float(value.real), float(value.imag)]
    if isinstance(value, np.integer):
        return _jsonable(int(value))
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "to_json"):
        return _jsonable(value.to_json())
    raise DomainError(f"cannot serialize {type(value).__name__} to JSON")


def _render_json(payload) -> str:
    return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Flag parsing helpers
# ---------------------------------------------------------------------------

def _int_vector(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _finite(number: float) -> float:
    """``number``, refused when it is nan or infinite (a float literal
    beyond the double range reads as infinite)."""
    if not np.isfinite(number):
        raise ValueError(f"{number} is not a finite number")
    return number


def _float_vector(text: str) -> Tuple[float, ...]:
    try:
        return tuple(
            _finite(float(Fraction(part)) if "/" in part else float(part))
            for part in text.split(","))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated finite numbers, got {text!r}")


def _frequency_vector(text: str) -> Tuple[object, ...]:
    parts = []
    for part in text.split(","):
        try:
            if "." in part or "e" in part.lower():
                parts.append(_finite(float(part)))
            else:
                parts.append(parse_rational(part))
        except (ValueError, ZeroDivisionError, LineCountError):
            raise argparse.ArgumentTypeError(
                "expected comma-separated rationals or finite floats, "
                f"got {text!r}")
    return tuple(parts)


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError, LineCountError):
        raise argparse.ArgumentTypeError(f"expected a rational p/q, got {text!r}")


_FIXTURE_GRAMMAR = ("quintic | fermat-<degree>-<nvars> | quadric-<nvars> | "
                    "random-<degree>-<nvars>-<seed>")


def _fixture_form(name: str):
    from .fixtures import (diagonal_quadric, fermat_form, fermat_quintic,
                           random_dense_form)
    if name == "quintic":
        return fermat_quintic()
    match = re.fullmatch(r"fermat-(\d+)-(\d+)", name)
    if match:
        degree, nvars = int(match.group(1)), int(match.group(2))
        return fermat_form(nvars, degree)
    match = re.fullmatch(r"quadric-(\d+)", name)
    if match:
        return diagonal_quadric(int(match.group(1)))
    match = re.fullmatch(r"random-(\d+)-(\d+)-(\d+)", name)
    if match:
        degree, nvars, seed = (int(match.group(i)) for i in (1, 2, 3))
        return random_dense_form(nvars, degree, seed)
    raise DomainError(f"unknown fixture {name!r}; expected {_FIXTURE_GRAMMAR}")


def _add_form_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--form", metavar="FILE",
                       help="JSON form file (see the form schema)")
    group.add_argument("--fixture", metavar="NAME",
                       help=f"built-in form: {_FIXTURE_GRAMMAR}")


def _add_qmc_seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0,
                        help="QMC seed: the 16 scrambles use seeds "
                             "SEED..SEED+15, so runs meant to be "
                             "independent need seeds at least 16 apart "
                             "(default %(default)s)")


def _add_budget_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--budget", type=int, default=DEFAULT_COUNT_BUDGET,
                        help="positive work budget, charged by each stage "
                             "in its own units (lattice points, rows and "
                             "histogram entries, residues, window cells, "
                             "denominators, arc-search work units or QMC "
                             "samples); an overrun exits 3 (default "
                             "%(default)s)")


def _resolve_form(args):
    if getattr(args, "form", None):
        return load_form(args.form)
    return _fixture_form(args.fixture)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _configure_count(parser) -> None:
    _add_form_flags(parser)
    parser.add_argument("--X", type=int, required=True,
                        help="box bound for the x variable")
    parser.add_argument("--Y", type=int, default=None,
                        help="box bound for the base points (pair run)")
    parser.add_argument("--y", type=_int_vector, default=None, metavar="V,V,...",
                        help="fixed base point instead of a box of them")
    parser.add_argument("--exclude-proportional", action="store_true",
                        help="drop pairs lying on a common line through 0")
    parser.add_argument("--rho", type=int, default=None,
                        help="also tally as 'stratified' the pairs whose "
                             "two points both have Hessian corank >= rho; "
                             "'total' and 'per_y' stay unrestricted")
    parser.add_argument("--breakdown", action="store_true",
                        help="include per-base-point counts")
    parser.add_argument("--csv", action="store_true",
                        help="emit the per-base-point table as CSV "
                             "(needs --breakdown)")
    _add_budget_flag(parser)


def _run_count(args, form) -> dict:
    if (args.Y is None) == (args.y is None):
        raise DomainError("pass exactly one of --Y (pair run) or --y "
                          "(fixed base point)")
    if args.y is not None:
        for flag, given in (("--exclude-proportional",
                             args.exclude_proportional),
                            ("--rho", args.rho is not None),
                            ("--breakdown", args.breakdown),
                            ("--csv", args.csv)):
            if given:
                raise DomainError(f"{flag} applies to pair runs (--Y), not "
                                  "to a fixed base point (--y)")
        total = count_fixed_y(form, args.y, args.X, budget=args.budget)
        return {"mode": "fixed-y", "X": args.X, "y": list(args.y),
                "total": total}
    if args.csv and not args.breakdown:
        raise DomainError("--csv needs --breakdown: it projects the "
                          "per-base-point table")
    report = count_pairs(form, args.X, args.Y,
                         exclude_proportional=args.exclude_proportional,
                         stratum_rho=args.rho, breakdown=args.breakdown,
                         budget=args.budget)
    payload = report.to_json()
    payload["mode"] = "pairs"
    return payload


def _csv_count(payload: dict) -> str:
    """The breakdown as CSV, written straight to text: a key holds only
    digits, '-' and spaces and a count only digits, so no cell needs
    quoting.  An empty breakdown prints nothing, not even the header."""
    if not payload["per_y"]:
        return ""
    return "y,count\n" + "".join(
        f"{key},{count}\n" for key, count in sorted(payload["per_y"].items()))


def _configure_expsum(parser) -> None:
    _add_form_flags(parser)
    parser.add_argument("--y", type=_int_vector, required=True, metavar="V,V,...")
    parser.add_argument("--alpha", type=_frequency_vector, required=True,
                        metavar="A2,...,AD",
                        help="frequency vector, rationals p/q or floats")
    parser.add_argument("--P", type=int, required=True,
                        help="box bound for the lattice sum")
    _add_budget_flag(parser)


def _run_expsum(args, form) -> dict:
    from .expsums import FrequencyPoint, exponential_sum_T
    alpha = FrequencyPoint.from_values(args.alpha)
    value = exponential_sum_T(form, args.y, alpha, args.P,
                              budget=args.budget)
    return {"P": args.P, "alpha": alpha.to_json(), "y": list(args.y),
            "value": value, "abs": float(abs(value))}


def _configure_arcs(parser) -> None:
    _add_form_flags(parser)
    parser.add_argument("--y", type=_int_vector, default=None, metavar="V,V,...")
    parser.add_argument("--alpha", type=_frequency_vector, required=True,
                        metavar="A2,...,AD")
    parser.add_argument("--X", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--witness", type=_rational, default=None, metavar="P/Q",
                      help="major-arc membership at the given window width")
    mode.add_argument("--weyl", type=int, default=None, metavar="I",
                      help="squaring-and-differencing bound after I steps")
    mode.add_argument("--nested", action="store_true",
                      help="nested-arc membership under a preset profile")
    parser.add_argument("--trials", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--preset", default="uniform-strict",
                        choices=["uniform-strict", "uniform-relaxed"])
    parser.add_argument("--n", type=int, default=None,
                        help="ambient dimension for the profile (default: "
                             "smallest admissible)")
    parser.add_argument("--rho", type=int, default=None)
    parser.add_argument("--psi", type=_rational, default=None, metavar="P/Q")
    parser.add_argument("--start-degree", type=int, default=2)
    _add_budget_flag(parser)


def _run_arcs(args, form) -> dict:
    from .expsums import (FrequencyPoint, arc_geometry, major_arc_witness,
                          nested_arc_membership, weyl_inequality_check)
    alpha = FrequencyPoint.from_values(args.alpha)
    if args.witness is not None:
        witness = major_arc_witness(alpha, args.X, args.witness,
                                    budget=args.budget)
        return {"mode": "witness", "X": args.X, "alpha": alpha.to_json(),
                "window": args.witness, "member": witness is not None,
                "witness": None if witness is None else witness.to_json()}
    if args.y is None:
        raise DomainError("--y is required for --weyl and --nested")
    if args.weyl is not None:
        report = weyl_inequality_check(form, args.y, alpha, args.weyl,
                                       args.X, trials=args.trials,
                                       seed=args.seed, budget=args.budget)
        payload = report.to_json()
        payload["mode"] = "weyl"
        return payload
    profile, n, rho, psi = _profile_from_flags(args, form.degree)
    y_sup, mu1_sq = arc_geometry(form, args.y)
    report = nested_arc_membership(alpha, args.X, profile, y_sup, mu1_sq,
                                   start_degree=args.start_degree,
                                   budget=args.budget)
    payload = report.to_json()
    payload.update({"mode": "nested", "n": n, "rho": rho, "psi": psi,
                    "y_sup": y_sup, "mu1_sq": mu1_sq})
    return payload


def _configure_density(parser) -> None:
    _add_form_flags(parser)
    parser.add_argument("--y", type=_int_vector, default=None, metavar="V,V,...",
                        help="base point (omit for the global pair system)")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--p", type=int, default=None,
                      help="p-adic density at this prime")
    mode.add_argument("--series", type=int, default=None, metavar="W",
                      help="truncated singular series over moduli q <= W")
    mode.add_argument("--integral", type=_rational, default=None, metavar="W",
                      help="truncated singular integral at frequency cut W")
    mode.add_argument("--window", type=_float_vector, default=None,
                      metavar="E,E,...",
                      help="real density with these window widths")
    mode.add_argument("--oscillatory", type=_float_vector, default=None,
                      metavar="B2,...,BD",
                      help="oscillatory slab integral at this frequency")
    parser.add_argument("--H", type=int, default=1)
    parser.add_argument("--display-convention", action="store_true",
                        help="scale the p-adic density by the display "
                             "normalisation instead of the working one")
    parser.add_argument("--X", type=int, default=1,
                        help="box scale for --oscillatory")
    parser.add_argument("--samples", type=int, default=1 << 14)
    _add_qmc_seed_flag(parser)
    _add_budget_flag(parser)


def _run_density(args, form) -> dict:
    from .density import (chi_global_padic, chi_global_real, chi_p_fixed_y,
                          oscillatory_v, real_density_window,
                          singular_integral_truncated,
                          singular_series_truncated)
    budget = args.budget
    if args.p is not None:
        if args.y is not None:
            lattice_value, full_value = chi_p_fixed_y(
                form, args.y, args.p, args.H,
                display_convention=args.display_convention, budget=budget)
            return {"mode": "chi-p-fixed-y", "p": args.p, "H": args.H,
                    "display_convention": args.display_convention,
                    "lattice": lattice_value, "fullspace": full_value}
        estimate = chi_global_padic(form, args.p, args.H, budget=budget)
        return {"mode": "chi-p-pairs", "p": args.p, "H": args.H,
                "estimate": estimate.to_json()}
    if args.series is not None:
        if args.y is None:
            raise DomainError("--series needs a base point --y")
        estimate = singular_series_truncated(form, args.y, args.series,
                                             budget=budget)
        return {"mode": "series", "W": args.series,
                "estimate": estimate.to_json()}
    if args.integral is not None:
        if args.y is None:
            raise DomainError("--integral needs a base point --y")
        estimate = singular_integral_truncated(form, args.y, args.integral,
                                               args.samples, seed=args.seed,
                                               budget=budget)
        return {"mode": "integral", "W": args.integral,
                "estimate": estimate.to_json()}
    if args.oscillatory is not None:
        if args.y is None:
            raise DomainError("--oscillatory needs a base point --y")
        estimate = oscillatory_v(form, args.y, args.oscillatory, args.X,
                                 args.samples, seed=args.seed, budget=budget)
        return {"mode": "oscillatory", "X": args.X,
                "beta": list(args.oscillatory),
                "estimate": estimate.to_json()}
    if args.y is not None:
        estimate = real_density_window(form, args.y, args.window,
                                       args.samples, seed=args.seed,
                                       budget=budget)
        return {"mode": "window", "epsilon": list(args.window),
                "estimate": estimate.to_json()}
    estimate = chi_global_real(form, args.window, args.samples,
                               seed=args.seed, budget=budget)
    return {"mode": "window-pairs", "epsilon": list(args.window),
            "estimate": estimate.to_json()}


def _configure_predict(parser) -> None:
    _add_form_flags(parser)
    parser.add_argument("--X", type=int, required=True)
    parser.add_argument("--y", type=_int_vector, default=None, metavar="V,V,...",
                        help="fixed base point (omit for the pair prediction)")
    parser.add_argument("--Y", type=int, default=None)
    parser.add_argument("--W", type=int, default=None,
                        help="series/integral truncation for the fixed-y mode")
    parser.add_argument("--p-max", type=int, default=None)
    parser.add_argument("--H", type=int, default=1)
    parser.add_argument("--epsilon", type=_float_vector, default=None,
                        metavar="E,E,...")
    parser.add_argument("--samples", type=int, default=1 << 14)
    _add_qmc_seed_flag(parser)
    parser.add_argument("--cache", metavar="FILE", default=None,
                        help="persistent store for exact local factors")
    _add_budget_flag(parser)


def _run_predict(args, form) -> dict:
    from .density import EulerCache, predict_fixed_y, predict_pairs
    if args.y is not None:
        if args.W is None:
            raise DomainError("fixed-y prediction needs --W")
        prediction = predict_fixed_y(form, args.y, args.X, args.W,
                                     args.samples, seed=args.seed,
                                     budget=args.budget)
        return prediction.to_json()
    if args.Y is None or args.p_max is None or args.epsilon is None:
        raise DomainError("pair prediction needs --Y, --p-max, and --epsilon")
    cache = EulerCache(args.cache) if args.cache else None
    prediction = predict_pairs(form, args.X, args.Y, args.p_max, args.H,
                               args.epsilon, args.samples, seed=args.seed,
                               cache=cache, budget=args.budget)
    return prediction.to_json()


def _configure_ledger(parser) -> None:
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--psi", type=_rational, default=None, metavar="P/Q",
                        help="smoothing exponent (default 1/(2 d^4))")
    parser.add_argument("--preset", default="uniform-strict",
                        choices=["uniform-strict", "uniform-relaxed"])
    parser.add_argument("--n", type=int, default=None,
                        help="ambient dimension (default: smallest admissible)")
    parser.add_argument("--rho", type=int, default=None,
                        help="stratum rank bound (default depends on preset)")
    parser.add_argument("--identities", type=int, default=None, metavar="N",
                        help="also verify the combinatorial identities up to N")
    parser.add_argument("--thresholds", action="store_true",
                        help="also report the closing-inequality thresholds")
    parser.add_argument("--csv", action="store_true",
                        help="emit the condition table as CSV")


def _profile_from_flags(args, d: int):
    from .exponents import preset_profile
    psi = args.psi if args.psi is not None else Fraction(1, 2 * d ** 4)
    if args.rho is not None:
        rho = args.rho
    elif args.preset == "uniform-strict":
        rho = 1
    else:
        rho = d * (d + 1) // 2 + 2
    if args.n is None:
        n, profile = _minimal_admissible_n(args.preset, d, rho, psi)
    else:
        n, profile = args.n, preset_profile(args.preset, d, args.n, rho, psi)
    return profile, n, rho, psi


def _minimal_admissible_n(preset: str, d: int, rho: int, psi: Fraction):
    """(n, profile): the smallest ambient dimension the preset accepts, in
    closed form, and the preset's profile there.

    :func:`preset_profile` depends on n only through the rank margin
    n - 1 - rho > threshold (n1, or n2 for the relaxed preset) and rho <= n
    (rho < n relaxed), so n = max(rho + 2, D + 2, rho + 2 + floor(threshold)),
    D = d (d + 1) / 2.  A preset that refuses that n, or an n past 2^40, has
    no admissible dimension.
    """
    from .exponents import preset_profile, thresholds
    profile = None
    try:
        threshold = thresholds(d, psi)[
            "n1" if preset == "uniform-strict" else "n2"]
        n = max(rho + 2, d * (d + 1) // 2 + 2, rho + 2 + math.floor(threshold))
        if n <= 1 << 40:
            profile = preset_profile(preset, d, n, rho, psi)
    except LineCountError:
        pass
    if profile is None:
        raise DomainError(
            f"no admissible dimension for preset {preset!r} at d={d}, "
            f"rho={rho}, psi={psi}")
    return n, profile


def _run_ledger(args, form=None) -> dict:
    from .exponents import check_conditions, identity_suite, theorem_thresholds
    if args.d < 2:
        raise DomainError("degree must be at least 2")
    profile, n, rho, psi = _profile_from_flags(args, args.d)
    report = check_conditions(profile, n, rho)
    payload = {
        "d": args.d, "n": n, "rho": rho, "psi": psi, "preset": args.preset,
        "profile": profile.to_json(),
        "conditions": report.to_json(),
        "all_hold": report.all_hold,
    }
    if args.identities is not None:
        ident = identity_suite(args.identities)
        payload["identities"] = {"n_max": ident.n_max, "checked": ident.checked,
                                 "all_hold": ident.all_hold,
                                 "failures": list(ident.failures)}
    if args.thresholds:
        payload["thresholds"] = theorem_thresholds(args.d)
    return payload


def _csv_ledger(payload: dict) -> str:
    """The conditions as CSV, written straight to text: a label holds only
    letters and '-', and a slack only digits, '-' and '/', so no cell
    needs quoting."""
    return "condition,holds,slack\n" + "".join(
        f"{name},{entry['holds']},{entry['slack']}\n"
        for name, entry in sorted(payload["conditions"].items()))


def _configure_lattice(parser) -> None:
    _add_form_flags(parser)
    parser.add_argument("--y", type=_int_vector, required=True,
                        metavar="V,V,...")
    parser.add_argument("--write", metavar="FILE", default=None,
                        help="also save the resolved form as a JSON file")


def _run_lattice(args, form) -> dict:
    lattice = slicing_lattice(form, args.y)
    payload = {
        "y": list(args.y),
        "on_hypersurface": form(tuple(args.y)) == 0,
        "lattice": lattice_to_json(lattice),
        "gradient": list(gradient(form, args.y)),
        "gradient_content": linear_slice_coefficients(form, args.y).content,
        "hessian_corank": hessian_corank(form, args.y),
    }
    if payload["on_hypersurface"]:
        report = m2_dimension(form, args.y)
        payload["m2"] = {"span_dim": report.span_dim,
                         "system_dim": report.system_dim}
    if args.write:
        with open(args.write, "w", encoding="utf-8") as handle:
            json.dump(form_to_json(form), handle, sort_keys=True, indent=2)
            handle.write("\n")
        payload["written"] = args.write
    return payload


def _configure_selftest(parser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    _add_budget_flag(parser)


def _run_selftest(args, form=None) -> dict:
    from .density import (chi_p_fixed_y, oscillatory_v,
                          singular_series_truncated)
    from .exponents import identity_suite, theorem_thresholds
    from .expsums import FrequencyPoint, exponential_sum_T
    from .fixtures import fermat_form, fermat_quintic
    budget = args.budget
    checks: List[Dict[str, object]] = []

    def record(name: str, fn: Callable[[], bool]) -> None:
        try:
            checks.append({"name": name, "ok": bool(fn())})
        except Exception as exc:  # a failing invariant must not stop the rest
            checks.append({"name": name, "ok": False,
                           "error": f"{type(exc).__name__}: {exc}"})

    quintic = fermat_quintic()
    yq = (0, 0, 1, -1)
    cubic = fermat_form(3, 3)

    def pencil_identity() -> bool:
        from .forms import pencil_coefficients
        rng = np.random.default_rng(args.seed)
        for _ in range(10):
            x = tuple(int(v) for v in rng.integers(-4, 5, 4))
            y = tuple(int(v) for v in rng.integers(-4, 5, 4))
            coeffs = pencil_coefficients(quintic, x, y).coefficients
            # d + 1 values of u pin every coefficient
            for u in range(quintic.degree + 1):
                direct = quintic(tuple(u * a + b for a, b in zip(x, y)))
                if direct != sum(c * u ** j for j, c in enumerate(coeffs)):
                    return False
        return True

    def decomposition() -> bool:
        report = count_pairs(cubic, 1, 1, breakdown=True, budget=budget)
        return report.total == sum(report.per_y_breakdown.values())

    def zero_frequency_counts() -> bool:
        from .lattice import enumerate_points
        points = sum(len(block) for block in enumerate_points(
            slicing_lattice(quintic, yq), 2))
        value = exponential_sum_T(quintic, yq, FrequencyPoint.zero(5), 2,
                                  budget=budget)
        return abs(complex(value) - points) < 1e-9

    def orthogonality() -> bool:
        lattice_value, _ = chi_p_fixed_y(quintic, yq, 2, 1, budget=budget)
        series = singular_series_truncated(quintic, yq, 2, budget=budget)
        return lattice_value == series.value

    def slab_volume() -> bool:
        est = oscillatory_v(quintic, yq, (0.0, 0.0, 0.0, 0.0), 1, 4096,
                            seed=args.seed, budget=budget)
        mean = est.mean.real if isinstance(est.mean, complex) else est.mean
        return abs(mean - 8 * 2 ** 0.5) <= max(4 * est.stderr, 1e-9)

    def ledger_closes() -> bool:
        return all(theorem_thresholds(d)["closing_holds"]
                   for d in range(5, 9))

    def identities() -> bool:
        return identity_suite(12).all_hold

    record("pencil-identity", pencil_identity)
    record("pair-decomposition", decomposition)
    record("zero-frequency-count", zero_frequency_counts)
    record("orthogonality-p2", orthogonality)
    record("slab-volume", slab_volume)
    record("ledger-closing", ledger_closes)
    record("identity-suite", identities)
    failed = sum(1 for c in checks if not c["ok"])
    return {"checks": checks, "passed": len(checks) - failed,
            "failed": failed}


_SUBCOMMANDS = {
    "count": (_configure_count, _run_count, True),
    "expsum": (_configure_expsum, _run_expsum, True),
    "arcs": (_configure_arcs, _run_arcs, True),
    "density": (_configure_density, _run_density, True),
    "predict": (_configure_predict, _run_predict, True),
    "ledger": (_configure_ledger, _run_ledger, False),
    "lattice": (_configure_lattice, _run_lattice, True),
    "selftest": (_configure_selftest, _run_selftest, False),
}

_CSV_PROJECTIONS = {"count": _csv_count, "ledger": _csv_ledger}


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built on the first call and shared
    by all later ones.  Sharing is safe: ``parse_args`` returns a fresh
    namespace, and every default is immutable."""
    parser = _Parser(prog="linecount", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"linecount {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND",
                                       parser_class=_SubcommandParser)
    for name, (configure, _, _takes_form) in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name)
        configure(sub)
        sub.add_argument("--manifest-out", metavar="FILE", default=None,
                         help="write a replayable run manifest")
    return parser


def _sha256(data: bytes) -> str:
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _manifest_for(args, argv: Sequence[str], form,
                  wall_time: float, output: bytes) -> RunManifest:
    form_hash = None if form is None else _sha256(
        json.dumps(form_to_json(form), sort_keys=True).encode())
    parameters = {}
    for key, value in vars(args).items():
        if key in ("subcommand", "manifest_out") or key.startswith("_"):
            continue
        parameters[key] = _jsonable(value)
    seeds = [args.seed] if getattr(args, "seed", None) is not None else []
    return RunManifest(
        command=args.subcommand, argv=list(argv), form_hash=form_hash,
        parameters=parameters, seeds=seeds, tool_version=__version__,
        wall_time=round(wall_time, 6),
        outputs_digest=_sha256(output))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["--from-manifest"]:
        if len(argv) != 2:
            sys.stderr.write("usage: linecount --from-manifest FILE\n")
            return EXIT_USAGE
        try:
            manifest = RunManifest.from_file(argv[1])
        except (OSError, ValueError, KeyError) as exc:
            sys.stdout.write(_render_json(
                {"error": {"type": type(exc).__name__, "message": str(exc)}}))
            return EXIT_VALIDATION
        replay = io.StringIO()
        with contextlib.redirect_stdout(replay):
            code = _run(manifest.argv, record=False)
        output = replay.getvalue()
        digest = _sha256(output.encode("utf-8"))
        if digest != manifest.outputs_digest:
            sys.stdout.write(_render_json({"error": {
                "type": "DigestMismatch",
                "message": f"the replay printed output of sha256 {digest}, "
                           f"the manifest records "
                           f"{manifest.outputs_digest}",
                "recorded": manifest.outputs_digest, "replayed": digest}}))
            return EXIT_VALIDATION
        sys.stdout.write(output)
        return code
    return _run(argv, record=True)


def _run(argv: List[str], record: bool) -> int:
    """Run one subcommand and print its output; with ``record``, also
    write the manifest that ``--manifest-out`` asks for (a replay writes
    none)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    _, run, takes_form = _SUBCOMMANDS[args.subcommand]
    started = time.monotonic()
    try:
        if "budget" in vars(args) and args.budget < 1:
            raise DomainError("budget must be positive")
        form = _resolve_form(args) if takes_form else None
        payload = run(args, form)
        if getattr(args, "csv", False):
            text = _CSV_PROJECTIONS[args.subcommand](payload)
        else:
            text = _render_json(payload)
    except ResourceLimit as exc:
        sys.stdout.write(_render_json(
            {"error": {"type": "ResourceLimit", "message": str(exc)}}))
        return EXIT_RESOURCE
    except (LineCountError, OSError, ValueError,
            json.JSONDecodeError) as exc:
        sys.stdout.write(_render_json(
            {"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return EXIT_VALIDATION

    sys.stdout.write(text)
    output = text.encode("utf-8")
    if record and getattr(args, "manifest_out", None):
        manifest = _manifest_for(args, argv, form,
                                 time.monotonic() - started, output)
        with open(args.manifest_out, "w", encoding="utf-8") as handle:
            json.dump(manifest.to_json(), handle, sort_keys=True, indent=2)
            handle.write("\n")
    if args.subcommand == "selftest" and payload.get("failed"):
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
