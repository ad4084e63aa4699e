"""Workloads of the linecount benchmark: seeded inputs, jobs and output gates.

A job is one ``linecount`` command line.  The benchmark seed draws a signed
coordinate permutation S for every form: the program receives the relabelled
form F∘S as a form file, each base point y as S⁻¹y and a seeded QMC
``--seed``.  Every exact output is invariant under the relabelling, so each
job's output is compared with values recorded once, whatever the seed:

* exact fields (counts, rationals, breakdown sums) must match exactly;
* QMC means must lie within ``QMC_SIGMAS`` combined standard errors of a
  reference pooled over eight independent runs.

This module only uses the standard library; the program is imported by the
runner.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: A QMC mean fails its gate when it lies further than this many combined
#: standard errors (its own and the reference's, in quadrature) from the
#: reference.  With 16 scrambles the t statistic has 15 degrees of freedom;
#: P(|t| > 6) is about 2e-5 per check.
QMC_SIGMAS = 6.0

#: Diagonal forms sum_i c_i x_i^d, as (d, (c_1, ..., c_n)).
FORMS: Dict[str, Tuple[int, Tuple[int, ...]]] = {
    "quadric-5": (2, (1, 1, 1, 1, -1)),
    "quintic": (5, (1, 1, 1, 1)),
    "fermat-3-4": (3, (1, 1, 1, 1)),
    "fermat-3-7": (3, (1, 1, 1, 1, 1, 1, 1)),
}


class Mismatch(Exception):
    """A job's output differs from its recorded reference."""


# ---------------------------------------------------------------------------
# Seeded relabelling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Relabel:
    """Signed coordinate permutation S with (S x)_i = signs[i] * x[perm[i]]."""

    perm: Tuple[int, ...]
    signs: Tuple[int, ...]

    @classmethod
    def draw(cls, rng: random.Random, n: int) -> "Relabel":
        perm = list(range(n))
        rng.shuffle(perm)
        return cls(tuple(perm), tuple(rng.choice((1, -1)) for _ in range(n)))

    def apply(self, x: Sequence[int]) -> Tuple[int, ...]:
        """S x."""
        return tuple(s * x[p] for s, p in zip(self.signs, self.perm))

    def pull(self, y: Sequence[int]) -> Tuple[int, ...]:
        """S⁻¹ y, the point that S maps to y."""
        out = [0] * len(y)
        for i, (s, p) in enumerate(zip(self.signs, self.perm)):
            out[p] = s * y[i]
        return tuple(out)

    def monomials(self, monomials: Dict[Tuple[int, ...], int]
                  ) -> Dict[Tuple[int, ...], int]:
        """Coefficients of F∘S, given those of F."""
        out: Dict[Tuple[int, ...], int] = {}
        for exponent, coefficient in monomials.items():
            moved = [0] * len(exponent)
            for i, e in enumerate(exponent):
                moved[self.perm[i]] += e
                coefficient *= self.signs[i] ** e
            out[tuple(moved)] = coefficient
        return out


def diagonal_monomials(name: str) -> Dict[Tuple[int, ...], int]:
    degree, coefficients = FORMS[name]
    n = len(coefficients)
    return {tuple(degree if k == i else 0 for k in range(n)): c
            for i, c in enumerate(coefficients)}


def form_json(monomials: Dict[Tuple[int, ...], int]) -> dict:
    """The program's form-file schema."""
    exponents = next(iter(monomials))
    return {"n": len(exponents), "d": sum(exponents),
            "monomials": [{"exp": list(e), "coef": str(c)}
                          for e, c in sorted(monomials.items())]}


@dataclass
class Inputs:
    """Everything one seed determines: relabellings, form files, QMC seed."""

    qmc_seed: int
    relabels: Dict[str, Relabel] = field(default_factory=dict)
    form_files: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def write(cls, seed: int, directory: str) -> "Inputs":
        """Draw the relabellings for ``seed`` and write the form files."""
        inputs = cls(random.Random(f"{seed}:qmc").randrange(2 ** 30))
        os.makedirs(directory, exist_ok=True)
        for name, (_, coefficients) in FORMS.items():
            relabel = Relabel.draw(random.Random(f"{seed}:{name}"),
                                   len(coefficients))
            path = os.path.join(directory, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(form_json(relabel.monomials(
                    diagonal_monomials(name))), handle)
            inputs.relabels[name] = relabel
            inputs.form_files[name] = path
        return inputs


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def _vector(values: Sequence[int]) -> str:
    return ",".join(str(v) for v in values)


def _qmc(estimate: dict) -> Tuple[float, float]:
    return float(estimate["mean"]), float(estimate["stderr"])


def _fixed_y(text: str, relabel: Relabel):
    payload = json.loads(text)
    return {"mode": payload["mode"], "X": payload["X"],
            "total": payload["total"]}, {}


def _pairs(text: str, relabel: Relabel):
    payload = json.loads(text)
    return payload, {}


def _pairs_csv(text: str, relabel: Relabel):
    """Row count, row sum and a digest of the breakdown in original labels."""
    rows = list(csv.DictReader(io.StringIO(text)))
    table = sorted((relabel.apply([int(v) for v in row["y"].split()]),
                    int(row["count"])) for row in rows)
    digest = hashlib.sha256(repr(table).encode()).hexdigest()
    return {"rows": len(table), "sum": sum(c for _, c in table),
            "per_y_sha256": digest}, {}


def _density(text: str, relabel: Relabel):
    payload = json.loads(text)
    estimate = payload.get("estimate")
    if payload["mode"] in ("integral", "window"):
        return ({"mode": payload["mode"], "samples": estimate["samples"]},
                {"mean": _qmc(estimate)})
    payload.pop("display_convention", None)
    return payload, {}


def _predict(text: str, relabel: Relabel):
    """Exact factors, the QMC factor, and whether the exact recombination
    main_term = power * (exact factors) * (QMC mean) holds."""
    payload = json.loads(text)
    parts = payload["components"]
    power = Fraction(parts["x_bound"] * parts.get("y_bound", 1)) \
        ** parts["exponent"]
    if payload["tag"] == "fixed-y":
        qmc_part = parts.pop("integral")
        exact = Fraction(parts["series"]["value"])
    else:
        qmc_part = parts.pop("chi_infinity")
        exact = math.prod((Fraction(f["value"])
                           for f in parts["chi_p"].values()),
                          start=Fraction(1))
    recombined = power * exact * Fraction(float(qmc_part["mean"]))
    parts["samples"] = qmc_part["samples"]
    parts["recombines"] = recombined == Fraction(payload["main_term"])
    return parts, {"mean": _qmc(qmc_part)}


def _expsum(text: str, relabel: Relabel):
    payload = json.loads(text)
    return {"P": payload["P"], "alpha": payload["alpha"],
            "abs": round(payload["abs"], 9)}, {}


def _weyl(text: str, relabel: Relabel):
    payload = json.loads(text)
    return {"mode": payload["mode"], "i": payload["i"],
            "x_bound": payload["x_bound"], "passed": payload["passed"],
            "ratios": len(payload["ratios"])}, {}


def _whole(text: str, relabel: Relabel):
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}, {}


#: Reads a job's output: (exact fields, {name: (QMC mean, stderr)}).
Extractor = Callable[[str, Relabel],
                     Tuple[dict, Dict[str, Tuple[float, float]]]]


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the reference its output must reproduce.

    ``argv`` may use the placeholders ``{y}`` (the base point, relabelled)
    and ``{seed}`` (the QMC seed); ``--form`` is prepended when ``form`` is
    set.  ``small`` replaces flag values to give the shrunken copy used for
    warm-up and by the tests.
    """

    name: str
    argv: Tuple[str, ...]
    extract: Extractor
    exact: dict
    form: Optional[str] = None
    y: Optional[Tuple[int, ...]] = None
    qmc: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    small: Dict[str, str] = field(default_factory=dict)

    def command(self, inputs: Inputs, shrink: bool = False) -> List[str]:
        relabel = inputs.relabels.get(self.form) if self.form else None
        values = {"y": _vector(relabel.pull(self.y)) if self.y else "",
                  "seed": str(inputs.qmc_seed)}
        argv = [part.format(**values) for part in self.argv]
        if shrink:
            for flag, value in self.small.items():
                argv[argv.index(flag) + 1] = value
        if self.form:
            argv[1:1] = ["--form", inputs.form_files[self.form]]
        return argv

    def read(self, text: str, inputs: Inputs):
        relabel = inputs.relabels.get(self.form) if self.form else None
        try:
            return self.extract(text, relabel)
        except (ValueError, KeyError, TypeError) as exc:
            raise Mismatch(f"{self.name}: unreadable output: {exc!r}")

    def check(self, text: str, inputs: Inputs) -> None:
        """Raise Mismatch unless ``text`` reproduces the reference."""
        exact, sampled = self.read(text, inputs)
        if exact != self.exact:
            raise Mismatch(
                f"{self.name}: exact fields {exact} != {self.exact}")
        for key, (ref_mean, ref_err) in self.qmc.items():
            mean, err = sampled[key]
            # written so that a NaN mean or stderr fails too
            if not abs(mean - ref_mean) <= QMC_SIGMAS * math.hypot(err,
                                                                   ref_err):
                raise Mismatch(
                    f"{self.name}: QMC {key} {mean} +- {err} is more than "
                    f"{QMC_SIGMAS} sigma from {ref_mean} +- {ref_err}")


E1 = (1, 0, 0, 0, 0)
QUINTIC_Y = (0, 0, 1, -1)
ALPHA = "1/3,1/5,2/7,1/2"

FIBER = (
    Job("fiber-quadric-e1",
        ("count", "--y={y}", "--X", "12"), _fixed_y,
        {"mode": "fixed-y", "X": 12, "total": 817},
        form="quadric-5", y=E1, small={"--X": "3"}),
    Job("fiber-quadric-skewed",
        ("count", "--y={y}", "--X", "16"), _fixed_y,
        {"mode": "fixed-y", "X": 16, "total": 7},
        form="quadric-5", y=(3, 4, 0, 0, 5), small={"--X": "5"}),
    Job("fiber-quintic",
        ("count", "--y={y}", "--X", "28"), _fixed_y,
        {"mode": "fixed-y", "X": 28, "total": 3249},
        form="quintic", y=QUINTIC_Y, small={"--X": "6"}),
)

PAIRS = (
    Job("pairs-quadric",
        ("count", "--X", "2", "--Y", "4"), _pairs,
        {"X": 2, "Y": 4, "mode": "pairs", "proportional": 384,
         "total": 384},
        form="quadric-5", small={"--Y": "1"}),
    Job("pairs-cubic-breakdown",
        ("count", "--X", "2", "--Y", "5", "--breakdown", "--csv"), _pairs_csv,
        {"rows": 330, "sum": 8520, "per_y_sha256":
         "91cdfefbdca986a528f9180f3179b2a36b94e8f524936d0cf5007af82e4c6bfe"},
        form="fermat-3-4", small={"--Y": "2"}),
    Job("pairs-quadric-stratum",
        ("count", "--X", "2", "--Y", "2", "--rho", "1",
         "--exclude-proportional"), _pairs,
        {"X": 2, "Y": 2, "mode": "pairs", "proportional": 192,
         "total": 0, "stratified": 0, "stratum_rho": 1},
        form="quadric-5", small={"--Y": "1"}),
)

CIRCLE = (
    Job("series-cubic",
        ("density", "--y={y}", "--series", "12"), _density,
        {"W": 12, "estimate": {"kind": "series", "value": "2774/49"},
         "mode": "series"},
        form="fermat-3-7", y=(1, -1, 0, 0, 0, 0, 0), small={"--series": "4"}),
    Job("padic-quintic",
        ("density", "--y={y}", "--p", "5", "--H", "2"), _density,
        {"H": 2, "fullspace": "390625", "lattice": "78125",
         "mode": "chi-p-fixed-y", "p": 5},
        form="quintic", y=QUINTIC_Y, small={"--H": "1"}),
    Job("predict-pairs-quadric",
        ("predict", "--X", "4", "--Y", "4", "--p-max", "7",
         "--epsilon", "0.5,0.5,0.5", "--seed", "{seed}"), _predict,
        {"H": 1, "chi_p": {"2": {"kind": "p-adic", "value": "2"},
                           "3": {"kind": "p-adic", "value": "83/81"},
                           "5": {"kind": "p-adic", "value": "629/625"},
                           "7": {"kind": "p-adic", "value": "2407/2401"}},
         "convention": "d+1 pencil equations over 2n variables",
         "exponent": 2, "p_max": 7, "recombines": True, "samples": 16384,
         "x_bound": 4, "y_bound": 4},
        form="quadric-5", qmc={"mean": (13.5, 0.8294505899991873)},
        small={"--p-max": "3"}),
    Job("integral-quadric",
        ("density", "--y={y}", "--integral", "16",
         "--samples", "4194304", "--seed", "{seed}"), _density,
        {"mode": "integral", "samples": 4194304},
        form="quadric-5", y=E1,
        qmc={"mean": (6.269521311897173, 0.00871379500237583)},
        small={"--samples": "4096"}),
    Job("window-quadric",
        ("density", "--y={y}", "--window", "0.1,0.1",
         "--samples", "4194304", "--seed", "{seed}"), _density,
        {"mode": "window", "samples": 4194304},
        form="quadric-5", y=E1,
        qmc={"mean": (3.1372070312499996, 0.017175771076496062)},
        small={"--samples": "4096"}),
    Job("predict-fixed-y-quadric",
        ("predict", "--y={y}", "--X", "20", "--W", "16",
         "--seed", "{seed}"), _predict,
        {"coefficient_count": 3, "exponent": 2, "rank": 4, "recombines": True,
         "samples": 16384,
         "series": {"kind": "series", "value": "569628359/676350675"},
         "window": 16, "x_bound": 20},
        form="quadric-5", y=E1,
        qmc={"mean": (6.245380644469552, 0.14892203347915794)},
        small={"--W": "4"}),
    Job("expsum-quintic",
        ("expsum", "--y={y}", "--P", "12", "--alpha", ALPHA), _expsum,
        {"P": 12, "alpha": {"2": "1/3", "3": "1/5", "4": "2/7", "5": "1/2"},
         "abs": 25.0},
        form="quintic", y=QUINTIC_Y, small={"--P": "4"}),
    Job("weyl-quintic",
        ("arcs", "--y={y}", "--alpha", ALPHA, "--weyl", "1", "--X", "3"),
        _weyl,
        {"mode": "weyl", "i": 1, "x_bound": 3, "passed": True, "ratios": 1},
        form="quintic", y=QUINTIC_Y, small={"--X": "2"}),
    Job("ledger-quintic",
        ("ledger", "--d", "5", "--identities", "12", "--thresholds"), _whole,
        {"sha256":
         "43b850cca88e648638d1d1b693cb71154973f3289b599fb3f9d9298443564baf"},
        small={"--identities": "4"}),
)

WORKLOADS: Dict[str, Tuple[Job, ...]] = {
    "fiber": FIBER,
    "pairs": PAIRS,
    "circle": CIRCLE,
}
