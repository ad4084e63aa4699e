"""Tests for the command-line entry point."""

import argparse
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from linecount.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    RunManifest,
    _csv_count,
    _jsonable,
    _minimal_admissible_n,
    build_parser,
    main,
)
from linecount.counting import count_fixed_y, count_pairs
from linecount.density import chi_global_padic, singular_series_truncated
from linecount.errors import DomainError, LineCountError
from linecount.fixtures import diagonal_quadric, fermat_form, fermat_quintic
from linecount.forms import form_to_json, load_form
from test_counting import split_quadric


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def fresh_python(code, *args):
    """Run ``code`` with ``args`` in a new interpreter that imports the
    linecount under test."""
    import linecount
    source = os.path.dirname(os.path.dirname(linecount.__file__))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": source}, capture_output=True,
        text=True, timeout=120)


def run_fresh(argv):
    """(exit code, stdout) of ``main(argv)`` as the first call of a new
    interpreter."""
    probe = fresh_python("import sys\nfrom linecount.cli import main\n"
                         "sys.exit(main(sys.argv[1:]))", *argv)
    return probe.returncode, probe.stdout


@pytest.fixture
def quintic_file(tmp_path):
    path = tmp_path / "fermat5.json"
    path.write_text(json.dumps(form_to_json(fermat_quintic())))
    return str(path)


class TestSerialization:
    def test_fraction_and_big_int(self):
        assert _jsonable(Fraction(-7, 3)) == "-7/3"
        assert _jsonable(2 ** 80) == str(2 ** 80)
        assert _jsonable(12) == 12
        assert _jsonable(True) is True

    def test_complex_and_containers(self):
        assert _jsonable(1 - 2j) == [1.0, -2.0]
        assert _jsonable({"a": (Fraction(1, 2), 3)}) == {"a": ["1/2", 3]}

    def test_unserializable(self):
        with pytest.raises(DomainError):
            _jsonable(object())

    def test_dataclass_renders_its_fields(self):
        """A dataclass instance prints as its fields, each rendered in turn,
        unless its class defines ``to_json``; a dataclass type is no
        value."""
        manifest = RunManifest(command="count", argv=["count"],
                               form_hash=None, parameters={"X": 2 ** 60},
                               seeds=[], tool_version="v", wall_time=0.5,
                               outputs_digest="d")
        assert _jsonable(manifest)["parameters"] == {"X": str(2 ** 60)}
        report = count_pairs(fermat_form(3, 3), 1, 1)
        assert _jsonable(report) == _jsonable(report.to_json())
        with pytest.raises(DomainError):
            _jsonable(RunManifest)


class TestRenderedOutput:
    """The stdout of the commands that print results as their fields,
    pinned by sha256 to what the hand-written serializers printed."""

    QUINTIC = ("--fixture", "quintic", "--y", "0,0,1,-1")
    ALPHA = ("--alpha", "1/3,1/5,2/7,1/2")

    @pytest.mark.parametrize("argv, digest", [
        (("ledger", "--d", "5", "--identities", "7", "--thresholds"),
         "2397e132f6c4748b33e802dd5f5c566f21c7b5b5a91b591788986a17981c8cfa"),
        (("ledger", "--d", "5", "--csv"),
         "1485496fa40cb8395f31904b8658aa1f1290997ea4c09480f515d7dfe19a8999"),
        (("arcs", *QUINTIC, "--alpha", "0,0,0,1/1000000000", "--X", "10",
          "--nested"),
         "3a75212ca064c118c6433493e0095750e6f9b388d4f7b79c62d729ea7c606ecc"),
        (("arcs", *QUINTIC, *ALPHA, "--X", "100", "--witness", "300000"),
         "507451afbc5dc19180d9c1e26839ef9b4357f443024de85c4cbe239bc89dfb67"),
        (("arcs", *QUINTIC, *ALPHA, "--X", "3", "--weyl", "1", "--trials",
          "2"),
         "6b61278128632d3c7ce4a0110132df83432e682d611e6448dab4c5b728794d31"),
        (("lattice", *QUINTIC),
         "a67d606ab9037b8bf59bbe1e744d15fa963f0ce2429eb33d8fc8c59603313f9e"),
    ], ids=["ledger", "ledger-csv", "nested", "witness", "weyl", "lattice"])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExitCodes:
    def test_pair_count_succeeds(self, capsys, quintic_file):
        code, out = run_json(capsys, "count", "--form", quintic_file,
                             "--X", "3", "--Y", "1")
        assert code == EXIT_OK
        assert "total" in out

    def test_negative_bound_is_validation(self, capsys):
        code, out = run_json(capsys, "count", "--fixture", "quintic",
                             "--X", "-1", "--Y", "1")
        assert code == EXIT_VALIDATION
        assert out["error"]["type"] == "DomainError"

    def test_unknown_flag_is_usage(self, capsys):
        code, _ = run_cli(capsys, "count", "--fixture", "quintic",
                          "--X", "1", "--Y", "1", "--bogus")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag, value, argv", [
        ("--y", "-1,1,0,0", ("count", "--fixture", "quintic", "--X", "2")),
        ("--window", "-0.1,0.1", ("density", "--fixture", "quadric-5",
                                  "--y", "1,0,0,0,1", "--samples", "64")),
        ("--window", "-1e-1,.1", ("density", "--fixture", "quadric-5",
                                  "--y", "1,0,0,0,1", "--samples", "64")),
        ("--alpha", "-1/3,1/5,2/7,1/2", ("expsum", "--fixture", "quintic",
                                         "--y", "0,0,1,-1", "--P", "3")),
    ])
    def test_vector_with_negative_first_entry(self, capsys, flag, value,
                                              argv):
        """A vector flag whose first entry is negative is a value, read as
        the ``--flag=value`` form is, not an unknown option."""
        joined = run_cli(capsys, *argv, f"{flag}={value}")
        spaced = run_cli(capsys, *argv, flag, value)
        assert spaced == joined
        assert spaced[0] != EXIT_USAGE

    def test_negative_word_is_still_an_option(self, capsys):
        code = main(["count", "--fixture", "quintic", "--X", "2",
                     "--y", "-x"])
        assert code == EXIT_USAGE
        assert "argument --y: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, usage, unrecognized", [
        (("ledger", "--d", "5", "--budget", "1"), "usage: linecount ledger ",
         "--budget 1"),
        (("count", "--fixture", "quintic", "--X", "1", "--Y", "1",
          "--bogus"), "usage: linecount count ", "--bogus"),
        (("--bogus", "ledger", "--d", "5"), "usage: linecount [-h]",
         "--bogus"),
    ], ids=["ledger", "count", "root"])
    def test_unknown_flag_shows_its_parser_usage(self, capsys, argv, usage,
                                                 unrecognized):
        """A flag the subcommand does not take is reported with that
        subcommand's usage; one before the subcommand with the root's."""
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(usage)
        assert err.endswith(f"error: unrecognized arguments: {unrecognized}\n")

    def test_unknown_subcommand_is_usage(self, capsys):
        code, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_no_subcommand_is_usage(self, capsys):
        code, _ = run_cli(capsys)
        assert code == EXIT_USAGE

    def test_help_exits_clean(self, capsys):
        code, _ = run_cli(capsys, "--help")
        assert code == EXIT_OK

    def test_budget_overrun_is_resource(self, capsys):
        code, out = run_json(capsys, "count", "--fixture", "quintic",
                             "--X", "3", "--Y", "3", "--budget", "5")
        assert code == EXIT_RESOURCE
        assert out["error"]["type"] == "ResourceLimit"

    def test_unknown_fixture_is_validation(self, capsys):
        code, out = run_json(capsys, "count", "--fixture", "dodecahedron",
                             "--X", "1", "--Y", "1")
        assert code == EXIT_VALIDATION

    def test_missing_form_file_is_validation(self, capsys):
        code, out = run_json(capsys, "count", "--form", "/nonexistent.json",
                             "--X", "1", "--Y", "1")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("argv", [
        ("--fixture", "quadric-0", "--y", "1", "--X", "2"),
        ("--fixture", "random-3-0-1", "--y", "1", "--X", "2"),
        ("--fixture", "fermat-3-0", "--X", "2", "--Y", "2"),
    ], ids=["quadric", "random", "fermat"])
    def test_zero_variable_fixture_is_validation(self, capsys, argv):
        code, out = run_json(capsys, "count", *argv)
        assert code == EXIT_VALIDATION
        assert out["error"]["type"] == "ZeroForm"

    @pytest.mark.parametrize("argv", [
        ("predict", "--fixture", "quadric-5", "--y", "1,0,0,0,0",
         "--X", "-4", "--W", "2"),
        ("predict", "--fixture", "quadric-5", "--X", "-4", "--Y", "4",
         "--p-max", "3", "--epsilon", "0.5,0.5,0.5"),
        ("predict", "--fixture", "quadric-5", "--X", "4", "--Y", "0",
         "--p-max", "3", "--epsilon", "0.5,0.5,0.5"),
        ("density", "--fixture", "quadric-5", "--y", "1,0,0,0,0",
         "--oscillatory", "0.1", "--X", "-2", "--samples", "1000"),
    ], ids=["predict-fixed-y", "predict-pairs-X", "predict-pairs-Y",
            "oscillatory"])
    def test_nonpositive_box_is_validation(self, capsys, argv):
        code, out = run_json(capsys, *argv)
        assert code == EXIT_VALIDATION
        assert out["error"]["type"] == "DomainError"

    def test_conflicting_count_modes(self, capsys):
        code, out = run_json(capsys, "count", "--fixture", "quintic",
                             "--X", "1", "--Y", "1", "--y", "0,0,1,-1")
        assert code == EXIT_VALIDATION
        code, out = run_json(capsys, "count", "--fixture", "quintic",
                             "--X", "1")
        assert code == EXIT_VALIDATION


class TestCount:
    def test_fixed_y_matches_library(self, capsys):
        code, out = run_json(capsys, "count", "--fixture", "quintic",
                             "--X", "2", "--y", "0,0,1,-1")
        assert code == EXIT_OK
        assert out["total"] == count_fixed_y(fermat_quintic(), (0, 0, 1, -1), 2)

    def test_fixed_y_base_point_length_on_diagonal_form(self, capsys):
        code, out = run_json(capsys, "count", "--fixture", "quintic",
                             "--y", "0,0,1", "--X", "2")
        assert code == EXIT_VALIDATION
        assert out["error"] == {
            "type": "DimensionMismatch",
            "message": "base point has length 3, form has 4 variables"}

    @pytest.mark.parametrize("flag", [("--rho", "1"), ("--breakdown",),
                                      ("--exclude-proportional",),
                                      ("--csv",)])
    def test_fixed_y_rejects_pair_flags(self, capsys, flag):
        code, out = run_json(capsys, "count", "--fixture", "quadric-5",
                             "--y", "1,0,0,0,0", "--X", "2", *flag)
        assert code == EXIT_VALIDATION
        assert out["error"]["type"] == "DomainError"
        assert flag[0] in out["error"]["message"]

    @pytest.mark.parametrize("rho", ["-3", "0", "9"])
    def test_pair_rho_out_of_range(self, capsys, rho):
        code, out = run_json(capsys, "count", "--fixture", "quadric-5",
                             "--X", "1", "--Y", "1", "--rho", rho)
        assert code == EXIT_VALIDATION
        assert out["error"] == {"type": "DomainError",
                                "message": "rho must be in 1..5"}

    def test_pair_total_matches_library(self, capsys):
        code, out = run_json(capsys, "count", "--fixture", "fermat-3-3",
                             "--X", "2", "--Y", "1")
        report = count_pairs(fermat_form(3, 3), 2, 1)
        assert code == EXIT_OK
        assert out["total"] == report.total

    def test_pair_csv_needs_breakdown(self, capsys):
        code, out = run_json(capsys, "count", "--fixture", "quintic",
                             "--X", "1", "--Y", "1", "--csv")
        assert code == EXIT_VALIDATION
        assert out["error"]["type"] == "DomainError"
        assert "--breakdown" in out["error"]["message"]

    def test_csv_breakdown_projects_table(self, capsys):
        code, text = run_cli(capsys, "count", "--fixture", "fermat-3-3",
                             "--X", "1", "--Y", "1", "--breakdown", "--csv")
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == "y,count"
        _, out = run_json(capsys, "count", "--fixture", "fermat-3-3",
                          "--X", "1", "--Y", "1")
        assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) \
            == out["total"]


def dictwriter_csv(fieldnames, rows):
    """The CSV of ``rows`` (one tuple of cells per row) as
    ``csv.DictWriter`` renders it under ``fieldnames``, each cell through
    ``_jsonable``: the rendering that the direct text of ``_csv_count`` and
    ``_csv_ledger`` must reproduce byte for byte.  No rows print nothing."""
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames,
                            lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({name: _jsonable(cell)
                         for name, cell in zip(fieldnames, row)})
    return buffer.getvalue()


class TestBreakdownCsv:
    """The breakdown CSV is written straight to text, byte for byte as
    ``csv.DictWriter`` wrote it."""

    @pytest.mark.parametrize("fixture, form, rows", [
        ("fermat-3-4", fermat_form(4, 3), 330),
        ("fermat-2-3", fermat_form(3, 2), 0),  # no nonzero zeros
    ])
    def test_cli_matches_dictwriter(self, capsys, fixture, form, rows):
        code, text = run_cli(capsys, "count", "--fixture", fixture,
                             "--X", "2", "--Y", "5", "--breakdown", "--csv")
        per_y = count_pairs(form, 2, 5, breakdown=True).to_json()["per_y"]
        assert code == EXIT_OK and len(per_y) == rows
        assert text == dictwriter_csv(["y", "count"],
                                       sorted(per_y.items()))
        assert bool(text) == bool(rows)

    def test_counts_past_double_precision(self):
        """A count of 2^53 or more, which ``_jsonable`` turns into a
        string, prints the same digits."""
        per_y = {"1 -1 0": 2 ** 53, "-3 0 2": 2 ** 70 + 1, "0 0 1": 5}
        assert _csv_count({"per_y": per_y}) == dictwriter_csv(
            ["y", "count"], sorted(per_y.items()))
        assert _csv_count({"per_y": {}}) == ""


class TestLedgerCsv:
    """The ledger CSV is written straight to text, byte for byte as
    ``csv.DictWriter`` wrote it."""

    @pytest.mark.parametrize("flags", [
        ("--d", "5"),
        ("--d", "7", "--preset", "uniform-relaxed"),
    ])
    def test_cli_matches_dictwriter(self, capsys, flags):
        code, out = run_json(capsys, "ledger", *flags)
        assert code == EXIT_OK
        code, text = run_cli(capsys, "ledger", *flags, "--csv")
        assert code == EXIT_OK
        rows = [(name, entry["holds"], entry["slack"])
                for name, entry in sorted(out["conditions"].items())]
        assert text == dictwriter_csv(["condition", "holds", "slack"], rows)


class TestWorkers:
    """No subcommand takes --workers: every count runs in this process,
    and count refuses the flag with its own usage, in either mode."""

    @pytest.mark.parametrize("mode", [("--y", "1,0,0,0,0"), ("--Y", "1")])
    def test_count_rejects_more_workers_than_cpus(self, capsys, mode):
        code = main(["count", "--fixture", "quadric-5", "--X", "2", *mode,
                     "--workers", str((os.cpu_count() or 1) + 1)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("usage: linecount count ")

    def test_predict_takes_no_workers(self, capsys):
        code, _ = run_cli(capsys, "predict", "--fixture", "quadric-4",
                          "--X", "5", "--Y", "5", "--p-max", "3",
                          "--epsilon", "1,1,1", "--samples", "2048",
                          "--workers", "1")
        assert code == EXIT_USAGE

    def test_count_rejects_zero_workers(self, capsys):
        code, _ = run_cli(capsys, "count", "--fixture", "quadric-5",
                          "--X", "2", "--y", "1,0,0,0,0", "--workers", "0")
        assert code == EXIT_USAGE

    def test_one_worker_runs_without_a_pool(self, capsys):
        """Even --workers 1 is refused; without it the count runs."""
        argv = ("count", "--fixture", "quadric-5", "--X", "2",
                "--y", "1,0,0,0,0")
        code = main([*argv, "--workers", "1"])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("usage: linecount count ")
        assert err.endswith("error: unrecognized arguments: --workers 1\n")
        code, out = run_json(capsys, *argv)
        assert code == EXIT_OK
        assert out["total"] == count_fixed_y(diagonal_quadric(5),
                                             (1, 0, 0, 0, 0), 2)


class TestNonFiniteNumbers:
    """nan, infinities and literals beyond the double range are refused
    as usage errors, with the usage of the subcommand, like any other
    malformed vector; a zero denominator in a rational likewise."""

    @pytest.mark.parametrize("flag, command", [
        ("--window", ("density", "--fixture", "quadric-5",
                      "--y", "1,0,0,0,0", "--samples", "4096")),
        ("--oscillatory", ("density", "--fixture", "quintic",
                           "--y", "0,0,1,-1", "--samples", "4096")),
        ("--epsilon", ("predict", "--fixture", "quadric-4", "--X", "5",
                       "--Y", "5", "--p-max", "3", "--samples", "2048")),
    ])
    @pytest.mark.parametrize("bad", ["nan", "inf", "Infinity", "1e400",
                                     f"{10 ** 400}/1"])
    def test_float_vectors(self, capsys, flag, command, bad):
        width = 4 if flag == "--oscillatory" else 3
        value = ",".join([bad] + ["1/10"] * (width - 1))
        code = main([*command, flag, value])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith(f"usage: linecount {command[0]} ")
        assert f"error: argument {flag}: " in captured.err

    @pytest.mark.parametrize("command", [
        ("expsum", "--fixture", "quintic", "--y", "0,0,1,-1", "--P", "2"),
        ("arcs", "--fixture", "quintic", "--X", "10", "--witness", "2"),
    ])
    @pytest.mark.parametrize("bad", ["nan", "inf", "1e400", "2.5e308",
                                     "1/0"])
    def test_frequency_vectors(self, capsys, command, bad):
        code = main([*command, "--alpha", f"{bad},1/5,2/7,1/2"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith(f"usage: linecount {command[0]} ")
        assert "error: argument --alpha: " in captured.err

    def test_finite_values_still_parse(self, capsys):
        code, out = run_json(capsys, "density", "--fixture", "quadric-5",
                             "--y", "1,0,0,0,0", "--window", "1e-1,1/10",
                             "--samples", "4096")
        assert code == EXIT_OK
        assert out["epsilon"] == [0.1, 0.1]

    def test_zero_denominator_rational(self, capsys):
        code = main(["density", "--fixture", "quintic", "--y", "0,0,1,-1",
                     "--integral", "1/0"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert "error: argument --integral: " in captured.err


class TestExpsum:
    def test_zero_frequency_counts_box(self, capsys):
        code, out = run_json(capsys, "expsum", "--fixture", "quintic",
                             "--y", "0,0,1,-1", "--alpha", "0,0,0,0",
                             "--P", "1")
        assert code == EXIT_OK
        assert out["abs"] == pytest.approx(27)
        assert out["value"] == pytest.approx([27.0, 0.0])

    def test_rational_alpha_round_trips(self, capsys):
        code, out = run_json(capsys, "expsum", "--fixture", "quintic",
                             "--y", "0,0,1,-1", "--alpha", "1/3,0,0,1/2",
                             "--P", "2")
        assert code == EXIT_OK
        assert out["alpha"] == {"2": "1/3", "3": "0", "4": "0", "5": "1/2"}
        assert out["abs"] <= 125 + 1e-9

    def test_budget_overrun_is_resource(self, capsys):
        """P = 12 enumerates 15,625 lattice points."""
        code, out = run_json(capsys, "expsum", "--fixture", "quintic",
                             "--y", "0,0,1,-1", "--alpha", "1/3,1/5,2/7,1/2",
                             "--P", "12", "--budget", "100")
        assert code == EXIT_RESOURCE
        assert out["error"]["type"] == "ResourceLimit"


class TestArcs:
    def test_witness_accepts_zero_alpha(self, capsys):
        code, out = run_json(capsys, "arcs", "--fixture", "quintic",
                             "--alpha", "0,0,0,0", "--X", "10",
                             "--witness", "2")
        assert code == EXIT_OK
        assert out["member"] is True
        assert out["witness"]["q"] == 1

    def test_weyl_small_box(self, capsys):
        code, out = run_json(capsys, "arcs", "--fixture", "quintic",
                             "--y", "0,0,1,-1", "--alpha", "0,0,0,0",
                             "--X", "1", "--weyl", "1", "--trials", "2")
        assert code == EXIT_OK
        assert out["passed"] is True
        assert out["lattice_points"] == 27

    def test_weyl_negative_trials_refused(self, capsys):
        code, out = run_json(capsys, "arcs", "--fixture", "quintic",
                             "--y", "0,0,1,-1", "--alpha", "1/3,1/5,2/7,1/2",
                             "--X", "3", "--weyl", "1", "--trials", "-1")
        assert code == EXIT_VALIDATION
        assert out["error"]["type"] == "DomainError"
        assert "trials" in out["error"]["message"]

    def test_nested_with_explicit_profile(self, capsys):
        code, out = run_json(capsys, "arcs", "--fixture", "quintic",
                             "--y", "0,0,1,-1", "--alpha", "0,0,0,0",
                             "--X", "10", "--nested", "--n", "3410",
                             "--rho", "1", "--psi", "1/1250")
        assert code == EXIT_OK
        assert out["n"] == 3410
        assert "member" in out


class TestDensityCommand:
    def test_chi_p_fixed_y(self, capsys):
        code, out = run_json(capsys, "density", "--fixture", "quintic",
                             "--y", "0,0,1,-1", "--p", "2")
        assert code == EXIT_OK
        assert out["lattice"] == "8"

    def test_series_value(self, capsys):
        code, out = run_json(capsys, "density", "--fixture", "quintic",
                             "--y", "0,0,1,-1", "--series", "4")
        assert code == EXIT_OK
        expected = singular_series_truncated(fermat_quintic(), (0, 0, 1, -1), 4)
        assert out["estimate"]["value"] == "122" \
            and Fraction(out["estimate"]["value"]) == expected.value

    def test_monte_carlo_fields_travel_together(self, capsys):
        code, out = run_json(capsys, "density", "--fixture", "quadric-4",
                             "--window", "1,1,1", "--samples", "2048",
                             "--seed", "3")
        assert code == EXIT_OK
        estimate = out["estimate"]
        assert {"mean", "stderr", "samples", "seed"} <= set(estimate)
        assert estimate["seed"] == 3

    def test_oscillatory_mode(self, capsys):
        code, out = run_json(capsys, "density", "--fixture", "quintic",
                             "--y", "0,0,1,-1", "--oscillatory", "0,0,0,0",
                             "--samples", "2048")
        assert code == EXIT_OK
        mean = out["estimate"]["mean"]
        value = mean[0] if isinstance(mean, list) else mean
        assert value / math.sqrt(2) == pytest.approx(8, abs=0.2)

    def test_integral_output_does_not_depend_on_cpus(self, capsys,
                                                     monkeypatch):
        """The slab integral's scrambles run on one thread per usable CPU
        (up to 16); the output is byte-identical for one CPU and two."""
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, count=cpus: set(range(count)))
            runs.append(run_cli(capsys, "density", "--fixture", "quadric-5",
                                "--y", "1,0,0,0,0", "--integral", "16",
                                "--samples", "1048576"))
        assert runs[0] == runs[1] and runs[0][0] == EXIT_OK

    @pytest.mark.parametrize("budget,code", [(5869, EXIT_RESOURCE),
                                             (5870, EXIT_OK)])
    def test_chi_p_pairs_charge_boundary(self, capsys, budget, code):
        """The pencil of quadric-5 mod 7 is charged what its convolution
        forms, 5870."""
        status, out = run_json(capsys, "density", "--fixture", "quadric-5",
                               "--p", "7", "--budget", str(budget))
        assert status == code
        if code == EXIT_OK:
            assert out == {"mode": "chi-p-pairs", "p": 7, "H": 1,
                           "estimate": {"kind": "p-adic",
                                        "value": "2407/2401"}}

    def test_chi_p_pairs_split_octonary_quadric(self, capsys, tmp_path):
        path = tmp_path / "split8.json"
        path.write_text(json.dumps(form_to_json(split_quadric(4, 4))))
        status, out = run_json(capsys, "density", "--form", str(path),
                               "--p", "2", "--H", "3")
        assert status == EXIT_OK
        assert out["estimate"]["value"] == "791/256"

    def test_series_requires_base_point(self, capsys):
        code, out = run_json(capsys, "density", "--fixture", "quintic",
                             "--series", "4")
        assert code == EXIT_VALIDATION


class TestSampleBudget:
    """QMC modes charge their rounded sample total to --budget."""

    @pytest.mark.parametrize("budget,code", [("4095", EXIT_RESOURCE),
                                             ("4096", EXIT_OK)])
    def test_density_integral(self, capsys, budget, code):
        got, out = run_json(capsys, "density", "--fixture", "quadric-5",
                            "--y", "1,0,0,0,0", "--integral", "4",
                            "--samples", "4096", "--budget", budget)
        assert got == code
        if code == EXIT_RESOURCE:
            assert out["error"]["type"] == "ResourceLimit"
            assert out["error"]["message"] == (
                "the run needs at least 4096 QMC samples, more than the "
                "budget of 4095")
        else:
            assert out["estimate"]["samples"] == 4096

    @pytest.mark.parametrize("budget,code", [("4095", EXIT_RESOURCE),
                                             ("4096", EXIT_OK)])
    def test_predict_fixed_y(self, capsys, budget, code):
        got, out = run_json(capsys, "predict", "--fixture", "quadric-5",
                            "--y", "1,0,0,0,0", "--X", "5", "--W", "2",
                            "--samples", "4096", "--budget", budget)
        assert got == code

    @pytest.mark.parametrize("budget,code", [("4095", EXIT_RESOURCE),
                                             ("4096", EXIT_OK)])
    def test_predict_pairs(self, capsys, budget, code):
        got, out = run_json(capsys, "predict", "--fixture", "quadric-4",
                            "--X", "5", "--Y", "5", "--p-max", "1",
                            "--epsilon", "1,1,1", "--samples", "4096",
                            "--budget", budget)
        assert got == code

    @pytest.mark.parametrize("mode", [
        ("--y", "0,0,1,-1", "--oscillatory", "0,0,0,0"),
        ("--y", "0,0,1,-1", "--window", "1,1,1,1,1"),
        ("--window", "1,1,1,1,1,1"),
    ])
    def test_other_density_modes(self, capsys, mode):
        code, _ = run_json(capsys, "density", "--fixture", "quintic", *mode,
                           "--samples", "4096", "--budget", "4095")
        assert code == EXIT_RESOURCE


    @pytest.mark.parametrize("samples", ["0", "-5"])
    @pytest.mark.parametrize("command", [
        ("density", "--fixture", "quadric-5", "--y", "1,0,0,0,0",
         "--window", "0.1,0.1"),
        ("density", "--fixture", "quadric-4", "--window", "1,1,1"),
        ("predict", "--fixture", "quadric-5", "--X", "2", "--Y", "2",
         "--p-max", "3", "--epsilon", "0.5,0.5,0.5"),
    ])
    def test_non_positive_samples_are_refused(self, capsys, command,
                                              samples):
        """No estimate from 16 samples: the window and pair modes exit 2."""
        code, out = run_json(capsys, *command, "--samples", samples)
        assert code == EXIT_VALIDATION
        assert out["error"] == {
            "type": "DomainError",
            "message": f"need at least one QMC sample, got {samples}"}


class TestPredictCommand:
    def test_fixed_y_components(self, capsys):
        code, out = run_json(capsys, "predict", "--fixture", "quadric-5",
                             "--y", "1,0,0,0,0", "--X", "5", "--W", "4",
                             "--samples", "2048")
        assert code == EXIT_OK
        assert Fraction(out["main_term"]) > 0
        assert out["main_term_float"] == pytest.approx(
            float(Fraction(out["main_term"])))
        assert out["components"]["series"]["kind"] == "series"

    def test_pair_chi_p_matches_library(self, capsys, tmp_path):
        cache = str(tmp_path / "euler.json")
        code, out = run_json(capsys, "predict", "--fixture", "quadric-4",
                             "--X", "5", "--Y", "5", "--p-max", "3",
                             "--epsilon", "1,1,1", "--samples", "2048",
                             "--cache", cache)
        assert code == EXIT_OK
        table = out["components"]["chi_p"]
        for p in (2, 3):
            assert Fraction(table[str(p)]["value"]) \
                == chi_global_padic(diagonal_quadric(4), p, 1).value
        stored = json.load(open(cache))
        assert len(stored) == 2

    def test_malformed_cache_is_a_validation_error(self, capsys, tmp_path):
        cache = tmp_path / "euler.json"
        cache.write_text("[]")
        code, out = run_json(capsys, "predict", "--fixture", "quadric-4",
                             "--X", "5", "--Y", "5", "--p-max", "3",
                             "--epsilon", "1,1,1", "--samples", "2048",
                             "--cache", str(cache))
        assert code == EXIT_VALIDATION
        assert out["error"]["type"] == "ValueError"

    def test_pair_mode_needs_its_flags(self, capsys):
        code, out = run_json(capsys, "predict", "--fixture", "quadric-4",
                             "--X", "5")
        assert code == EXIT_VALIDATION


class TestLedgerCommand:
    def test_strict_preset_defaults_to_minimal_dimension(self, capsys):
        code, out = run_json(capsys, "ledger", "--d", "5",
                             "--psi", "1/1250")
        assert code == EXIT_OK
        assert out["all_hold"] is True
        assert out["n"] == 3410 and out["rho"] == 1

    def test_relaxed_preset_with_explicit_dimension(self, capsys):
        code, out = run_json(capsys, "ledger", "--d", "5",
                             "--psi", "1/1250", "--preset", "uniform-relaxed",
                             "--n", "3460", "--rho", "17")
        assert code == EXIT_OK
        assert out["all_hold"] is True

    def test_optional_sections(self, capsys):
        code, out = run_json(capsys, "ledger", "--d", "5",
                             "--psi", "1/1250", "--identities", "10",
                             "--thresholds")
        assert code == EXIT_OK
        assert out["identities"]["all_hold"] is True
        assert out["thresholds"]["closing_holds"] is True

    def test_csv_projection(self, capsys):
        code, text = run_cli(capsys, "ledger", "--d", "5",
                             "--psi", "1/1250", "--csv")
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == "condition,holds,slack"
        assert all(line.split(",")[1] == "True" for line in lines[1:])

    def test_minimal_dimension_is_minimal(self):
        n, _ = _minimal_admissible_n("uniform-strict", 5, 1,
                                     Fraction(1, 1250))
        assert n == 3410
        from linecount.exponents import preset_profile
        with pytest.raises(Exception):
            preset_profile("uniform-strict", 5, n - 1, 1, Fraction(1, 1250))

    @pytest.mark.parametrize("preset", ["uniform-strict",
                                        "uniform-relaxed"])
    @pytest.mark.parametrize("d", range(2, 9))
    def test_closed_form_matches_bisection(self, d, preset):
        """The closed-form minimal dimension equals the bisection over
        ``preset_profile`` (kept here as the oracle), or both find no
        admissible dimension, and the profile is the preset's there."""
        from linecount.exponents import preset_profile

        def admissible(n, rho, psi):
            try:
                preset_profile(preset, d, n, rho, psi)
            except LineCountError:
                return False
            return True

        def bisection(rho, psi):
            low = max(rho + 2, d * (d + 1) // 2 + 2)
            high = max(low, 64)
            while not admissible(high, rho, psi):
                high *= 2
                if high > 1 << 40:
                    return None
            while low < high:
                mid = (low + high) // 2
                if admissible(mid, rho, psi):
                    high = mid
                else:
                    low = mid + 1
            return high

        big = d * (d + 1) // 2
        for psi in (Fraction(1, 2 * d ** 4), Fraction(1, 3 * d ** 4 + 7),
                    Fraction(1, d ** 4), Fraction(2)):
            for rho in (0, 1, 3, big + 1, big + 2, big + 5):
                want = bisection(rho, psi)
                if want is None:
                    with pytest.raises(DomainError,
                                       match="no admissible dimension"):
                        _minimal_admissible_n(preset, d, rho, psi)
                    continue
                n, profile = _minimal_admissible_n(preset, d, rho, psi)
                assert n == want
                assert profile == preset_profile(preset, d, n, rho, psi)

    def test_bad_psi_is_validation(self, capsys):
        code, out = run_json(capsys, "ledger", "--d", "5", "--psi", "2/1",
                             "--n", "3410", "--rho", "1")
        assert code == EXIT_VALIDATION


class TestLatticeCommand:
    def test_reports_geometry(self, capsys):
        code, out = run_json(capsys, "lattice", "--fixture", "quintic",
                             "--y", "0,0,1,-1")
        assert code == EXIT_OK
        assert out["lattice"]["rank"] == 3
        assert out["lattice"]["covolume_sq"] == "2"
        assert out["gradient_content"] == 5
        assert out["hessian_corank"] == 2

    def test_write_emits_loadable_form(self, capsys, tmp_path):
        path = str(tmp_path / "emitted.json")
        code, out = run_json(capsys, "lattice", "--fixture", "quadric-4",
                             "--y", "1,0,0,0", "--write", path)
        assert code == EXIT_OK and out["written"] == path
        reloaded = load_form(path)
        assert form_to_json(reloaded) == form_to_json(diagonal_quadric(4))


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        code, out = run_json(capsys, "selftest")
        assert code == EXIT_OK
        assert out["failed"] == 0
        assert out["passed"] == len(out["checks"]) >= 7


class TestManifest:
    def test_replay_is_byte_identical(self, capsys, tmp_path):
        manifest_path = str(tmp_path / "run.json")
        code, first = run_cli(capsys, "density", "--fixture", "quintic",
                              "--y", "0,0,1,-1", "--integral", "1/100",
                              "--samples", "2048", "--seed", "5",
                              "--manifest-out", manifest_path)
        assert code == EXIT_OK
        manifest = RunManifest.from_file(manifest_path)
        assert manifest.command == "density"
        assert manifest.seeds == [5]
        assert manifest.tool_version
        assert manifest.outputs_digest \
            == hashlib.sha256(first.encode()).hexdigest()
        code, second = run_cli(capsys, "--from-manifest", manifest_path)
        assert code == EXIT_OK
        assert second == first

    def test_seed_past_double_precision(self, capsys, tmp_path):
        """The manifest renders like the output: a seed of 2^53 or more is
        a decimal string in ``seeds`` as in ``parameters``."""
        path = tmp_path / "run.json"
        seed = str(2 ** 53 + 1)
        code, _ = run_cli(capsys, "arcs", "--fixture", "quintic", "--alpha",
                          "0,0,0,0", "--X", "3", "--witness", "2", "--seed",
                          seed, "--manifest-out", str(path))
        assert code == EXIT_OK
        raw = json.loads(path.read_text())
        assert raw["seeds"] == [seed] and raw["parameters"]["seed"] == seed

    def test_replay_checks_the_digest(self, capsys, tmp_path):
        """A manifest whose digest differs in one hex digit from the
        replayed output's is refused with exit 2, naming both digests,
        and the output is not printed."""
        path = tmp_path / "run.json"
        code, first = run_cli(capsys, "count", "--fixture", "quintic",
                              "--X", "1", "--Y", "1",
                              "--manifest-out", str(path))
        assert code == EXIT_OK
        raw = json.loads(path.read_text())
        digest = raw["outputs_digest"]
        edited = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        path.write_text(json.dumps(dict(raw, outputs_digest=edited)))
        code, out = run_json(capsys, "--from-manifest", str(path))
        assert code == EXIT_VALIDATION
        assert out["error"]["type"] == "DigestMismatch"
        assert (out["error"]["recorded"], out["error"]["replayed"]) \
            == (edited, digest)
        assert edited in out["error"]["message"]
        assert digest in out["error"]["message"]
        assert "total" not in out

    def test_replay_writes_no_manifest(self, capsys, tmp_path):
        """The replayed argv still holds --manifest-out, yet a replay
        refused for its edited digest leaves the manifest's bytes as they
        were, so a second replay is refused again."""
        path = tmp_path / "run.json"
        run_cli(capsys, "count", "--fixture", "quintic", "--X", "1",
                "--Y", "1", "--manifest-out", str(path))
        raw = json.loads(path.read_text())
        assert "--manifest-out" in raw["argv"]
        digest = raw["outputs_digest"]
        edited = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        path.write_text(json.dumps(dict(raw, outputs_digest=edited)))
        before = path.read_bytes()
        for _ in range(2):
            code, out = run_json(capsys, "--from-manifest", str(path))
            assert code == EXIT_VALIDATION
            assert out["error"]["type"] == "DigestMismatch"
            assert path.read_bytes() == before

    def test_form_hash_pins_the_form(self, capsys, tmp_path, quintic_file):
        manifest_path = str(tmp_path / "run.json")
        run_cli(capsys, "count", "--form", quintic_file, "--X", "1",
                "--Y", "1", "--manifest-out", manifest_path)
        by_file = RunManifest.from_file(manifest_path)
        run_cli(capsys, "count", "--fixture", "quintic", "--X", "1",
                "--Y", "1", "--manifest-out", manifest_path)
        by_fixture = RunManifest.from_file(manifest_path)
        assert by_file.form_hash == by_fixture.form_hash

    def test_replay_of_missing_manifest(self, capsys):
        code, out = run_json(capsys, "--from-manifest", "/nonexistent.json")
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("manifest", [
        {"command": "count", "argv": ["--from-manifest", "SELF"]},
        {"command": "count", "argv": ["count", 5]},
        {"command": "count", "argv": "count --fixture quintic"},
        ["count", "--fixture", "quintic"],
    ])
    def test_replay_refuses_untrusted_argv(self, capsys, tmp_path, manifest):
        """A manifest that replays itself, is not an object or whose argv
        is not a list of strings is refused before anything runs."""
        path = tmp_path / "run.json"
        text = json.dumps(manifest).replace("SELF", str(path))
        path.write_text(text)
        code, out = run_json(capsys, "--from-manifest", str(path))
        assert code == EXIT_VALIDATION
        assert out["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("field, value", [
        ("parameters", 5), ("parameters", ["X", 1]), ("seeds", 7),
        ("seeds", {"seed": 7}), ("wall_time", [1.0]),
    ])
    def test_replay_refuses_malformed_fields(self, capsys, tmp_path, field,
                                             value):
        """A manifest field of the wrong JSON type is refused with exit 2
        and an error object, not a traceback."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "command": "count", field: value,
            "argv": ["count", "--fixture", "quintic", "--X", "1",
                     "--Y", "1"]}))
        code, out = run_json(capsys, "--from-manifest", str(path))
        assert code == EXIT_VALIDATION
        assert out["error"]["type"] == "ValueError"
        assert field in out["error"]["message"]

    def test_replay_usage(self, capsys):
        code = main(["--from-manifest"])
        capsys.readouterr()
        assert code == EXIT_USAGE


def parser_tree(parser):
    """The parser and every subparser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from parser_tree(sub)


def immutable(value):
    if isinstance(value, tuple):
        return all(immutable(v) for v in value)
    return value is None or isinstance(value, (bool, int, float, str))


class TestParserReuse:
    """``main`` builds its parser once per process and parses every call
    with it, which is safe while no parse can leave state in the parser."""

    def test_no_action_carries_state(self):
        parsers = list(parser_tree(build_parser()))
        assert len(parsers) == 9
        assert sum(len(parser._mutually_exclusive_groups)
                   for parser in parsers) == 8
        for parser in parsers:
            grouped = [action for group in parser._mutually_exclusive_groups
                       for action in group._group_actions]
            for action in parser._actions + grouped:
                where = (parser.prog, action.dest)
                assert immutable(action.default), where
                assert immutable(action.const), where
                # extend is a subclass of append
                assert not isinstance(action, (argparse._AppendAction,
                                               argparse._AppendConstAction)), \
                    where
            assert immutable(tuple(parser._defaults.values()))

    def test_repeated_calls_match_fresh_processes(self, capsys,
                                                  monkeypatch):
        """Each call's exit code and stdout equal those of the same
        command run first in a new interpreter."""
        monkeypatch.setenv("COLUMNS", "80")
        density = ["density", "--fixture", "quadric-5", "--y", "1,0,0,0,0",
                   "--integral", "4", "--samples", "4096"]
        sequence = [
            ["--help"],
            ["count", "--fixture", "quadric-5", "--Y", "2"],
            ["count", "--fixture", "quadric-5", "--X", "2", "--Y", "2",
             "--breakdown", "--csv"],
            ["count", "--fixture", "quadric-5", "--X", "2", "--Y", "2"],
            density + ["--seed", "3"],
            density,
        ]
        in_process = [run_cli(capsys, *argv) for argv in sequence]
        assert [code for code, _ in in_process] \
            == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK]
        assert in_process == [run_fresh(argv) for argv in sequence]
        assert build_parser() is build_parser()


#: A small run of each subcommand, other than selftest, that charges
#: --budget; each does more than one unit of work.
METERED = {
    "count": ("count", "--fixture", "quintic", "--y", "0,0,1,-1",
              "--X", "1"),
    "expsum": ("expsum", "--fixture", "quintic", "--y", "0,0,1,-1",
               "--alpha", "1/3,0,0,1/2", "--P", "1"),
    "arcs": ("arcs", "--fixture", "quintic", "--y", "0,0,1,-1",
             "--alpha", "0,0,0,0", "--X", "1", "--weyl", "1"),
    "density": ("density", "--fixture", "quintic", "--y", "0,0,1,-1",
                "--p", "2"),
    "predict": ("predict", "--fixture", "quadric-5", "--y", "1,0,0,0,0",
                "--X", "5", "--W", "2", "--samples", "4096"),
}


class TestBudgetFlag:
    """--budget is the one source of the work budget, and only the
    subcommands that charge it take it."""

    def test_only_metered_subcommands_take_a_budget(self):
        subparsers = list(parser_tree(build_parser()))[1:]
        flags = {sub.prog.split()[-1]: {action.dest
                                        for action in sub._actions}
                 for sub in subparsers}
        assert len(flags) == 8
        assert {name for name, dests in flags.items()
                if "budget" in dests} == set(METERED) | {"selftest"}
        assert all("manifest_out" in dests for dests in flags.values())

    @pytest.mark.parametrize("name", sorted(METERED))
    def test_a_unit_budget_refuses(self, capsys, name):
        code, out = run_json(capsys, *METERED[name], "--budget", "1")
        assert code == EXIT_RESOURCE
        assert out["error"]["type"] == "ResourceLimit"

    @pytest.mark.parametrize("argv", [
        ("ledger", "--d", "5"),
        ("lattice", "--fixture", "quintic", "--y", "0,0,1,-1"),
    ])
    def test_unmetered_subcommands_refuse_the_flag(self, capsys, argv):
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        assert run_cli(capsys, *argv, "--budget", "1")[0] == EXIT_USAGE

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_non_positive_budget_is_validation(self, capsys, budget):
        code, out = run_json(capsys, *METERED["count"], "--budget", budget)
        assert code == EXIT_VALIDATION
        assert out["error"] == {"type": "DomainError",
                                "message": "budget must be positive"}

    @pytest.mark.parametrize("argv, message", [
        (("expsum", "--fixture", "quintic", "--y", "0,0,1,-1", "--P", "12",
          "--alpha", "1/3,1/5,2/7,1/2", "--budget", "100"),
         "the run needs at least 15625 lattice points enumerated, more "
         "than the budget of 100"),
        (("arcs", "--fixture", "quintic", "--y", "0,0,1,-1",
          "--alpha", "1/3,1/5,2/7,1/2", "--weyl", "1", "--X", "3",
          "--budget", "100"),
         "the run needs at least 102 window cells summed, more than the "
         "budget of 100"),
        (("arcs", "--fixture", "quintic", "--y", "0,0,1,-1",
          "--alpha", "0.3,0.2,0.1,0.7", "--nested", "--X", "1000",
          "--budget", "5"),
         "the run needs at least 7 arc-search work units, more than the "
         "budget of 5"),
        (("arcs", "--fixture", "quintic", "--alpha", "0.30001,0.2,0.1,0.7",
          "--X", "1000000", "--witness", "300000", "--budget", "1"),
         "the run needs at least 2 denominators tried, more than the "
         "budget of 1"),
    ], ids=["expsum", "weyl", "nested", "witness"])
    def test_refusal_names_its_work(self, capsys, argv, message):
        code, out = run_json(capsys, *argv)
        assert code == EXIT_RESOURCE
        assert out["error"] == {"type": "ResourceLimit", "message": message}

    @pytest.mark.parametrize("x_bound, flags, recorded", [
        ("5", (), 10 ** 7),
        ("300", ("--budget", "1000000000"), 10 ** 9),
    ], ids=["default", "above-default"])
    def test_manifest_records_the_budget(self, capsys, tmp_path, x_bound,
                                         flags, recorded):
        """The manifest records the budget that ran, so a run charged more
        than the default (54,635,107 at X = 300) replays as recorded."""
        path = str(tmp_path / "run.json")
        code, first = run_cli(capsys, "count", "--fixture", "quadric-5",
                              "--y", "1,0,0,0,0", "--X", x_bound, *flags,
                              "--manifest-out", path)
        assert code == EXIT_OK
        assert RunManifest.from_file(path).parameters["budget"] == recorded
        assert run_cli(capsys, "--from-manifest", path) == (EXIT_OK, first)


class TestImports:
    @staticmethod
    def probe(code):
        probe = fresh_python(code)
        probe.check_returncode()
        return probe

    @staticmethod
    def loaded_after(argv, names):
        """The modules of ``names`` that a fresh interpreter holds after
        ``main(argv)`` exits 0."""
        probe = TestImports.probe(
            "import sys\n"
            "from linecount.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"print(sorted(set({names!r}) & set(sys.modules)), "
            "file=sys.stderr)")
        return probe.stderr.strip().splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["count", "--fixture", "quintic", "--y", "0,0,1,-1", "--X", "2"],
        ["count", "--fixture", "fermat-3-4", "--X", "1", "--Y", "1",
         "--breakdown", "--csv"],
        ["lattice", "--fixture", "quintic", "--y", "0,0,1,-1"],
    ], ids=["fixed-y", "pairs-csv", "lattice"])
    def test_count_and_lattice_load_only_their_layers(self, argv):
        """count and lattice run on forms, lattice and counting alone, so
        they load neither the prediction layers nor a process pool."""
        assert self.loaded_after(argv, [
            "mpmath", "linecount.density", "linecount.exponents",
            "linecount.expsums", "linecount.sobol",
            "multiprocessing"]) == "[]"

    def test_series_loads_no_exponential_sums(self):
        assert self.loaded_after(
            ["density", "--fixture", "fermat-3-7", "--y",
             "1,-1,0,0,0,0,0", "--series", "2"],
            ["mpmath", "linecount.expsums"]) == "[]"

    @pytest.mark.parametrize("argv, blocked", [
        (["density", "--fixture", "fermat-3-7", "--y", "1,-1,0,0,0,0,0",
          "--series", "2"], ["hashlib", "tempfile"]),
        (["predict", "--fixture", "quadric-5", "--y", "1,0,0,0,0", "--X",
          "4", "--W", "4", "--samples", "4096"], ["tempfile"]),
        (["predict", "--fixture", "quadric-5", "--X", "2", "--Y", "2",
          "--p-max", "3", "--epsilon", "0.5,0.5,0.5", "--samples", "4096"],
         ["tempfile"]),
    ], ids=["series", "predict-fixed-y", "predict-pairs"])
    def test_only_the_cache_imports_hashing_and_temp_files(self, argv,
                                                           blocked):
        """Only EulerCache (``predict --cache``) imports hashlib and
        tempfile, so a run without it succeeds when importing them fails.
        (A sampling run loads hashlib all the same: numpy.random seeds
        through ``secrets``.)  They are blocked rather than looked up in
        ``sys.modules``, since a site hook may load them at start-up."""
        probe = fresh_python(
            "import sys\n"
            f"sys.modules.update(dict.fromkeys({blocked!r}))\n"
            "from linecount.cli import main\n"
            "sys.exit(main(sys.argv[1:]))", *argv)
        assert probe.returncode == EXIT_OK, probe.stderr

    def test_selftest_imports_what_it_runs(self):
        probe = fresh_python("import sys\n"
                             "from linecount.cli import main\n"
                             "sys.exit(main(['selftest']))")
        assert probe.returncode == EXIT_OK
        assert json.loads(probe.stdout)["failed"] == 0

    def test_cli_import_leaves_out_scipy_stats(self):
        """scipy.stats takes most of the start-up time, so importing the
        CLI must not load it."""
        probe = self.probe("import sys, linecount.cli; "
                           "print('scipy.stats' in sys.modules)")
        assert probe.stdout.strip() == "False"

    @pytest.mark.parametrize("argv", [
        ["density", "--fixture", "quadric-5", "--y", "1,0,0,0,0",
         "--integral", "4", "--samples", "4096"],
        ["density", "--fixture", "quadric-5", "--y", "1,0,0,0,0",
         "--window", "0.5,0.5", "--samples", "4096"],
        ["arcs", "--fixture", "quintic", "--y", "0,0,1,-1",
         "--alpha", "1/3,1/5,2/7,1/2", "--weyl", "1", "--X", "2"],
    ], ids=["integral", "window", "weyl"])
    def test_sampling_leaves_out_scipy_stats(self, argv):
        """The QMC samplers draw their Sobol' points in numpy, so a
        sampling run never loads scipy.stats either."""
        probe = self.probe(
            "import sys\n"
            "from linecount.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'scipy.stats' in sys.modules, file=sys.stderr)")
        assert probe.stderr.strip().splitlines()[-1] == "0 False"
