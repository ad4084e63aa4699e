"""Tests of the benchmark itself: seeded inputs, output gates and tracing.

Run from the root of the repository::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(REPO, "src"))

import jobs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from tracing import Span  # noqa: E402


def _evaluate(monomials, point):
    return sum(c * math.prod(v ** e for v, e in zip(point, exponent))
               for exponent, c in monomials.items())


@pytest.mark.parametrize("seed", range(6))
def test_relabelled_form_at_pulled_point_matches_original(seed):
    rng = random.Random(seed)
    for name, (_, coefficients) in jobs.FORMS.items():
        n = len(coefficients)
        relabel = jobs.Relabel.draw(rng, n)
        assert sorted(relabel.perm) == list(range(n))
        original = jobs.diagonal_monomials(name)
        moved = relabel.monomials(original)
        for _ in range(5):
            y = tuple(rng.randint(-6, 6) for _ in range(n))
            assert relabel.apply(relabel.pull(y)) == y
            assert _evaluate(moved, relabel.pull(y)) == _evaluate(original, y)


def test_inputs_depend_only_on_the_seed(tmp_path):
    first = jobs.Inputs.write(7, str(tmp_path / "a"))
    again = jobs.Inputs.write(7, str(tmp_path / "b"))
    other = jobs.Inputs.write(8, str(tmp_path / "c"))
    assert first.relabels == again.relabels
    assert first.qmc_seed == again.qmc_seed
    for name in jobs.FORMS:
        with open(first.form_files[name]) as a, \
                open(again.form_files[name]) as b:
            assert a.read() == b.read()
    assert (first.relabels, first.qmc_seed) != (other.relabels, other.qmc_seed)


def _run(job, inputs):
    import io
    import contextlib
    from linecount import cli
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(job.command(inputs, shrink=True))
    assert code == 0, buffer.getvalue()
    return job.read(buffer.getvalue(), inputs)


@pytest.mark.parametrize(
    "job", [job for workload in jobs.WORKLOADS.values() for job in workload],
    ids=lambda job: job.name)
def test_two_seeds_give_identical_exact_outputs_on_shrunken_jobs(job,
                                                                 tmp_path):
    one = jobs.Inputs.write(1, str(tmp_path / "one"))
    two = jobs.Inputs.write(2, str(tmp_path / "two"))
    if job.form:
        assert one.relabels[job.form] != two.relabels[job.form]
    exact_one, sampled_one = _run(job, one)
    exact_two, sampled_two = _run(job, two)
    assert exact_one == exact_two
    for key, (mean, err) in sampled_one.items():
        other, other_err = sampled_two[key]
        assert abs(mean - other) <= jobs.QMC_SIGMAS * math.hypot(err,
                                                                 other_err)


def test_check_rejects_a_changed_count(tmp_path):
    inputs = jobs.Inputs.write(3, str(tmp_path))
    job = jobs.FIBER[2]
    good = json.dumps({"mode": "fixed-y", "X": 28, "total": 3249})
    job.check(good, inputs)
    with pytest.raises(jobs.Mismatch):
        job.check(good.replace("3249", "3248"), inputs)
    with pytest.raises(jobs.Mismatch):
        job.check("not json", inputs)


def test_check_rejects_a_far_qmc_mean(tmp_path):
    inputs = jobs.Inputs.write(3, str(tmp_path))
    job = next(j for j in jobs.CIRCLE if j.name == "window-quadric")
    ref_mean, ref_err = job.qmc["mean"]

    def output(mean):
        return json.dumps({"mode": "window", "estimate": {
            "kind": "real", "mean": mean, "stderr": ref_err,
            "samples": 4194304, "seed": 0}})

    job.check(output(ref_mean + 3 * ref_err), inputs)
    for far in (ref_mean + 10 * ref_err, float("nan")):
        with pytest.raises(jobs.Mismatch):
            job.check(output(far), inputs)


def test_self_times_subtract_direct_children_only():
    spans = [
        Span("cli.main", 0, -1, 0.0, 10.0, busy=10.0),
        Span("counting.count_fixed_y", 0, 0, 1.0, 9.0, busy=8.0),
        # a generator: busy is the sum of its next() calls, not end - start
        Span("lattice.enumerate_points", 0, 1, 2.0, 8.5, busy=3.0),
        Span("lattice.box_profile", 0, 2, 2.0, 2.5, busy=0.5),
        Span("forms.evaluate_batch", 0, 1, 3.0, 4.0, busy=1.0),
    ]
    assert tracing.self_times(spans) == [2.0, 4.0, 2.5, 0.5, 1.0]
    assert sum(tracing.self_times(spans)) == spans[0].busy


def test_same_module_helpers_count_toward_their_named_caller():
    spans = [
        Span("counting.count_pairs", 0, -1, 0.0, 6.0, busy=6.0),
        Span("lattice.reduce_basis", 0, 0, 1.0, 3.0, busy=2.0),
        Span("lattice.lll_reduce", 0, 1, 1.0, 2.5, busy=1.5),
        Span("lattice.kernel_lattice", 0, 0, 3.0, 3.5, busy=0.5),
    ]
    tracer = tracing.Tracer()
    tracer.spans = spans
    values = tracing.pass_metrics(tracer, lambda lattice, x: 0)
    assert values["lattice.reduce_basis.self_s"] == 2.0
    assert values["lattice.self_s"] == 2.5
    assert values["counting.count_pairs.self_s"] == 3.5
    assert values["lattice.reduce_basis.calls"] == 1


def test_generator_spans_cover_next_calls_and_leave_the_consumer_alone():
    tracer = tracing.Tracer()

    def leaf(x):
        return x

    traced_leaf = tracer.wrap("forms.leaf", leaf)

    def points(lattice, bound):
        for i in range(bound):
            yield traced_leaf(i)

    def consume(n):
        return [traced_leaf(p) for p in traced_points(None, n)]

    traced_points = tracer.wrap("lattice.enumerate_points", points)
    traced_consume = tracer.wrap("counting.consume", consume)
    assert traced_consume(3) == [0, 1, 2]
    names = [s.name for s in tracer.spans]
    assert names.count("forms.leaf") == 6
    generator = names.index("lattice.enumerate_points")
    consumer = names.index("counting.consume")
    assert tracer.spans[generator].parent == consumer
    assert tracer.spans[generator].items == 3
    parents = [s.parent for s in tracer.spans if s.name == "forms.leaf"]
    assert parents.count(generator) == 3 and parents.count(consumer) == 3
    assert all(t >= 0 for t in tracing.self_times(tracer.spans))
    assert tracer.enumerations == [(None, 3)]


def test_installed_rebinds_names_imported_by_other_modules_and_restores():
    from linecount import cli, counting, density, expsums, forms, lattice
    original = forms.evaluate_batch
    enumerate_points = lattice.enumerate_points
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        wrapped = forms.evaluate_batch
        assert wrapped is not original
        assert counting.evaluate_batch is wrapped
        assert density.evaluate_batch is wrapped
        assert expsums.enumerate_points is lattice.enumerate_points
        assert counting.enumerate_points is not enumerate_points
        assert cli.count_fixed_y is counting.count_fixed_y
    assert forms.evaluate_batch is original
    assert counting.evaluate_batch is original
    assert counting.enumerate_points is enumerate_points


def test_traced_counts_repeat_between_passes(tmp_path):
    import run
    from linecount import cli
    inputs = jobs.Inputs.write(5, str(tmp_path))
    runner = run.Runner(cli, "pairs", inputs)
    clock = speed.Clock(sample=False)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            for job in runner.jobs:
                assert runner.run(job, clock, shrink=True)[2] is not None
        values = tracing.pass_metrics(tracer, run.box_points)
        counts.append({k: v for k, v in values.items()
                       if dict(tracing.PER_LAYER)[k] in ("count", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["counting.base_points"] > 0
    assert counts[0]["lattice.enumerate_points.points"] > 0


def test_benchmark_file_names_the_reported_metrics():
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb"}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.PER_LAYER)


def test_clock_divides_by_the_mean_loop_time_around_each_interval(
        monkeypatch):
    loops = iter([2, 2, 4])
    monkeypatch.setattr(speed, "reference_loop",
                        lambda: next(loops) * speed.REFERENCE_SECONDS)
    clock = speed.Clock(sample=False)
    assert clock.time(lambda: "out")[2] == "out"   # loops at half speed
    monkeypatch.setattr(time, "perf_counter", iter([0.0, 6.0]).__next__)
    assert clock.time(lambda: None)[:2] == (6.0, 2.0)  # mean of 2x and 4x


def test_sampled_loops_are_removed_from_raw_time_and_averaged():
    clock = speed.Clock(sample=True)

    def busy():
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass

    raw, calibrated, _ = clock.time(busy)
    assert 0.3 < raw < 0.35 - 0.5 * speed.REFERENCE_SECONDS  # 3 samples
    assert calibrated > 0


def test_generator_blocks_count_as_their_rows():
    import numpy as np
    tracer = tracing.Tracer()

    def blocks(lattice, x_bound):
        yield np.zeros((4, 3))
        yield (1, 2, 3)

    assert len(list(tracer.wrap("lattice.enumerate_points", blocks)(
        lattice="L", x_bound=2))) == 2
    assert tracer.spans[0].items == 5
    assert tracer.enumerations == [("L", 2)]
