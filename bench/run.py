"""Run one workload of the linecount benchmark and print its metrics.

From the root of a checkout (the program is imported from ``src/``)::

    python3 bench/run.py --workload fiber --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs the workload's jobs back to back (a closed loop), each one a
``linecount`` command line passed to ``linecount.cli.main`` in this process.
Whole passes over the jobs repeat while the next one is expected to end
within ``--seconds``.  Every output is checked against its reference.

With ``--trace 0`` the last line reports ``wall_s`` (median pass time),
``setup_s`` (median of several timed set-ups, each a fresh interpreter that
imports linecount, writes the seeded inputs and warms up) and
``peak_rss_mb`` (this process).  Times are calibrated to a reference
machine speed by ``speed.py``; the raw medians are printed above them.
With ``--trace 1`` untraced and traced passes alternate, and the last line
reports the per-layer metrics of ``tracing.PER_LAYER``; the spans are
written to ``.bench_run/``.
``--workload all`` runs each workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import jobs as joblist  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

#: One BLAS thread: the machine has two shared cores and one client runs.
#: Set before numpy is first imported; set-up processes inherit it.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

SETUP_REPEATS = 3
RUN_DIR = ".bench_run"
SOURCE = os.path.join("src", "linecount")


def import_program():
    """Import linecount from this checkout's ``src``, never from elsewhere."""
    source = os.path.abspath("src")
    sys.path.insert(0, source)
    import linecount.cli
    if not os.path.abspath(linecount.__file__).startswith(source + os.sep):
        raise ImportError(f"linecount came from {linecount.__file__}")
    return linecount.cli


def stamp() -> dict:
    import mpmath
    import numpy
    import scipy
    sha, dirty = "unknown", None
    if os.path.isdir(".git"):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], text=True,
                capture_output=True, timeout=60).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain"], text=True,
                capture_output=True, timeout=60).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "cpu_model": model,
            "loadavg": list(os.getloadavg())}


class Runner:
    """Runs jobs in-process and checks their outputs."""

    def __init__(self, cli, workload: str, inputs: joblist.Inputs) -> None:
        self.cli = cli
        self.jobs = joblist.WORKLOADS[workload]
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0

    def run(self, job: joblist.Job, clock: speed.Clock,
            shrink: bool = False):
        """Run one job; returns (raw seconds, calibrated seconds, output
        text or None when the job failed to run)."""
        argv = job.command(self.inputs, shrink=shrink)
        buffer = io.StringIO()

        def call():
            try:
                with contextlib.redirect_stdout(buffer):
                    return self.cli.main(argv)
            except Exception as exc:  # one crashing job must not stop the run
                return f"{type(exc).__name__}: {exc}"

        raw, calibrated, code = clock.time(call)
        if code != 0:
            print(f"{job.name}: exit {code}: {buffer.getvalue()[:300]}",
                  file=sys.stderr)
            return raw, calibrated, None
        return raw, calibrated, buffer.getvalue()

    def warm_up(self) -> None:
        clock = speed.Clock(sample=False)
        for job in self.jobs:
            self.run(job, clock, shrink=True)

    def one_pass(self, tracer: Optional[tracing.Tracer] = None,
                 sample: bool = True) -> Tuple[float, float]:
        """Run every job once; returns the summed job wall time, raw and in
        reference-speed seconds.  ``sample`` runs the reference loop during
        each job as well as around it."""
        raw = calibrated = 0.0
        clock = speed.Clock(sample)
        for index, job in enumerate(self.jobs):
            if tracer is not None:
                tracer.job = index
            job_raw, job_calibrated, text = self.run(job, clock)
            raw += job_raw
            calibrated += job_calibrated
            self.attempted += 1
            try:
                if text is None:
                    raise joblist.Mismatch(f"{job.name}: no output")
                job.check(text, self.inputs)
            except joblist.Mismatch as exc:
                self.failed += 1
                print(f"FAILED {exc}", file=sys.stderr)
                continue
            if tracer is not None:
                tracer.counters["output_bytes"] += len(text.encode())
        return raw, calibrated

    def passes(self, seconds: float, traced: bool = False):
        """Repeat rounds while the next is expected to end within
        ``seconds``; returns the untraced and traced (raw, calibrated) pass
        times and the tracers.

        A round is one untraced pass and, with ``traced``, one traced pass
        after it, so that both see the same machine speed.  With ``traced``
        no pass samples the reference loop during its jobs, which keeps the
        samples out of the spans, and a first untraced pass, slower than the
        rest, is left out of the comparison.
        """
        untraced: List[Tuple[float, float]] = []
        walls: List[Tuple[float, float]] = []
        tracers: List[tracing.Tracer] = []
        rounds: List[float] = []
        started = time.perf_counter()
        if traced:
            self.one_pass(sample=False)
        while True:
            round_started = time.perf_counter()
            untraced.append(self.one_pass(sample=not traced))
            if traced:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    walls.append(self.one_pass(tracer, sample=False))
                tracers.append(tracer)
            now = time.perf_counter()
            rounds.append(now - round_started)
            if now - started + statistics.median(rounds) > seconds:
                return untraced, walls, tracers


def set_up(cli, workload: str, seed: int, directory: str) -> Runner:
    runner = Runner(cli, workload, joblist.Inputs.write(seed, directory))
    runner.warm_up()
    return runner


def timed_setups(workload: str, seed: int) -> List[Tuple[float, float]]:
    """Wall times, raw and calibrated, of fresh interpreters that only set
    up."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", workload, "--seed", str(seed)]
    times = []
    clock = speed.Clock(sample=False)
    for _ in range(SETUP_REPEATS):
        raw, calibrated, done = clock.time(lambda: subprocess.run(
            command, stdout=subprocess.DEVNULL, timeout=170))
        if done.returncode != 0:
            raise RuntimeError(f"set-up exited with {done.returncode}")
        times.append((raw, calibrated))
    return times


def box_points(lattice, x_bound: int) -> int:
    from linecount.lattice import box_profile
    return box_profile(lattice, x_bound).cardinality


def layer_report(untraced: Sequence[Tuple[float, float]],
                 traced: Sequence[Tuple[float, float]],
                 tracers: Sequence[tracing.Tracer]) -> Dict[str, float]:
    """Counts of the first traced pass; times are medians over passes."""
    per_pass = [tracing.pass_metrics(t, box_points) for t in tracers]
    report = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if unit == "s":
            report[name] = statistics.median(p[name] for p in per_pass)
        else:
            report[name] = per_pass[0][name]
    report["trace.overhead_s"] = (median(traced, 1) - median(untraced, 1))
    return report


def median(pairs: Sequence[Tuple[float, float]], index: int) -> float:
    return statistics.median(pair[index] for pair in pairs)


def write_spans(path: str, info: dict,
                tracers: Sequence[tracing.Tracer]) -> None:
    columns = ["name", "job", "parent", "start", "end", "busy", "items"]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"info": info, "columns": columns,
                   "passes": [[s.to_json() for s in t.spans]
                              for t in tracers]}, handle)


def run_workload(args) -> int:
    started_info = stamp()
    setups = [] if args.trace else timed_setups(args.workload, args.seed)
    directory = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        runner = set_up(import_program(), args.workload, args.seed,
                        directory)
        untraced, traced, tracers = runner.passes(args.seconds,
                                                  traced=bool(args.trace))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"stamp {json.dumps(started_info, sort_keys=True)}")
    if args.trace:
        values = layer_report(untraced, traced, tracers)
        units = dict(tracing.PER_LAYER)
        info = dict(started_info, workload=args.workload, seed=args.seed)
        path = os.path.join(RUN_DIR,
                            f"trace-{args.workload}-seed{args.seed}.json")
        write_spans(path, info, tracers)
        print(f"spans of {len(tracers)} traced passes in {path}")
    else:
        values = {"wall_s": median(untraced, 1),
                  "setup_s": median(setups, 1),
                  "peak_rss_mb": peak_mb}
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        for label, times in (("passes", untraced), ("set-ups", setups)):
            print(f"{label} {len(times)}, raw/calibrated s: "
                  + " ".join(f"{r:.3f}/{c:.3f}" for r, c in times))
        print(f"  {'wall_s, raw':44s} {median(untraced, 0):14.6g} s")
        print(f"  {'setup_s, raw':44s} {median(setups, 0):14.6g} s")
    for name, value in values.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':44s} {runner.failed / runner.attempted:14.6g} "
          f"({runner.failed} of {runner.attempted} jobs failed)")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, then one table."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in joblist.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*joblist.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.update(SINGLE_THREAD)
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"no {SOURCE} here: run from the root of a linecount checkout",
              file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        directory = tempfile.mkdtemp(prefix="setup-", dir=RUN_DIR)
        try:
            set_up(import_program(), args.workload, args.seed, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
