"""Spans around the calls into each linecount module, and their self times.

The tracer wraps every public function of the working modules and rebinds
the wrapper wherever the function is reachable as a module attribute, so
calls made through ``from .forms import evaluate_batch`` in another module
are seen as well.  Nothing inside the program changes.

Each call records a span: name, job id, parent span, start, end and busy
time.  For the one public generator, ``lattice.enumerate_points``, busy time
is the sum over its ``next()`` calls, and calls the consumer makes between
items belong to the consumer.  A span's self time is its busy time minus
the busy time of its direct children.

Two private helpers of ``counting`` are observed without a span, to count
base points and condition hits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

#: Modules that do work; ``errors`` and ``fixtures`` do none.
LAYERS = ("forms", "lattice", "counting", "expsums", "density", "exponents",
          "cli")

#: The QMC estimators of ``density``.
QMC_FUNCTIONS = ("density.oscillatory_v",
                 "density.singular_integral_truncated",
                 "density.real_density_window", "density.chi_global_real")

#: Private helpers observed for their counts only.
OBSERVED_PRIVATE = ("counting._pairs_at_base_point",
                    "counting._condition_mask")

#: Every per-layer metric with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("forms.evaluate_batch.calls", "count"),
    ("forms.evaluate_batch.rows", "count"),
    ("forms.evaluate_batch.object_rows", "count"),
    ("forms.evaluate_batch.self_s", "s"),
    ("forms.integer_slice_form.calls", "count"),
    ("forms.integer_slice_form.self_s", "s"),
    ("forms.self_s", "s"),
    ("lattice.enumerate_points.calls", "count"),
    ("lattice.enumerate_points.points", "count"),
    ("lattice.enumerate_points.box_points", "count"),
    ("lattice.enumerate_points.yield_ratio", "ratio"),
    ("lattice.enumerate_points.self_s", "s"),
    ("lattice.reduce_basis.calls", "count"),
    ("lattice.reduce_basis.self_s", "s"),
    ("lattice.box_profile.calls", "count"),
    ("lattice.box_profile.self_s", "s"),
    ("lattice.self_s", "s"),
    ("counting.count_fixed_y.self_s", "s"),
    ("counting.count_pairs.self_s", "s"),
    ("counting.hessian_corank.self_s", "s"),
    ("counting.base_points", "count"),
    ("counting.primitive_directions", "count"),
    ("counting.hit_ratio", "ratio"),
    ("counting.self_s", "s"),
    ("expsums.exponential_sum_T.calls", "count"),
    ("expsums.exponential_sum_T.points", "count"),
    ("expsums.exponential_sum_T.self_s", "s"),
    ("expsums.weyl_inequality_check.self_s", "s"),
    ("expsums.self_s", "s"),
    ("density.lattice_congruence_count.calls", "count"),
    ("density.lattice_congruence_count.self_s", "s"),
    ("density.count_congruence_solutions.calls", "count"),
    ("density.count_congruence_solutions.self_s", "s"),
    ("density.chi_global_padic.calls", "count"),
    ("density.chi_global_padic.self_s", "s"),
    ("density.qmc.samples", "count"),
    ("density.qmc.self_s", "s"),
    ("density.self_s", "s"),
    ("exponents.calls", "count"),
    ("exponents.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)


@dataclass
class Span:
    name: str
    job: int
    parent: int
    start: float
    end: float = 0.0
    busy: float = 0.0
    items: int = 0

    def to_json(self) -> list:
        return [self.name, self.job, self.parent, self.start, self.end,
                self.busy, self.items]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Busy time of each span minus the busy time of its direct children."""
    out = [span.busy for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.busy
    return out


class Tracer:
    """Spans and counters of the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self.job = 0
        self.enumerations: list = []  # (lattice, x_bound) per enumeration
        self.base_points: List[Tuple[int, ...]] = []
        self._stack: List[int] = []

    def _new(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.job, parent, time.perf_counter()))
        return len(self.spans) - 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            index = self._new(name)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span = self.spans[index]
                span.end = time.perf_counter()
                span.busy = span.end - span.start
            if observe is not None:
                observe(self, args, result)
            return result
        return call

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def generate(*args, **kwargs):
            self.enumerations.append(
                (args[0] if args else kwargs["lattice"],
                 args[1] if len(args) > 1 else kwargs["x_bound"]))
            index = self._new(name)
            span = self.spans[index]
            inner = fn(*args, **kwargs)
            try:
                while True:
                    self._stack.append(index)
                    started = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        span.busy += time.perf_counter() - started
                        self._stack.pop()
                    # a block of points counts as its rows
                    span.items += len(item) if getattr(item, "ndim", 1) == 2 \
                        else 1
                    yield item
            finally:
                inner.close()
                span.end = time.perf_counter()
        return generate

    def observe_only(self, name: str, fn: Callable) -> Callable:
        """Wrapper that updates counters but records no span."""
        observe = _OBSERVERS[name]

        @functools.wraps(fn)
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(self, args, result)
            return result
        return call


def _evaluate_batch(tracer: Tracer, args, result) -> None:
    tracer.counters["rows"] += len(result)
    if result.dtype == object:
        tracer.counters["object_rows"] += len(result)


def _qmc(tracer: Tracer, args, result) -> None:
    tracer.counters["qmc_samples"] += result.samples


def _base_point(tracer: Tracer, args, result) -> None:
    tracer.base_points.append(tuple(int(v) for v in args[1]))


def _condition_mask(tracer: Tracer, args, result) -> None:
    tracer.counters["candidates"] += int(result.size)
    tracer.counters["hits"] += int(result.sum())


_OBSERVERS = {
    "forms.evaluate_batch": _evaluate_batch,
    "counting.count_fixed_y": _base_point,
    "counting._pairs_at_base_point": _base_point,
    "counting._condition_mask": _condition_mask,
    **{name: _qmc for name in QMC_FUNCTIONS},
}


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Route every call into the layers through ``tracer`` for the block."""
    modules = {layer: importlib.import_module(f"linecount.{layer}")
               for layer in LAYERS}
    wrappers: Dict[int, Tuple[Callable, Callable]] = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == module.__name__):
                wrappers[id(value)] = (value,
                                       tracer.wrap(f"{layer}.{attr}", value))
    for name in OBSERVED_PRIVATE:
        layer, attr = name.split(".")
        value = getattr(modules[layer], attr)
        wrappers[id(value)] = (value, tracer.observe_only(name, value))
    rebound = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "linecount" and \
                not module_name.startswith("linecount."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
                rebound.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in rebound:
            setattr(module, attr, value)


def _primitive_direction(y: Sequence[int]) -> Tuple[int, ...]:
    """The primitive vector of the line through y, signed so that its first
    nonzero entry is positive."""
    g = 0
    for v in y:
        g = math.gcd(g, v)
    direction = tuple(v // g for v in y)
    first = next(v for v in direction if v)
    return direction if first > 0 else tuple(-v for v in direction)


#: Functions with a metric of their own (``density.qmc`` is a group).
NAMED = frozenset({name.rsplit(".", 1)[0] for name, _ in PER_LAYER
                   if name.count(".") == 2} - {"density.qmc"}
                  | set(QMC_FUNCTIONS))


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _owner(spans: Sequence[Span], span: Span) -> str:
    """The function a span's self time is reported under: its own name, or
    that of the nearest caller in the same module with a metric of its own
    (``lll_reduce`` counts toward ``reduce_basis``, ``dual_basis`` toward
    ``box_profile``)."""
    current = span
    while current.name not in NAMED and current.parent >= 0:
        parent = spans[current.parent]
        if _layer(parent.name) != _layer(current.name):
            break
        current = parent
    return current.name if current.name in NAMED else span.name


def pass_metrics(tracer: Tracer,
                 box_points: Callable[[object, int], int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (``trace.overhead_s`` aside).

    ``box_points(lattice, x_bound)`` gives the size of the coefficient box
    an enumeration scans; it is called after the pass, outside the spans.
    """
    calls: Counter = Counter()
    own: Dict[str, float] = defaultdict(float)
    spans = tracer.spans
    for span, seconds in zip(spans, self_times(spans)):
        calls[span.name] += 1
        own[_owner(spans, span)] += seconds
        own[_layer(span.name)] += seconds
    enumerations = [s for s in tracer.spans
                    if s.name == "lattice.enumerate_points"]
    points = sum(s.items for s in enumerations)
    expsum_points = sum(
        s.items for s in enumerations
        if s.parent >= 0
        and tracer.spans[s.parent].name == "expsums.exponential_sum_T")
    boxes = sum(box_points(lattice, x) for lattice, x in tracer.enumerations)
    counters = tracer.counters
    values: Dict[str, float] = {
        "forms.evaluate_batch.rows": counters["rows"],
        "forms.evaluate_batch.object_rows": counters["object_rows"],
        "lattice.enumerate_points.points": points,
        "lattice.enumerate_points.box_points": boxes,
        "lattice.enumerate_points.yield_ratio": (points / boxes
                                                 if boxes else 0.0),
        "counting.base_points": len(tracer.base_points),
        "counting.primitive_directions": len(
            {_primitive_direction(y) for y in tracer.base_points}),
        "counting.hit_ratio": (counters["hits"] / counters["candidates"]
                               if counters["candidates"] else 0.0),
        "expsums.exponential_sum_T.points": expsum_points,
        "density.qmc.samples": counters["qmc_samples"],
        "density.qmc.self_s": sum(own[name] for name in QMC_FUNCTIONS),
        "exponents.calls": sum(c for name, c in calls.items()
                               if name.startswith("exponents.")),
        "cli.main.self_s": own["cli"],
        "cli.output_bytes": counters["output_bytes"],
    }
    for metric, _ in PER_LAYER:
        if metric in values or metric == "trace.overhead_s":
            continue
        name, kind = metric.rsplit(".", 1)
        values[metric] = calls[name] if kind == "calls" else own[name]
    return values
