"""The private helpers the bench tracer hooks still exist.

``bench/tracing.py`` observes a few private functions of ``linecount`` by
name; renaming one breaks only traced bench runs.  The tracer is
stdlib-only, so it is loaded here by path, without the bench's
dependencies, and only read.
"""

import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing(request):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while it executes
    sys.modules[spec.name] = module
    request.addfinalizer(lambda: sys.modules.pop(spec.name, None))
    # and bench/ gets no cached bytecode
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def resolve(name):
    layer, attr = name.split(".")
    return getattr(importlib.import_module(f"linecount.{layer}"), attr)


def test_observed_privates_resolve(tracing):
    assert tracing.OBSERVED_PRIVATE
    for name in tracing.OBSERVED_PRIVATE:
        assert inspect.isfunction(resolve(name)), name


def test_base_point_is_parameter_one(tracing):
    """The tracer reads the base point as positional argument 1 of the
    public fixed-y count and of the private per-leader count."""
    assert "counting._pairs_at_base_point" in tracing.OBSERVED_PRIVATE
    for name in ("counting.count_fixed_y", "counting._pairs_at_base_point"):
        parameters = list(inspect.signature(resolve(name)).parameters)
        assert parameters[1] == "y", name
