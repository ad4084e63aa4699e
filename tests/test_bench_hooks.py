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


def test_condition_mask_is_one_bool_per_row(tracing):
    """The tracer adds ``result.size`` of ``counting._condition_mask`` to
    its candidates and ``result.sum()`` to its hits, so the helper returns
    one bool per row of its chunk, over Z and mod m.  The residue scans of
    ``density`` call the same function, so the tracer observes them too."""
    from linecount import counting, density
    from linecount.fixtures import QUINTIC_BASE_POINT, fermat_quintic
    from linecount.forms import evaluate_form, grid_chunks, nonzero_slices

    assert "counting._condition_mask" in tracing.OBSERVED_PRIVATE
    assert density._condition_mask is counting._condition_mask
    slices = [sliced for _, sliced in
              nonzero_slices(fermat_quintic(), QUINTIC_BASE_POINT)]
    chunk = next(grid_chunks([-2] * 4, [2] * 4))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        masks = {None: counting._condition_mask(slices, chunk),
                 5: density._condition_mask(slices, chunk, 5)}
    for modulus, mask in masks.items():
        assert mask.dtype == bool and mask.shape == (chunk.shape[0],)
        assert mask.tolist() == [
            all(evaluate_form(p, row) % (modulus or 2 ** 64) == 0
                for p in slices) for row in chunk.tolist()]
    assert 0 < masks[None].sum() < masks[5].sum()
    assert tracer.counters["candidates"] == 2 * chunk.shape[0]
    assert tracer.counters["hits"] == sum(int(m.sum()) for m in masks.values())
