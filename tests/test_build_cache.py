"""The build cache keeps traces, not workload memory images.

Replay reads a program, its dynamic trace and a fetch plan; the
initialized memory image is needed only during functional capture.
These tests pin that contract: nothing the cache retains is an image or
a whole workload build, the memory a Table-3 sweep leaves behind stays
small, and capturing a fresh image in place yields the same trace as
capturing a clone of it or hydrating it from the artifact store.
"""

import gc
import tracemalloc
import types

import pytest

from repro.check.diff import _record_fields
from repro.eval.artifacts import ArtifactStore
from repro.eval.experiments import run_table3
from repro.eval.options import EvalOptions
from repro.eval.runner import _CACHE, _BuildCache, clear_build_cache
from repro.func.executor import capture_trace
from repro.mem.memory import SparseMemory
from repro.workloads import iter_workload_names, make_workload
from repro.workloads.base import WorkloadBuild

WORKLOADS = sorted(iter_workload_names())
BUDGET = 2_000
#: Bytes a Table-3 sweep over all ten workloads, with and without an
#: artifact store, may leave allocated.  The cache retains about 1.8 MB
#: (four 2,000-instruction traces, their programs and plans); when it
#: also kept the workload builds it retained about 44 MB.
RETAINED_BOUND = 8_000_000

#: Objects whose referents lead out of the cache into the interpreter.
_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
)


def _reachable(root):
    """Every object reachable from ``root``, not crossing into code."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def test_table3_sweep_retains_no_images(tmp_path):
    clear_build_cache()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for options in (EvalOptions(artifacts=ArtifactStore(tmp_path)), EvalOptions()):
            run_table3(WORKLOADS, max_instructions=BUDGET, options=options)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _CACHE.traces, "the sweep should leave warm traces behind"
    held = [
        type(obj).__name__
        for obj in _reachable(_CACHE)
        if isinstance(obj, (SparseMemory, WorkloadBuild))
    ]
    assert not held, f"the build cache retains {held}"
    assert retained < RETAINED_BOUND, f"sweep retained {retained / 1e6:.1f} MB"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_in_place_capture_is_bit_identical(workload, tmp_path):
    axes = (workload, 32, 32, 1.0, BUDGET)
    build = make_workload(workload).build()
    reference = capture_trace(build.program, build.memory.clone(), BUDGET)

    store = ArtifactStore(tmp_path)
    captured = _BuildCache(artifacts=store).get_trace(*axes)
    hydrated = _BuildCache(artifacts=store).get_trace(*axes)
    assert store.stats.hits == 1

    expected = [_record_fields(d) for d in reference]
    assert [_record_fields(d) for d in captured] == expected
    assert [_record_fields(d) for d in hydrated] == expected
