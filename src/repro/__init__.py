"""repro — reproduction of Austin & Sohi, "High-Bandwidth Address
Translation for Multiple-Issue Processors" (ISCA 1996).

Quick start::

    from repro import (
        ArtifactStore, EvalOptions, ResultStore, RunRequest, run_many, run_one,
    )

    result = run_one(RunRequest(workload="xlisp", design="M8"))
    print(result.ipc, result.stats.translation.shielded_fraction)

    # A whole grid: scheduled request-by-request across 4 worker
    # processes (longest runs first), memoized in the on-disk result
    # store, and sharing build artifacts (trace + fetch plan) through
    # the on-disk artifact cache, so re-running it is pure cache hits.
    grid = [
        RunRequest(workload=w, design=d)
        for w in ("xlisp", "compress")
        for d in ("T4", "M8", "PB2")
    ]
    opts = EvalOptions(jobs=4, store=ResultStore(), artifacts=ArtifactStore())
    results = run_many(grid, opts)
    print({r.name: round(r.ipc, 3) for r in results})

    # Or point the same call at a running `python -m repro.serve`
    # daemon (see docs/serving.md) — results are bit-identical:
    results = run_many(grid, EvalOptions(server="unix:/tmp/serve.sock"))

Packages
--------
``repro.isa``        mini MIPS-like ISA, program builder, register allocator
``repro.mem``        paged sparse memory, address-space layout
``repro.func``       functional simulator (dynamic instruction stream)
``repro.branch``     GAp branch predictor and friends
``repro.caches``     set-associative caches, MSHRs
``repro.tlb``        the paper's address-translation designs (Table 2)
``repro.engine``     cycle-level 8-way in-order/out-of-order machine
``repro.workloads``  the ten synthetic benchmarks
``repro.eval``       experiment drivers for every table and figure
``repro.serve``      long-running evaluation daemon over the stores
"""

import importlib

__version__ = "1.1.0"

#: Public name -> the module that defines it.  Resolved on first
#: attribute access (PEP 562), so ``import repro`` loads no simulator
#: code until a name is used.
_EXPORTS = {
    "ArtifactStore": "repro.eval.artifacts",
    "DESIGN_MNEMONICS": "repro.tlb",
    "EvalOptions": "repro.eval.options",
    "Machine": "repro.engine",
    "MachineConfig": "repro.engine",
    "ResultStore": "repro.eval.resultstore",
    "RunRequest": "repro.eval.runner",
    "RunResult": "repro.eval.runner",
    "SimulationResult": "repro.engine",
    "iter_workload_names": "repro.workloads",
    "make_mechanism": "repro.tlb",
    "make_workload": "repro.workloads",
    "run_many": "repro.eval.parallel",
    "run_one": "repro.eval.runner",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def _lazy_exports(namespace: dict, exports: dict[str, str]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a facade module.

    ``namespace`` is the facade's ``globals()``; ``exports`` maps each
    public name to its defining module, imported on first access and
    cached in ``namespace``.  ``repro`` and ``repro.eval`` both use it.
    """

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted({*namespace, *namespace["__all__"]})

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
