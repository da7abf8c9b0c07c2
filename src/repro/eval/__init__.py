"""Evaluation harness: regenerates every table and figure of Section 4.

This package's ``__init__`` is the **stable facade**: everything an
experiment script needs is importable from ``repro.eval`` directly, and
``__all__`` below is the compatibility surface — the submodule layout
may shift underneath it.

* :mod:`repro.eval.runner` — the canonical :class:`RunRequest` /
  :class:`RunResult` pair and single-run execution with build caching;
* :mod:`repro.eval.parallel` — :func:`run_many`: grids scheduled at
  request granularity across worker processes, longest runs first;
* :mod:`repro.eval.options` — :class:`EvalOptions`, the parameter
  object every grid API takes, and the shared CLI flags
  (:func:`add_eval_args`);
* :mod:`repro.eval.resultstore` — content-addressed on-disk memoization
  of finished runs (request hash + code fingerprint);
* :mod:`repro.eval.artifacts` — content-addressed on-disk cache of the
  design-independent build products (program, trace, fetch plan) that
  worker processes hydrate instead of rebuilding;
* :mod:`repro.eval.weighting` — run-time-weighted averaging (the paper's
  aggregation: IPCs weighted by each benchmark's T4 run time, normalized
  to T4);
* :mod:`repro.eval.sensitivity` — :func:`run_variants`, the one grid
  driver (labelled variants x workloads, RTW-normalized to the first
  label), and the ablation sweeps of the design knobs built on it;
* :mod:`repro.eval.experiments` — Table 3 and Figures 5/7/8/9, presets
  of :func:`run_variants`;
* :mod:`repro.eval.missrates` — Figure 6 (trace-driven TLB miss rates);
* :mod:`repro.eval.report` — ASCII tables matching the paper's layout.

The evaluation *service* (:mod:`repro.serve`) plugs in here too:
``ServeClient``, ``run_remote``, ``server_info`` and
``shutdown_server`` are re-exported from :mod:`repro.serve.client`, and
``run_many(requests, EvalOptions(server=addr))`` transparently submits
the grid to a running ``python -m repro.serve`` daemon.

Every re-export is lazy: ``_EXPORTS`` maps each public name to its
defining module, which is imported on first access (PEP 562).  So
``import repro.eval`` plus :func:`code_fingerprint` loads no simulator
code, and a worker process never pulls in the serve client's asyncio
machinery.  (The CLIs, the daemon and its workers still import the
runner, and with it the engine, before a store answers.)

Run ``python -m repro.eval <experiment> [--jobs N] [--no-cache]
[--server [ADDR]]`` to regenerate one experiment (``table3``,
``figure5`` ... ``figure9``), or ``python -m repro.eval scorecard`` to
take every encoded paper claim's margin (:mod:`repro.eval.claims`) on
the Figure 5, 7 and 9 grids at their committed budget.
"""

from repro import _lazy_exports

#: Public name -> the module that defines it, imported on first access.
_EXPORTS = {
    "ArtifactStore": "repro.eval.artifacts",
    "EXPERIMENTS": "repro.eval.experiments",
    "EvalOptions": "repro.eval.options",
    "ExperimentSpec": "repro.eval.experiments",
    "ProgressError": "repro.eval.parallel",
    "ResultStore": "repro.eval.resultstore",
    "RunRequest": "repro.eval.runner",
    "RunResult": "repro.eval.runner",
    "ServeClient": "repro.serve.client",
    "add_eval_args": "repro.eval.options",
    "code_fingerprint": "repro.eval.resultstore",
    "default_server_address": "repro.eval.options",
    "run_figure": "repro.eval.experiments",
    "run_figure6": "repro.eval.missrates",
    "run_many": "repro.eval.parallel",
    "run_one": "repro.eval.runner",
    "run_remote": "repro.serve.client",
    "run_table3": "repro.eval.experiments",
    "run_variants": "repro.eval.sensitivity",
    "server_info": "repro.serve.client",
    "shutdown_server": "repro.serve.client",
    "simulate": "repro.eval.runner",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
