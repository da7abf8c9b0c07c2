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
* :mod:`repro.eval.experiments` — Table 3 and Figures 5/7/8/9 drivers;
* :mod:`repro.eval.missrates` — Figure 6 (trace-driven TLB miss rates);
* :mod:`repro.eval.sensitivity` — ablation sweeps of the design knobs;
* :mod:`repro.eval.export` — CSV/JSON serialization of results;
* :mod:`repro.eval.report` — ASCII tables matching the paper's layout.

The evaluation *service* (:mod:`repro.serve`) plugs in here too:
``ServeClient``, ``run_remote``, ``server_info`` and
``shutdown_server`` are re-exported lazily, and
``run_many(requests, EvalOptions(server=addr))`` transparently submits
the grid to a running ``python -m repro.serve`` daemon.

Run ``python -m repro.eval <experiment> [--jobs N] [--no-cache]
[--server [ADDR]]`` to regenerate one experiment (``table3``,
``figure5`` ... ``figure9``), or ``python -m repro.eval scorecard`` to
evaluate every encoded paper claim (:mod:`repro.eval.claims`) against
fresh simulations.
"""

from repro.eval.experiments import (
    ExperimentSpec,
    EXPERIMENTS,
    run_figure,
    run_table3,
)
from repro.eval.artifacts import ArtifactStore
from repro.eval.missrates import run_figure6
from repro.eval.options import EvalOptions, add_eval_args, default_server_address
from repro.eval.parallel import ProgressError, run_many
from repro.eval.resultstore import ResultStore, code_fingerprint
from repro.eval.runner import RunRequest, RunResult, run_one, simulate
from repro.eval.weighting import normalized_rtw_average

#: The serve-side names re-exported lazily (importing them eagerly
#: would pull asyncio machinery into every worker process).
_SERVE_EXPORTS = ("ServeClient", "run_remote", "server_info", "shutdown_server")

__all__ = [
    "ArtifactStore",
    "EXPERIMENTS",
    "EvalOptions",
    "ExperimentSpec",
    "ProgressError",
    "ResultStore",
    "RunRequest",
    "RunResult",
    "ServeClient",
    "add_eval_args",
    "code_fingerprint",
    "default_server_address",
    "normalized_rtw_average",
    "run_figure",
    "run_figure6",
    "run_many",
    "run_one",
    "run_remote",
    "run_table3",
    "server_info",
    "shutdown_server",
    "simulate",
]


def __getattr__(name: str):
    if name in _SERVE_EXPORTS:
        import repro.serve.client as _client

        return getattr(_client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
