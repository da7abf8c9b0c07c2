"""Shared evaluation knobs: one definition of the store/parallelism CLI.

Every entry point that evaluates :class:`~repro.eval.runner.RunRequest`
grids — ``python -m repro``, ``python -m repro.eval``, and the
``python -m repro.serve`` daemon — takes the same knobs: worker count,
result store, artifact store, and (for clients) a running evaluation
server.  This module defines them exactly once:

* :func:`add_eval_args` installs the shared argparse flags
  (``--jobs``, ``--no-cache``, ``--store``, ``--artifacts``,
  ``--server``) on any parser, and :func:`int_at_least`,
  :func:`int_in_range`, :func:`page_size`, :func:`design_name`,
  :func:`workload_name` and :func:`comma_list` are the argparse types
  that reject a bad budget, worker count, register budget, page size,
  design or workload at parse time;
* :class:`EvalOptions` is the resolved parameter object — the one way
  :func:`repro.eval.parallel.run_many`, the experiment drivers and the
  ablation sweeps take their engine settings;
* :meth:`EvalOptions.from_args` performs the resolution, with one
  precedence rule for every consumer: **explicit flag > environment
  variable > built-in default** (``$REPRO_RESULT_STORE`` /
  ``$REPRO_ARTIFACT_STORE`` / ``$REPRO_SERVE_ADDR``).
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Any, Callable

#: Environment variable naming the default evaluation-server address.
SERVER_ENV = "REPRO_SERVE_ADDR"

#: Built-in default address of ``python -m repro.serve`` (a unix socket
#: under the per-user cache directory, next to the default stores).
DEFAULT_SERVER_ADDRESS = "unix:~/.cache/repro/serve.sock"


def default_server_address() -> str:
    """Resolve the default server address (env var > built-in)."""
    return os.environ.get(SERVER_ENV) or DEFAULT_SERVER_ADDRESS


@dataclass
class EvalOptions:
    """Resolved evaluation knobs, shared by every grid-running API.

    Pass one of these to :func:`repro.eval.parallel.run_many` (or any
    experiment driver, the scorecard or an ablation sweep) as
    ``options``:

    >>> run_many(grid, EvalOptions(jobs=4, store=ResultStore()))

    ``server`` switches execution to a running ``repro.serve`` daemon:
    the batch is submitted over the socket and results stream back
    (``jobs``/``store``/``artifacts`` then belong to the daemon, not
    the client; a ``profiler`` cannot cross the service boundary).
    """

    #: Worker processes; ``None`` = one per CPU, ``<=1`` = inline.
    jobs: "int | None" = 1
    #: repro.eval.resultstore.ResultStore, or None to always simulate.
    store: Any = None
    #: repro.eval.artifacts.ArtifactStore (or path), or None.
    artifacts: Any = None
    #: Per-finished-request callback (one display line per call).
    progress: "Callable[[str], None] | None" = None
    #: repro.perf.SimProfiler accumulated over the batch (forces inline).
    profiler: Any = None
    #: Address of a running ``python -m repro.serve`` daemon, or None.
    server: "str | None" = None

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "EvalOptions":
        """Resolve parsed :func:`add_eval_args` flags into options.

        Precedence for each store root: the flag's value if given, else
        the environment variable, else the built-in default under
        ``~/.cache/repro`` (the stores themselves implement the env/
        default fallback; this method only decides *whether* a store is
        attached).  Missing attributes are treated as "flag not
        installed", so any subset of :func:`add_eval_args` works.
        """
        jobs = getattr(args, "jobs", 1)
        if jobs is not None and jobs <= 0:
            jobs = None  # 0 = one worker per CPU

        server = getattr(args, "server", None)
        if server is not None:
            server = server or default_server_address()

        store = None
        if not getattr(args, "no_cache", False) and hasattr(args, "store"):
            from repro.eval.resultstore import ResultStore

            store = ResultStore(args.store)

        artifacts = None
        if getattr(args, "artifacts", None) is not None:
            from repro.eval.artifacts import ArtifactStore

            artifacts = ArtifactStore(args.artifacts or None)

        if server is not None:
            # A thin client leaves caching to the daemon.
            store = artifacts = None
        return cls(jobs=jobs, store=store, artifacts=artifacts, server=server)


#: The register allocator's integer budget: ``--regs`` and ``--int-regs``.
REGS_RANGE = (4, 32)


def int_at_least(low: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid int value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {value}")
        return value

    parse.__name__ = "int"
    return parse


def int_in_range(low: int, high: int) -> Callable[[str], int]:
    """An argparse ``type``: an integer in ``[low, high]``."""

    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in [{low}, {high}]: {value}")
        return value

    parse.__name__ = "int"
    return parse


def page_size(text: str) -> int:
    """An argparse ``type``: a page size in bytes, a power of two."""
    value = int(text)
    if value <= 0 or value & (value - 1):
        raise argparse.ArgumentTypeError(f"must be a power of two: {value}")
    return value


def design_name(text: str) -> str:
    """An argparse ``type``: a design mnemonic, checked as ``RunRequest`` does."""
    from repro.tlb.factory import design_spec

    try:
        design_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def workload_name(text: str) -> str:
    """An argparse ``type``: a registered workload or an ingested-trace token."""
    from repro.ingest.build import is_trace_workload
    from repro.workloads import iter_workload_names

    known = list(iter_workload_names())
    if text not in known and not is_trace_workload(text):
        raise argparse.ArgumentTypeError(
            f"unknown workload {text!r}; known: {', '.join(known)}"
        )
    return text


def comma_list(item: Callable[[str], str]) -> Callable[[str], "list[str]"]:
    """An argparse ``type``: comma-separated values, each checked by ``item``."""

    def parse(text: str) -> "list[str]":
        return [item(part) for part in text.split(",")]

    return parse


def add_eval_args(
    parser: argparse.ArgumentParser,
    *,
    jobs: bool = True,
    cache: bool = True,
    artifacts: bool = True,
    server: bool = False,
) -> argparse.ArgumentParser:
    """Install the shared evaluation flags on ``parser``.

    Each flag group is optional so single-run commands can take only
    what applies to them; :meth:`EvalOptions.from_args` copes with any
    subset.  Returns ``parser`` for chaining.
    """
    if jobs:
        parser.add_argument(
            "--jobs",
            type=int_at_least(0),
            default=1,
            help="worker processes for the run grid (default 1 = serial; "
            "0 = one per CPU)",
        )
    if cache:
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="bypass the on-disk result store (always simulate)",
        )
        parser.add_argument(
            "--store",
            default=None,
            metavar="DIR",
            help="result-store directory (default: $REPRO_RESULT_STORE or "
            "~/.cache/repro/runstore)",
        )
    if artifacts:
        parser.add_argument(
            "--artifacts",
            nargs="?",
            const="",
            default=None,
            metavar="DIR",
            help="cache build artifacts (program/trace/fetch plan) in DIR so "
            "workers hydrate instead of rebuilding (no DIR: "
            "$REPRO_ARTIFACT_STORE or ~/.cache/repro/artifacts)",
        )
    if server:
        parser.add_argument(
            "--server",
            nargs="?",
            const="",
            default=None,
            metavar="ADDR",
            help="submit the grid to a running `python -m repro.serve` "
            "daemon instead of simulating locally (no ADDR: "
            f"$REPRO_SERVE_ADDR or {DEFAULT_SERVER_ADDRESS})",
        )
    return parser
