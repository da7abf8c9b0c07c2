"""Parallel evaluation engine: fan a run grid out across processes.

:func:`run_many` is the batch counterpart of
:func:`repro.eval.runner.run_one`.  It takes any iterable of
:class:`~repro.eval.runner.RunRequest` and returns the matching
:class:`~repro.eval.runner.RunResult` list *in input order*, after:

1. answering every request it can from the result store (if given);
2. deduplicating identical requests (one simulation, many receivers);
3. when an artifact store is given, making sure every needed build
   artifact (program + trace + fetch plan, see
   :mod:`repro.eval.artifacts`) exists on disk — missing ones are
   captured in parallel, one task per workload build;
4. dispatching the remaining requests at *request* granularity:
   longest-estimated-first, in small single-build chunks, so ``jobs=N``
   yields ~N-way occupancy even when the whole grid shares one workload
   (the paper's 13-design grids) or is heavily skewed.

Scheduling at request granularity is what the artifact cache buys:
workers hydrate the design-independent work (trace capture, fetch-plan
probing) from disk via their per-process
:class:`~repro.eval.runner._BuildCache` instead of redoing it, so
splitting a workload's designs across workers no longer multiplies the
build cost.  Without an artifact store the same scheduling applies and
each worker builds at most once per workload (chunks never mix builds).

Simulations are deterministic (every RNG in the machine is seeded), so
a parallel grid is bit-identical to a serial one — only wall-clock
changes.  Worker processes never touch the result store; the parent
persists results and reports ``progress`` per finished request as
chunks complete, which keeps store writes single-writer per invocation
while remaining safe across concurrent invocations (writes are atomic).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Iterable

from repro.engine.frontend import fetch_config_key
from repro.eval.options import EvalOptions
from repro.eval.runner import (
    RunRequest,
    RunResult,
    configure_artifacts,
    simulate,
)

#: Largest number of requests bundled into one worker task.  Small
#: chunks keep the tail balanced and progress fine-grained; the
#: per-task cost they amortize (result pickling, queue round-trip) is
#: tiny next to a simulation.
_MAX_CHUNK = 4

#: Task oversubscription factor: aim for about this many chunks per
#: worker so early-finishing workers always find queued work.
_CHUNKS_PER_JOB = 4


def _estimate(req: RunRequest) -> float:
    """Relative host-cost estimate of one run (longest-first ordering).

    The dominant cost driver is the dynamic instruction budget; the
    issue model is a useful secondary signal (in-order runs drain the
    window more slowly per instruction).
    """
    weight = 1.25 if req.issue_model == "inorder" else 1.0
    return req.max_instructions * weight


def _schedule_chunks(rest: list[RunRequest], jobs: int) -> list[list[RunRequest]]:
    """Split ``rest`` into small, single-build, longest-first chunks.

    Chunks never mix workload builds (a worker hydrates/builds once per
    chunk), requests inside a build are ordered longest-estimate-first,
    and the chunk list itself is ordered by descending estimated cost so
    the pool starts the heaviest work first.  Deterministic for a given
    input order.
    """
    if not rest:
        return []
    size = max(1, min(_MAX_CHUNK, math.ceil(len(rest) / (jobs * _CHUNKS_PER_JOB))))
    groups: dict[tuple, list[RunRequest]] = {}
    for req in rest:
        groups.setdefault(req.build_axes, []).append(req)
    chunks: list[list[RunRequest]] = []
    for group in groups.values():
        ordered = sorted(group, key=_estimate, reverse=True)
        chunks.extend(ordered[i : i + size] for i in range(0, len(ordered), size))
    chunks.sort(key=lambda chunk: sum(_estimate(r) for r in chunk), reverse=True)
    return chunks


# -- worker entry points ------------------------------------------------------


def _exit_with_parent(sentinel: int) -> None:
    """Block until the parent process dies, then end this worker."""
    wait_ready([sentinel])
    os._exit(1)


def _init_worker(artifact_root: "str | None") -> None:
    """Pool initializer: die with the parent, attach the artifact store.

    A pool worker idles on its call queue, which a parent killed by
    SIGKILL never closes; the watch thread ends the worker as soon as
    the parent's sentinel reports its death.
    """
    threading.Thread(
        target=_exit_with_parent,
        args=(multiprocessing.parent_process().sentinel,),
        daemon=True,
    ).start()
    if artifact_root is not None:
        from repro.eval.artifacts import ArtifactStore

        configure_artifacts(ArtifactStore(artifact_root))


def _capture_build(reps: list[RunRequest]) -> None:
    """Capture one workload build's artifacts (trace + fetch plans).

    ``reps`` holds one representative request per distinct frontend
    configuration of a single build; materializing their traces/plans
    through the worker's artifact-attached build cache persists every
    missing artifact as a side effect.
    """
    from repro.eval.runner import _CACHE

    for req in reps:
        trace = _CACHE.get_trace(*req.build_axes)
        _CACHE.get_fetch_plan(req, req.machine_config(), trace)


def _run_chunk(reqs: list[RunRequest]) -> list[RunResult]:
    """Worker entry point: simulate one chunk serially."""
    return [simulate(r) for r in reqs]


# -- driver -------------------------------------------------------------------


class ProgressError(RuntimeError):
    """A client-supplied ``progress`` callback raised during a batch.

    The batch itself was *not* abandoned: every queued request still ran
    (or was answered from the store), fresh results were persisted, and
    the completed result list is attached as :attr:`results` (entries
    are ``None`` only for requests that had not finished for unrelated
    reasons).  The callback's original exception is chained as
    ``__cause__``.
    """

    def __init__(self, results: "list[RunResult | None]"):
        super().__init__(
            "progress callback raised; the batch still completed — "
            "results attached as .results"
        )
        self.results = results


class _ProgressGuard:
    """Shields the batch from a raising progress callback.

    The first exception disables further reporting and is re-raised —
    wrapped in :class:`ProgressError` with the results attached — only
    after every queued request has been driven to completion.
    """

    def __init__(self, callback: "Callable[[str], None] | None"):
        self.callback = callback
        self.error: "BaseException | None" = None

    def __call__(self, message: str) -> None:
        if self.callback is None or self.error is not None:
            return
        try:
            self.callback(message)
        except Exception as exc:
            self.error = exc

    def finish(self, results: "list[RunResult | None]") -> "list[RunResult | None]":
        if self.error is not None:
            raise ProgressError(results) from self.error
        return results


def run_many(
    requests: Iterable[RunRequest], options: EvalOptions | None = None
) -> list[RunResult]:
    """Run a batch of requests, parallel and memoized; results in order.

    All knobs travel in one :class:`~repro.eval.options.EvalOptions`
    parameter object (``None`` means the defaults: inline, no stores):

    ``options.jobs``
        Worker processes.  ``<= 1`` runs inline in this process (still
        grouped by workload for trace reuse); ``None`` means one per
        CPU.  Scheduling is per *request*, so a single-workload grid
        still fills all ``jobs`` workers.
    ``options.store``
        A :class:`repro.eval.resultstore.ResultStore` (or None).  Hits
        skip simulation entirely; fresh results are persisted.
    ``options.progress``
        Optional callback receiving one line per finished/cached run,
        emitted as workers complete each request.  A callback that
        raises cannot abandon the batch: the remaining work still runs
        (and is persisted), then :class:`ProgressError` is raised with
        the results attached.
    ``options.profiler``
        Optional :class:`repro.perf.SimProfiler` accumulated across the
        whole batch.  Profiling forces the batch inline (timings cannot
        cross process boundaries) and bypasses store reads (a cache hit
        has no host time to measure); results are still persisted.
    ``options.artifacts``
        A :class:`repro.eval.artifacts.ArtifactStore`, a directory path
        for one, or None.  When given, the parent first makes sure every
        needed build artifact exists (capturing missing ones in
        parallel, one task per build) and workers hydrate traces and
        fetch plans from it instead of re-running the functional
        simulator.
    ``options.server``
        Address of a running ``python -m repro.serve`` daemon.  The
        batch is submitted over the socket instead of simulated here;
        the daemon's scheduler answers what it can from its stores,
        dedupes in-flight work across all connected clients, and
        streams results back (``jobs``/``store``/``artifacts`` are then
        the daemon's, and a ``profiler`` is rejected — host timings
        cannot cross the service boundary).
    """
    if options is None:
        options = EvalOptions()
    elif not isinstance(options, EvalOptions):
        raise TypeError(
            "run_many() options must be an EvalOptions, not "
            f"{type(options).__name__}; use run_many(requests, EvalOptions(jobs=N))"
        )
    reqs = list(requests)
    if options.server is not None:
        if options.profiler is not None:
            raise ValueError("a profiler cannot cross the --server boundary")
        from repro.serve.client import run_remote

        return run_remote(reqs, options.server, progress=options.progress)

    jobs = options.jobs
    store = options.store
    profiler = options.profiler
    progress = _ProgressGuard(options.progress)
    results: list[RunResult | None] = [None] * len(reqs)
    if profiler is not None:
        jobs = 1
    art = options.artifacts
    if art is not None and not hasattr(art, "load_build"):
        from repro.eval.artifacts import ArtifactStore

        art = ArtifactStore(art)

    # 1. Dedup identical requests and satisfy what we can from the store.
    receivers: dict[RunRequest, list[int]] = {}
    cached: dict[RunRequest, RunResult] = {}
    for i, req in enumerate(reqs):
        if req in receivers:
            receivers[req].append(i)
            continue
        if req in cached:
            results[i] = cached[req]
            continue
        if store is not None and profiler is None:
            hit = store.get(req)
            if hit is not None:
                results[i] = cached[req] = hit
                progress(f"{req.name}: cached")
                continue
        receivers[req] = [i]

    def finish(req: RunRequest, result: RunResult) -> None:
        for i in receivers[req]:
            results[i] = result
        if store is not None:
            store.put(result)
        progress(f"{req.name}: done")

    rest = list(receivers)
    if jobs is None:
        jobs = os.cpu_count() or 1

    # 2. Inline path: workload-major order keeps the build LRU warm.
    if jobs <= 1 or len(rest) <= 1:
        groups: dict[tuple, list[RunRequest]] = {}
        for req in rest:
            groups.setdefault(req.build_axes, []).append(req)
        previous = configure_artifacts(art) if art is not None else None
        try:
            for group in groups.values():
                for req in group:
                    finish(req, simulate(req, profiler=profiler))
        finally:
            if art is not None:
                configure_artifacts(previous)
        return progress.finish(results)  # type: ignore[return-value]

    # 3. Request-level scheduling: longest-estimated-first small chunks.
    chunks = _schedule_chunks(rest, jobs)
    root = str(art.root) if art is not None else None
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(chunks)),
        initializer=_init_worker,
        initargs=(root,),
    ) as pool:
        if art is not None:
            # 3a. Make sure every build artifact exists before fanning
            # the replays out: one capture task per missing build, each
            # carrying one representative request per distinct frontend
            # configuration (a build can need several fetch plans).
            missing: dict[tuple, dict[tuple, RunRequest]] = {}
            for req in rest:
                axes = req.build_axes
                fkey = fetch_config_key(req.machine_config())
                if not art.has_build(axes) or not art.has_plan(axes, fkey):
                    missing.setdefault(axes, {}).setdefault(fkey, req)
            if missing:
                captures = {
                    pool.submit(_capture_build, list(reps.values())): axes
                    for axes, reps in missing.items()
                }
                for future in captures:
                    future.result()
                    progress(f"{captures[future][0]}: artifacts captured")

        # 3b. Replay: workers hydrate from the artifact cache (or build
        # once per chunk) and the parent persists/report per request.
        pending = {pool.submit(_run_chunk, chunk): chunk for chunk in chunks}
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                chunk = pending.pop(future)
                for req, result in zip(chunk, future.result()):
                    finish(req, result)
    return progress.finish(results)  # type: ignore[return-value]
