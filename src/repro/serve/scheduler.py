"""The evaluation scheduler: stores first, dedup always, workers last.

One :class:`Scheduler` instance owns the daemon's result/artifact
stores, its worker pool, and the in-flight table.  Every request
submitted by any connected client flows through :meth:`submit_one`:

1. **In-flight dedup** — an identical request already queued or running
   (by *any* client) returns the same :class:`Job`; one simulation,
   many subscribers.
2. **Store hit** — the content-addressed result store answers without
   simulating (this is also how a restarted daemon re-serves the work
   it finished in a previous life).
3. **Dispatch** — everything else is batched by a dispatcher tick into
   the longest-estimated-first, single-build chunks of
   :func:`repro.eval.parallel._schedule_chunks` and fanned out over a
   ``ProcessPoolExecutor`` whose workers hydrate build artifacts from
   disk (:func:`repro.eval.parallel._init_worker`).

Completed results are persisted to the store *before* the job journal
records them done, so a crash between the two only costs a redundant
journal entry, never a lost result.

One scheduler owns its store: :meth:`Scheduler.start` takes an
exclusive ``flock`` on ``<store root>/serve.lock`` before it touches the
journal and holds it until :meth:`Scheduler.stop`, so a second daemon
over the same store fails at startup with :class:`StoreLockedError`.
The kernel drops the lock when its holder dies, so a killed daemon's
store can be reopened at once.
"""

from __future__ import annotations

import asyncio
import fcntl
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.eval.parallel import _init_worker, _schedule_chunks
from repro.eval.parallel import _run_chunk as _simulate_chunk
from repro.eval.runner import RunRequest, RunResult


class StoreLockedError(RuntimeError):
    """Another live daemon already serves this store directory."""


@dataclass
class SchedulerStats:
    """Counters over this scheduler's lifetime (the ``info`` op)."""

    submitted: int = 0  # distinct requests accepted
    deduped: int = 0  # submissions answered by an in-flight job
    store_hits: int = 0  # answered from the result store
    simulated: int = 0  # simulated by this daemon's workers
    failed: int = 0
    recovered: int = 0  # journal entries resubmitted at startup

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class Job:
    """One in-flight request and the future its subscribers await.

    The future resolves to ``(RunResult, source)`` with ``source``
    either ``"store"`` or ``"simulated"``.
    """

    request: RunRequest
    future: asyncio.Future = field(repr=False)


class Scheduler:
    """Async evaluation scheduler over the on-disk stores."""

    def __init__(
        self,
        store=None,
        artifacts=None,
        jobs: "int | None" = 1,
        journal=None,
    ):
        self.store = store
        self.artifacts = artifacts
        self.jobs = jobs if jobs and jobs > 0 else (os.cpu_count() or 1)
        self.journal = journal
        self.stats = SchedulerStats()
        self._inflight: "dict[RunRequest, Job]" = {}
        self._ready: "list[Job]" = []
        self._tasks: "set[asyncio.Task]" = set()
        self._pool: "ProcessPoolExecutor | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._wake: "asyncio.Event | None" = None
        self._dispatcher: "asyncio.Task | None" = None
        self._lock_file = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> int:
        """Lock the store, create the worker pool and recover the journal.

        Returns the number of journaled in-flight requests resubmitted
        (their completed siblings need no recovery: they are already
        store entries and will answer as hits).  Raises
        :class:`StoreLockedError`, before reading the journal, if
        another daemon holds the store.
        """
        if self.store is not None:
            self._lock_store()
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        root = str(self.artifacts.root) if self.artifacts is not None else None
        # spawn, not fork: forked workers would inherit every accepted
        # client socket, holding connections open past a daemon kill
        # (clients would never see EOF).  Workers exit with the daemon,
        # even a SIGKILLed one, through _init_worker's watch thread.
        self._pool = ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=(root,),
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        recovered = 0
        if self.journal is not None:
            outstanding = self.journal.replay()
            self.journal.compact(outstanding)
            for req in outstanding:
                self.submit_one(req, _record=False)
                recovered += 1
            self.stats.recovered = recovered
        return recovered

    async def stop(self) -> None:
        """Cancel outstanding work and shut the pool down."""
        if self._dispatcher is not None:
            self._dispatcher.cancel()
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        for job in list(self._inflight.values()):
            if not job.future.done():
                job.future.cancel()
        self._inflight.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._lock_file is not None:
            self._lock_file.close()  # closing the descriptor drops the flock
            self._lock_file = None

    def _lock_store(self) -> None:
        """Take the store's exclusive daemon lock or raise StoreLockedError.

        The lock lives on its own file: the journal cannot carry it
        because :meth:`JobJournal.compact` replaces that file.
        """
        root = self.store.root
        root.mkdir(parents=True, exist_ok=True)
        path = root / "serve.lock"
        lock_file = open(path, "ab")
        try:
            fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError as exc:
            lock_file.close()
            if not isinstance(exc, BlockingIOError):
                raise
            raise StoreLockedError(
                f"store {root} is already served by another daemon "
                f"(lock held on {path}); stop it or pick another --store"
            ) from None
        self._lock_file = lock_file

    # -- submission -----------------------------------------------------------

    def submit_one(self, req: RunRequest, _record: bool = True) -> Job:
        """Accept one request, deduplicating against in-flight work."""
        job = self._inflight.get(req)
        if job is not None:
            self.stats.deduped += 1
            return job
        job = Job(request=req, future=self._loop.create_future())
        # Mark failures as observed even if every subscriber vanished
        # (e.g. journal-recovery jobs have none).
        job.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        self._inflight[req] = job
        self.stats.submitted += 1
        if self.journal is not None and _record:
            self.journal.record_queued(req)
        self._spawn(self._admit(job))
        return job

    def submit(self, requests) -> "list[Job]":
        return [self.submit_one(req) for req in requests]

    # -- internals ------------------------------------------------------------

    def _spawn(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _admit(self, job: Job) -> None:
        """Route one accepted request: store hit or ready queue."""
        req = job.request
        try:
            if self.store is not None:
                hit = self.store.get(req)
                if hit is not None:
                    self.stats.store_hits += 1
                    self._finish(job, hit, "store")
                    return
            self._ready.append(job)
            self._wake.set()
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail(job, exc)

    async def _dispatch_loop(self) -> None:
        """Batch ready jobs into scheduled chunks and fan them out."""
        while True:
            await self._wake.wait()
            self._wake.clear()
            ready, self._ready = self._ready, []
            if not ready:
                continue
            by_request = {job.request: job for job in ready}
            for chunk in _schedule_chunks(list(by_request), self.jobs):
                self._spawn(self._run_chunk([by_request[r] for r in chunk]))

    async def _run_chunk(self, chunk: "list[Job]") -> None:
        requests = [job.request for job in chunk]
        try:
            results = await self._loop.run_in_executor(
                self._pool, _simulate_chunk, requests
            )
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # worker died, pool broken, pickling ...
            for job in chunk:
                self._fail(job, exc)
            return
        for job, result in zip(chunk, results):
            if self.store is not None:
                self.store.put(result)
            self.stats.simulated += 1
            self._finish(job, result, "simulated")

    def _finish(self, job: Job, result: RunResult, source: str) -> None:
        req = job.request
        if self.journal is not None:
            self.journal.record_done(req)
        self._inflight.pop(req, None)
        if not job.future.done():
            job.future.set_result((result, source))

    def _fail(self, job: Job, exc: BaseException) -> None:
        req = job.request
        self.stats.failed += 1
        if self.journal is not None:
            # A failed request is no longer owed: journaling it done
            # keeps restarts from resimulating a deterministic failure.
            self.journal.record_done(req)
        self._inflight.pop(req, None)
        if not job.future.done():
            job.future.set_exception(exc)

    def info(self) -> dict:
        """Counter snapshot for the ``info`` protocol op."""
        payload = {
            "scheduler": self.stats.to_dict(),
            "inflight": len(self._inflight),
            "jobs": self.jobs,
        }
        if self.store is not None:
            payload["store"] = {
                "root": str(self.store.root),
                "hits": self.store.stats.hits,
                "misses": self.store.stats.misses,
                "puts": self.store.stats.puts,
            }
        if self.artifacts is not None:
            payload["artifacts"] = {"root": str(self.artifacts.root)}
        return payload
