"""Client side of the evaluation service.

:class:`ServeClient` is the async API: ``connect`` to a daemon,
``submit`` a batch of :class:`~repro.eval.runner.RunRequest`, and
``stream`` its events (or ``results`` to collect the ordered list).
:func:`run_remote` is the synchronous wrapper the CLIs and
:func:`repro.eval.parallel.run_many` use — drop-in for a local
``run_many`` call, returning bit-identical :class:`RunResult`\\ s in
input order.

A single connection multiplexes any number of concurrent batches; a
background reader task routes each incoming message to its batch's
queue.  Duplicate requests are fine — the daemon dedupes in-flight work
across every connected client, so submitting the same grid from two
processes costs one simulation per distinct request.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import AsyncIterator, Callable, Iterable

from repro.eval.runner import RunRequest, RunResult
from repro.serve import protocol


class ServeError(RuntimeError):
    """The daemon reported a failure for a batch or a request."""


class _Batch:
    """Book-keeping for one submitted batch."""

    def __init__(self, batch_id: str, size: int):
        self.id = batch_id
        self.size = size
        self.queue: "asyncio.Queue[dict | None]" = asyncio.Queue()


class ServeClient:
    """Async client for a ``python -m repro.serve`` daemon."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._lock = asyncio.Lock()
        self._ids = itertools.count(1)
        self._batches: "dict[str, _Batch]" = {}
        self._replies: "asyncio.Queue[dict | None]" = asyncio.Queue()
        self._pump = asyncio.create_task(self._read_loop())

    # -- connection -----------------------------------------------------------

    @classmethod
    async def connect(
        cls, address: str, retry_for: float = 0.0, interval: float = 0.05
    ) -> "ServeClient":
        """Open a connection; optionally retry for ``retry_for`` seconds.

        Retrying covers the daemon-just-started race (socket not bound
        yet) that tests and scripts hit when they launch the daemon
        themselves.
        """
        endpoint = protocol.parse_address(address)
        deadline = time.monotonic() + retry_for
        while True:
            try:
                if endpoint[0] == "unix":
                    reader, writer = await asyncio.open_unix_connection(
                        endpoint[1], limit=protocol.STREAM_LIMIT
                    )
                else:
                    reader, writer = await asyncio.open_connection(
                        endpoint[1], endpoint[2], limit=protocol.STREAM_LIMIT
                    )
                return cls(reader, writer)
            except (ConnectionError, FileNotFoundError, OSError):
                if time.monotonic() >= deadline:
                    raise
                await asyncio.sleep(interval)

    async def close(self) -> None:
        self._pump.cancel()
        try:
            await self._pump
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def _read_loop(self) -> None:
        """Route incoming messages to their batch queue (or replies)."""
        try:
            while True:
                message = await protocol.read_message(self._reader)
                if message is None:
                    break
                batch = self._batches.get(message.get("id", ""))
                if batch is not None and message.get("op") in ("ack", "result", "error", "done"):
                    batch.queue.put_nowait(message)
                else:
                    self._replies.put_nowait(message)
        finally:
            # Wake everything still waiting: the connection is gone.
            for batch in self._batches.values():
                batch.queue.put_nowait(None)
            self._replies.put_nowait(None)

    # -- batches --------------------------------------------------------------

    async def submit(self, requests: Iterable[RunRequest]) -> _Batch:
        """Send one batch; returns a handle for :meth:`stream`."""
        reqs = list(requests)
        batch = _Batch(f"b{next(self._ids)}", len(reqs))
        self._batches[batch.id] = batch
        await protocol.write_message(
            self._writer,
            self._lock,
            op="submit",
            id=batch.id,
            version=protocol.PROTOCOL_VERSION,
            requests=[r.to_dict() for r in reqs],
        )
        return batch

    async def stream(self, batch: _Batch) -> AsyncIterator[dict]:
        """Yield the batch's events (``ack``/``result``/``error``) until done.

        Raises :class:`ServeError` if the connection drops before the
        daemon's ``done`` message.
        """
        try:
            while True:
                message = await batch.queue.get()
                if message is None:
                    raise ServeError("connection closed before the batch finished")
                if message["op"] == "done":
                    return
                yield message
        finally:
            self._batches.pop(batch.id, None)

    async def results(
        self,
        requests: Iterable[RunRequest],
        progress: "Callable[[str], None] | None" = None,
    ) -> list[RunResult]:
        """Submit and collect: results in input order, like ``run_many``.

        ``progress`` receives one line per finished request, matching
        the local engine's wording (``cached`` for store answers,
        ``done`` for fresh simulations).  Any per-request failure
        raises :class:`ServeError` after the batch drains.
        """
        reqs = list(requests)
        batch = await self.submit(reqs)
        out: "list[RunResult | None]" = [None] * len(reqs)
        errors: list[str] = []
        async for message in self.stream(batch):
            if message["op"] == "result":
                index = message["index"]
                out[index] = RunResult.from_dict(message["result"])
                if progress is not None:
                    word = "done" if message["source"] == "simulated" else "cached"
                    progress(f"{reqs[index].name}: {word}")
            elif message["op"] == "error" and "index" in message:
                errors.append(f"{reqs[message['index']].name}: {message['message']}")
            elif message["op"] == "error":
                raise ServeError(message.get("message", "batch rejected"))
        if errors:
            raise ServeError("; ".join(errors))
        return out  # type: ignore[return-value]

    # -- control ops ----------------------------------------------------------

    async def _request(self, op: str, want: tuple) -> dict:
        await protocol.write_message(self._writer, self._lock, op=op)
        while True:
            message = await self._replies.get()
            if message is None:
                raise ServeError(f"connection closed awaiting {op!r} reply")
            if message.get("op") in want:
                return message

    async def info(self) -> dict:
        """The daemon's scheduler/store counters (the ``info`` op)."""
        return await self._request("info", ("info",))

    async def ping(self) -> None:
        await self._request("ping", ("pong",))

    async def shutdown(self) -> None:
        """Ask the daemon to stop (it cancels in-flight work and exits)."""
        await self._request("shutdown", ("bye",))


# -- synchronous wrappers -----------------------------------------------------


def run_remote(
    requests: Iterable[RunRequest],
    address: str,
    progress: "Callable[[str], None] | None" = None,
    connect_timeout: float = 10.0,
) -> list[RunResult]:
    """Evaluate a batch on a running daemon; results in input order.

    The synchronous face of the service — what ``run_many(...,
    EvalOptions(server=addr))`` and ``python -m repro.eval --server``
    call.  Results are bit-identical to local execution.
    """
    reqs = list(requests)

    async def go() -> list[RunResult]:
        client = await ServeClient.connect(address, retry_for=connect_timeout)
        try:
            return await client.results(reqs, progress=progress)
        finally:
            await client.close()

    return asyncio.run(go())


def server_info(address: str, connect_timeout: float = 10.0) -> dict:
    """Fetch the daemon's ``info`` counters synchronously."""

    async def go() -> dict:
        client = await ServeClient.connect(address, retry_for=connect_timeout)
        try:
            return await client.info()
        finally:
            await client.close()

    return asyncio.run(go())


def shutdown_server(address: str, connect_timeout: float = 10.0) -> None:
    """Ask the daemon at ``address`` to shut down, synchronously."""

    async def go() -> None:
        client = await ServeClient.connect(address, retry_for=connect_timeout)
        try:
            await client.shutdown()
        finally:
            await client.close()

    asyncio.run(go())
