"""The evaluation daemon: a socket front end over one Scheduler.

:class:`EvalServer` binds a unix or TCP socket, speaks the
line-delimited JSON protocol of :mod:`repro.serve.protocol`, and feeds
every submitted request into its :class:`~repro.serve.scheduler.Scheduler`.
Batches are fully multiplexed: one connection may have any number in
flight, and identical requests from different connections share one
simulation.  Each connection's result messages stream in completion
order, tagged with the batch id and the request's index within it.

``python -m repro.serve`` (see :mod:`repro.serve.__main__`) wraps this
in signal handling and the shared CLI options.
"""

from __future__ import annotations

import asyncio
import os

from repro.eval.runner import RunRequest
from repro.serve import protocol
from repro.serve.scheduler import Scheduler


class EvalServer:
    """Line-delimited JSON server over a :class:`Scheduler`."""

    def __init__(self, scheduler: Scheduler, address: str):
        self.scheduler = scheduler
        self.address = address
        self.endpoint = protocol.parse_address(address)
        self._server: "asyncio.AbstractServer | None" = None
        self._stop = asyncio.Event()
        self._conn_tasks: "set[asyncio.Task]" = set()

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> int:
        """Start the scheduler and bind the socket.

        Returns the number of journal entries recovered.  For a unix
        endpoint a stale socket file from a killed daemon is removed
        before binding.
        """
        recovered = await self.scheduler.start()
        if self.endpoint[0] == "unix":
            path = self.endpoint[1]
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            try:
                os.unlink(path)
            except OSError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle, path=path, limit=protocol.STREAM_LIMIT
            )
        else:
            self._server = await asyncio.start_server(
                self._handle,
                host=self.endpoint[1],
                port=self.endpoint[2],
                limit=protocol.STREAM_LIMIT,
            )
        return recovered

    async def serve_until_stopped(self) -> None:
        """Block until :meth:`request_stop` (or a ``shutdown`` op)."""
        await self._stop.wait()
        await self.stop()

    def request_stop(self) -> None:
        self._stop.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
        # Cancel live connection handlers *before* wait_closed: newer
        # asyncio waits for them, and an idle client would block us.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.stop()
        if self.endpoint[0] == "unix":
            try:
                os.unlink(self.endpoint[1])
            except OSError:
                pass

    # -- connections ----------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        """One client connection: read ops, spawn batch streamers."""
        lock = asyncio.Lock()
        batches: "set[asyncio.Task]" = set()
        me = asyncio.current_task()
        if me is not None:
            self._conn_tasks.add(me)
        try:
            while True:
                try:
                    message = await protocol.read_message(reader)
                except protocol.ProtocolError as exc:
                    await protocol.write_message(writer, lock, op="error", message=str(exc))
                    break
                if message is None:
                    break
                op = message.get("op")
                if op == "submit":
                    task = asyncio.create_task(self._serve_batch(message, writer, lock))
                    batches.add(task)
                    task.add_done_callback(batches.discard)
                elif op == "info":
                    await protocol.write_message(
                        writer,
                        lock,
                        op="info",
                        version=protocol.PROTOCOL_VERSION,
                        **self.scheduler.info(),
                    )
                elif op == "ping":
                    await protocol.write_message(writer, lock, op="pong")
                elif op == "shutdown":
                    await protocol.write_message(writer, lock, op="bye")
                    self._stop.set()
                    break
                else:
                    await protocol.write_message(
                        writer, lock, op="error", message=f"unknown op {op!r}"
                    )
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # A vanished client must not cancel shared jobs — other
            # clients may be subscribed — so only the streaming tasks
            # (which await shielded futures) are cancelled.
            if me is not None:
                self._conn_tasks.discard(me)
            for task in list(batches):
                task.cancel()
            if batches:
                await asyncio.gather(*batches, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_batch(self, message: dict, writer, lock) -> None:
        """Accept one batch and stream its results as they complete."""
        batch_id = message.get("id", "")
        try:
            version = message.get("version", protocol.PROTOCOL_VERSION)
            if type(version) is not int or version != protocol.PROTOCOL_VERSION:
                raise ValueError("unsupported protocol version")
            requests = [RunRequest.from_dict(d) for d in message["requests"]]
        except (KeyError, TypeError, ValueError) as exc:
            await protocol.write_message(
                writer, lock, op="error", id=batch_id, message=f"bad batch: {exc}"
            )
            return
        jobs = self.scheduler.submit(requests)
        await protocol.write_message(
            writer, lock, op="ack", id=batch_id, total=len(jobs)
        )
        completed = failed = 0

        async def deliver(index: int, job) -> None:
            nonlocal completed, failed
            try:
                # shield: cancelling this client's streamer must not
                # cancel the scheduler-wide job future.
                result, source = await asyncio.shield(job.future)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                failed += 1
                await protocol.write_message(
                    writer,
                    lock,
                    op="error",
                    id=batch_id,
                    index=index,
                    message=f"{type(exc).__name__}: {exc}",
                )
                return
            completed += 1
            await protocol.write_message(
                writer,
                lock,
                op="result",
                id=batch_id,
                index=index,
                source=source,
                result=result.to_dict(),
            )

        await asyncio.gather(*(deliver(i, job) for i, job in enumerate(jobs)))
        await protocol.write_message(
            writer, lock, op="done", id=batch_id, completed=completed, failed=failed
        )
