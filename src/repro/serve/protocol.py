"""Wire format of the evaluation service: line-delimited JSON.

One UTF-8 JSON object per ``\\n``-terminated line, in both directions,
over a unix-domain or TCP stream socket.  Every message carries an
``op`` field; batch-scoped messages additionally carry the client's
``id`` for the batch, so one connection can multiplex any number of
concurrent batches.

Client -> server::

    {"op": "submit", "id": <str>, "version": 1,
                     "requests": [<RunRequest.to_dict()>, ...]}
    {"op": "info"}                  # daemon + scheduler + store counters
    {"op": "ping"}
    {"op": "shutdown"}              # stop; in-flight work is cancelled

Server -> client::

    {"op": "ack",    "id": ..., "total": N}
    {"op": "result", "id": ..., "index": i, "source": "store"|"simulated",
                     "result": <RunResult.to_dict()>}
    {"op": "error",  "id": ..., "index": i, "message": ...}   # one request failed
    {"op": "done",   "id": ..., "completed": N, "failed": M}
    {"op": "info",   ...}
    {"op": "pong"}
    {"op": "bye"}                   # acknowledges shutdown
    {"op": "error",  "message": ...}            # protocol-level complaint

``source`` says where a result came from: the daemon's result store
(``store``) or a fresh simulation (``simulated``).  Results stream in
completion order; ``index`` maps each back to its position in the
submitted batch.  A ``submit`` whose ``version`` is neither absent nor
:data:`PROTOCOL_VERSION` is refused whole with ``error`` (``bad batch:
unsupported protocol version``) and nothing is scheduled.

Addresses are strings: ``unix:<path>`` (also any bare value containing
a ``/``) or ``[tcp:]host:port``.  :func:`parse_address` is the single
parser both ends use.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

#: Protocol revision; servers reject clients from the future.
PROTOCOL_VERSION = 1

#: Stream buffer limit: a result message is a few KB, but traces of
#: provenance or large stat histograms must never hit asyncio's 64 KiB
#: default readline limit.
STREAM_LIMIT = 32 * 1024 * 1024


class ProtocolError(RuntimeError):
    """Malformed message or address."""


def parse_address(address: str) -> tuple:
    """Parse ``unix:<path>`` / ``[tcp:]<host>:<port>`` into a tuple.

    Returns ``("unix", path)`` or ``("tcp", host, port)``.  A bare
    value containing ``/`` is taken as a unix-socket path (so plain
    filesystem paths work); ``~`` is expanded.
    """
    addr = address.strip()
    if addr.startswith("unix:"):
        return ("unix", str(Path(addr[5:]).expanduser()))
    if addr.startswith("tcp:"):
        addr = addr[4:]
    elif "/" in addr or not addr.count(":"):
        return ("unix", str(Path(addr).expanduser()))
    host, _, port = addr.rpartition(":")
    try:
        return ("tcp", host or "127.0.0.1", int(port))
    except ValueError:
        raise ProtocolError(f"unparseable address {address!r}") from None


def encode(message: dict) -> bytes:
    """One message, serialized: compact JSON + newline."""
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


async def read_message(reader: asyncio.StreamReader) -> "dict | None":
    """Read one message; ``None`` on a clean EOF.

    A truncated trailing line (peer died mid-write) also reads as EOF.
    Anything else undecodable raises :class:`ProtocolError` and nothing
    else: that includes a line longer than the stream's limit and JSON
    nested past the interpreter's recursion limit.
    """
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        return None
    except ValueError as exc:  # asyncio's report of an over-limit line
        raise ProtocolError(f"message exceeds the stream limit: {exc}") from None
    if not line:
        return None
    if not line.endswith(b"\n"):
        return None  # truncated final line: the peer is gone
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"undecodable message: {exc}") from None
    except RecursionError:
        raise ProtocolError("undecodable message: nested too deeply") from None
    if not isinstance(message, dict) or "op" not in message:
        raise ProtocolError("message is not an object with an 'op' field")
    return message


async def write_message(
    writer: asyncio.StreamWriter,
    lock: "asyncio.Lock | None" = None,
    **message,
) -> None:
    """Serialize and send one message (atomically w.r.t. ``lock``).

    Concurrent batch tasks share one socket, so every writer to a
    connection must hold that connection's lock to keep lines whole.
    """
    data = encode(message)
    if lock is None:
        writer.write(data)
        await writer.drain()
        return
    async with lock:
        writer.write(data)
        await writer.drain()
