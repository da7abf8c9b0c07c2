"""The portable external-trace format: one record per memory reference.

External address/instruction traces enter the library through exactly
one documented representation so every converter targets it and every
downstream consumer (windowing, compilation, the artifact cache) reads
it.  A *portable trace* is a flat stream of :class:`TraceRecord`::

    (op, pc, ea, size)

* ``op`` — the reference class: ``"load"``, ``"store"``, ``"modify"``
  (an atomic read-modify-write, replayed as a store), ``"branch"``
  (a *taken* control transfer — a conditional branch that fell through
  is recorded as ``"other"`` at the same pc), ``"other"`` (any
  non-memory integer instruction), ``"fp"`` (non-memory floating-point)
  or ``"nop"``;
* ``pc`` — virtual address of the instruction (truncated to 32 bits at
  compile time; the simulated machine is 32-bit);
* ``ea`` — effective virtual address for ``load``/``store``/``modify``,
  ``None`` otherwise (required for memory classes);
* ``size`` — access size in bytes for memory classes, instruction
  length otherwise (informational; translation behaviour is
  address-granular).

An instruction that performs several memory references appears once per
reference (same ``pc``); an instruction with none appears exactly once.

The stream is serialized as **NDJSON**: a header line
``{"format": "repro-trace", "version": 1}`` followed by one JSON object
per record: ``{"op": "load", "pc": 74565, "ea": 9645, "size": 4}``
(``ea`` may be omitted for non-memory classes, ``size`` defaults to 4;
``pc``/``ea``/``size`` must be JSON integers).  Line-oriented,
greppable and diffable; the file is gzip-compressed transparently when
its path ends in ``.gz``.

The reader streams: it yields records one at a time and never
materializes the file, so window selection over huge traces stays
memory-flat.  Malformed input raises :class:`IngestError` with the
offending line.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
import zlib
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import IO, Iterable, Iterator, NamedTuple

#: Recognized record classes.
OP_CLASSES = ("other", "load", "store", "modify", "branch", "fp", "nop")
_KNOWN_OPS = frozenset(OP_CLASSES)
#: Classes that carry (and require) an effective address.
MEM_CLASSES = frozenset(("load", "store", "modify"))

FORMAT_NAME = "repro-trace"
FORMAT_VERSION = 1


class IngestError(ValueError):
    """Raised for malformed external traces or invalid ingestion specs."""


class TraceRecord(NamedTuple):
    """One portable-trace record (see the module docstring)."""

    op: str
    pc: int
    ea: "int | None" = None
    size: int = 4

    def validate(self, where: str = "") -> "TraceRecord":
        """Check class/field consistency; returns self for chaining."""
        problem = record_problem(*self)
        if problem is None:
            return self
        raise IngestError(f"{where}: {problem}" if where else problem)


#: ``TraceRecord`` from a ``(op, pc, ea, size)`` tuple, skipping the
#: Python-level ``__new__`` NamedTuple generates (``TraceRecord._make``
#: without its length check): the streaming parsers build one per line.
new_record = partial(tuple.__new__, TraceRecord)


def record_problem(op, pc, ea, size) -> "str | None":
    """What is wrong with the record ``(op, pc, ea, size)``, or None.

    The check behind :meth:`TraceRecord.validate`, callable on the bare
    fields so the streaming readers and writers can validate every
    record and build the error position only when one is bad.  ``pc``,
    ``size`` and (when present) ``ea`` must be non-negative ints (bools
    excluded); memory classes require ``ea``.
    """
    if not isinstance(op, str) or op not in _KNOWN_OPS:
        return f"unknown op class {op!r} (expected one of {', '.join(OP_CLASSES)})"
    if type(pc) is not int:
        return f"pc is not an integer: {pc!r}"
    if pc < 0:
        return f"negative pc {pc}"
    if ea is None:
        if op in MEM_CLASSES:
            return f"{op} record at pc {pc:#x} has no effective address"
    elif type(ea) is not int:
        return f"effective address is not an integer: {ea!r}"
    elif ea < 0:
        return f"negative effective address {ea}"
    if type(size) is not int:
        return f"size is not an integer: {size!r}"
    if size < 0:
        return f"negative size {size}"
    return None


def open_maybe_gzip(path: "str | Path", mode: str = "rb") -> IO:
    """Open ``path``, transparently un/compressing ``*.gz`` files."""
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)
    return open(path, mode)


def source_digest(path: "str | Path") -> str:
    """SHA-256 of the file's raw bytes (compressed form for ``.gz``).

    This is the content identity of an external trace: it rides in the
    ingested workload's name (so result/artifact keys change when the
    file changes) and in the ``EXTR`` container section (so a hydrated
    build is verifiably the same source).
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# NDJSON serialization.
# ---------------------------------------------------------------------------

#: Errors a reader can meet below the record level: bytes that are not
#: text, a corrupt or cut-short gzip stream.
_UNREADABLE = (UnicodeDecodeError, EOFError, zlib.error, gzip.BadGzipFile)

#: The exact line :func:`write_portable` emits for a record.  Lines of
#: this shape are parsed by one anchored regex; any other JSON line
#: (the format allows any whitespace, key order or an omitted ``size``)
#: goes through ``json.loads``.  The integers follow JSON's grammar (no
#: leading zeros), so both paths accept and decode a line identically.
_CANONICAL_LINE = re.compile(
    r'\{"op":"([a-z]+)","pc":(0|[1-9][0-9]*)(?:,"ea":(0|[1-9][0-9]*))?'
    r',"size":(0|[1-9][0-9]*)\}$'
)

#: Records joined into one ``write`` call: bounds the text buffered
#: between writes to a few hundred KB.
_WRITE_CHUNK = 4096


@contextmanager
def open_input(path: "str | Path", mode: str = "rt") -> Iterator[IO]:
    """:func:`open_maybe_gzip` for readers: input that cannot be decoded
    (not text, corrupt gzip) raises :class:`IngestError`."""
    try:
        with open_maybe_gzip(path, mode) as handle:
            yield handle
    except _UNREADABLE as exc:
        raise IngestError(f"{path}: unreadable input: {exc}") from exc


def write_portable(path: "str | Path", records: Iterable[TraceRecord]) -> int:
    """Write a portable trace; returns the record count.

    A ``.gz`` suffix on ``path`` gzip-compresses it.
    """
    count = 0
    lines: "list[str]" = []
    with open_maybe_gzip(path, "wt") as handle:
        handle.write(
            json.dumps(
                {"format": FORMAT_NAME, "version": FORMAT_VERSION},
                separators=(",", ":"),
            )
            + "\n"
        )
        for op, pc, ea, size in records:
            problem = record_problem(op, pc, ea, size)
            if problem is not None:
                raise IngestError(problem)
            # A validated op is a plain class name and str(int) is
            # json.dumps(int): these are the compact json.dumps lines.
            if ea is None:
                lines.append(f'{{"op":"{op}","pc":{pc},"size":{size}}}\n')
            else:
                lines.append(f'{{"op":"{op}","pc":{pc},"ea":{ea},"size":{size}}}\n')
            if len(lines) == _WRITE_CHUNK:
                handle.write("".join(lines))
                count += len(lines)
                lines.clear()
        handle.write("".join(lines))
        count += len(lines)
    return count


def _read_header(handle: IO, path: "str | Path") -> None:
    """Consume and check the header line at ``handle``."""
    header_line = handle.readline()
    try:
        header = json.loads(header_line)
    except (ValueError, RecursionError) as exc:
        raise IngestError(
            f"{path}: not a portable trace (bad header line: {exc})"
        ) from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise IngestError(
            f"{path}: not a portable trace (header {header_line.strip()!r})"
        )
    if header.get("version") != FORMAT_VERSION:
        raise IngestError(
            f"{path}: unsupported portable-trace version "
            f"{header.get('version')!r}"
        )


def read_portable(path: "str | Path") -> Iterator[TraceRecord]:
    """Stream the records of a portable trace."""
    with open_input(path, "rt") as handle:
        _read_header(handle, path)
        canonical = _CANONICAL_LINE.match
        for lineno, line in enumerate(handle, start=2):
            fields = canonical(line)
            if fields is not None:
                op, pc, ea, size = fields.groups()
                pc, size = int(pc), int(size)
                if ea is not None:
                    ea = int(ea)
                # The regex admits only non-negative integers, which
                # leaves the class and a memory class's address to check.
                if op in _KNOWN_OPS and (ea is not None or op not in MEM_CLASSES):
                    yield new_record((op, pc, ea, size))
                    continue
            else:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    op, pc = payload["op"], payload["pc"]
                    ea, size = payload.get("ea"), payload.get("size", 4)
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise IngestError(
                        f"{path}:{lineno}: malformed record: {exc}"
                    ) from exc
            problem = record_problem(op, pc, ea, size)
            if problem is not None:
                raise IngestError(f"{path}:{lineno}: {problem}")
            yield TraceRecord(op, pc, ea, size)


def count_records(path: "str | Path") -> int:
    """Number of records in a portable trace: one cheap streaming pass
    that checks the header and counts lines without parsing record
    bodies (:func:`read_portable` checks them when replayed)."""
    count = 0
    with open_input(path, "rt") as handle:
        _read_header(handle, path)
        for line in handle:
            if line.strip():
                count += 1
    return count
