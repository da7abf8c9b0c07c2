"""Binary build-artifact containers: programs, traces, and fetch plans on disk.

Long functional executions can be captured once and replayed under many
translation designs or machine configurations (including on machines
without the workload's generator).  Version 2 generalizes the original
bare-trace format into a small sectioned *artifact container* so the
same file family also carries the generated program and precomputed
fetch plans — everything :mod:`repro.eval.artifacts` needs to hydrate a
workload build without re-running the functional simulator.  This
module owns the layout and the section codecs;
:class:`~repro.eval.artifacts.ArtifactStore` is the one writer and
reader of whole containers.  The layout:

* header: magic ``RPTR``, version, section count;
* one section per artifact kind, each ``(4-byte tag, u64 length,
  payload)``:

  - ``PROG`` — the static program as canonical JSON (instructions,
    labels, name, code base), enough to rebuild the decode stream;
  - ``TRCE`` — the dynamic instruction stream, one 28-byte record per
    retired instruction: ``seq, static index, pc, ea (+1, 0 = none),
    taken, next_index``;
  - ``PLAN`` — a precomputed fetch-plan event stream (see
    :func:`repro.engine.frontend.encode_fetch_plan`, which owns the
    payload layout).

Version-1 files (bare header + records, no sections) are rejected with
a clear :class:`TraceFileError`; rebuild them with
:meth:`~repro.eval.artifacts.ArtifactStore.save_build`.  Replaying a
``TRCE`` section requires the *same program* (the static decode is
reconstructed from it); a program-length check guards obvious
mismatches, and build containers carry the program in their ``PROG``
section so nothing else is needed.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Iterable

from repro.func.dyninst import DecodedInst, DynInst
from repro.isa.instructions import AddrMode, Instruction
from repro.isa.opcodes import Op, op_class
from repro.isa.program import Program

_MAGIC = b"RPTR"
_VERSION = 2
#: Container header: magic, version, section count (+ reserved word).
_HEADER = struct.Struct("<4sHxxQQ")
#: Section header: 4-byte tag + payload length.
_SECTION = struct.Struct("<4sQ")
#: One dynamic instruction record.
_RECORD = struct.Struct("<QIIIHH")
#: Trace-section preamble: record count + program length.
_TRACE_HEAD = struct.Struct("<QQ")

SECTION_PROGRAM = b"PROG"
SECTION_TRACE = b"TRCE"
SECTION_PLAN = b"PLAN"
#: Provenance of an ingested external trace (see :mod:`repro.ingest`):
#: source digest/record count + window policy, as canonical JSON.  Its
#: presence marks a container holding a compiled *external* build, and
#: hydration verifies the payload against the requesting workload token
#: so a stale or foreign build reads as a clean cache miss.
SECTION_EXTERN = b"EXTR"


def _valid_tag(tag: bytes) -> bool:
    """Whether ``tag`` is a well-formed section tag: 4 printable ASCII bytes.

    Unknown tags are read back, not rejected: consumers look up the
    tags they know and ignore the rest, so a container holding a section
    this build does not know (one written by a newer build, or a retired
    ``PROF`` or ``KERN`` section) still hydrates.  The structural check
    tells an unknown section from a corrupt or foreign file.
    """
    return len(tag) == 4 and all(0x20 <= b < 0x7F for b in tag)

#: Stable order for AddrMode serialization (enum declaration order).
_ADDR_MODES = tuple(AddrMode)
_ADDR_MODE_INDEX = {mode: i for i, mode in enumerate(_ADDR_MODES)}


class TraceFileError(ValueError):
    """Raised for malformed, mismatched, or wrong-version artifact files."""


# ---------------------------------------------------------------------------
# Container layer.
# ---------------------------------------------------------------------------


def write_container(path: "str | Path", sections: dict[bytes, bytes]) -> None:
    """Write a version-2 artifact container holding ``sections``."""
    with open(path, "wb") as handle:
        handle.write(_HEADER.pack(_MAGIC, _VERSION, len(sections), 0))
        for tag, payload in sections.items():
            if len(tag) != 4:
                raise TraceFileError(f"section tag must be 4 bytes: {tag!r}")
            handle.write(_SECTION.pack(tag, len(payload)))
            handle.write(payload)


def read_container(path: "str | Path") -> dict[bytes, bytes]:
    """Read a version-2 container back as a ``{tag: payload}`` mapping.

    Every way a container can lie about its shape raises
    :class:`TraceFileError` — never ``struct.error``, never a silent
    partial read, never an attempted multi-gigabyte allocation from a
    corrupt length field.  The artifact store relies on this: a damaged
    cache entry must read as a *clean miss* (one well-known exception
    type), not crash the run that touched it.
    """
    with open(path, "rb") as handle:
        file_size = os.fstat(handle.fileno()).st_size
        header = handle.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise TraceFileError("truncated header")
        magic, version, count, _ = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise TraceFileError(f"bad magic: {magic!r}")
        if version == 1:
            raise TraceFileError(
                "version-1 trace files are no longer supported (the format "
                "gained program/fetch-plan sections in version 2); rebuild it "
                "with ArtifactStore.save_build()"
            )
        if version != _VERSION:
            raise TraceFileError(f"unsupported version: {version}")
        sections: dict[bytes, bytes] = {}
        offset = _HEADER.size
        for _ in range(count):
            raw = handle.read(_SECTION.size)
            if len(raw) < _SECTION.size:
                raise TraceFileError("truncated section header")
            offset += _SECTION.size
            tag, length = _SECTION.unpack(raw)
            if not _valid_tag(tag):
                raise TraceFileError(f"malformed section tag: {tag!r}")
            # Check the declared length against what the file can still
            # hold *before* reading: a corrupt u64 length would otherwise
            # ask the allocator for up to 16 EiB (MemoryError/OverflowError,
            # which nothing downstream treats as "corrupt file").
            if length > file_size - offset:
                raise TraceFileError(
                    f"truncated {tag!r} section: declares {length} bytes "
                    f"but only {file_size - offset} remain in the file"
                )
            payload = handle.read(length)
            if len(payload) < length:
                raise TraceFileError(f"truncated {tag!r} section")
            offset += length
            sections[tag] = payload
        if offset != file_size:
            raise TraceFileError(
                f"{file_size - offset} bytes of trailing data after the "
                f"last declared section"
            )
    return sections


# ---------------------------------------------------------------------------
# Program codec (canonical JSON payload).
# ---------------------------------------------------------------------------


def encode_program(program: Program) -> bytes:
    """Serialize a resolved program to a ``PROG`` section payload."""
    insts = []
    for inst in program:
        if isinstance(inst.target, str):
            raise TraceFileError(
                f"cannot serialize unresolved label target {inst.target!r}"
            )
        insts.append(
            [
                int(inst.op),
                inst.rd,
                inst.rs1,
                inst.rs2,
                inst.imm,
                _ADDR_MODE_INDEX[inst.mode],
                inst.target,
            ]
        )
    payload = {
        "name": program.name,
        "code_base": program.code_base,
        "labels": program.labels,
        "instructions": insts,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def decode_program(data: bytes) -> Program:
    """Rebuild a :class:`Program` from a ``PROG`` section payload."""
    try:
        payload = json.loads(data)
        instructions = [
            Instruction(
                Op(op),
                rd=rd,
                rs1=rs1,
                rs2=rs2,
                imm=imm,
                mode=_ADDR_MODES[mode],
                target=target,
            )
            for op, rd, rs1, rs2, imm, mode, target in payload["instructions"]
        ]
        return Program(
            instructions,
            labels=payload["labels"],
            name=payload["name"],
            code_base=payload["code_base"],
        )
    except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
        raise TraceFileError(f"malformed program section: {exc}") from exc


# ---------------------------------------------------------------------------
# External-trace provenance codec (canonical JSON payload).
# ---------------------------------------------------------------------------


def encode_extern_meta(meta: dict) -> bytes:
    """Serialize ingested-trace provenance to an ``EXTR`` payload.

    ``meta`` is the :attr:`repro.ingest.build.CompiledTrace.meta` dict
    (source digest, source record count, window policy, compiled
    record/slot counts).  Stored as versioned canonical JSON so the
    hydration check in :mod:`repro.eval.artifacts` can compare fields
    without caring about key order.
    """
    payload = {"version": 1, **meta}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def decode_extern_meta(data: bytes) -> dict:
    """Rebuild the provenance dict from an ``EXTR`` section payload."""
    try:
        payload = json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise TraceFileError(f"malformed extern section: {exc}") from exc
    if not isinstance(payload, dict):
        raise TraceFileError("malformed extern section: not a JSON object")
    if payload.pop("version", None) != 1:
        raise TraceFileError("unsupported extern-section version")
    return payload


# ---------------------------------------------------------------------------
# Trace codec (binary record stream).
# ---------------------------------------------------------------------------


def encode_trace(trace: Iterable[DynInst], program_length: int) -> bytes:
    """Serialize a dynamic instruction stream to a ``TRCE`` payload."""
    records = []
    for dyn in trace:
        ea = 0 if dyn.ea is None else dyn.ea + 1
        if dyn.seq < 0:
            # Wrong-path synthetics carry negative seqs; persisting one
            # would otherwise surface as a bare struct.error.
            raise TraceFileError(f"negative sequence number in trace: {dyn.seq}")
        if not 0 <= dyn.next_index <= 0xFFFF:
            raise TraceFileError(
                f"next_index {dyn.next_index} exceeds the 16-bit record field"
            )
        records.append(
            _RECORD.pack(
                dyn.seq,
                dyn.decoded.index,
                dyn.pc & 0xFFFF_FFFF,
                ea & 0xFFFF_FFFF,
                1 if dyn.taken else 0,
                dyn.next_index,
            )
        )
    return _TRACE_HEAD.pack(len(records), program_length) + b"".join(records)


def decode_trace(data: bytes, program: Program) -> list[DynInst]:
    """Rebuild the dynamic stream from a ``TRCE`` payload and its program."""
    if len(data) < _TRACE_HEAD.size:
        raise TraceFileError("truncated trace section")
    count, prog_len = _TRACE_HEAD.unpack_from(data)
    if prog_len != len(program):
        raise TraceFileError(
            f"trace was recorded against a {prog_len}-instruction "
            f"program; this one has {len(program)}"
        )
    if len(data) - _TRACE_HEAD.size < count * _RECORD.size:
        raise TraceFileError("truncated record stream")
    decode = [
        DecodedInst(i, inst, op_class(inst.op)) for i, inst in enumerate(program)
    ]
    n_static = len(decode)
    out: list[DynInst] = []
    append = out.append
    offset = _TRACE_HEAD.size
    for seq, index, pc, ea, taken, next_index in _RECORD.iter_unpack(
        data[offset : offset + count * _RECORD.size]
    ):
        if index >= n_static:
            raise TraceFileError(f"record references instruction {index}")
        append(
            DynInst(
                seq,
                decode[index],
                pc,
                ea=None if ea == 0 else ea - 1,
                taken=bool(taken),
                next_index=next_index,
            )
        )
    return out
