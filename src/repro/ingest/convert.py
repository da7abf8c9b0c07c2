"""Converters from captured trace formats to the portable stream.

Two front doors cover the common capture paths:

* :func:`convert_lackey` — the output of Valgrind's bundled ``lackey``
  tool (``valgrind --tool=lackey --trace-mem=yes ./prog``), the easiest
  real-program capture available on a stock Linux box;
* :func:`convert_csv` — a four-column escape hatch
  (``op,pc,ea,size``) for anything else: a custom Pin tool, a
  QEMU plugin, a spreadsheet of hand-written references.

Both stream line-by-line (arbitrarily long captures, flat memory),
transparently read ``.gz`` inputs, validate as they go and report
malformed lines with file:line positions.

Lackey's dialect, for reference::

    ==12345== Memcheck banner lines (ignored)
    I  0023C790,2            # instruction fetch at pc, length
     L 04EFF8A8,8            # data load  (leading space)
     S 04EFF8A0,4            # data store
     M 0425D490,1            # modify (read-modify-write)

Memory lines describe data references of the most recent ``I`` line's
instruction, so the converter emits one portable record per memory line
(class ``load``/``store``/``modify``) carrying that instruction's pc,
and one ``other`` record for each instruction with no memory lines.
Lackey does not mark control transfers, so the converter infers them
from the fetch stream: an instruction whose successor pc is not the
fall-through (``pc + length``) was a taken transfer and is emitted as
class ``branch``.  Not-taken branches are indistinguishable from ALU
instructions in a fetch trace and land in ``other`` — exactly the
information a pc/ea capture can honestly provide, and enough for the
compiled replay to synthesize conditional branches per static pc (see
:mod:`repro.ingest.build`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

from repro.ingest.format import (
    IngestError,
    OP_CLASSES,
    TraceRecord,
    new_record,
    open_input,
    record_problem,
)

#: Memory-line markers in lackey output mapped to portable classes.
_LACKEY_MEM = {"L": "load", "S": "store", "M": "modify"}


def _pair_error(body: str, path, lineno: int) -> IngestError:
    """The error for a lackey ``ADDR,SIZE`` payload that did not parse."""
    body = body.strip()
    if "," not in body:
        return IngestError(f"{path}:{lineno}: expected 'addr,size', got {body!r}")
    return IngestError(f"{path}:{lineno}: malformed address pair {body!r}")


def convert_lackey(path: "str | Path") -> Iterator[TraceRecord]:
    """Stream portable records from a Valgrind lackey ``--trace-mem`` log.

    One record per data reference, plus one ``other``/``branch`` record
    per instruction without data references; taken control transfers
    are inferred from fetch discontinuities (see the module docstring).
    """
    # An instruction without memory lines is held back until its
    # successor's pc is known (branch inference needs the fetch
    # discontinuity); memory records are complete when read.  Fields
    # come from int(), so a record is valid iff none is negative;
    # record_problem words the error for one that is.
    pc = length = None
    pc_lineno = 0
    has_refs = False
    with open_input(path, "rt") as handle:
        for lineno, line in enumerate(handle, start=1):
            marker = line[0]
            if marker == "I":
                body = line[1:]
                addr_text, _, size_text = body.partition(",")
                try:
                    next_pc, next_length = int(addr_text, 16), int(size_text, 0)
                except ValueError:
                    raise _pair_error(body, path, lineno) from None
                if pc is not None and not has_refs:
                    op = "other" if next_pc == pc + length else "branch"
                    yield _instruction(op, pc, length, path, pc_lineno)
                pc, length, pc_lineno, has_refs = next_pc, next_length, lineno, False
            elif marker == " " and line[1:2] in _LACKEY_MEM and line[2:] not in ("", "\n"):
                if pc is None:
                    raise IngestError(
                        f"{path}:{lineno}: memory reference before any "
                        "instruction line"
                    )
                body = line[2:]
                addr_text, _, size_text = body.partition(",")
                try:
                    ea, size = int(addr_text, 16), int(size_text, 0)
                except ValueError:
                    raise _pair_error(body, path, lineno) from None
                op = _LACKEY_MEM[line[1]]
                if pc < 0 or ea < 0 or size < 0:
                    problem = record_problem(op, pc, ea, size)
                    raise IngestError(f"{path}:{lineno}: {problem}")
                has_refs = True
                yield new_record((op, pc, ea, size))
            elif line.strip() and not line.startswith("=="):
                line = line.rstrip("\n")
                raise IngestError(f"{path}:{lineno}: unrecognized lackey line {line!r}")
            # else: valgrind banner / blank line
    if pc is not None and not has_refs:
        yield _instruction("other", pc, length, path, pc_lineno)


def _instruction(op: str, pc: int, length: int, path, lineno: int) -> TraceRecord:
    """The record of the instruction at ``path:lineno``, which made no
    data references."""
    if pc < 0 or length < 0:
        problem = record_problem(op, pc, None, length)
        raise IngestError(f"{path}:{lineno}: {problem}")
    return new_record((op, pc, None, length))


def convert_csv(path: "str | Path", header: "bool | None" = None) -> Iterator[TraceRecord]:
    """Stream portable records from ``op,pc,ea,size`` CSV.

    * ``op`` — any portable class name (case-insensitive);
    * ``pc``/``ea`` — hex (``0x...``) or decimal; ``ea`` empty or ``-``
      for non-memory classes;
    * ``size`` — optional, defaults to 4.

    ``header=None`` (the default) auto-detects a header row by whether
    the first cell names a known op class.
    """
    with open_input(path, "rt") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            cells = [cell.strip() for cell in line.split(",")]
            if header is None:
                header = cells[0].lower() not in OP_CLASSES
            if header:
                header = False
                continue
            if len(cells) < 2:
                raise IngestError(f"{path}:{lineno}: expected op,pc[,ea[,size]]")
            op = cells[0].lower()
            try:
                pc = int(cells[1], 0)
                ea_text = cells[2] if len(cells) > 2 else ""
                ea = None if ea_text in ("", "-") else int(ea_text, 0)
                size = int(cells[3], 0) if len(cells) > 3 and cells[3] else 4
            except ValueError as exc:
                raise IngestError(f"{path}:{lineno}: malformed field: {exc}") from exc
            problem = record_problem(op, pc, ea, size)
            if problem is not None:
                raise IngestError(f"{path}:{lineno}: {problem}")
            yield TraceRecord(op, pc, ea, size)
