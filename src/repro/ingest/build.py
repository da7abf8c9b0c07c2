"""Compile a portable external trace into the engine's build products.

The timing engine, the fetch-plan builder and the analysis profiler all
consume one thing: a ``list[DynInst]`` whose ``decoded`` records index a
:class:`~repro.isa.program.Program`.  This module synthesizes both from
a windowed portable-trace sample, so an ingested workload rides every
existing path — serial, cached, parallel, screened, served — without any
of them knowing it was not generated by a synthetic workload builder.

**The decode table.**  Every distinct ``(pc, class group)`` in the
sample becomes one static instruction slot.  Memory classes map to
``LW``/``SW`` (``modify`` replays as a store — the stricter port
demand); non-memory records map to ``ADD``/``FADD``/``NOP``; a slot
with at least one *taken* occurrence (a ``branch`` record) becomes a
conditional ``BEQ`` — or an unconditional ``J`` when every occurrence
was taken — so the branch predictor sees real outcome streams.
External traces carry no register operands, so synthesized instructions
have **no destination registers** (no false dependence chains: ILP is
bounded by the machine's structural resources, as address-only traces
can honestly express) and each memory slot reads a stable
pseudo base register hashed from its pc — real code overwhelmingly
keeps one base register per static access, which is the locality the
pretranslation mechanisms key on.

**Addresses are replayed verbatim** (truncated to the simulated 32-bit
VA space): instruction fetch, I/D-TLB and cache behaviour see the
external stream's pages, not a relocated synthetic layout.

**The workload name is the whole identity.**  ``trace_workload`` mints
a ``trace:<digest12>:<path>?<window>`` token embedding the source
file's content digest, its (url-quoted, absolute) path and the
canonical window query.  The token is a valid
:class:`~repro.eval.runner.RunRequest` workload everywhere a registered
workload name is, and because every store keys on the request, trace
content and window policy fold into result-store, artifact-store and
in-flight-dedup keys with no extra plumbing.  Any process that holds
the token can recompile the sample (worker pools, the serve daemon);
the digest is re-verified against the file on every compile, so a
mutated source can never silently alias an old key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote, unquote

from repro.eval.options import int_at_least
from repro.func.dyninst import DecodedInst, DynInst
from repro.isa.instructions import AddrMode, Instruction
from repro.isa.opcodes import Op, op_class
from repro.isa.program import Program
from repro.ingest.format import (
    IngestError,
    MEM_CLASSES,
    count_records,
    read_portable,
    source_digest,
)
from repro.ingest.window import WindowSpec

#: Workload-name prefix marking an ingested external trace.
TRACE_PREFIX = "trace:"

#: Hex digits of the source digest embedded in the workload name.
DIGEST_CHARS = 12

#: Static decode slots must fit the trace-record ``next_index`` field
#: (16 bits) so ingested builds serialize through the same ``TRCE``
#: codec as synthetic ones.
MAX_STATIC_SLOTS = 0x1_0000

#: Code placed by the synthesized program object; dynamic pcs replay
#: the external stream's own addresses and never consult this.
_CODE_BASE = 0x0040_0000

_MASK32 = 0xFFFF_FFFF


def is_trace_workload(name: str) -> bool:
    """True when ``name`` is an ingested-trace token, not a registry name."""
    return name.startswith(TRACE_PREFIX)


@dataclass(frozen=True)
class IngestSpec:
    """Parsed identity of an ingested workload: source + window policy."""

    path: str
    digest12: str
    window: WindowSpec

    def token(self) -> str:
        """The canonical workload name (see the module docstring)."""
        return (
            f"{TRACE_PREFIX}{self.digest12}:"
            f"{quote(self.path, safe='')}?{self.window.query()}"
        )

    @property
    def display(self) -> str:
        """Short human label: file stem + digest."""
        return f"{Path(self.path).stem}@{self.digest12}"


def parse_workload(name: str) -> IngestSpec:
    """Parse a ``trace:`` workload token back into its spec."""
    if not is_trace_workload(name):
        raise IngestError(f"not an ingested-trace workload name: {name!r}")
    body = name[len(TRACE_PREFIX) :]
    digest12, sep, rest = body.partition(":")
    if not sep or len(digest12) != DIGEST_CHARS or not _is_hex(digest12):
        raise IngestError(f"malformed trace workload token: {name!r}")
    quoted_path, sep, query = rest.rpartition("?")
    if not sep:
        raise IngestError(f"trace workload token has no window query: {name!r}")
    return IngestSpec(
        path=unquote(quoted_path),
        digest12=digest12,
        window=WindowSpec.from_query(query),
    )


def _is_hex(text: str) -> bool:
    return all(c in "0123456789abcdef" for c in text)


def trace_workload(path: "str | Path", window: "WindowSpec | None" = None) -> str:
    """Mint the workload token for an external trace file.

    Hashes the file (content identity), absolutizes the path (worker
    processes and daemons resolve it from any cwd) and canonicalizes
    the window spec.  The token is everything: pass it anywhere a
    workload name is accepted.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such trace file: {path}")
    spec = IngestSpec(
        path=str(path.resolve()),
        digest12=source_digest(path)[:DIGEST_CHARS],
        window=window or WindowSpec(),
    )
    return spec.token()


# ---------------------------------------------------------------------------
# Compilation.
# ---------------------------------------------------------------------------

#: Class group of each record op: one static slot per (pc, group).
_GROUP = {
    "load": "load",
    "store": "store",
    "modify": "store",
    "branch": "ctl",
    "other": "ctl",
    "fp": "fp",
    "nop": "nop",
}


@dataclass
class CompiledTrace:
    """An ingested build: synthesized program, dynamic stream, provenance."""

    program: Program
    trace: "list[DynInst]"
    #: ``EXTR``-section payload (see :func:`repro.func.tracefile.
    #: encode_extern_meta`): source digest/record count, window policy,
    #: compiled record/slot counts.
    meta: dict


def _base_register(pc: int, pool: int) -> int:
    """Stable pseudo base register for the memory access at ``pc``."""
    return 1 + ((((pc >> 2) * 0x9E37_79B1) & _MASK32) % pool)


def compile_workload(
    name_or_spec: "str | IngestSpec",
    int_regs: int = 32,
    fp_regs: int = 32,
    max_instructions: "int | None" = None,
) -> CompiledTrace:
    """Compile the windowed sample of an external trace.

    Streams the portable file twice (count, then extract — memory stays
    flat no matter how long the source is), verifies the content digest
    against the token, applies the window spec, truncates to
    ``max_instructions`` and synthesizes the program + dynamic stream.
    ``fp_regs`` is accepted for axis symmetry with synthetic builds
    (external records carry no FP register information).
    """
    spec = parse_workload(name_or_spec) if isinstance(name_or_spec, str) else name_or_spec
    path = Path(spec.path)
    if not path.is_file():
        raise IngestError(f"trace file has vanished: {path}")
    digest = source_digest(path)
    if not digest.startswith(spec.digest12):
        raise IngestError(
            f"trace file {path} has changed since its workload token was "
            f"minted (digest {digest[:DIGEST_CHARS]} != {spec.digest12}); "
            "re-ingest to mint a fresh token"
        )
    total = count_records(path)
    sampled = spec.window.extract(read_portable(path), total)
    if max_instructions is not None:
        sampled = itertools.islice(sampled, max_instructions)
    records = list(sampled)
    if not records:
        raise IngestError(f"window selection over {path} produced no records")

    # Pass 1: assign one static slot per distinct (pc, class group).
    slot_of: "dict[tuple[int, str], int]" = {}
    slot_indices = []
    pool = max(1, min(int_regs, 32) - 1)
    for rec in records:
        key = (rec.pc & _MASK32, _GROUP[rec.op])
        index = slot_of.get(key)
        if index is None:
            index = len(slot_of)
            if index >= MAX_STATIC_SLOTS:
                raise IngestError(
                    f"{path}: sample touches more than {MAX_STATIC_SLOTS} "
                    "distinct static instructions; tighten the sampling "
                    "window (see docs/ingestion.md)"
                )
            slot_of[key] = index
        slot_indices.append(index)

    # Pass 2: resolve control classes (any taken occurrence => branch;
    # all occurrences taken => unconditional) and first taken targets.
    n_slots = len(slot_of)
    taken_count = [0] * n_slots
    occurrences = [0] * n_slots
    target = [0] * n_slots
    has_target = [False] * n_slots
    for i, rec in enumerate(records):
        slot = slot_indices[i]
        occurrences[slot] += 1
        if rec.op == "branch":
            taken_count[slot] += 1
            if not has_target[slot] and i + 1 < len(records):
                target[slot] = slot_indices[i + 1]
                has_target[slot] = True

    # Pass 3: synthesize the decode table.
    instructions: "list[Instruction | None]" = [None] * n_slots
    for (pc, group), slot in slot_of.items():
        if group == "load":
            inst = Instruction(
                Op.LW, rs1=_base_register(pc, pool), mode=AddrMode.BASE_IMM
            )
        elif group == "store":
            inst = Instruction(
                Op.SW, rs1=_base_register(pc, pool), mode=AddrMode.BASE_IMM
            )
        elif group == "fp":
            inst = Instruction(Op.FADD)
        elif group == "nop":
            inst = Instruction(Op.NOP)
        elif taken_count[slot] == 0:
            inst = Instruction(Op.ADD)
        elif taken_count[slot] == occurrences[slot]:
            inst = Instruction(Op.J, target=target[slot])
        else:
            inst = Instruction(Op.BEQ, target=target[slot])
        instructions[slot] = inst
    program = Program(
        instructions,
        name=spec.display,
        code_base=_CODE_BASE,
    )
    decode = [
        DecodedInst(i, inst, op_class(inst.op)) for i, inst in enumerate(program)
    ]

    # Pass 4: the dynamic stream, addresses replayed verbatim.
    trace: "list[DynInst]" = []
    last = len(records) - 1
    for i, rec in enumerate(records):
        slot = slot_indices[i]
        ea = None
        if rec.op in MEM_CLASSES:
            ea = rec.ea & _MASK32
            if ea == _MASK32:
                # The trace codec reserves all-ones (it stores ea+1 in
                # 32 bits, 0 = no address); fold the top byte of VA
                # space onto its neighbour word.
                ea = _MASK32 - 1
        trace.append(
            DynInst(
                i,
                decode[slot],
                rec.pc & _MASK32,
                ea=ea,
                taken=rec.op == "branch",
                next_index=slot_indices[i + 1] if i < last else slot,
            )
        )
    meta = {
        "source_digest": digest,
        "source_records": total,
        "window": spec.window.to_payload(),
        "records": len(records),
        "static_slots": n_slots,
        "truncated": max_instructions is not None
        and len(records) == max_instructions,
    }
    return CompiledTrace(program=program, trace=trace, meta=meta)


# ---------------------------------------------------------------------------
# Shared CLI plumbing (--trace on repro, repro.eval, repro.check).
# ---------------------------------------------------------------------------


def add_trace_args(parser) -> None:
    """Install the shared ``--trace`` + window flags on ``parser``."""
    group = parser.add_argument_group(
        "trace ingestion (see docs/ingestion.md)"
    )
    group.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="replay an ingested external trace (portable format; see "
        "`python -m repro.ingest convert`) instead of a synthetic workload",
    )
    add_window_args(group)


def add_window_args(parser) -> None:
    """Install just the sampling-window flags (no ``--trace``).

    Each takes the range :class:`WindowSpec` accepts, so a bad value
    exits 2 at parse time instead of raising :class:`IngestError` later.
    """
    group = parser
    group.add_argument(
        "--trace-warmup",
        type=int_at_least(0),
        default=0,
        metavar="N",
        help="records skipped before sampling begins (default 0)",
    )
    group.add_argument(
        "--trace-window",
        type=int_at_least(0),
        default=0,
        metavar="N",
        help="sampling-window length in records (default 0 = one window "
        "over everything after warmup)",
    )
    group.add_argument(
        "--trace-windows",
        type=int_at_least(0),
        default=0,
        metavar="K",
        help="number of windows to keep (default 0 = all selected)",
    )
    group.add_argument(
        "--trace-select",
        choices=("stride", "random"),
        default="stride",
        help="window selection policy (default stride)",
    )
    group.add_argument(
        "--trace-stride",
        type=int_at_least(1),
        default=1,
        metavar="S",
        help="with stride selection: keep every S-th window (default 1)",
    )
    group.add_argument(
        "--trace-seed",
        type=int_at_least(0),
        default=0,
        metavar="SEED",
        help="with random selection: sampling seed (default 0; same seed "
        "=> bit-identical results)",
    )


def window_from_args(args) -> WindowSpec:
    """Build the :class:`WindowSpec` described by parsed trace flags."""
    return WindowSpec(
        warmup=args.trace_warmup,
        window=args.trace_window,
        count=args.trace_windows,
        select=args.trace_select,
        stride=args.trace_stride,
        seed=args.trace_seed,
    )


def trace_workload_from_args(args) -> "str | None":
    """The ingested workload token for parsed flags, or None without --trace."""
    if getattr(args, "trace", None) is None:
        return None
    return trace_workload(args.trace, window_from_args(args))
