"""Tests for the artifact container, its section codecs, and the new predictors."""

import struct

import pytest

from repro.branch.predictors import GSharePredictor, TournamentPredictor
from repro.caches.replacement import XorShift32
from repro.engine.config import MachineConfig
from repro.engine.frontend import (
    build_fetch_plan,
    decode_fetch_plan,
    encode_fetch_plan,
    fetch_config_key,
)
from repro.engine.machine import Machine
from repro.eval.artifacts import ArtifactStore
from repro.func.dyninst import DynInst
from repro.func.executor import Executor, capture_trace
from repro.func.tracefile import (
    SECTION_EXTERN,
    SECTION_PROGRAM,
    SECTION_TRACE,
    TraceFileError,
    decode_extern_meta,
    decode_program,
    decode_trace,
    encode_extern_meta,
    encode_program,
    encode_trace,
    read_container,
    write_container,
)
from repro.isa.assembler import assemble
from repro.tlb.factory import make_mechanism
from repro.workloads import make_workload

#: Tags of the retired encoded-replay-arrays and analysis-profile
#: sections; old build containers still carry them as unknown sections.
LEGACY_KERN = b"KERN"
LEGACY_PROF = b"PROF"

ASM = """
    lui  r2, 0x2000
    addi r4, r0, 30
loop:
    lw   r5, 0(r2)
    sw   r5, 4(r2)
    addi r2, r2, 8
    addi r4, r4, -1
    bne  r4, r0, loop
    halt
"""


def _save(path, program, trace) -> None:
    """Write a build container (program + trace), as the artifact store does."""
    write_container(
        path,
        {
            SECTION_PROGRAM: encode_program(program),
            SECTION_TRACE: encode_trace(trace, len(program)),
        },
    )


def _load(path, program) -> list:
    """Replay a container's trace section against ``program``."""
    return decode_trace(read_container(path)[SECTION_TRACE], program)


class TestTraceFile:
    def test_round_trip_preserves_stream(self, tmp_path):
        prog = assemble(ASM)
        original = list(Executor(prog).run())
        path = tmp_path / "trace.rptr"
        _save(path, prog, original)
        replayed = _load(path, prog)
        assert len(replayed) == len(original)
        for a, b in zip(original, replayed):
            assert (a.seq, a.pc, a.ea, a.taken, a.next_index) == (
                b.seq,
                b.pc,
                b.ea,
                b.taken,
                b.next_index,
            )
            assert a.decoded.index == b.decoded.index

    def test_replayed_trace_drives_machine_identically(self, tmp_path):
        prog = assemble(ASM)
        path = tmp_path / "trace.rptr"
        _save(path, prog, Executor(prog).run())

        def run(trace):
            cfg = MachineConfig()
            return Machine(cfg, make_mechanism("M8", cfg.page_shift), trace).run()

        live = run(Executor(prog).run())
        replay = run(_load(path, prog))
        assert replay.cycles == live.cycles
        assert replay.stats.committed == live.stats.committed

    def test_program_mismatch_rejected(self, tmp_path):
        prog = assemble(ASM)
        other = assemble("nop\nhalt")
        path = tmp_path / "trace.rptr"
        _save(path, prog, Executor(prog).run())
        with pytest.raises(TraceFileError, match="recorded against"):
            _load(path, other)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.rptr"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(TraceFileError, match="magic"):
            read_container(path)

    def test_truncated_file_rejected(self, tmp_path):
        prog = assemble(ASM)
        path = tmp_path / "trace.rptr"
        _save(path, prog, Executor(prog).run())
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(TraceFileError, match="truncated"):
            read_container(path)

    def test_workload_trace_round_trip(self, tmp_path):
        build = make_workload("espresso").build()
        trace = list(Executor(build.program, build.memory).run(max_instructions=3_000))
        path = tmp_path / "espresso.rptr"
        _save(path, build.program, trace)
        replayed = _load(path, build.program)
        assert [d.ea for d in replayed] == [d.ea for d in trace]


class TestArtifactContainer:
    """The version-2 sectioned container and its codecs."""

    def test_version_1_file_rejected_with_clear_error(self, tmp_path):
        # A version-1 file: the old bare header (magic, version, record
        # count, program length) followed by records, no sections.
        prog = assemble(ASM)
        trace = list(Executor(prog).run())
        path = tmp_path / "legacy.rptr"
        header = struct.Struct("<4sHxxQQ").pack(b"RPTR", 1, len(trace), len(prog))
        record = struct.Struct("<QIIIHH")
        with open(path, "wb") as fh:
            fh.write(header)
            for d in trace:
                ea = 0 if d.ea is None else d.ea + 1
                fh.write(
                    record.pack(d.seq, d.decoded.index, d.pc, ea, int(d.taken), d.next_index)
                )
        with pytest.raises(TraceFileError, match="version-1"):
            read_container(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.rptr"
        path.write_bytes(struct.Struct("<4sHxxQQ").pack(b"RPTR", 99, 0, 0))
        with pytest.raises(TraceFileError, match="unsupported version: 99"):
            read_container(path)

    def test_program_embedded_and_recoverable(self, tmp_path):
        prog = assemble(ASM)
        path = tmp_path / "trace.rptr"
        _save(path, prog, Executor(prog).run())
        again = decode_program(read_container(path)[SECTION_PROGRAM])
        assert len(again) == len(prog)
        assert again.code_base == prog.code_base
        assert again.listing() == prog.listing()

    def test_program_codec_round_trip_on_workload(self):
        build = make_workload("xlisp").build(int_regs=8, fp_regs=8)
        again = decode_program(encode_program(build.program))
        assert again.listing() == build.program.listing()
        assert again.labels == build.program.labels
        # The embedded program rebuilds an identical dynamic stream.
        trace = capture_trace(build.program, build.memory.clone(), 2_000)
        replayed = capture_trace(again, build.memory.clone(), 2_000)
        assert [(d.pc, d.ea, d.taken, d.next_index) for d in trace] == [
            (d.pc, d.ea, d.taken, d.next_index) for d in replayed
        ]

    def test_missing_section_rejected(self, tmp_path):
        # A build container without its trace or program section reads
        # as a clean miss in the artifact store, its one reader.
        store = ArtifactStore(tmp_path)
        axes = ("espresso", 32, 32, 1.0, 2_000)
        path = store.build_path(axes)
        path.parent.mkdir(parents=True)
        write_container(path, {SECTION_PROGRAM: encode_program(assemble("halt"))})
        assert store.load_build(axes) is None
        write_container(path, {SECTION_TRACE: b"\x00" * 16})
        assert store.load_build(axes) is None
        assert store.stats.misses == 2 and store.stats.hits == 0

    def test_corrupt_program_section_rejected(self, tmp_path):
        path = tmp_path / "bad.rpta"
        write_container(path, {SECTION_PROGRAM: b"{not json"})
        with pytest.raises(TraceFileError, match="malformed program"):
            decode_program(read_container(path)[SECTION_PROGRAM])


class TestContainerErrorPaths:
    """Malformed containers must raise TraceFileError, never a bare
    struct.error or KeyError from the codec internals."""

    _header = struct.Struct("<4sHxxQQ")
    _section = struct.Struct("<4sQ")

    def test_unknown_section_tag_retained(self, tmp_path):
        # Forward compatibility: a version-2 container written by a
        # newer build (extra section kind) must round-trip, not error.
        path = tmp_path / "future.rpta"
        path.write_bytes(
            self._header.pack(b"RPTR", 2, 1, 0)
            + self._section.pack(b"JUNK", 4)
            + b"data"
        )
        assert read_container(path) == {b"JUNK": b"data"}

    def test_malformed_section_tag_rejected(self, tmp_path):
        # Non-printable tag bytes mean corruption, not an extension.
        path = tmp_path / "corrupt.rpta"
        path.write_bytes(
            self._header.pack(b"RPTR", 2, 1, 0) + self._section.pack(b"\x00BAD", 0)
        )
        with pytest.raises(TraceFileError, match="malformed section tag"):
            read_container(path)

    def test_truncated_section_header_rejected(self, tmp_path):
        path = tmp_path / "chopped.rpta"
        path.write_bytes(self._header.pack(b"RPTR", 2, 1, 0) + b"\x00" * 5)
        with pytest.raises(TraceFileError, match="truncated section header"):
            read_container(path)

    def test_truncated_section_payload_rejected(self, tmp_path):
        path = tmp_path / "short.rpta"
        path.write_bytes(
            self._header.pack(b"RPTR", 2, 1, 0)
            + self._section.pack(SECTION_PROGRAM, 64)
            + b"short"
        )
        with pytest.raises(TraceFileError, match="truncated b'PROG' section"):
            read_container(path)

    def test_truncated_record_stream_rejected(self, tmp_path):
        prog = assemble(ASM)
        path = tmp_path / "records.rptr"
        _save(path, prog, Executor(prog).run())
        sections = read_container(path)
        # Claim one more record than the payload actually holds.
        head = struct.Struct("<QQ")
        count, prog_len = head.unpack_from(sections[SECTION_TRACE])
        doctored = head.pack(count + 1, prog_len) + sections[SECTION_TRACE][head.size :]
        write_container(path, {SECTION_PROGRAM: sections[SECTION_PROGRAM],
                               SECTION_TRACE: doctored})
        with pytest.raises(TraceFileError, match="truncated record stream"):
            _load(path, prog)

    def test_negative_sequence_number_rejected(self):
        # Wrong-path synthetics carry negative seqs and must never be
        # persisted; the codec rejects them instead of leaking a
        # struct.error.
        prog = assemble(ASM)
        first = next(iter(Executor(prog).run()))
        synthetic = DynInst(
            -1,
            first.decoded,
            first.pc,
            ea=first.ea,
            taken=first.taken,
            next_index=first.next_index,
        )
        with pytest.raises(TraceFileError, match="negative sequence"):
            encode_trace([synthetic], len(prog))


class TestCorruptSectionLengths:
    """A corrupted u64 section length must surface as TraceFileError —
    never a struct.error, a MemoryError from a multi-GiB read attempt,
    or a silent short read."""

    _header = struct.Struct("<4sHxxQQ")
    _section = struct.Struct("<4sQ")

    def _container(self, tmp_path, tag, payload=b"payload"):
        path = tmp_path / "c.rpta"
        write_container(path, {tag: payload})
        return path

    @pytest.mark.parametrize(
        "tag", [SECTION_EXTERN, LEGACY_KERN, LEGACY_PROF, SECTION_TRACE]
    )
    def test_huge_declared_length_rejected(self, tmp_path, tag):
        path = self._container(tmp_path, tag)
        data = bytearray(path.read_bytes())
        # Overwrite the section length with ~16 EiB; a naive
        # handle.read(length) would try to allocate it.
        struct.pack_into("<Q", data, self._header.size + 4, 2**63)
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFileError, match="declares"):
            read_container(path)

    @pytest.mark.parametrize("tag", [SECTION_EXTERN, LEGACY_KERN, LEGACY_PROF])
    def test_trailing_section_truncated_on_disk_rejected(self, tmp_path, tag):
        # The doctored tag is the *last* section: without an explicit
        # length-vs-file-size check its short read would previously
        # slip through as a silently clipped payload.
        path = tmp_path / "c.rpta"
        write_container(
            path, {SECTION_PROGRAM: b"first", tag: b"0123456789abcdef"}
        )
        path.write_bytes(path.read_bytes()[:-9])
        with pytest.raises(TraceFileError, match="truncated"):
            read_container(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = self._container(tmp_path, SECTION_PROGRAM)
        path.write_bytes(path.read_bytes() + b"\x00garbage")
        with pytest.raises(TraceFileError, match="trailing data"):
            read_container(path)


class TestExternMetaCodec:
    """EXTR section payload: versioned canonical-JSON provenance."""

    META = {
        "source_digest": "ab" * 32,
        "source_records": 123456,
        "window": {"warmup": 5, "window": 100, "count": 2,
                   "select": "stride", "stride": 1, "seed": 0},
        "records": 200,
        "static_slots": 40,
        "truncated": False,
    }

    def test_round_trip(self):
        assert decode_extern_meta(encode_extern_meta(self.META)) == self.META

    def test_canonical_encoding_is_stable(self):
        shuffled = dict(reversed(list(self.META.items())))
        assert encode_extern_meta(shuffled) == encode_extern_meta(self.META)

    def test_non_json_rejected(self):
        with pytest.raises(TraceFileError, match="malformed extern"):
            decode_extern_meta(b"\xff\xfenot json")

    def test_non_object_rejected(self):
        with pytest.raises(TraceFileError, match="malformed extern"):
            decode_extern_meta(b"[1, 2, 3]")

    def test_unknown_version_rejected(self):
        payload = encode_extern_meta(self.META).replace(
            b'"version":1', b'"version":9'
        )
        with pytest.raises(TraceFileError, match="version"):
            decode_extern_meta(payload)


class TestFetchPlanCodec:
    """FetchPlan round trip through the PLAN payload encoding."""

    def _plan_shape(self, plan):
        shape = []
        for event in plan.events:
            if event.__class__ is int:
                shape.append(event)
            else:
                group, branches, jumps = event
                shape.append(
                    (
                        [d.seq for d in group.insts],
                        group.mispredicted_tail,
                        branches,
                        jumps,
                    )
                )
        return shape

    def test_round_trip_preserves_events_and_stats(self):
        build = make_workload("compress").build()
        trace = capture_trace(build.program, build.memory.clone(), 4_000)
        config = MachineConfig(model_itlb=True, itlb_entries=2)
        plan = build_fetch_plan(trace, config)
        again = decode_fetch_plan(encode_fetch_plan(plan, len(trace)), trace)
        assert self._plan_shape(again) == self._plan_shape(plan)
        assert again.icache_stats == plan.icache_stats

    def test_decoded_plan_drives_machine_identically(self):
        build = make_workload("espresso").build()
        trace = capture_trace(build.program, build.memory.clone(), 3_000)
        config = MachineConfig()
        plan = build_fetch_plan(trace, config)
        again = decode_fetch_plan(encode_fetch_plan(plan, len(trace)), trace)

        def run(p):
            mech = make_mechanism("T1", config.page_shift)
            return Machine(config, mech, trace, fetch_plan=p).run()

        live, hydrated = run(plan), run(again)
        assert hydrated.cycles == live.cycles
        assert hydrated.stats.committed == live.stats.committed

    def test_trace_length_mismatch_rejected(self):
        build = make_workload("compress").build()
        trace = capture_trace(build.program, build.memory.clone(), 1_000)
        plan = build_fetch_plan(trace, MachineConfig())
        data = encode_fetch_plan(plan, len(trace))
        with pytest.raises(TraceFileError, match="built over"):
            decode_fetch_plan(data, trace[:-10])

    def test_truncated_payload_rejected(self):
        build = make_workload("compress").build()
        trace = capture_trace(build.program, build.memory.clone(), 500)
        plan = build_fetch_plan(trace, MachineConfig())
        data = encode_fetch_plan(plan, len(trace))
        with pytest.raises(TraceFileError, match="truncated"):
            decode_fetch_plan(data[:-4], trace)

    def test_fetch_config_key_tracks_frontend_fields(self):
        base = fetch_config_key(MachineConfig())
        assert fetch_config_key(MachineConfig()) == base
        assert fetch_config_key(MachineConfig(predictor="gshare")) != base
        assert fetch_config_key(MachineConfig(fetch_width=4)) != base
        # Fields fetch never observes do not perturb the key.
        assert fetch_config_key(MachineConfig(tlb_miss_latency=99)) == base


def _accuracy(predictor, stream):
    correct = 0
    for pc, taken in stream:
        if predictor.predict(pc) == taken:
            correct += 1
        predictor.update(pc, taken)
    return correct / len(stream)


class TestNewPredictors:
    def test_gshare_learns_loop_pattern(self):
        p = GSharePredictor()
        pattern = [True] * 5 + [False]
        stream = [(0x4000, t) for _ in range(60) for t in pattern]
        _accuracy(p, stream[:120])
        assert _accuracy(p, stream[120:]) > 0.95

    def test_gshare_validation(self):
        with pytest.raises(ValueError):
            GSharePredictor(pht_entries=100)
        with pytest.raises(ValueError):
            GSharePredictor(history_bits=0)

    def test_tournament_beats_its_components_on_mixed_streams(self):
        rng = XorShift32(5)
        # Branch A: biased 90% taken (bimodal-friendly).
        # Branch B: strict alternation (history-friendly).
        stream = []
        for i in range(3000):
            stream.append((0x4000, rng.below(10) != 0))
            stream.append((0x4010, bool(i % 2)))
        tournament = _accuracy(TournamentPredictor(), list(stream))
        assert tournament > 0.85

    def test_tournament_validation(self):
        with pytest.raises(ValueError):
            TournamentPredictor(entries=100)

    def test_machine_accepts_each_predictor(self):
        prog = assemble(ASM)
        for kind in ("gap", "gshare", "bimodal", "tournament", "taken"):
            cfg = MachineConfig(predictor=kind)
            mech = make_mechanism("T4", cfg.page_shift)
            res = Machine(cfg, mech, Executor(prog).run()).run()
            assert res.stats.committed > 0

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(predictor="neural")
