"""Tests for the real-trace ingestion frontend (repro.ingest)."""

import dataclasses
import gzip
import json

import pytest

from repro.check.diff import run_differential
from repro.eval.artifacts import ArtifactStore
from repro.eval.options import EvalOptions
from repro.eval.parallel import run_many
from repro.eval.runner import (
    RunRequest,
    clear_build_cache,
    configure_artifacts,
    simulate,
)
from repro.ingest import (
    IngestError,
    TraceRecord,
    WindowSpec,
    compile_workload,
    convert_csv,
    convert_lackey,
    count_records,
    is_trace_workload,
    parse_workload,
    read_portable,
    trace_workload,
    write_portable,
)
from repro.ingest.__main__ import main as ingest_main
from repro.isa.opcodes import Op


def synthetic_records(n=3000, seed=99):
    """Deterministic mixed-class record stream with real-looking locality."""
    state = seed
    records = []

    def rnd():
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return state

    for _ in range(n):
        pc = 0x0001_0000 + (rnd() % 300) * 4
        op = ("load", "store", "other", "branch", "fp", "nop", "modify")[rnd() % 7]
        if op in ("load", "store", "modify"):
            records.append(TraceRecord(op, pc, 0x0040_0000 + (rnd() % 32768), 4))
        else:
            records.append(TraceRecord(op, pc))
    return records


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "ext.ndjson"
    write_portable(path, synthetic_records())
    return path


class TestPortableFormat:
    RECORDS = [
        TraceRecord("load", 0x1000, 0x2000, 4),
        TraceRecord("other", 0x1004),
        TraceRecord("branch", 0x1008),
        TraceRecord("store", 0x100C, 0xFFFF_FFFF, 8),
        TraceRecord("fp", 0x1010),
        TraceRecord("nop", 0x1014),
        TraceRecord("modify", 0x1018, 0x3000, 1),
    ]

    @pytest.mark.parametrize("name", ["t.ndjson", "t.ndjson.gz"])
    def test_round_trip(self, tmp_path, name):
        path = tmp_path / name
        assert write_portable(path, self.RECORDS) == len(self.RECORDS)
        assert list(read_portable(path)) == self.RECORDS
        assert count_records(path) == len(self.RECORDS)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"op":"load","pc":1,"ea":2}\n')
        with pytest.raises(IngestError, match="not a portable trace"):
            list(read_portable(path))

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"format":"repro-trace","version":99}\n')
        with pytest.raises(IngestError, match="version"):
            list(read_portable(path))

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text(
            '{"format":"repro-trace","version":1}\n'
            '{"op":"load","pc":4096,"ea":8192}\n'
            '{"op":"load","pc":4100}\n'  # memory class without ea
        )
        with pytest.raises(IngestError, match=":3"):
            list(read_portable(path))

    def test_unknown_op_class_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        with pytest.raises(IngestError, match="unknown op class"):
            write_portable(path, [TraceRecord("warp", 0x1000)])

    def test_rptx_file_is_not_a_portable_trace(self, tmp_path):
        path = tmp_path / "t.rptx"
        path.write_bytes(b"RPTX\x01\x00\x00\x00\x07" + bytes(7))
        with pytest.raises(IngestError, match="not a portable trace"):
            list(read_portable(path))
        with pytest.raises(IngestError, match="not a portable trace"):
            count_records(path)


class TestConverters:
    LACKEY = (
        "==1234== lackey banner, ignored\n"
        "I  0023C790,4\n"
        " L 04EFF8A8,8\n"
        "I  0023C794,4\n"  # falls through -> other
        "I  0023C798,4\n"  # successor pc jumps -> branch
        "I  00400000,4\n"
        " S 04EFF8A0,4\n"
        " M 0425D490,1\n"
    )

    def test_lackey_classes_and_branch_inference(self, tmp_path):
        path = tmp_path / "cap.log"
        path.write_text(self.LACKEY)
        out = list(convert_lackey(path))
        assert [r.op for r in out] == ["load", "other", "branch", "store", "modify"]
        assert out[0].pc == 0x23C790 and out[0].ea == 0x4EFF8A8 and out[0].size == 8
        assert out[2].pc == 0x23C798
        # memory records inherit their instruction's pc
        assert out[3].pc == out[4].pc == 0x400000

    def test_lackey_gzip_input(self, tmp_path):
        path = tmp_path / "cap.log.gz"
        with gzip.open(path, "wt") as handle:
            handle.write(self.LACKEY)
        assert len(list(convert_lackey(path))) == 5

    def test_lackey_orphan_memory_line_rejected(self, tmp_path):
        path = tmp_path / "cap.log"
        path.write_text(" L 04EFF8A8,8\n")
        with pytest.raises(IngestError, match="before any instruction"):
            list(convert_lackey(path))

    def test_lackey_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "cap.log"
        path.write_text("I  0023C790,4\nwhat is this\n")
        with pytest.raises(IngestError, match="unrecognized"):
            list(convert_lackey(path))

    def test_csv_with_header_and_radixes(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "# a comment\n"
            "op,pc,ea,size\n"
            "load,0x1000,0x2000,4\n"
            "OTHER,4100,,\n"
            "branch,0x1008,-\n"
        )
        out = list(convert_csv(path))
        assert [r.op for r in out] == ["load", "other", "branch"]
        assert out[1].pc == 4100 and out[1].ea is None

    def test_csv_without_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("store,0x10,0x20,4\n")
        out = list(convert_csv(path))
        assert out[0].op == "store" and out[0].ea == 0x20

    def test_csv_bad_field_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("load,0x1000,0x2000\nload,zzz,1\n")
        with pytest.raises(IngestError, match=":2"):
            list(convert_csv(path))


class TestWindowSpec:
    def test_query_round_trip(self):
        spec = WindowSpec(warmup=7, window=50, count=3, select="random", stride=2, seed=11)
        assert WindowSpec.from_query(spec.query()) == spec

    def test_payload_round_trip(self):
        spec = WindowSpec(warmup=1, window=2, count=3)
        assert WindowSpec.from_payload(spec.to_payload()) == spec

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warmup": -1},
            {"window": -5},
            {"count": -2},
            {"select": "alternating"},
            {"stride": 0},
            {"seed": -3},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(IngestError):
            WindowSpec(**kwargs)

    def test_default_is_single_window_after_warmup(self):
        assert WindowSpec(warmup=10).select_windows(100) == [(10, 100)]

    def test_stride_selection(self):
        spec = WindowSpec(warmup=10, window=20, count=3, stride=2)
        assert spec.select_windows(200) == [(10, 30), (50, 70), (90, 110)]

    def test_partial_tail_never_selected(self):
        # 25 records, window 10 -> exactly two complete windows.
        assert WindowSpec(window=10).select_windows(25) == [(0, 10), (10, 20)]

    def test_random_is_deterministic_distinct_and_ordered(self):
        spec = WindowSpec(window=10, count=4, select="random", seed=7)
        first = spec.select_windows(1000)
        assert first == spec.select_windows(1000)
        assert len(first) == 4 == len(set(first))
        assert first == sorted(first)

    def test_random_seed_changes_sample(self):
        base = WindowSpec(window=10, count=5, select="random", seed=1)
        other = dataclasses.replace(base, seed=2)
        assert base.select_windows(1000) != other.select_windows(1000)

    def test_seed_zero_allowed(self):
        spec = WindowSpec(window=10, count=2, select="random", seed=0)
        assert len(spec.select_windows(100)) == 2

    def test_warmup_swallowing_stream_rejected(self):
        with pytest.raises(IngestError, match="swallows"):
            WindowSpec(warmup=100).select_windows(100)

    def test_window_longer_than_remainder_rejected(self):
        with pytest.raises(IngestError, match="exceeds"):
            WindowSpec(warmup=90, window=20).select_windows(100)

    def test_extract_streams_selected_ranges(self):
        spec = WindowSpec(warmup=10, window=20, count=3, stride=2)
        sampled = list(spec.extract(iter(range(200)), 200))
        assert sampled == list(range(10, 30)) + list(range(50, 70)) + list(range(90, 110))


class TestWorkloadToken:
    def test_mint_and_parse_round_trip(self, trace_file):
        window = WindowSpec(warmup=5, window=100, count=2, select="random", seed=3)
        token = trace_workload(trace_file, window)
        assert is_trace_workload(token)
        spec = parse_workload(token)
        assert spec.path == str(trace_file.resolve())
        assert spec.window == window
        assert spec.token() == token

    def test_token_embeds_content_digest(self, trace_file):
        token = trace_workload(trace_file)
        trace_file.write_text(trace_file.read_text() + '{"op":"other","pc":64,"size":4}\n')
        assert trace_workload(trace_file) != token

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(IngestError, match="no such trace file"):
            trace_workload(tmp_path / "absent.ndjson")

    @pytest.mark.parametrize(
        "name",
        ["trace:zz", "trace:abc:def", "trace:0123456789ab:%2 ?w=0", "regular-workload"],
    )
    def test_malformed_tokens_rejected(self, name):
        with pytest.raises(IngestError):
            parse_workload(name)


class TestCompile:
    def test_addresses_replayed_verbatim(self, trace_file):
        records = list(read_portable(trace_file))
        compiled = compile_workload(trace_workload(trace_file))
        assert len(compiled.trace) == len(records)
        for rec, dyn in zip(records, compiled.trace):
            assert dyn.pc == rec.pc
            if rec.op in ("load", "store", "modify"):
                assert dyn.ea == rec.ea
            else:
                assert dyn.ea is None

    def test_no_destination_registers(self, trace_file):
        compiled = compile_workload(trace_workload(trace_file))
        assert all(not dyn.decoded.dests for dyn in compiled.trace)

    def test_memory_slots_carry_base_registers(self, trace_file):
        compiled = compile_workload(trace_workload(trace_file))
        mem = [d for d in compiled.trace if d.decoded.is_mem]
        assert mem
        assert all(d.decoded.base_reg not in (None, 0) for d in mem)
        # One stable base register per static slot.
        by_slot = {}
        for dyn in mem:
            by_slot.setdefault(dyn.decoded.index, set()).add(dyn.decoded.base_reg)
        assert all(len(regs) == 1 for regs in by_slot.values())

    def test_branch_class_inference(self, tmp_path):
        path = tmp_path / "b.ndjson"
        write_portable(
            path,
            [
                TraceRecord("branch", 0x100),  # always taken -> J
                TraceRecord("other", 0x200),
                TraceRecord("branch", 0x200),  # mixed at same pc -> BEQ
                TraceRecord("other", 0x300),  # never taken -> ADD
                TraceRecord("branch", 0x100),
            ],
        )
        compiled = compile_workload(trace_workload(path))
        ops = {dyn.pc: dyn.decoded.op for dyn in compiled.trace}
        assert ops[0x100] is Op.J
        assert ops[0x200] is Op.BEQ
        assert ops[0x300] is Op.BEQ or ops[0x300] is Op.ADD
        # the taken occurrences are marked taken, fall-throughs not
        taken = [dyn.taken for dyn in compiled.trace]
        assert taken == [True, False, True, False, True]

    def test_huge_effective_address_clamped_not_wrapped(self, tmp_path):
        path = tmp_path / "e.ndjson"
        write_portable(path, [TraceRecord("load", 0x1000, 0xFFFF_FFFF, 4)])
        compiled = compile_workload(trace_workload(path))
        assert compiled.trace[0].ea == 0xFFFF_FFFE  # never 0/None via the +1 codec

    def test_windowing_and_truncation(self, trace_file):
        token = trace_workload(trace_file, WindowSpec(warmup=100, window=500, count=2))
        compiled = compile_workload(token, max_instructions=700)
        assert len(compiled.trace) == 700
        assert compiled.meta["truncated"] is True
        assert compiled.meta["source_records"] == 3000
        records = list(read_portable(trace_file))
        sampled = records[100:600] + records[600:800]
        assert [d.pc for d in compiled.trace] == [r.pc for r in sampled]

    def test_sequence_renumbered_after_windowing(self, trace_file):
        token = trace_workload(trace_file, WindowSpec(warmup=500, window=200, count=1))
        compiled = compile_workload(token)
        assert [d.seq for d in compiled.trace] == list(range(200))

    def test_mutated_source_rejected(self, trace_file):
        token = trace_workload(trace_file)
        trace_file.write_text(trace_file.read_text() + '{"op":"other","pc":64,"size":4}\n')
        with pytest.raises(IngestError, match="changed since"):
            compile_workload(token)

    def test_empty_window_rejected(self, tmp_path):
        path = tmp_path / "tiny.ndjson"
        write_portable(path, [TraceRecord("other", 0x100)])
        with pytest.raises(IngestError):
            compile_workload(trace_workload(path, WindowSpec(warmup=5)))


def _stats(result):
    return dataclasses.asdict(result.stats)


class TestEngineIntegration:
    """Satellite 3: bit-identity across every execution path."""

    BUDGET = 2000

    def request(self, token, design="M8", **config):
        return RunRequest.create(
            token, design, max_instructions=self.BUDGET, **config
        )

    def test_cached_path_bit_identical(self, trace_file, tmp_path):
        token = trace_workload(trace_file, WindowSpec(window=500, count=4))
        store = ArtifactStore(tmp_path / "art", fingerprint="test")
        req = self.request(token)
        fresh = _stats(simulate(req))
        previous = configure_artifacts(store)
        try:
            clear_build_cache()
            first = _stats(simulate(req))  # compiles, persists
            clear_build_cache()
            hydrated = _stats(simulate(req))  # hydrates from the container
        finally:
            configure_artifacts(previous)
            clear_build_cache()
        assert fresh == first == hydrated
        assert fresh["committed"] == self.BUDGET
        assert store.stats.hits >= 1

    def test_parallel_jobs_bit_identical(self, trace_file):
        token = trace_workload(trace_file, WindowSpec(window=500, count=4))
        reqs = [self.request(token, design) for design in ("M8", "T4")]
        serial = [_stats(r) for r in run_many(reqs, EvalOptions(jobs=1))]
        parallel = [_stats(r) for r in run_many(reqs, EvalOptions(jobs=2))]
        assert serial == parallel

    def test_same_seed_same_result_different_seed_differs(self, trace_file):
        def run(seed):
            token = trace_workload(
                trace_file, WindowSpec(window=300, count=3, select="random", seed=seed)
            )
            return _stats(simulate(self.request(token)))

        assert run(9) == run(9)
        assert run(9) != run(10)


class TestArtifactExternSection:
    """``load_build`` verifies an ingested build's ``EXTR`` provenance
    against the ``trace:`` token its axes name."""

    @staticmethod
    def axes(token):
        return RunRequest(token, "T4", max_instructions=500).build_axes

    @staticmethod
    def compiled(token):
        return compile_workload(token, max_instructions=500)

    def test_round_trip(self, trace_file, tmp_path):
        token = trace_workload(trace_file)
        store = ArtifactStore(tmp_path, fingerprint="t")
        c = self.compiled(token)
        store.save_ingested(self.axes(token), c.program, c.trace, c.meta)
        program, trace = store.load_build(self.axes(token))
        assert len(program) == len(c.program)
        assert [d.pc for d in trace] == [d.pc for d in c.trace]
        assert store.stats.hits == 1 and store.stats.misses == 0

    def test_digest_mismatch_is_clean_miss(self, trace_file, tmp_path):
        token = trace_workload(trace_file)
        other = tmp_path / "other.ndjson"
        write_portable(other, synthetic_records(seed=7))
        store = ArtifactStore(tmp_path, fingerprint="t")
        c = self.compiled(trace_workload(other))
        store.save_ingested(self.axes(token), c.program, c.trace, c.meta)
        assert store.load_build(self.axes(token)) is None
        assert store.stats.misses == 1

    def test_window_mismatch_is_clean_miss(self, trace_file, tmp_path):
        token = trace_workload(trace_file)
        store = ArtifactStore(tmp_path, fingerprint="t")
        c = self.compiled(trace_workload(trace_file, WindowSpec(warmup=1)))
        store.save_ingested(self.axes(token), c.program, c.trace, c.meta)
        assert store.load_build(self.axes(token)) is None
        assert store.stats.misses == 1

    def test_missing_extern_section_is_clean_miss(self, trace_file, tmp_path):
        token = trace_workload(trace_file)
        store = ArtifactStore(tmp_path, fingerprint="t")
        c = self.compiled(token)
        store.save_build(self.axes(token), c.program, c.trace)
        assert store.load_build(self.axes(token)) is None
        assert store.stats.misses == 1

    def test_corrupt_container_is_clean_miss(self, trace_file, tmp_path):
        token = trace_workload(trace_file)
        store = ArtifactStore(tmp_path, fingerprint="t")
        c = self.compiled(token)
        path = store.save_ingested(self.axes(token), c.program, c.trace, c.meta)
        data = bytearray(path.read_bytes())
        data[40] ^= 0xFF
        path.write_bytes(bytes(data))
        # A flipped byte inside a payload string may still decode; it
        # must never raise, and whatever it reads is counted.
        hydrated = store.load_build(self.axes(token))
        assert store.stats.misses == (hydrated is None)
        assert store.stats.hits == (hydrated is not None)


class TestDifferentialHarness:
    def test_ingested_leg_runs_clean(self, trace_file):
        token = trace_workload(trace_file, WindowSpec(window=400, count=2))
        req = RunRequest(workload=token, design="T4", max_instructions=800)
        report = run_differential(req)
        assert report.ok, report.render()
        # functional is auto-skipped: no functional executor behind a trace
        assert "functional" not in report.checks
        assert {"loops", "artifacts"} <= set(report.checks)


class TestIngestCli:
    def test_convert_inspect_compile(self, tmp_path, capsys):
        cap = tmp_path / "cap.log"
        cap.write_text(TestConverters.LACKEY)
        out = tmp_path / "t.ndjson"
        assert ingest_main(["convert", str(cap), str(out)]) == 0
        assert "wrote 5 records" in capsys.readouterr().out
        assert ingest_main(["inspect", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 5
        assert summary["by_class"]["load"] == 1
        assert ingest_main(["compile", str(out)]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["records"] == 5 and info["static_slots"] >= 4

    def test_convert_error_exit_code(self, tmp_path, capsys):
        cap = tmp_path / "cap.log"
        cap.write_text(" L 04EFF8A8,8\n")
        out = tmp_path / "t.ndjson"
        assert ingest_main(["convert", str(cap), str(out)]) == 1
        assert "error:" in capsys.readouterr().err

    # ``compile`` stores nothing: the build cache compiles a token's
    # build the first time a run needs it and writes it through.
    @pytest.mark.parametrize("budget", [None, 700])
    def test_compiled_build_hydrates_in_the_runner(self, trace_file, tmp_path, budget):
        """A build the cache wrote through hydrates in a fresh cache."""
        from repro.eval.runner import _BuildCache

        given = {} if budget is None else {"max_instructions": budget}
        req = RunRequest(trace_workload(trace_file), "T4", **given)
        writer = ArtifactStore(tmp_path / "art")
        built = _BuildCache(artifacts=writer).get_trace(*req.build_axes)
        assert (writer.stats.hits, writer.stats.misses, writer.stats.puts) == (0, 1, 1)
        store = ArtifactStore(tmp_path / "art")
        trace = _BuildCache(artifacts=store).get_trace(*req.build_axes)
        assert (store.stats.hits, store.stats.misses, store.stats.puts) == (1, 0, 0)
        assert len(trace) == len(built) == min(req.max_instructions, 3000)

    def test_two_traces_give_two_entries(self, trace_file, tmp_path):
        from repro.eval.runner import _BuildCache

        other = tmp_path / "other.ndjson"
        write_portable(other, synthetic_records(seed=7))
        store = ArtifactStore(tmp_path / "art")
        for path in (trace_file, other):
            req = RunRequest(trace_workload(path), "T4", max_instructions=500)
            _BuildCache(artifacts=store).get_trace(*req.build_axes)
        assert len(ArtifactStore(tmp_path / "art")) == 2


class TestTopLevelCli:
    def test_repro_run_trace(self, trace_file, capsys):
        from repro.__main__ import main as repro_main

        code = repro_main(
            ["run", "M8", "--trace", str(trace_file), "--insts", "1500",
             "--trace-window", "500", "--trace-windows", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "ext@" in out

    def test_repro_run_trace_and_workload_conflict(self, trace_file):
        from repro.__main__ import main as repro_main

        with pytest.raises(SystemExit):
            repro_main(["run", "xlisp", "M8", "--trace", str(trace_file)])

    def test_eval_figure6_over_trace(self, trace_file, capsys):
        from repro.eval.__main__ import main as eval_main

        code = eval_main(["figure6", "--trace", str(trace_file), "--insts", "1000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ext@" in out and "RTW Avg" in out

    def test_eval_figure5_over_trace(self, trace_file, capsys):
        from repro.eval.__main__ import main as eval_main

        code = eval_main(
            ["figure5", "--trace", str(trace_file), "--insts", "1000",
             "--designs", "M8", "--no-cache", "--quiet"]
        )
        assert code == 0
        assert "ext@" in capsys.readouterr().out
