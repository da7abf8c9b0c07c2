"""Ingest parsers: output identity, strict field types and the CLI default.

The streaming parsers in :mod:`repro.ingest.convert` and
:mod:`repro.ingest.format` read canonical lines with a compiled regex
and fall back to ``json.loads`` for any other JSON line; these tests pin
their output to fixed digests and to a plain ``json.loads`` reference.
"""

import gzip
import hashlib
import json
import re
import struct
from pathlib import Path

import pytest

import repro.ingest.build as ingest_build
from repro.func.tracefile import encode_program, encode_trace
from repro.ingest import (
    IngestError,
    TraceRecord,
    WindowSpec,
    compile_workload,
    convert_csv,
    convert_lackey,
    count_records,
    parse_workload,
    read_portable,
    trace_workload,
    write_portable,
)
from repro.ingest.__main__ import main as ingest_main

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "benchmarks" / "fixtures" / "lackey_mixed.log.gz"
#: sha256 of the fixture converted to NDJSON.
FIXTURE_NDJSON_SHA256 = (
    "eb10b27598aacb709a43645cc40ffcbf2e80780ebb9b555eecce4edee193ee8a"
)
HEADER = '{"format":"repro-trace","version":1}\n'


@pytest.fixture(scope="module")
def fixture_ndjson(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixture") / "lackey_mixed.ndjson"
    write_portable(path, convert_lackey(FIXTURE))
    return path


def json_reference(path):
    """Decode an NDJSON portable trace with plain ``json.loads`` per line."""
    with open(path) as handle:
        handle.readline()
        for line in handle:
            payload = json.loads(line)
            yield TraceRecord(
                payload["op"], payload["pc"], payload.get("ea"), payload.get("size", 4)
            )


class TestIdentity:
    def test_fixture_conversion_digest(self, fixture_ndjson):
        digest = hashlib.sha256(fixture_ndjson.read_bytes()).hexdigest()
        assert digest == FIXTURE_NDJSON_SHA256

    def test_reader_matches_json_reference(self, fixture_ndjson):
        assert list(read_portable(fixture_ndjson)) == list(json_reference(fixture_ndjson))

    def test_binary_form_reads_the_same_records(self, fixture_ndjson, tmp_path):
        binary = tmp_path / "fixture.rptx"
        write_portable(binary, read_portable(fixture_ndjson), binary=True)
        assert count_records(binary) == count_records(fixture_ndjson)
        assert list(read_portable(binary)) == list(read_portable(fixture_ndjson))

    def test_compile_matches_json_reference(self, fixture_ndjson, monkeypatch):
        # The cold-build benchmark's window and budget.
        window = WindowSpec(warmup=2_000, window=1_000, count=5, select="random", seed=7)
        spec = parse_workload(trace_workload(fixture_ndjson, window))

        def build():
            compiled = compile_workload(spec, int_regs=32, fp_regs=32, max_instructions=5_000)
            return (
                encode_program(compiled.program),
                encode_trace(compiled.trace, len(compiled.program)),
                compiled.meta,
            )

        fast = build()
        monkeypatch.setattr(ingest_build, "read_portable", json_reference)
        assert build() == fast
        assert fast[2]["records"] == 5_000

    def test_docs_examples_read_through_fallback(self, tmp_path):
        docs = (ROOT / "docs" / "ingestion.md").read_text()
        example = re.search(r"```json\n(.*?)```", docs, re.S).group(1)
        assert '"op": "load"' in example  # spaced, so not the canonical form
        path = tmp_path / "example.ndjson"
        path.write_text(example)
        expected = [
            TraceRecord("load", 4194320, 83886080, 8),
            TraceRecord("other", 4194324, None, 4),
            TraceRecord("branch", 4194328, None, 4),
        ]
        assert list(read_portable(path)) == expected
        canonical = tmp_path / "canonical.ndjson"
        write_portable(canonical, expected)
        assert list(read_portable(canonical)) == expected

    def test_canonical_line_shape(self, tmp_path):
        path = tmp_path / "t.ndjson"
        write_portable(path, [TraceRecord("load", 1, 2, 8), TraceRecord("other", 3)])
        assert path.read_text() == (
            HEADER
            + '{"op":"load","pc":1,"ea":2,"size":8}\n'
            + '{"op":"other","pc":3,"size":4}\n'
        )


class TestStrictFields:
    @pytest.mark.parametrize(
        "record",
        [
            '{"op":"load","pc":1.5,"ea":4,"size":4}',
            '{"op":"load","pc":"12","ea":4,"size":4}',
            '{"op":"load","pc":1,"ea":true,"size":4}',
            '{"op":"load","pc":1,"ea":4,"size":false}',
            '{"op":"other","pc":1e2}',
            '{"op":"other","pc":NaN}',
            '{"op":["load"],"pc":1,"ea":4}',
        ],
    )
    def test_non_integer_fields_rejected(self, tmp_path, record):
        path = tmp_path / "bad.ndjson"
        path.write_text(HEADER + '{"op":"other","pc":0}\n' + record + "\n")
        with pytest.raises(IngestError, match=r"bad\.ndjson:3: "):
            list(read_portable(path))

    @pytest.mark.parametrize(
        "record",
        [
            '{"op":"load","pc":01,"ea":4,"size":4}',
            '{"op":"load","pc":-1,"ea":4,"size":4}',
            '{"op":"other","pc":1,"ea":-4,"size":4}',
        ],
    )
    def test_canonical_lookalikes_take_the_json_path(self, tmp_path, record):
        path = tmp_path / "bad.ndjson"
        path.write_text(HEADER + record + "\n")
        with pytest.raises(IngestError, match=r"bad\.ndjson:2: "):
            list(read_portable(path))

    @pytest.mark.parametrize(
        "record,message",
        [
            (TraceRecord("other", 1.0), "pc is not an integer"),
            (TraceRecord("other", True), "pc is not an integer"),
            (TraceRecord("load", 1, "2"), "effective address is not an integer"),
            (TraceRecord("other", 1, -2), "negative effective address"),
            (TraceRecord("other", 1, None, 4.0), "size is not an integer"),
        ],
    )
    @pytest.mark.parametrize("binary", [False, True])
    def test_writer_rejects_bad_fields(self, tmp_path, record, message, binary):
        with pytest.raises(IngestError, match=message):
            write_portable(tmp_path / "t", [record], binary=binary)

    def test_binary_writer_range(self, tmp_path):
        with pytest.raises(IngestError, match="record 1 does not fit"):
            write_portable(
                tmp_path / "t.rptx",
                [TraceRecord("other", 1), TraceRecord("other", 2**64)],
                binary=True,
            )


class TestBinaryBlocks:
    N = 5_000  # more than one read block

    @pytest.fixture
    def rptx(self, tmp_path):
        path = tmp_path / "t.rptx"
        write_portable(
            path, [TraceRecord("load", i, i + 1, 4) for i in range(self.N)], binary=True
        )
        return path

    def test_unknown_op_code_index_in_second_block(self, rptx):
        data = bytearray(rptx.read_bytes())
        data[16 + 4_500 * 20 + 18] = 99  # op code byte of record 4500
        rptx.write_bytes(bytes(data))
        with pytest.raises(IngestError, match="record 4500 has unknown op code 99"):
            list(read_portable(rptx))

    def test_truncated_in_second_block(self, rptx):
        rptx.write_bytes(rptx.read_bytes()[: 16 + 4_321 * 20 + 7])
        with pytest.raises(IngestError, match=f"truncated at record 4321 of {self.N}"):
            list(read_portable(rptx))

    def test_huge_declared_count_is_truncation(self, tmp_path):
        path = tmp_path / "t.rptx"
        record = struct.pack("<QQHBx", 1, 0, 4, 0)
        path.write_bytes(struct.pack("<4sHxxQ", b"RPTX", 1, 2**63) + record)
        with pytest.raises(IngestError, match=f"truncated at record 1 of {2**63}"):
            list(read_portable(path))
        assert count_records(path) == 2**63

    def test_records_before_a_bad_record_are_yielded(self, rptx):
        data = bytearray(rptx.read_bytes())
        data[16 + 10 * 20 + 18] = 99
        rptx.write_bytes(bytes(data))
        stream = read_portable(rptx)
        assert [rec.pc for _, rec in zip(range(10), stream)] == list(range(10))
        with pytest.raises(IngestError, match="record 10 "):
            next(stream)


class TestUnreadableInput:
    def test_non_text_lackey(self, tmp_path):
        path = tmp_path / "cap.log"
        path.write_bytes(b"I  0023C790,4\n\xff\xfe\n")
        with pytest.raises(IngestError, match="unreadable input"):
            list(convert_lackey(path))

    def test_non_text_csv(self, tmp_path):
        path = tmp_path / "cap.csv"
        path.write_bytes(b"load,1,2\n\xc3\n")
        with pytest.raises(IngestError, match="unreadable input"):
            list(convert_csv(path))

    def test_truncated_gzip(self, tmp_path):
        path = tmp_path / "t.ndjson.gz"
        write_portable(path, [TraceRecord("other", i) for i in range(2_000)])
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(IngestError, match="unreadable input"):
            list(read_portable(path))
        with pytest.raises(IngestError, match="unreadable input"):
            count_records(path)

    def test_not_gzip(self, tmp_path):
        path = tmp_path / "t.rptx.gz"
        path.write_bytes(b"RPTX not compressed")
        with pytest.raises(IngestError, match="unreadable input"):
            list(read_portable(path))


class TestConvertFormatDefault:
    CSV = "op,pc,ea,size\nload,0x1000,0x2000,4\nother,0x1004\n"

    @pytest.mark.parametrize("name", ["capture.csv", "CAPTURE.CSV", "capture.csv.gz"])
    def test_csv_suffix_selects_csv(self, tmp_path, capsys, name):
        cap = tmp_path / name
        if name.endswith(".gz"):
            cap.write_bytes(gzip.compress(self.CSV.encode()))
        else:
            cap.write_text(self.CSV)
        out = tmp_path / "out.ndjson"
        assert ingest_main(["convert", str(cap), str(out)]) == 0
        assert "wrote 2 records" in capsys.readouterr().out
        assert list(read_portable(out)) == [
            TraceRecord("load", 0x1000, 0x2000, 4),
            TraceRecord("other", 0x1004),
        ]

    def test_explicit_from_wins(self, tmp_path, capsys):
        cap = tmp_path / "capture.csv"
        cap.write_text(self.CSV)
        out = tmp_path / "out.ndjson"
        assert ingest_main(["convert", str(cap), str(out), "--from", "lackey"]) == 1
        assert "unrecognized lackey line" in capsys.readouterr().err

    def test_other_suffixes_default_to_lackey(self, tmp_path, capsys):
        cap = tmp_path / "capture.log"
        cap.write_text("I  0023C790,4\n L 04EFF8A8,8\n")
        out = tmp_path / "out.ndjson"
        assert ingest_main(["convert", str(cap), str(out)]) == 0
        assert list(read_portable(out)) == [TraceRecord("load", 0x0023C790, 0x04EFF8A8, 8)]
