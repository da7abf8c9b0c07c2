"""Property tests: every ingest parser yields records or raises IngestError.

Arbitrary lines and bytes go through the lackey and CSV converters and
both portable-trace readers.  Each must yield valid records or raise
:class:`~repro.ingest.IngestError` — never another exception type (a
``struct.error``, ``UnicodeDecodeError``, ``TypeError`` ...).  Random
valid records must also survive a write/read round trip in both
serializations.
"""

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ingest import (
    MEM_CLASSES,
    OP_CLASSES,
    IngestError,
    TraceRecord,
    convert_csv,
    convert_lackey,
    count_records,
    read_portable,
    write_portable,
)

FUZZ = settings(max_examples=150, deadline=None)
HEADER = '{"format":"repro-trace","version":1}'

hex_text = st.integers(-4, 2**66).map(lambda v: format(v, "X") if v >= 0 else str(v))
small_int = st.integers(-3, 2**16).map(str)
junk = st.text(max_size=16)


def lines_file(path, lines, newline=True):
    path.write_text("\n".join(lines) + ("\n" if newline else ""))
    return path


def parse_all(parse, path):
    """``list(parse(path))`` if it succeeds; None if it raised IngestError."""
    try:
        records = list(parse(path))
    except IngestError:
        return None
    for rec in records:
        assert isinstance(rec, TraceRecord)
        rec.validate()
    return records


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


lackey_line = st.one_of(
    st.builds(lambda a, n: f"I  {a},{n}", hex_text, small_int),
    st.builds(
        lambda m, a, n: f" {m} {a},{n}", st.sampled_from("LSMX "), hex_text, small_int
    ),
    st.sampled_from(["==12== banner", "", " ", " L", "I", "I 10", " M ,", "I 1_0,0x2"]),
    junk,
)

csv_cell = st.one_of(
    small_int, hex_text.map(lambda t: "0x" + t), st.sampled_from(["", "-"]), junk
)
csv_line = st.one_of(
    st.builds(
        lambda op, cells: ",".join([op, *cells]),
        st.sampled_from([*OP_CLASSES, "LOAD", "op", "warp"]),
        st.lists(csv_cell, max_size=4),
    ),
    st.sampled_from(["# comment", "", "op,pc,ea,size"]),
    junk,
)

json_value = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(OP_CLASSES),
    st.lists(st.integers(), max_size=2),
)


def json_record(fields):
    parts = [f'"{key}":{value}' for key, value in fields]
    return "{" + ",".join(parts) + "}"


ndjson_line = st.one_of(
    # Canonical-looking lines with arbitrary numeric text in each slot.
    st.builds(
        lambda op, pc, ea, size: json_record(
            [("op", f'"{op}"'), ("pc", pc)] + ([("ea", ea)] if ea else []) + [("size", size)]
        ),
        st.sampled_from([*OP_CLASSES, "LOAD", "warp"]),
        small_int | hex_text,
        st.one_of(st.just(""), small_int, hex_text, st.just("null")),
        small_int,
    ),
    # Any JSON object over the record keys, any value types.
    st.dictionaries(st.sampled_from(["op", "pc", "ea", "size", "x"]), json_value).map(
        json.dumps
    ),
    st.sampled_from(["", "  ", "[1]", '"op"', "{", "[" * 5000]),
    junk,
)


@FUZZ
@given(lines=st.lists(lackey_line, max_size=10), newline=st.booleans())
def test_lackey_lines(workdir, lines, newline):
    parse_all(convert_lackey, lines_file(workdir / "cap.log", lines, newline))


@FUZZ
@given(data=st.binary(max_size=64))
def test_lackey_bytes(workdir, data):
    path = workdir / "cap.log"
    path.write_bytes(data)
    parse_all(convert_lackey, path)


@FUZZ
@given(lines=st.lists(csv_line, max_size=8), header=st.sampled_from([None, True, False]))
def test_csv_lines(workdir, lines, header):
    path = lines_file(workdir / "cap.csv", lines)
    parse_all(lambda p: convert_csv(p, header=header), path)


@FUZZ
@given(data=st.binary(max_size=64))
def test_csv_bytes(workdir, data):
    path = workdir / "cap.csv"
    path.write_bytes(data)
    parse_all(convert_csv, path)


@FUZZ
@given(lines=st.lists(ndjson_line, max_size=8), header=st.booleans())
def test_ndjson_lines(workdir, lines, header):
    path = lines_file(workdir / "t.ndjson", ([HEADER] if header else []) + lines)
    records = parse_all(read_portable, path)
    if records is not None:
        assert count_records(path) == len(records)


@FUZZ
@given(data=st.binary(max_size=64), header=st.booleans())
def test_ndjson_bytes(workdir, data, header):
    path = workdir / "t.ndjson"
    path.write_bytes((HEADER.encode() + b"\n" if header else b"") + data)
    parse_all(read_portable, path)


@FUZZ
@given(
    count=st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1)),
    version=st.sampled_from([1, 1, 1, 0, 2, 0xFFFF]),
    body=st.binary(max_size=200),
)
def test_rptx_bytes(workdir, count, version, body):
    path = workdir / "t.rptx"
    path.write_bytes(struct.pack("<4sHxxQ", b"RPTX", version, count) + body)
    records = parse_all(read_portable, path)
    if records is not None:
        assert len(records) == count == count_records(path)


@FUZZ
@given(data=st.binary(max_size=64))
def test_rptx_raw_bytes(workdir, data):
    path = workdir / "t.rptx"
    path.write_bytes(b"RPTX" + data)
    parse_all(read_portable, path)


@st.composite
def valid_records(draw):
    """Records the binary form holds exactly: pc < 2**64, ea + 1 < 2**64
    and sizes that fit its u16 field."""
    op = draw(st.sampled_from(OP_CLASSES))
    pc = draw(st.integers(0, 2**64 - 1))
    if op in MEM_CLASSES:
        ea = draw(st.integers(0, 2**64 - 2))
    else:
        ea = draw(st.none() | st.integers(0, 2**64 - 2))
    return TraceRecord(op, pc, ea, draw(st.integers(0, 0xFFFF)))


@FUZZ
@given(
    records=st.lists(valid_records(), max_size=20),
    binary=st.booleans(),
    suffix=st.sampled_from(["", ".gz"]),
)
def test_round_trip(workdir, records, binary, suffix):
    path = workdir / ("t.rptx" if binary else "t.ndjson")
    path = path.with_name(path.name + suffix)
    assert write_portable(path, records, binary=binary) == len(records)
    assert list(read_portable(path)) == records
    assert count_records(path) == len(records)
