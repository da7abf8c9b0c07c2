"""Property tests: every container reader decodes or raises TraceFileError.

Arbitrary bytes and mutated valid payloads go through
:func:`~repro.func.tracefile.read_container` and each section decoder
(``decode_program``, ``decode_trace``, ``decode_fetch_plan``,
``decode_extern_meta``).  Each must return a value or raise
:class:`~repro.func.tracefile.TraceFileError` — never ``struct.error``,
``IndexError``, ``MemoryError``, ``RecursionError`` or any other type,
because the artifact store reads only ``ValueError`` as a miss.  The
decoders' loops are bounded by the payload length, so none can hang.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.config import MachineConfig
from repro.engine.frontend import build_fetch_plan, decode_fetch_plan, encode_fetch_plan
from repro.func.executor import Executor
from repro.func.tracefile import (
    SECTION_EXTERN,
    SECTION_PLAN,
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

FUZZ = settings(max_examples=200, deadline=None)

ASM = """
    lui  r2, 0x2000
    addi r4, r0, 6
loop:
    lw   r5, 0(r2)
    sw   r5, 4(r2)
    addi r2, r2, 8
    addi r4, r4, -1
    bne  r4, r0, loop
    halt
"""
PROGRAM = assemble(ASM)
TRACE = list(Executor(PROGRAM).run())
META = {"source_digest": "ab" * 32, "source_records": 99, "window": {"warmup": 0}}
PAYLOADS = {
    SECTION_PROGRAM: encode_program(PROGRAM),
    SECTION_TRACE: encode_trace(TRACE, len(PROGRAM)),
    SECTION_PLAN: encode_fetch_plan(build_fetch_plan(TRACE, MachineConfig()), len(TRACE)),
    SECTION_EXTERN: encode_extern_meta(META),
}
DECODERS = {
    SECTION_PROGRAM: decode_program,
    SECTION_TRACE: lambda data: decode_trace(data, PROGRAM),
    SECTION_PLAN: lambda data: decode_fetch_plan(data, TRACE),
    SECTION_EXTERN: decode_extern_meta,
}

#: JSON fragments a damaged text payload may contain in place of a value.
JSON_TOKENS = ["null", "[]", "{}", "-1", "1e400", "NaN", '"x"', "9" * 30, "true", "[[[]]]"]


def _apply(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for kind, pos, blob in edits:
        at = pos % (len(out) + 1)
        if kind == "set" and out:
            out[at % len(out)] = blob[0] if blob else 0
        elif kind == "delete":
            del out[at : at + len(blob) + 1]
        elif kind == "insert":
            out[at:at] = blob
        elif kind == "truncate":
            del out[at:]
    return bytes(out)


edit = st.tuples(
    st.sampled_from(["set", "delete", "insert", "truncate"]),
    st.integers(0, 1 << 16),
    st.one_of(
        st.binary(max_size=12),
        st.sampled_from(JSON_TOKENS).map(str.encode),
        # A patched u64 count or length field (little-endian).
        st.integers(0, 2**64 - 1).map(lambda v: v.to_bytes(8, "little")),
    ),
)
edits = st.lists(edit, min_size=1, max_size=6)

#: Bytes with no relation to any valid payload, deep JSON nesting included.
arbitrary = st.one_of(
    st.binary(max_size=256),
    st.builds(lambda n, tail: b"[" * n + tail, st.integers(1, 50_000), st.binary(max_size=8)),
    st.builds(lambda n: b'{"a":' * n, st.integers(1, 50_000)),
)


def decodes_or_rejects(decode, data):
    """``decode(data)`` if it succeeds; None if it raised TraceFileError."""
    try:
        return decode(data)
    except TraceFileError:
        return None


@pytest.mark.parametrize("tag", list(DECODERS), ids=lambda t: t.decode())
class TestSectionDecoders:
    @FUZZ
    @given(data=arbitrary)
    def test_arbitrary_bytes(self, tag, data):
        decodes_or_rejects(DECODERS[tag], data)

    @FUZZ
    @given(edits=edits)
    def test_mutated_valid_payload(self, tag, edits):
        decodes_or_rejects(DECODERS[tag], _apply(PAYLOADS[tag], edits))

    def test_valid_payload_decodes(self, tag):
        assert decodes_or_rejects(DECODERS[tag], PAYLOADS[tag]) is not None


@pytest.fixture(scope="module")
def container(tmp_path_factory):
    """(valid container bytes, a scratch path to write fuzzed ones to)."""
    path = tmp_path_factory.mktemp("fuzz") / "container.rpta"
    write_container(path, PAYLOADS)
    return path.read_bytes(), path


def _read(path, data: bytes):
    path.write_bytes(data)
    try:
        sections = read_container(path)
    except TraceFileError:
        return None
    assert all(isinstance(t, bytes) and len(t) == 4 for t in sections)
    return sections


class TestReadContainer:
    @FUZZ
    @given(data=arbitrary)
    def test_arbitrary_bytes(self, container, data):
        _read(container[1], data)

    @FUZZ
    @given(edits=edits)
    def test_mutated_valid_container(self, container, edits):
        valid, path = container
        sections = _read(path, _apply(valid, edits))
        # Whatever survives the container layer still decodes or rejects.
        for tag, payload in (sections or {}).items():
            if tag in DECODERS:
                decodes_or_rejects(DECODERS[tag], payload)

    def test_valid_container_reads(self, container):
        valid, path = container
        assert _read(path, valid) == PAYLOADS
