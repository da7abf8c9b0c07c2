"""Tests for SparseMemory."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.memory import MemoryError_, SparseMemory


class TestWords:
    def test_default_zero(self):
        assert SparseMemory().load_word(0x1000) == 0

    def test_store_load_round_trip(self):
        m = SparseMemory()
        m.store_word(0x1000, 0xDEADBEEF)
        assert m.load_word(0x1000) == 0xDEADBEEF

    def test_store_masks_to_32_bits(self):
        m = SparseMemory()
        m.store_word(0, 0x1_2345_6789)
        assert m.load_word(0) == 0x2345_6789

    def test_float_values_round_trip(self):
        m = SparseMemory()
        m.store_word(8, 3.25)
        assert m.load_word(8) == 3.25

    def test_misaligned_word_rejected(self):
        m = SparseMemory()
        with pytest.raises(MemoryError_):
            m.load_word(2)
        with pytest.raises(MemoryError_):
            m.store_word(5, 1)


class TestBytes:
    def test_byte_extraction_little_endian(self):
        m = SparseMemory()
        m.store_word(0, 0x04030201)
        assert [m.load_byte(i) for i in range(4)] == [1, 2, 3, 4]

    def test_byte_store_updates_one_lane(self):
        m = SparseMemory()
        m.store_word(0, 0x11223344)
        m.store_byte(1, 0xAA)
        assert m.load_word(0) == 0x1122AA44

    def test_byte_store_into_empty_word(self):
        m = SparseMemory()
        m.store_byte(7, 0xFF)
        assert m.load_word(4) == 0xFF00_0000

    def test_byte_ops_on_float_word_rejected(self):
        m = SparseMemory()
        m.store_word(0, 1.5)
        with pytest.raises(MemoryError_):
            m.load_byte(0)
        with pytest.raises(MemoryError_):
            m.store_byte(0, 1)


class TestBulkAndClone:
    def test_store_words(self):
        m = SparseMemory()
        m.store_words(0x100, [1, 2, 3])
        assert [m.load_word(0x100 + 4 * i) for i in range(3)] == [1, 2, 3]

    def test_store_words_misaligned_rejected(self):
        with pytest.raises(MemoryError_):
            SparseMemory().store_words(0x101, [1])

    def test_clone_is_independent(self):
        m = SparseMemory()
        m.store_word(0, 7)
        c = m.clone()
        c.store_word(0, 9)
        assert m.load_word(0) == 7
        assert c.load_word(0) == 9

    def test_store_words_straddles_pages(self):
        m = SparseMemory()
        m.store_words(4096 - 8, iter([1, 2, 0x1_0000_0003, 4.5]))
        assert [m.load_word(4096 - 8 + 4 * i) for i in range(4)] == [1, 2, 3, 4.5]
        assert m.load_word(4096 + 8) == 0

    def test_diff_words(self):
        m = SparseMemory()
        m.store_words(0xFFC, [5, 6])
        c = m.clone()
        assert m.diff_words(c) == []
        c.store_word(0x1000, 0)  # a stored zero equals an absent word
        c.store_word(0x5000, 0)
        assert m.diff_words(c) == [0x1000]
        assert c.diff_words(m) == [0x1000]
        m.store_word(0x9000, 1.0)
        assert m.diff_words(c) == [0x1000, 0x9000]


class TestProperties:
    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),
                st.integers(min_value=0, max_value=0xFFFF_FFFF),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_last_write_wins(self, writes):
        m = SparseMemory()
        expected: dict[int, int] = {}
        for slot, value in writes:
            m.store_word(slot * 4, value)
            expected[slot * 4] = value
        for addr, value in expected.items():
            assert m.load_word(addr) == value

    @given(
        byte_writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=63),
                st.integers(min_value=0, max_value=255),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_byte_writes_match_reference_model(self, byte_writes):
        m = SparseMemory()
        reference = bytearray(64)
        for addr, value in byte_writes:
            m.store_byte(addr, value)
            reference[addr] = value
        for addr in range(64):
            assert m.load_byte(addr) == reference[addr]


#: Word addresses spread over several pages, biased to page edges so
#: bulk runs straddle page boundaries.
_PAGE_BASES = [0, 4096, 2 * 4096, 9 * 4096, 0x7FFFF * 4096]
_word_addrs = st.builds(
    lambda base, slot: base + 4 * slot,
    st.sampled_from(_PAGE_BASES),
    st.one_of(st.integers(0, 1023), st.integers(1016, 1023), st.integers(0, 7)),
)
_ints = st.integers(min_value=0, max_value=(1 << 40) - 1)
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
_values = st.one_of(_ints, _floats)
_ops = st.one_of(
    st.tuples(st.just("word"), _word_addrs, _values),
    st.tuples(st.just("byte"), _word_addrs, st.integers(0, 3), st.integers(0, 255)),
    st.tuples(st.just("bulk"), _word_addrs, st.lists(_values, max_size=40)),
    st.tuples(st.just("fill"), _word_addrs, st.integers(0, 1500), _ints),
)


def _apply(m: SparseMemory, model: dict, op) -> None:
    """Apply one store to the paged memory and to a plain dict model."""
    kind, addr = op[0], op[1]

    def store(a, v):
        model[a] = v & 0xFFFF_FFFF if isinstance(v, int) else v

    if kind == "word":
        m.store_word(addr, op[2])
        store(addr, op[2])
    elif kind == "byte":
        lane, value = op[2], op[3]
        word = model.get(addr, 0)
        if isinstance(word, float):
            with pytest.raises(MemoryError_):
                m.store_byte(addr + lane, value)
        else:
            m.store_byte(addr + lane, value)
            store(addr, (word & ~(0xFF << 8 * lane)) | (value << 8 * lane))
    elif kind == "bulk":
        m.store_words(addr, op[2])
        for i, v in enumerate(op[2]):
            store(addr + 4 * i, v)
    else:  # a long run from a generator, as the workload fills write
        count, seed = op[2], op[3]
        m.store_words(addr, (seed + 7 * i for i in range(count)))
        for i in range(count):
            store(addr + 4 * i, seed + 7 * i)


def _assert_matches(m: SparseMemory, model: dict, probes) -> None:
    for a in probes:
        expected = model.get(a, 0)
        got = m.load_word(a)
        assert got == expected and type(got) is type(expected), hex(a)
        for lane in range(4):
            if isinstance(expected, float):
                with pytest.raises(MemoryError_):
                    m.load_byte(a + lane)
            else:
                assert m.load_byte(a + lane) == (expected >> 8 * lane) & 0xFF


class TestPagedReferenceModel:
    @given(ops=st.lists(_ops, max_size=30), split=st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_matches_dict_model(self, ops, split):
        m, model = SparseMemory(), {}
        for op in ops[:split]:
            _apply(m, model, op)
        copy, snapshot = m.clone(), dict(model)
        for op in ops[split:]:
            _apply(m, model, op)
        probes = set(model) | set(snapshot)
        probes |= {a + d for a in list(probes) for d in (-4, 4)}
        probes = {a for a in probes if a >= 0}
        _assert_matches(m, model, probes)
        # The clone kept the image as it was when it was taken.
        _assert_matches(copy, snapshot, probes)
        differ = sorted(
            a for a in probes if model.get(a, 0) != snapshot.get(a, 0)
        )
        assert m.diff_words(copy) == differ
        assert copy.diff_words(m) == differ
        assert (m.diff_words(copy) == []) == all(
            model.get(a, 0) == snapshot.get(a, 0) for a in probes
        )
