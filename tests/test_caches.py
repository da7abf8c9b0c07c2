"""Tests for the cache models (set-associative cache, MSHRs, PRNG)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caches.cache import SetAssocCache
from repro.caches.mshr import MSHRFile
from repro.caches.replacement import XorShift32


class TestXorShift:
    def test_deterministic(self):
        a, b = XorShift32(1), XorShift32(1)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            XorShift32(0)

    def test_below_in_range(self):
        rng = XorShift32(7)
        for _ in range(100):
            assert 0 <= rng.below(13) < 13

    def test_below_requires_positive_bound(self):
        with pytest.raises(ValueError):
            XorShift32(7).below(0)

    def test_rough_uniformity(self):
        rng = XorShift32(3)
        counts = [0] * 8
        for _ in range(8000):
            counts[rng.below(8)] += 1
        assert min(counts) > 800  # each bucket within ~20% of fair share

    @pytest.mark.parametrize("seed", [1, 0x115B, 0xFFFF_FFFF, 0x1234_5678])
    @pytest.mark.parametrize("count", [0, 1, 7, 1024, 3000])
    @pytest.mark.parametrize("mask", [0xFF, 0x7FF, 0xFFFF, 0xFFFF_FFFF])
    def test_words_equals_next_loop(self, seed, count, mask):
        bulk, loop = XorShift32(seed), XorShift32(seed)
        assert bulk.words(count, mask) == [loop.next() & mask for _ in range(count)]
        assert bulk.state == loop.state  # later draws agree too
        assert bulk.next() == loop.next()

    def test_words_default_mask_is_full_width(self):
        bulk, loop = XorShift32(9), XorShift32(9)
        assert bulk.words(50) == [loop.next() for _ in range(50)]

    @pytest.mark.parametrize("seed", [1, 0x6CC, 0x115B, 0xFFFF_FFFF])
    @pytest.mark.parametrize("size", [0, 1, 2, 3, 100, 4096])
    def test_shuffle_equals_below_loop(self, seed, size):
        bulk, loop = XorShift32(seed), XorShift32(seed)
        shuffled = list(range(size))
        bulk.shuffle(shuffled)
        expected = list(range(size))
        for k in range(size - 1, 0, -1):
            j = loop.below(k + 1)
            expected[k], expected[j] = expected[j], expected[k]
        assert shuffled == expected
        assert bulk.state == loop.state
        assert bulk.next() == loop.next()


class TestCacheGeometry:
    def test_sets_computed(self):
        c = SetAssocCache(size=32 * 1024, assoc=2, block_size=32)
        assert c.num_sets == 512

    def test_fully_associative_geometry(self):
        c = SetAssocCache(size=4096, assoc=128, block_size=32)
        assert c.num_sets == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(block_size=33),
            dict(size=1000),
            dict(replacement="fifo"),
        ],
    )
    def test_bad_geometry_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SetAssocCache(**{"size": 32 * 1024, "assoc": 2, "block_size": 32, **kwargs})


class TestCacheBehaviour:
    def test_cold_miss_then_hit(self):
        c = SetAssocCache()
        assert not c.access(0x1000)
        assert c.access(0x1000)
        assert c.access(0x101F)  # same 32-byte block
        assert c.stats.misses == 1
        assert c.stats.accesses == 3

    def test_conflict_eviction_lru(self):
        c = SetAssocCache(size=64, assoc=1, block_size=32)  # 2 sets
        a, b = 0x0, 0x40  # same set (stride = 64 bytes)
        c.access(a)
        c.access(b)
        assert not c.access(a)  # evicted by b
        assert c.stats.misses == 3

    def test_lru_order_respected(self):
        c = SetAssocCache(size=128, assoc=2, block_size=32)  # 2 sets, 2-way
        a, b, d = 0x0, 0x80, 0x100  # all map to set 0
        c.access(a)
        c.access(b)
        c.access(a)  # a is now MRU
        c.access(d)  # should evict b
        assert c.probe(a)
        assert not c.probe(b)

    def test_writeback_on_dirty_eviction(self):
        c = SetAssocCache(size=64, assoc=1, block_size=32)
        c.access(0x0, write=True)
        c.access(0x40)  # evicts dirty block
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = SetAssocCache(size=64, assoc=1, block_size=32)
        c.access(0x0)
        c.access(0x40)
        assert c.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        c = SetAssocCache(size=64, assoc=1, block_size=32)
        c.access(0x0)
        c.access(0x4, write=True)  # write hit dirties the block
        c.access(0x40)
        assert c.stats.writebacks == 1

    def test_probe_does_not_touch_state(self):
        c = SetAssocCache()
        c.probe(0x1000)
        assert c.stats.accesses == 0
        assert not c.access(0x1000)

    def test_fill_installs_without_counting(self):
        c = SetAssocCache()
        c.fill(0x1000)
        assert c.stats.accesses == 0
        assert c.access(0x1000)

    def test_invalidate(self):
        c = SetAssocCache()
        c.access(0x1000, write=True)
        assert c.invalidate(0x1000)
        assert c.stats.writebacks == 1
        assert not c.invalidate(0x1000)

    def test_resident_blocks(self):
        c = SetAssocCache()
        for i in range(5):
            c.access(i * 0x1000)
        assert c.resident_blocks() == 5

    def test_miss_rate(self):
        c = SetAssocCache()
        c.access(0x0)
        c.access(0x0)
        assert c.stats.miss_rate == 0.5
        assert c.stats.hits == 1

    @given(st.lists(st.integers(min_value=0, max_value=2**20), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        c = SetAssocCache(size=1024, assoc=2, block_size=32)
        for a in addrs:
            c.access(a)
        assert c.resident_blocks() <= 1024 // 32

    @given(st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_immediate_rereference_always_hits(self, addrs):
        c = SetAssocCache(size=1024, assoc=2, block_size=32)
        for a in addrs:
            c.access(a)
            assert c.access(a)


class TestMSHR:
    def test_allocate_returns_completion(self):
        m = MSHRFile()
        assert m.allocate(5, now=10, latency=6) == 16

    def test_merge_same_block(self):
        m = MSHRFile()
        first = m.allocate(5, now=10, latency=6)
        second = m.allocate(5, now=12, latency=6)
        assert second == first
        assert m.merges == 1
        assert m.allocations == 1

    def test_expire_frees_entries(self):
        m = MSHRFile()
        m.allocate(5, now=0, latency=6)
        m.expire(5)
        assert m.outstanding() == 1
        m.expire(6)
        assert m.outstanding() == 0

    def test_structural_limit(self):
        m = MSHRFile(max_outstanding=2)
        m.allocate(1, 0, 6)
        m.allocate(2, 0, 6)
        assert m.full()
        with pytest.raises(RuntimeError):
            m.allocate(3, 0, 6)

    def test_lookup(self):
        m = MSHRFile()
        assert m.lookup(9) is None
        m.allocate(9, 0, 6)
        assert m.lookup(9) == 6

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            MSHRFile(0)
