"""Tests for the address-space layout and its bump-allocated regions."""

import pytest

from repro.mem.layout import AddressSpaceLayout, Region


class TestRegion:
    def test_bump_allocation(self):
        r = Region("r", 0x1000, 0x2000)
        a = r.allocate(16)
        c = r.allocate(16)
        assert c >= a + 16

    def test_alignment(self):
        r = Region("r", 0x1001, 0x2000)
        assert r.allocate(8, align=8) % 8 == 0

    def test_exhaustion(self):
        r = Region("r", 0, 64)
        r.allocate(60)
        with pytest.raises(MemoryError):
            r.allocate(8)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Region("r", 0, 64).allocate(-1)

    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            Region("r", 0, 64).allocate(4, align=3)

    def test_used_tracks_cursor(self):
        r = Region("r", 0, 1024)
        r.allocate(100, align=1)
        assert r.used == 100


class TestLayout:
    def test_regions_disjoint(self):
        lay = AddressSpaceLayout()
        g = lay.alloc_global(64)
        h = lay.alloc_heap(64)
        s = lay.alloc_stack(64)
        assert g < h < s

    def test_heap_grows_upward(self):
        lay = AddressSpaceLayout()
        first = lay.alloc_heap(4096)
        second = lay.alloc_heap(4096)
        assert second > first
