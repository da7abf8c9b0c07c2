"""Tests for pretranslation: attach, reuse, propagation, tags, flushes
(paper §3.5 / §4.1).
"""

import pytest

from repro.tlb.pretranslation import (
    OFFSET_TAG_SHIFT,
    PretranslationCache,
    PretranslationMechanism,
)
from repro.tlb.request import TranslationRequest


def _req(seq, vpn, cycle=0, base_reg=5, offset=0, is_load=True, write=False):
    return TranslationRequest(
        seq=seq,
        vpn=vpn,
        cycle=cycle,
        is_write=write,
        is_load=is_load,
        base_reg=base_reg,
        offset=offset,
    )


def _drain(mech, start=0, horizon=60):
    results = {}
    for cycle in range(start, start + horizon):
        for res in mech.tick(cycle):
            results[res.req.seq] = res
        if mech.pending() == 0:
            break
    return results


class TestCache:
    def test_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            PretranslationCache(0)

    def test_lru_eviction(self):
        c = PretranslationCache(2)
        c.insert((1, 0), 100)
        c.insert((2, 0), 200)
        c.lookup((1, 0))
        c.insert((3, 0), 300)  # evicts (2,0)
        assert c.get((2, 0)) is None
        assert c.get((1, 0)) == 100

    def test_insert_refreshes(self):
        c = PretranslationCache(2)
        c.insert((1, 0), 100)
        c.insert((2, 0), 200)
        c.insert((1, 0), 101)
        assert c.get((1, 0)) == 101
        assert len(c) == 2

    def test_reg_index_tracks_tags(self):
        c = PretranslationCache(4)
        c.insert((5, 0), 1)
        c.insert((5, 3), 2)
        c.insert((6, 0), 3)
        assert set(c.tags_of(5)) == {(5, 0), (5, 3)}
        assert c.tags_of(7) == ()

    def test_flush_clears_index(self):
        c = PretranslationCache(4)
        c.insert((5, 0), 1)
        assert c.flush() == 1
        assert c.tags_of(5) == ()

    def test_eviction_unindexes(self):
        c = PretranslationCache(1)
        c.insert((5, 0), 1)
        c.insert((6, 0), 2)
        assert c.tags_of(5) == ()


class TestMechanism:
    def test_first_dereference_misses_then_attaches(self):
        mech = PretranslationMechanism()
        assert mech.request(_req(0, vpn=9)) is None
        _drain(mech)
        res = mech.request(_req(1, vpn=9, cycle=10))
        assert res is not None and res.shielded
        assert mech.stats.shielded == 1

    def test_miss_pays_at_least_one_extra_cycle(self):
        """Misses are detected the cycle after address generation."""
        mech = PretranslationMechanism()
        mech.request(_req(0, vpn=9, cycle=4))
        res = _drain(mech, start=4)[0]
        assert res.ready >= 5

    def test_vpn_mismatch_is_not_shielded(self):
        mech = PretranslationMechanism()
        mech.request(_req(0, vpn=9))
        _drain(mech)
        # Same base register now points at a different page.
        assert mech.request(_req(1, vpn=10, cycle=10)) is None

    def test_stale_entry_with_matching_vpn_is_valid(self):
        """The vpn compare is the correctness guard: an old attachment
        that happens to match the new access's page is a legal reuse."""
        mech = PretranslationMechanism()
        mech.request(_req(0, vpn=9))
        _drain(mech)
        res = mech.request(_req(1, vpn=9, cycle=30))
        assert res is not None and res.shielded

    def test_offset_bits_distinguish_far_loads(self):
        mech = PretranslationMechanism()
        off_far = 1 << OFFSET_TAG_SHIFT
        mech.request(_req(0, vpn=9, offset=0))
        _drain(mech)
        # Same base register, far displacement: different tag -> miss.
        assert mech.request(_req(1, vpn=9, cycle=10, offset=off_far)) is None
        _drain(mech, start=10)
        # Both attachments now live under distinct tags.
        assert mech.request(_req(2, vpn=9, cycle=20, offset=0)) is not None
        assert mech.request(_req(3, vpn=9, cycle=20, offset=off_far)) is not None

    def test_store_tags_use_zero_offset_bits(self):
        mech = PretranslationMechanism()
        mech.request(_req(0, vpn=9, is_load=False, write=True, offset=0x3000))
        _drain(mech)
        res = mech.request(_req(1, vpn=9, cycle=10, is_load=False, write=True, offset=0))
        assert res is not None and res.shielded

    def test_propagation_through_arithmetic(self):
        mech = PretranslationMechanism()
        mech.request(_req(0, vpn=9, base_reg=5))
        _drain(mech)
        # add r6 <- r5 + ... : attachment propagates to r6.
        mech.on_register_write(dests=(6,), srcs=(5,))
        res = mech.request(_req(1, vpn=9, cycle=10, base_reg=6))
        assert res is not None and res.shielded

    def test_no_propagation_without_attachment(self):
        mech = PretranslationMechanism()
        mech.on_register_write(dests=(6,), srcs=(5,))
        assert mech.request(_req(0, vpn=9, base_reg=6)) is None

    def test_self_update_keeps_attachment(self):
        """Post-increment: the base register keeps its attachment."""
        mech = PretranslationMechanism()
        mech.request(_req(0, vpn=9, base_reg=5))
        _drain(mech)
        mech.on_register_write(dests=(5,), srcs=(5,))
        res = mech.request(_req(1, vpn=9, cycle=10, base_reg=5))
        assert res is not None and res.shielded

    def test_base_replacement_flushes_cache(self):
        """Coherence: the pretranslation cache is flushed whenever a
        base-TLB entry is replaced."""
        mech = PretranslationMechanism(base_entries=2)
        cycle = 0
        for seq, vpn in enumerate([1, 2, 3]):  # third insert evicts
            mech.request(_req(seq, vpn, cycle=cycle, base_reg=seq))
            _drain(mech, start=cycle)
            cycle += 10
        assert mech.stats.shield_flushes >= 1
        # Attachments from before the flush are gone (only vpn 3 remains,
        # attached after its own walk).
        assert mech.request(_req(10, vpn=1, cycle=cycle, base_reg=0)) is None

    def test_status_write_through_on_shielded_write(self):
        mech = PretranslationMechanism()
        mech.request(_req(0, vpn=9))
        _drain(mech)
        res = mech.request(_req(1, vpn=9, cycle=10, write=True, is_load=False))
        # Store tags use zero offset bits; first access was a load with
        # offset 0 so the tags coincide and this is a shielded hit that
        # must write the dirty bit through.
        assert res is not None and res.shielded
        assert mech.stats.status_writes == 1

    def test_untaggable_request_goes_to_base(self):
        mech = PretranslationMechanism()
        assert mech.request(_req(0, vpn=9, base_reg=None)) is None
        res = _drain(mech)[0]
        assert res.tlb_miss

    def test_capacity_pressure_evicts_old_attachments(self):
        mech = PretranslationMechanism(cache_entries=2)
        cycle = 0
        for seq, reg in enumerate(range(5)):
            mech.request(_req(seq, vpn=50 + reg, cycle=cycle, base_reg=reg))
            _drain(mech, start=cycle)
            cycle += 10
        # Oldest attachment (reg 0) evicted by LRU pressure.
        assert mech.request(_req(10, vpn=50, cycle=cycle, base_reg=0)) is None
