"""Tests for the related-work mechanisms (BAC, THB) and the ablation
parameters added to the Table 2 designs."""

import pytest

from repro.tlb.factory import EXTENSION_MNEMONICS, make_mechanism
from repro.tlb.multilevel import MultiLevelTLB
from repro.tlb.pretranslation import PretranslationMechanism
from repro.tlb.related import BranchAddressCache, TranslationHintBuffer
from repro.tlb.request import TranslationRequest


def _req(seq, vpn, cycle=0, base_reg=5, offset=0, is_load=True):
    return TranslationRequest(
        seq=seq, vpn=vpn, cycle=cycle, base_reg=base_reg, offset=offset, is_load=is_load
    )


def _drain(mech, start=0, horizon=60):
    results = {}
    for cycle in range(start, start + horizon):
        for res in mech.tick(cycle):
            results[res.req.seq] = res
        if mech.pending() == 0:
            break
    return results


class TestBAC:
    def test_same_site_same_page_reuses(self):
        mech = BranchAddressCache()
        mech.request(_req(0, vpn=9, offset=8))
        _drain(mech)
        res = mech.request(_req(1, vpn=9, cycle=10, offset=8))
        assert res is not None and res.shielded

    def test_different_site_does_not_reuse(self):
        mech = BranchAddressCache()
        mech.request(_req(0, vpn=9, offset=8))
        _drain(mech)
        assert mech.request(_req(1, vpn=9, cycle=10, offset=12)) is None

    def test_next_page_is_a_miss_for_bac(self):
        mech = BranchAddressCache()
        mech.request(_req(0, vpn=9))
        _drain(mech)
        assert mech.request(_req(1, vpn=10, cycle=10)) is None

    def test_base_replacement_flushes(self):
        mech = BranchAddressCache(base_entries=2)
        cycle = 0
        for seq, vpn in enumerate([1, 2, 3]):
            mech.request(_req(seq, vpn, cycle=cycle, offset=4 * seq))
            _drain(mech, start=cycle)
            cycle += 10
        assert mech.stats.shield_flushes >= 1


class TestTHB:
    def test_next_page_hint_hits(self):
        mech = TranslationHintBuffer()
        mech.request(_req(0, vpn=9))
        _drain(mech)
        res = mech.request(_req(1, vpn=10, cycle=10))  # streamed to page+1
        assert res is not None and res.shielded

    def test_hint_updates_entry(self):
        mech = TranslationHintBuffer()
        mech.request(_req(0, vpn=9))
        _drain(mech)
        mech.request(_req(1, vpn=10, cycle=10))
        res = mech.request(_req(2, vpn=11, cycle=20))  # streams again
        assert res is not None and res.shielded

    def test_backward_page_is_still_a_miss(self):
        mech = TranslationHintBuffer()
        mech.request(_req(0, vpn=9))
        _drain(mech)
        assert mech.request(_req(1, vpn=8, cycle=10)) is None


class TestFactoryExtensions:
    @pytest.mark.parametrize("mnemonic", EXTENSION_MNEMONICS)
    def test_extensions_instantiable(self, mnemonic):
        mech = make_mechanism(mnemonic)
        mech.request(_req(0, vpn=1))
        _drain(mech)
        assert mech.stats.requests == 1


class TestAblationParameters:
    def test_l1_random_replacement(self):
        mech = MultiLevelTLB(l1_entries=4, l1_replacement="random")
        assert mech.l1.replacement == "random"

    def test_offset_tag_bits_zero_merges_far_loads(self):
        mech = PretranslationMechanism(offset_tag_bits=0)
        mech.request(_req(0, vpn=9, offset=0))
        _drain(mech)
        # With no offset bits, a far displacement shares the tag: the
        # attachment is found but the vpn differs only if pages differ.
        res = mech.request(_req(1, vpn=9, cycle=10, offset=0x5000))
        assert res is not None and res.shielded

    def test_offset_tag_bits_validated(self):
        with pytest.raises(ValueError):
            PretranslationMechanism(offset_tag_bits=9)
