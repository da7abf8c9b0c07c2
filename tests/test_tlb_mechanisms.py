"""Behavioural tests of the translation mechanisms' port and queueing
semantics (multi-ported, interleaved, piggyback, the shared shield path),
matching paper §4.1.
"""

import pytest

from repro.check.invariants import _rider_capacity
from repro.tlb.bankselect import bit_select, xor_fold
from repro.tlb.base import PortArbiter, ShieldedTLB
from repro.tlb.factory import DESIGN_MNEMONICS, make_mechanism
from repro.tlb.interleaved import InterleavedTLB
from repro.tlb.multiported import MultiPortedTLB, PerfectTLB, PiggybackTLB
from repro.tlb.request import TranslationRequest
from repro.tlb.storage import FullyAssocTLB


def _req(seq, vpn, cycle=0, **kw):
    return TranslationRequest(seq=seq, vpn=vpn, cycle=cycle, **kw)


def _drain(mech, start=0, horizon=50):
    """Tick until all pending requests resolve; returns results by seq."""
    results = {}
    for cycle in range(start, start + horizon):
        for res in mech.tick(cycle):
            results[res.req.seq] = res
        if mech.pending() == 0:
            break
    return results


class TestPortArbiter:
    def test_grants_up_to_ports_in_seq_order(self):
        arb = PortArbiter(2)
        for seq in (3, 1, 2):
            arb.submit(0, seq, seq)
        assert arb.grant(0) == [1, 2]
        assert arb.grant(0) == [3]

    def test_min_cycle_respected(self):
        arb = PortArbiter(1)
        arb.submit(5, 1, "late")
        assert arb.grant(4) == []
        assert arb.grant(5) == ["late"]

    def test_earliest_seq_wins_even_if_submitted_later(self):
        arb = PortArbiter(1)
        arb.submit(0, 10, "young")
        arb.submit(0, 2, "old")
        assert arb.grant(0) == ["old"]

    def test_remove(self):
        arb = PortArbiter(1)
        arb.submit(0, 1, "x")
        arb.remove("x")
        assert len(arb) == 0
        with pytest.raises(ValueError):
            arb.remove("x")

    def test_bad_port_count(self):
        with pytest.raises(ValueError):
            PortArbiter(0)


class TestMultiPorted:
    def test_four_ports_serve_four_same_cycle(self):
        mech = MultiPortedTLB(ports=4, page_shift=12)
        for seq in range(4):
            mech.request(_req(seq, vpn=seq))
        results = _drain(mech)
        assert all(results[s].ready == 0 for s in range(4))

    def test_single_port_serializes(self):
        mech = MultiPortedTLB(ports=1, page_shift=12)
        for seq in range(3):
            mech.request(_req(seq, vpn=seq))
        results = _drain(mech)
        assert [results[s].ready for s in range(3)] == [0, 1, 2]
        assert mech.stats.port_stall_cycles == 1 + 2

    def test_miss_flagged_and_refilled(self):
        mech = MultiPortedTLB(ports=1, entries=4, page_shift=12)
        mech.request(_req(0, vpn=7))
        first = _drain(mech)[0]
        assert first.tlb_miss
        mech.request(_req(1, vpn=7, cycle=5))
        second = _drain(mech, start=5)[1]
        assert not second.tlb_miss

    def test_stats_counted(self):
        mech = MultiPortedTLB(ports=2, page_shift=12)
        for seq in range(4):
            mech.request(_req(seq, vpn=0))
        _drain(mech)
        assert mech.stats.requests == 4
        assert mech.stats.base_probes == 4
        assert mech.stats.base_misses == 1

    def test_perfect_tlb_always_immediate(self):
        mech = PerfectTLB()
        res = mech.request(_req(0, vpn=123))
        assert res is not None
        assert res.ready == 0 and not res.tlb_miss
        assert mech.pending() == 0


class TestPiggyback:
    def test_same_page_requests_combine(self):
        mech = PiggybackTLB(ports=1, piggyback_ports=3, page_shift=12)
        for seq in range(4):
            mech.request(_req(seq, vpn=42))
        results = _drain(mech)
        assert all(results[s].ready == 0 for s in range(4))
        assert mech.stats.piggybacked == 3
        assert mech.stats.base_probes == 1

    def test_different_pages_serialize_on_one_port(self):
        mech = PiggybackTLB(ports=1, piggyback_ports=3, page_shift=12)
        for seq in range(3):
            mech.request(_req(seq, vpn=seq))
        results = _drain(mech)
        assert [results[s].ready for s in range(3)] == [0, 1, 2]
        assert mech.stats.piggybacked == 0

    def test_piggyback_port_count_caps_riders(self):
        mech = PiggybackTLB(ports=1, piggyback_ports=1, page_shift=12)
        for seq in range(4):
            mech.request(_req(seq, vpn=42))
        results = _drain(mech)
        # One host + one rider at cycle 0; the rest ride later cycles.
        ready = sorted(results[s].ready for s in range(4))
        assert ready == [0, 0, 1, 1]

    def test_rider_on_missing_host_shares_walk(self):
        mech = PiggybackTLB(ports=1, piggyback_ports=3, page_shift=12)
        mech.request(_req(0, vpn=7))
        mech.request(_req(1, vpn=7))
        results = _drain(mech)
        assert results[0].tlb_miss and results[1].tlb_miss
        assert results[1].depends_on == 0
        assert mech.stats.base_misses == 1

    def test_mixed_pages_two_ports(self):
        mech = PiggybackTLB(ports=2, piggyback_ports=2, page_shift=12)
        mech.request(_req(0, vpn=1))
        mech.request(_req(1, vpn=2))
        mech.request(_req(2, vpn=1))
        mech.request(_req(3, vpn=2))
        results = _drain(mech)
        assert all(results[s].ready == 0 for s in range(4))
        assert mech.stats.piggybacked == 2

    def test_plain_ports_have_zero_rider_capacity(self):
        # The sanitizer therefore fails any T-design tick that piggybacks.
        assert _rider_capacity(make_mechanism("T4"), 1) == 0
        assert _rider_capacity(make_mechanism("PB1"), 1) == 3


class _OneEntryShield(ShieldedTLB):
    """The smallest shield: one LRU entry over a two-entry, one-port base."""

    def __init__(self):
        super().__init__(
            FullyAssocTLB(1, replacement="lru"), FullyAssocTLB(2, replacement="lru"), 1, 12
        )
        self.victims = []

    def _hit(self, req):
        return req.vpn in self.shield

    def _fill(self, req, victim):
        self.victims.append(victim)
        self.shield.insert(req.vpn)


class TestShieldedContract:
    def test_shield_hit_is_free_but_its_status_change_takes_a_port(self):
        mech = _OneEntryShield()
        mech.request(_req(0, vpn=1))
        _drain(mech)
        hit = mech.request(_req(1, vpn=1, cycle=10, is_write=True))
        assert hit.shielded and hit.ready == 10 and not hit.tlb_miss
        assert mech.stats.status_writes == 1 and mech.pending() == 1
        # A miss forwarded into cycle 10 queues behind the status write.
        assert mech.request(_req(2, vpn=2, cycle=9)) is None
        results = _drain(mech, start=10)
        assert results[2].ready == 11
        assert mech.stats.port_stall_cycles == 1
        # The base access referenced the page: a shielded read of it
        # changes no status, its first write does.
        assert mech.request(_req(3, vpn=2, cycle=20)).shielded
        assert mech.stats.status_writes == 1 and mech.pending() == 0
        assert mech.request(_req(4, vpn=2, cycle=20, is_write=True)).shielded
        assert mech.stats.status_writes == 2 and mech.pending() == 1

    def test_miss_is_granted_a_cycle_later_and_stalls_from_there(self):
        mech = _OneEntryShield()
        assert mech.request(_req(0, vpn=1)) is None
        assert mech.request(_req(1, vpn=2)) is None
        assert mech.tick(0) == [] and mech.quiescent_until(0) == 1
        results = _drain(mech, start=1)
        assert [results[s].ready for s in (0, 1)] == [1, 2]
        assert all(results[s].tlb_miss for s in (0, 1))
        assert mech.stats.port_stall_cycles == 1
        assert mech.stats.port_stalled_requests == 1
        assert mech.stats.base_probes == mech.stats.base_misses == 2

    def test_base_victim_reaches_fill(self):
        mech = _OneEntryShield()
        for seq, vpn in enumerate((1, 2, 3)):
            mech.request(_req(seq, vpn=vpn, cycle=10 * seq))
            _drain(mech, start=10 * seq)
        assert mech.victims == [None, None, 1]

    def test_flush_clears_shield_base_and_status(self):
        mech = _OneEntryShield()
        mech.request(_req(0, vpn=1, is_write=True))
        _drain(mech)
        mech.flush()
        assert len(mech.shield) == 0 and len(mech.base) == 0
        assert mech.status.needs_update(1, is_write=False)
        assert mech.request(_req(1, vpn=1, cycle=10)) is None


class TestInterleaved:
    def test_different_banks_in_parallel(self):
        mech = InterleavedTLB(banks=4, page_shift=12)
        for seq in range(4):
            mech.request(_req(seq, vpn=seq))  # vpns 0..3 -> banks 0..3
        results = _drain(mech)
        assert all(results[s].ready == 0 for s in range(4))

    def test_same_bank_conflicts_serialize(self):
        mech = InterleavedTLB(banks=4, page_shift=12)
        for seq in range(3):
            mech.request(_req(seq, vpn=4 * seq))  # all bank 0
        results = _drain(mech)
        assert [results[s].ready for s in range(3)] == [0, 1, 2]
        assert mech.stats.port_stall_cycles == 3

    def test_bank_capacity_is_entries_over_banks(self):
        mech = InterleavedTLB(banks=4, entries=128, page_shift=12)
        assert all(bank.entries == 32 for bank in mech._banks)

    def test_entries_must_divide(self):
        with pytest.raises(ValueError):
            InterleavedTLB(banks=3, entries=128, page_shift=12)

    def test_per_bank_piggyback_combines_same_page(self):
        mech = InterleavedTLB(banks=4, piggyback_per_bank=3, page_shift=12)
        for seq in range(4):
            mech.request(_req(seq, vpn=8))  # same page, same bank
        results = _drain(mech)
        assert all(results[s].ready == 0 for s in range(4))
        assert mech.stats.piggybacked == 3

    def test_per_bank_piggyback_does_not_merge_different_pages(self):
        mech = InterleavedTLB(banks=4, piggyback_per_bank=3, page_shift=12)
        mech.request(_req(0, vpn=0))
        mech.request(_req(1, vpn=4))  # same bank, different page
        results = _drain(mech)
        assert results[0].ready == 0
        assert results[1].ready == 1


class TestBankSelect:
    def test_bit_select_uses_low_vpn_bits(self):
        sel = bit_select(4)
        assert [sel(v) for v in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_xor_fold_covers_all_banks(self):
        sel = xor_fold(4)
        banks = {sel(v) for v in range(64)}
        assert banks == {0, 1, 2, 3}

    def test_xor_fold_differs_from_bit_select(self):
        bit, xor = bit_select(4), xor_fold(4)
        assert any(bit(v) != xor(v) for v in range(64))

    def test_validation(self):
        with pytest.raises(ValueError):
            bit_select(3)
        with pytest.raises(ValueError):
            xor_fold(1)
        with pytest.raises(ValueError):
            xor_fold(4, groups=0)


class TestFactory:
    @pytest.mark.parametrize("mnemonic", DESIGN_MNEMONICS)
    def test_all_table2_designs_instantiable(self, mnemonic):
        mech = make_mechanism(mnemonic, page_shift=12)
        mech.request(_req(0, vpn=1, base_reg=5))
        _drain(mech)
        assert mech.stats.requests == 1

    def test_mnemonics_case_insensitive(self):
        assert make_mechanism("m8").l1.entries == 8

    def test_unknown_mnemonic(self):
        with pytest.raises(ValueError, match="unknown design"):
            make_mechanism("Z9")

    def test_page_shift_propagates(self):
        assert make_mechanism("T4", page_shift=13).page_shift == 13

    def test_table2_configurations(self):
        assert make_mechanism("T2").ports == 2
        assert make_mechanism("PB1").ports == 1
        assert make_mechanism("PB1").piggyback_ports == 3
        assert make_mechanism("PB2").piggyback_ports == 2
        assert make_mechanism("I8").banks == 8
        assert make_mechanism("M16").l1.entries == 16
        assert make_mechanism("P8").pcache.entries == 8
        assert make_mechanism("I4/PB").piggyback_per_bank == 3
