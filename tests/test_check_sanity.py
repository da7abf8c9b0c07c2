"""Tests for the cycle-level invariant checker (:mod:`repro.check.invariants`).

The headline case here is the acceptance criterion from the sanitizer
issue: a mechanism whose ``quiescent_until`` is even one cycle too
optimistic must be caught by the checker *with the offending cycle
identified* — such a bug shifts grant timing identically in both loop
modes, so differential testing alone cannot see it.
"""

import dataclasses

import pytest

from repro.check.diff import request_with_config
from repro.check.invariants import SanityChecker, SanityError, freeze_state
from repro.engine.config import MachineConfig
from repro.engine.machine import Machine
from repro.eval.runner import RunRequest, _CACHE, simulate
from repro.tlb.factory import make_mechanism
from repro.tlb.multiported import MultiPortedTLB
from repro.tlb.request import TranslationRequest
from repro.tlb.storage import FullyAssocTLB

INSTS = 1500


def _machine(design="T1", *, sanity=True, mech=None, insts=INSTS, **overrides):
    config = MachineConfig(sanity=sanity, **overrides)
    trace = _CACHE.get_trace("compress", 32, 32, 1.0, insts)
    if mech is None:
        mech = make_mechanism(design, config.page_shift)
    return Machine(config, mech, trace)


class TestCheckerLifecycle:
    def test_attached_only_when_configured(self):
        assert _machine(sanity=False).checker is None
        assert isinstance(_machine(sanity=True).checker, SanityChecker)

    def test_clean_run_is_observationally_identical(self):
        req = RunRequest.create("compress", "M8", max_instructions=INSTS)
        checked = simulate(request_with_config(req, sanity=True))
        plain = simulate(req)
        assert dataclasses.asdict(checked.stats) == dataclasses.asdict(plain.stats)

    def test_covers_every_executed_cycle(self):
        machine = _machine("T1", insts=4000)
        result = machine.run()
        checker = machine.checker
        # on_cycle runs once per executed (non-skipped) cycle, and the
        # event-driven fast path must actually have engaged so the
        # skip-validation hooks (on_skip/on_tick_skipped) are exercised.
        assert machine.skip_jumps > 0
        assert checker.cycles_checked == result.stats.cycles - machine.skipped_cycles
        assert checker.cycles_checked > 0

    def test_clean_run_on_plain_loop(self):
        machine = _machine("T1", event_driven=False)
        result = machine.run()
        assert machine.checker.cycles_checked == result.stats.cycles


class TestQuiescentContract:
    @pytest.mark.parametrize("event_driven", [True, False])
    def test_broken_quiescent_until_is_caught(self, event_driven):
        """The acceptance case: a bound one cycle too optimistic.

        ``now + 2`` claims ticks at ``now + 1`` are no-ops; an L1 shield
        miss forwarded to the L2 arbiter becomes grantable exactly
        there, so the checker's clone replay of the skipped tick must
        flag it.  The ``_mech_quiet`` gate applies in both loop modes,
        hence both are tested.
        """
        config = MachineConfig(sanity=True, event_driven=event_driven)
        mech = make_mechanism("M16", config.page_shift)
        mech.quiescent_until = lambda now: now + 2
        trace = _CACHE.get_trace("compress", 32, 32, 1.0, INSTS)
        machine = Machine(config, mech, trace)
        with pytest.raises(SanityError, match="quiescent_until contract") as exc:
            machine.run()
        assert isinstance(exc.value.cycle, int)
        assert exc.value.cycle > 0
        assert f"cycle {exc.value.cycle}:" in str(exc.value)

    def test_replay_validates_genuinely_quiet_spans(self):
        """A pending request whose port slot lies beyond the span is fine."""
        machine = _machine("T4")
        checker = machine.checker
        machine.mech.request(TranslationRequest(seq=0, vpn=0x10, cycle=10))
        assert machine.mech.pending() == 1
        checker.on_tick_skipped(2)  # tick(2) skipped; grant slot is cycle 10
        assert checker.ticks_replayed == 1

    def test_replay_catches_a_grantable_skipped_tick(self):
        """A request already eligible inside a 'quiet' span is the bug."""
        machine = _machine("T4")
        machine.mech.request(TranslationRequest(seq=0, vpn=0x10, cycle=0))
        with pytest.raises(SanityError, match="returned 1 result") as exc:
            machine.checker.on_tick_skipped(2)
        assert exc.value.cycle == 2

    def test_replay_skipped_when_nothing_is_pending(self):
        machine = _machine("T4")
        machine.checker.on_tick_skipped(5)
        assert machine.checker.ticks_replayed == 0


class _OverGrantingTLB(MultiPortedTLB):
    """Grants every queued result twice — more than its one port allows."""

    def tick(self, now):
        results = super().tick(now)
        return results * 2 if results else results


class TestTickAudit:
    def test_overgranting_mechanism_is_caught(self):
        config = MachineConfig(sanity=True)
        mech = _OverGrantingTLB(ports=1, page_shift=config.page_shift)
        trace = _CACHE.get_trace("compress", 32, 32, 1.0, INSTS)
        with pytest.raises(SanityError, match="port-granted"):
            Machine(config, mech, trace).run()

    def test_rider_on_a_design_without_riders_is_caught(self):
        config = MachineConfig(sanity=True)
        mech = make_mechanism("M8", config.page_shift)
        assert mech.rider_capacity == 0
        base_tick = mech.tick

        def tick_reporting_a_rider(now):
            results = base_tick(now)
            if results:
                mech.stats.piggybacked += 1
            return results

        mech.tick = tick_reporting_a_rider
        trace = _CACHE.get_trace("compress", 32, 32, 1.0, INSTS)
        with pytest.raises(SanityError, match="piggybacked 1 riders; capacity is 0"):
            Machine(config, mech, trace).run()


class TestEngineInvariants:
    def test_monotonic_counter_regression_detected(self):
        machine = _machine()
        checker = machine.checker
        machine.stats.issued = 5
        checker.on_cycle(0)
        machine.stats.issued = 2
        with pytest.raises(SanityError, match="went backwards"):
            checker.on_cycle(1)

    def test_committed_exceeding_issued_detected(self):
        machine = _machine()
        machine.stats.issued = 1
        machine.stats.committed = 3
        with pytest.raises(SanityError, match="exceeds issued"):
            machine.checker.on_cycle(0)

    def test_lsq_corruption_detected(self):
        machine = _machine()
        machine._lsq_count = 2  # window holds no memory instructions
        with pytest.raises(SanityError, match="LSQ count"):
            machine.checker.on_cycle(0)

    def test_fu_lease_leak_detected(self):
        machine = _machine()
        machine.fupool._free_at["ialu"].pop()
        with pytest.raises(SanityError, match="lease slots"):
            machine.checker.on_cycle(0)


class TestFreezeState:
    def test_dict_order_insensitive(self):
        assert freeze_state({"a": 1, "b": 2}) == freeze_state({"b": 2, "a": 1})

    def test_detects_mechanism_mutation(self):
        tlb = FullyAssocTLB(4)
        before = freeze_state(tlb)
        assert freeze_state(tlb) == before
        tlb.insert(0x41)
        assert freeze_state(tlb) != before

    def test_callables_are_opaque(self):
        class Holder:
            pass

        a, b = Holder(), Holder()
        a.hook = lambda: 1
        b.hook = lambda: 2
        assert freeze_state(a) == freeze_state(b)
