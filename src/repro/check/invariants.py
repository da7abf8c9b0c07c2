"""Cycle-level invariant checker for the timing engine.

:class:`SanityChecker` attaches to a :class:`~repro.engine.machine.Machine`
when ``MachineConfig.sanity`` is set and validates, every simulated
cycle, the structural invariants the engine's fast paths rely on:

* window occupancy within ``rob_entries`` and strictly increasing
  sequence order; no squashed (dead) entry left in the window;
* no instruction carries a completion without having issued, and never
  one at or before its issue cycle (commit happens only at/after
  ``complete``, so this is the "no commit before issue" guard);
* LSQ occupancy within ``lsq_entries`` and consistent with the window's
  memory-instruction population;
* MSHR leases within ``dcache_mshrs`` and the expire gate
  (``_mshr_next``) never beyond the earliest in-flight fill;
* functional-unit lease conservation: each class holds exactly
  ``units`` lease slots at all times;
* per-tick mechanism discipline: port-granted results per cycle never
  exceed the mechanism's total :class:`~repro.tlb.base.PortArbiter`
  ports, piggybacked riders never exceed the mechanism's
  ``rider_capacity`` (0 for a design that does not piggyback), and no
  result is ready in the past;
* ``pending()`` consistent with the arbiters' queued population;
* monotonically non-decreasing stats counters, with
  ``committed <= issued``.

Critically, the checker also re-validates the *event-driven* contract:
whenever the engine skips ``mech.tick`` (the ``_mech_quiet`` gate) or
jumps over a quiescent span, the skipped cycles are replayed on a
``copy.deepcopy`` clone of the mechanism and must produce no results
and no state change — exactly the ``quiescent_until`` contract of
:meth:`repro.tlb.base.TranslationMechanism.quiescent_until`.  A
mechanism whose bound is even one cycle too optimistic is caught here
with the offending cycle, rather than silently shifting grant timing
(which would corrupt results identically in both loop modes, making it
invisible to event-driven vs. plain differential testing).

Violations raise :class:`SanityError` immediately, carrying the cycle.
"""

from __future__ import annotations

import copy
import dataclasses
import types

from repro.tlb.base import PortArbiter

#: Deepcopy replay is charged per *skipped* cycle with pending work;
#: spans longer than this are validated on a prefix (they are produced
#: by NEVER-quiescent mechanisms whose queues are empty anyway).
DEFAULT_REPLAY_LIMIT = 64

_ATOMIC = (int, float, complex, str, bytes, bool, type(None))
_CALLABLE = (
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.LambdaType,
)


class SanityError(RuntimeError):
    """An engine invariant or mechanism contract was violated.

    ``cycle`` identifies the offending simulated cycle.
    """

    def __init__(self, cycle: int, message: str):
        self.cycle = cycle
        self.message = message
        super().__init__(f"cycle {cycle}: {message}")


def freeze_state(obj, _depth: int = 0):
    """Order-insensitive structural snapshot of an object graph.

    Used to compare a mechanism clone before/after replayed ticks:
    dicts and sets compare by sorted content, objects by class name and
    attribute values (``__dict__`` plus ``__slots__``), callables are
    opaque (tick wrappers and bank-select closures are not state).
    """
    if isinstance(obj, _ATOMIC):
        return obj
    if _depth > 16:
        return "<max-depth>"
    if isinstance(obj, (list, tuple)):
        return tuple(freeze_state(item, _depth + 1) for item in obj)
    if isinstance(obj, dict):
        return (
            "dict",
            tuple(
                sorted(
                    (repr(key), freeze_state(value, _depth + 1))
                    for key, value in obj.items()
                )
            ),
        )
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(item) for item in obj)))
    if isinstance(obj, _CALLABLE):
        return "<callable>"
    attrs: dict[str, object] = {}
    for klass in type(obj).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(obj, slot):
                attrs[slot] = getattr(obj, slot)
    attrs.update(getattr(obj, "__dict__", {}))
    return (
        type(obj).__name__,
        tuple(
            sorted(
                (name, freeze_state(value, _depth + 1))
                for name, value in attrs.items()
                if not isinstance(value, _CALLABLE)
            )
        ),
    )


def _discover_arbiters(mech) -> tuple[PortArbiter, ...]:
    """Every PortArbiter a mechanism arbitrates through (duck-typed)."""
    found = []
    arbiter = getattr(mech, "arbiter", None)
    if isinstance(arbiter, PortArbiter):
        found.append(arbiter)
    for arbiter in getattr(mech, "_arbiters", ()):
        if isinstance(arbiter, PortArbiter):
            found.append(arbiter)
    return tuple(found)


class SanityChecker:
    """Per-cycle invariant checks plus quiescent-contract replay.

    Constructed by :class:`~repro.engine.machine.Machine` when
    ``config.sanity`` is set — *before* ``run()`` caches bound methods,
    because the checker interposes on ``mech.tick`` (as an instance
    attribute; mechanism classes have no ``__slots__``) to audit each
    tick's grant/rider/ready discipline.
    """

    def __init__(self, machine, replay_limit: int = DEFAULT_REPLAY_LIMIT):
        self.machine = machine
        self.replay_limit = replay_limit
        self.cycles_checked = 0
        self.ticks_replayed = 0
        mech = machine.mech
        self._arbiters = _discover_arbiters(mech)
        self._total_ports = sum(arbiter.ports for arbiter in self._arbiters)
        self._rider_cap = mech.rider_capacity
        self._counters = self._counter_values()
        self._wrap_tick(mech)

    # -- tick interposition -------------------------------------------------

    def _wrap_tick(self, mech) -> None:
        orig_tick = mech.tick  # bound method resolved on the class
        stats = mech.stats
        checker = self

        def checked_tick(now: int):
            riders_before = stats.piggybacked
            results = orig_tick(now)
            riders = stats.piggybacked - riders_before
            if checker._arbiters:
                granted = len(results) - riders
                if granted > checker._total_ports:
                    raise SanityError(
                        now,
                        f"tick returned {granted} port-granted results "
                        f"but the mechanism has {checker._total_ports} "
                        "arbiter port(s)",
                    )
            cap = checker._rider_cap
            if riders > cap:
                raise SanityError(
                    now,
                    f"tick piggybacked {riders} riders; capacity is {cap}",
                )
            for result in results:
                if result.ready < now:
                    raise SanityError(
                        now,
                        f"tick produced a result ready in the past "
                        f"(ready={result.ready} for #{result.req.seq})",
                    )
                if result.req.cycle > now:
                    raise SanityError(
                        now,
                        f"tick resolved #{result.req.seq} before its "
                        f"submission cycle {result.req.cycle}",
                    )
            return results

        mech.tick = checked_tick

    # -- per-cycle invariants -----------------------------------------------

    def on_cycle(self, now: int) -> None:
        """Validate engine-side invariants at the end of cycle ``now``."""
        self.cycles_checked += 1
        machine = self.machine
        window = machine._window
        if len(window) > machine._rob_entries:
            raise SanityError(
                now,
                f"window holds {len(window)} entries; "
                f"rob_entries is {machine._rob_entries}",
            )
        mem_count = 0
        prev_seq = -1
        for infl in window:
            if infl.seq <= prev_seq:
                raise SanityError(
                    now,
                    f"window sequence order violated (#{infl.seq} "
                    f"after #{prev_seq})",
                )
            prev_seq = infl.seq
            if infl.dead:
                raise SanityError(now, f"squashed #{infl.seq} still in window")
            if infl.is_mem:
                mem_count += 1
            complete = infl.complete
            if complete is not None:
                if not infl.issued:
                    raise SanityError(
                        now,
                        f"#{infl.seq} holds completion cycle {complete} "
                        "without having issued (would commit before issue)",
                    )
                if complete <= infl.issue_cycle:
                    raise SanityError(
                        now,
                        f"#{infl.seq} completes at {complete}, not after "
                        f"its issue cycle {infl.issue_cycle}",
                    )
        if mem_count != machine._lsq_count:
            raise SanityError(
                now,
                f"LSQ count {machine._lsq_count} != {mem_count} memory "
                "instructions in the window",
            )
        if machine._lsq_count > machine._lsq_entries:
            raise SanityError(
                now,
                f"LSQ holds {machine._lsq_count} entries; "
                f"lsq_entries is {machine._lsq_entries}",
            )
        mshr = machine.mshr
        outstanding = mshr.outstanding()
        if outstanding > mshr.max_outstanding:
            raise SanityError(
                now,
                f"{outstanding} MSHR leases outstanding; file holds "
                f"{mshr.max_outstanding}",
            )
        if mshr._pending:
            earliest = min(mshr._pending.values())
            if machine._mshr_next > earliest:
                raise SanityError(
                    now,
                    f"MSHR expire gate at {machine._mshr_next} is beyond "
                    f"the earliest in-flight fill at {earliest}",
                )
        for name, free_at in machine.fupool._free_at.items():
            spec = machine.config.fu_specs[name]
            if len(free_at) != spec.units:
                raise SanityError(
                    now,
                    f"functional-unit class {name!r} holds "
                    f"{len(free_at)} lease slots; spec says {spec.units}",
                )
        mech = machine.mech
        pending = mech.pending()
        if pending < 0:
            raise SanityError(now, f"mechanism pending() is negative: {pending}")
        if self._arbiters:
            queued = sum(len(arbiter) for arbiter in self._arbiters)
            if pending != queued:
                raise SanityError(
                    now,
                    f"mechanism pending()={pending} but its arbiters "
                    f"hold {queued} queued request(s)",
                )
        self._check_monotonic(now)

    def _counter_values(self) -> dict[str, int]:
        machine = self.machine
        values: dict[str, int] = {}
        for label, stats in (
            ("machine", machine.stats),
            ("translation", machine.mech.stats),
            ("dcache", machine.dcache.stats),
        ):
            for f in dataclasses.fields(stats):
                value = getattr(stats, f.name)
                if type(value) is int:
                    values[f"{label}.{f.name}"] = value
        return values

    def _check_monotonic(self, now: int) -> None:
        current = self._counter_values()
        for name, value in current.items():
            if value < self._counters.get(name, 0):
                raise SanityError(
                    now,
                    f"stats counter {name} went backwards "
                    f"({self._counters[name]} -> {value})",
                )
        self._counters = current
        machine = self.machine
        if machine.stats.committed > machine.stats.issued:
            raise SanityError(
                now,
                f"committed {machine.stats.committed} exceeds issued "
                f"{machine.stats.issued}",
            )

    # -- quiescent-contract replay ------------------------------------------

    def on_tick_skipped(self, now: int) -> None:
        """The engine's ``_mech_quiet`` gate suppressed ``tick(now)``."""
        if self.machine.mech.pending() == 0:
            return
        self._replay_quiescent(now, now + 1)

    def on_skip(self, prev: int, target: int) -> None:
        """The event-driven loop is about to jump from ``prev+1`` to ``target``.

        Validates that no window completion, context-switch flush, or
        (with unissued work) MSHR fill / functional-unit release falls
        inside the skipped span, and replays the mechanism's skipped
        ticks against the ``quiescent_until`` contract.
        """
        machine = self.machine
        for infl in machine._window:
            complete = infl.complete
            if complete is not None and prev < complete < target:
                raise SanityError(
                    complete,
                    f"event-driven jump to {target} skips the completion "
                    f"of #{infl.seq} at {complete}",
                )
        next_flush = machine._next_flush
        if next_flush and prev < next_flush < target:
            raise SanityError(
                next_flush,
                f"event-driven jump to {target} skips the context-switch "
                f"flush at {next_flush}",
            )
        if machine._unissued or machine._wake:
            fill = machine.mshr.next_completion(prev)
            if fill < target:
                raise SanityError(
                    fill,
                    f"event-driven jump to {target} skips an MSHR fill at "
                    f"{fill} with unissued work",
                )
            release = machine.fupool.next_busy_release(prev)
            if release < target:
                raise SanityError(
                    release,
                    f"event-driven jump to {target} skips a functional-"
                    f"unit release at {release} with unissued work",
                )
        mech = machine.mech
        quiet = mech.quiescent_until(prev)
        if quiet < target:
            raise SanityError(
                quiet,
                f"event-driven jump to {target} overshoots the "
                f"mechanism's quiescent bound {quiet}",
            )
        if mech.pending():
            self._replay_quiescent(prev + 1, target)

    def _replay_quiescent(self, start: int, stop: int) -> None:
        """Assert ``tick(c)`` is a no-op for every ``c`` in [start, stop).

        Runs the skipped ticks on a deepcopy clone via the *class*
        ``tick`` (bypassing the audit wrapper, whose closure holds the
        original mechanism) and requires no results and no state change.
        """
        mech = self.machine.mech
        reference = freeze_state(mech)
        clone = copy.deepcopy(mech)
        class_tick = type(mech).tick
        for cycle in range(start, min(stop, start + self.replay_limit)):
            self.ticks_replayed += 1
            results = class_tick(clone, cycle)
            if results:
                raise SanityError(
                    cycle,
                    f"quiescent_until contract violated: tick({cycle}) "
                    f"inside a skipped span returned {len(results)} "
                    f"result(s) (first: #{results[0].req.seq})",
                )
            if freeze_state(clone) != reference:
                raise SanityError(
                    cycle,
                    f"quiescent_until contract violated: tick({cycle}) "
                    "inside a skipped span mutated mechanism state",
                )
