"""The cycle-level machine: dispatch, issue, memory pipeline, commit.

Per-cycle phase order::

    commit -> TLB-miss service -> issue (address generation, requests)
           -> translation tick -> dispatch/fetch

Key timing rules (paper §4.1 / Table 1):

* TLB access is fully overlapped with data-cache access — a request
  granted a port in its submission cycle with a TLB hit adds zero
  latency; queueing for a port adds the queueing delay.
* A base-TLB miss costs a fixed 30 cycles, charged after all
  earlier-issued instructions complete, and instruction dispatch stalls
  until the missing instruction commits (the paper's rule for
  speculative TLB misses).
* Loads may issue only when every earlier store's address is known
  (i.e. every earlier store has issued); stores write the data cache at
  commit.
* The out-of-order model issues any ready instruction in the 64-entry
  window; the in-order model issues strictly in program order, stalling
  on RAW and WAW hazards (no renaming), with out-of-order completion.

Execution is event-driven (see docs/performance.md): each simulated
cycle the phases report whether they did any work, and when none did,
the loop computes the earliest cycle at which any phase *could* act —
the next in-flight completion, MSHR fill, mechanism-queue grant, fetch
resume, or context-switch flush — and jumps straight there, charging
the per-cycle stall statistics for the skipped quiescent span in bulk.
The jump is conservative, so the simulated outcome (every counter in
:class:`~repro.engine.stats.MachineStats`) is bit-identical to the
one-cycle-at-a-time loop; set ``MachineConfig.event_driven=False`` to
force the plain loop for A/B verification.
"""

from __future__ import annotations

import time
from bisect import insort
from collections import deque
from dataclasses import dataclass, replace
from heapq import heappop, heappush
from operator import attrgetter
from typing import Iterator

from repro.caches.cache import SetAssocCache
from repro.caches.mshr import MSHRFile
from repro.caches.replacement import XorShift32
from repro.engine.config import MachineConfig
from repro.engine.frontend import FetchPlan, FrontEnd, make_predictor
from repro.engine.funits import FunctionalUnitPool
from repro.engine.stats import MachineStats
from repro.func.dyninst import OPCLASS_INDEX, DecodedInst, DynInst
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Op, OpClass, op_class
from repro.tlb.base import NEVER, TranslationMechanism
from repro.tlb.request import TranslationRequest, TranslationResult


# Synthetic wrong-path instruction templates (no register effects: the
# first-order cost of wrong-path execution is bandwidth, not dataflow).
_WP_ALU = DecodedInst(-1, Instruction(Op.ADD), op_class(Op.ADD))
_WP_LOAD = DecodedInst(-1, Instruction(Op.LW), op_class(Op.LW))
_WP_STORE = DecodedInst(-1, Instruction(Op.SW), op_class(Op.SW))

_SEQ_KEY = attrgetter("seq")


class _InFlight:
    """One window (ROB) entry."""

    __slots__ = (
        "dyn",
        "seq",
        "addr_waits",
        "data_waits",
        "issued",
        "issue_cycle",
        "complete",
        "is_load",
        "is_store",
        "is_mem",
        "cache_done",
        "trans_done",
        "trans_base",
        "tlb_waiting",
        "depends_host",
        "mispredicted",
        "wrong_path",
        "dead",
        "stall_until",
        "waiters",
        "fu",
    )

    def __init__(
        self,
        dyn: DynInst,
        seq: int,
        addr_waits: tuple,
        data_waits: tuple,
        mispredicted: bool,
        wrong_path: bool = False,
    ):
        self.dyn = dyn
        #: Machine-assigned window sequence number (monotone dispatch
        #: order; distinct from dyn.seq once wrong-path slots interleave).
        self.seq = seq
        #: Producers of address operands (all operands for non-stores).
        self.addr_waits = addr_waits
        #: Producers of a store's data operand (empty for non-stores).
        self.data_waits = data_waits
        self.issued = False
        self.issue_cycle = -1
        #: Cycle the instruction's result is available (None = unknown).
        self.complete: int | None = None
        dec = dyn.decoded
        self.is_load = dec.is_load
        self.is_store = dec.is_store
        self.is_mem = dec.is_mem
        #: Cache-path completion for loads (set at issue).
        self.cache_done: int | None = None
        #: Cycle the translation is available (set when resolved).
        self.trans_done: int | None = None
        #: Mechanism-level ready cycle of a missed translation.
        self.trans_base = -1
        #: True while awaiting the 30-cycle miss service.
        self.tlb_waiting = False
        #: seq of the piggyback host whose walk this rider shares.
        self.depends_host: int | None = None
        self.mispredicted = mispredicted
        #: True for synthetic wrong-path instructions (squashed, never
        #: committed).
        self.wrong_path = wrong_path
        #: Set when the entry is squashed out of the window, so lazy
        #: per-phase candidate lists can drop it without O(n) removal.
        self.dead = False
        #: Lower bound on the first cycle this entry could issue (or an
        #: issued store could complete).  ``NEVER`` means parked behind
        #: a producer whose completion cycle is still unknown; the
        #: producer's completion lowers it via ``waiters``.  Always a
        #: *lower* bound — re-evaluation may fail again and push it out.
        self.stall_until = 0
        #: Entries parked on this one's (not-yet-known) completion
        #: cycle; drained exactly once when ``complete`` is set.
        self.waiters: list[_InFlight] | None = None
        #: ``(free_at, busy, latency)`` functional-unit triple from
        #: :meth:`FunctionalUnitPool.class_map`, cached at dispatch.
        self.fu: tuple[list[int], int, int] | None = None


@dataclass
class SimulationResult:
    """Outcome of one timing run."""

    name: str
    stats: MachineStats
    config: MachineConfig

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        """Committed IPC."""
        return self.stats.commit_ipc


class Machine:
    """Trace-driven cycle-level simulator of the Table 1 baseline."""

    def __init__(
        self,
        config: MachineConfig,
        mechanism: TranslationMechanism,
        trace: Iterator[DynInst],
        name: str = "run",
        profiler=None,
        fetch_plan: FetchPlan | None = None,
    ):
        if mechanism.page_shift != config.page_shift:
            raise ValueError(
                f"mechanism page shift {mechanism.page_shift} != "
                f"machine page shift {config.page_shift}"
            )
        self.config = config
        self.mech = mechanism
        self.name = name
        self.stats = MachineStats()
        self.dcache = SetAssocCache(
            config.dcache_size, config.dcache_assoc, config.dcache_block
        )
        self.mshr = MSHRFile(config.dcache_mshrs)
        # With a prebuilt (shared) fetch plan the I-side structures were
        # already exercised by the plan's builder; the machine never
        # touches them again, so skip constructing duplicates.
        if fetch_plan is None:
            self.icache = SetAssocCache(
                config.icache_size, config.icache_assoc, config.icache_block
            )
            self.predictor = make_predictor(config)
        else:
            self.icache = None
            self.predictor = None
        self.frontend = FrontEnd(
            trace, config, self.predictor, self.icache, self.stats, plan=fetch_plan
        )
        self.fupool = FunctionalUnitPool(config)
        #: Optional :class:`repro.perf.SimProfiler` collecting per-phase
        #: wall time; ``None`` (the default) adds zero overhead.
        self.profiler = profiler
        self._page_shift = config.page_shift
        self._window: deque[_InFlight] = deque()
        self._fetch_queue: deque[DynInst] = deque()
        self._mispredict_seqs: set[int] = set()
        self._by_seq: dict[int, _InFlight] = {}
        self._riders: dict[int, list[_InFlight]] = {}
        self._last_writer: dict[int, _InFlight] = {}
        self._lsq_count = 0
        self._tlb_blockers: set[int] = set()
        self._stores_awaiting_data: list[_InFlight] = []
        self._mem_issues_this_cycle = 0
        self._next_seq = 0
        self._wp_branch: _InFlight | None = None
        self._wp_rng = XorShift32(0x57A7)
        self._recent_eas: deque[int] = deque(maxlen=16)
        self._ldst_latency = config.fu_specs["ldst"].latency
        self._inorder = config.issue_model == "inorder"
        self._next_flush = (
            config.context_switch_interval if config.context_switch_interval else 0
        )
        # Hot-path restructuring state: issue scans only candidates that
        # can still act, instead of re-walking the whole 64-entry window.
        #: Window entries not yet issued, in dispatch order.
        self._unissued: list[_InFlight] = []
        #: In-order model only: issued entries whose result is still in
        #: flight (the WAW/pending-destination hazard set), purged lazily.
        self._issued_incomplete: list[_InFlight] = []
        #: Earliest cycle the issue phase could possibly issue anything
        #: (a lower bound); ``_issue`` returns immediately before it.
        #: Recomputed each scan from the blocked entries' stall bounds,
        #: reset by dispatch/squash, lowered by producer completions.
        self._issue_next_try = 0
        #: OOO only: min-heap of ``(cycle, seq, entry)`` wake records for
        #: unissued entries blocked until a known cycle (producer
        #: completion, functional-unit release).  Blocked entries leave
        #: the scan list entirely and re-enter (by ``insort``) when
        #: their cycle arrives, so quiescent candidates cost nothing
        #: per scan.  Entries parked on an *unknown* completion live
        #: only in the producer's ``waiters`` list until then.
        self._wake: list[tuple[int, int, _InFlight]] = []
        #: OOO only: min-heap of ``(seq, entry)`` for unissued stores
        #: (lazily purged once issued/dead).  A load is blocked exactly
        #: when the top live seq is smaller than its own — the
        #: order-independent form of the scan's store_pending flag.
        self._store_seqs: list[tuple[int, _InFlight]] = []
        #: DecodedInst.fu_index -> (free_at, busy, latency), sharing
        #: fupool state; dense list so lookups skip enum hashing.
        fu_list: list = [None] * len(OPCLASS_INDEX)
        for oc, triple in self.fupool.class_map().items():
            fu_list[OPCLASS_INDEX[oc]] = triple
        self._fu_map = fu_list
        #: ea_word -> issued in-window stores to that word (forwarding
        #: candidates); maintained by issue/commit/squash so loads skip
        #: the per-issue window walk.
        self._fwd_stores: dict[int, list[_InFlight]] = {}
        # Event-driven loop state.
        self._event_driven = config.event_driven
        #: Cycle before which ``mech.tick`` is known to be a no-op (the
        #: quiescent_until bound); reset to 0 by every engine->mechanism
        #: mutation (request submission, register events, flush).
        self._mech_quiet = 0
        #: Quiescent cycles jumped over / number of jumps (host-side
        #: diagnostics — never part of MachineStats, which stays
        #: bit-identical across event_driven on/off).
        self.skipped_cycles = 0
        self.skip_jumps = 0
        # Per-cycle config hoists.
        self._fetch_width = config.fetch_width
        self._issue_width = config.issue_width
        self._commit_width = config.commit_width
        self._rob_entries = config.rob_entries
        self._lsq_entries = config.lsq_entries
        self._tlb_miss_latency = config.tlb_miss_latency
        self._dcache_miss_latency = config.dcache_miss_latency
        self._dblock_shift = self.dcache.block_shift
        self._mispredict_penalty = config.mispredict_penalty
        self._model_wrong_path = config.model_wrong_path
        #: Earliest in-flight MSHR fill (lower bound): the run loop's
        #: expire sweep is a no-op before this cycle, so it is gated.
        #: Lowered by every allocation, recomputed after every sweep.
        self._mshr_next = 0
        #: Optional cycle-level invariant checker (``config.sanity``).
        #: Must attach here, before run() caches bound methods: the
        #: checker interposes on ``mech.tick`` to audit port grants.
        #: ``None`` (the default) adds zero per-cycle overhead.
        if config.sanity:
            from repro.check.invariants import SanityChecker

            self.checker = SanityChecker(self)
        else:
            self.checker = None

    # -- top level --------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Simulate until the trace drains; returns the result record."""
        prof = self.profiler
        flush_mech = self.mech.flush
        squash = self._squash_wrong_path
        commit = self._commit
        expire = self.mshr.expire
        complete_stores = self._complete_ready_stores
        service = self._service_tlb_miss
        issue = self._issue
        mech_tick = self.mech.tick
        mech_quiet_until = self.mech.quiescent_until
        apply_result = self._apply_translation
        dispatch = self._dispatch
        next_event = self._next_event
        window = self._window
        fetch_queue = self._fetch_queue
        frontend = self.frontend
        stats = self.stats
        mshr_pending = self.mshr._pending
        cs_interval = self.config.context_switch_interval
        max_cycles = self.config.max_cycles
        event_driven = self._event_driven
        checker = self.checker
        if prof is not None:
            squash = prof.wrap("squash", squash)
            commit = prof.wrap("commit", commit)
            expire = prof.wrap("mshr_expire", expire)
            complete_stores = prof.wrap("stores", complete_stores)
            service = prof.wrap("tlb_service", service)
            issue = prof.wrap("issue", issue)
            mech_tick = prof.wrap("mech_tick", mech_tick)
            dispatch = prof.wrap("dispatch", dispatch)
            next_event = prof.wrap("next_event", next_event)
            started = time.perf_counter()
        now = 0
        while True:
            # Each phase call is guarded by the cheapest possible "could
            # it act at all?" predicate — the per-cycle loop dominates
            # host time, so even no-op method calls are worth skipping.
            did_work = False
            if self._next_flush and now >= self._next_flush:
                # Context switch: all cached translations invalidated.
                flush_mech()
                stats.context_switches += 1
                self._next_flush = now + cs_interval
                self._mech_quiet = 0
                did_work = True
            if self._wp_branch is not None and squash(now):
                did_work = True
            if window:
                head_complete = window[0].complete
                if (
                    head_complete is not None
                    and head_complete <= now
                    and commit(now)
                ):
                    did_work = True
            if mshr_pending and now >= self._mshr_next:
                expire(now)
                self._mshr_next = self.mshr.next_completion(now)
            if self._stores_awaiting_data and complete_stores():
                did_work = True
            if self._tlb_blockers and service(now):
                did_work = True
            if now >= self._issue_next_try and issue(now):
                did_work = True
            if now >= self._mech_quiet:
                results = mech_tick(now)
                if results:
                    did_work = True
                    for result in results:
                        apply_result(result, now)
                else:
                    # Contract (quiescent_until): every tick strictly
                    # before the returned cycle is a no-op, and every
                    # engine->mechanism mutation resets the bound.
                    self._mech_quiet = mech_quiet_until(now)
            elif checker is not None:
                checker.on_tick_skipped(now)
            if dispatch(now):
                did_work = True
            if checker is not None:
                checker.on_cycle(now)
            now += 1
            if max_cycles and now >= max_cycles:
                raise RuntimeError(f"simulation exceeded {max_cycles} cycles")
            if (
                not window
                and not fetch_queue
                and frontend.exhausted()
            ):
                break
            if event_driven and not did_work:
                target = next_event(now - 1)
                if target > now:
                    if max_cycles and target >= max_cycles:
                        # The plain loop would idle up to the valve and
                        # abort there; abort now with the same error.
                        raise RuntimeError(
                            f"simulation exceeded {max_cycles} cycles"
                        )
                    # Jump over the quiescent span, charging the stall
                    # statistics the skipped cycles would have accrued.
                    skipped = target - now
                    self.skipped_cycles += skipped
                    self.skip_jumps += 1
                    if checker is not None:
                        checker.on_skip(now - 1, target)
                    if self._tlb_blockers:
                        stats.tlb_dispatch_stall_cycles += skipped
                    elif len(fetch_queue) <= self._fetch_width and (
                        frontend.waiting_on_branch
                        or frontend.blocked_until > now - 1
                    ):
                        stats.frontend_stall_cycles += skipped
                    now = target
        stats.cycles = now
        # The plan's snapshot equals what a lazily-probed I-cache would
        # have accumulated; copy so runs sharing a plan don't alias.
        stats.icache = replace(self.frontend.plan.icache_stats)
        stats.dcache = self.dcache.stats
        stats.translation = self.mech.stats
        if prof is not None:
            prof.note_run(
                cycles=stats.cycles,
                committed=stats.committed,
                skipped=self.skipped_cycles,
                jumps=self.skip_jumps,
                wall_s=time.perf_counter() - started,
            )
        return SimulationResult(self.name, self.stats, self.config)

    # -- event horizon ------------------------------------------------------------

    def _next_event(self, now: int) -> int:
        """Earliest cycle after ``now`` at which any phase could act.

        Called only after a cycle in which *no* phase did work, so the
        machine state is frozen until one of these time-driven events:
        an in-flight completion (commit / dependence wake-up / squash /
        miss-service ordering), an MSHR fill or functional-unit release
        (structural issue hazards), a mechanism-queue grant, the fetch
        resume or I-miss unblock cycle, or the next context-switch
        flush.  Conservative: may return a cycle where nothing happens
        (the loop just re-evaluates); must never be later than the
        first real event, or results would diverge from the plain loop.
        """
        nxt = self._next_flush or NEVER
        # Earliest known in-flight completion: a direct window scan
        # (<= 64 entries) on the rare fully-quiet cycle costs far less
        # than maintaining a completion heap on every busy one.
        for infl in self._window:
            c = infl.complete
            if c is not None and now < c < nxt:
                nxt = c
        quiet = self.mech.quiescent_until(now)
        if quiet < nxt:
            nxt = quiet
        if self._unissued or self._wake:
            # Structural hazards can unblock issue without any
            # completion: an MSHR entry expiring frees a miss slot, a
            # busy functional unit (divider) releases.
            fill = self.mshr.next_completion(now)
            if fill < nxt:
                nxt = fill
            release = self.fupool.next_busy_release(now)
            if release < nxt:
                nxt = release
        if not self._tlb_blockers and len(self._fetch_queue) <= self._fetch_width:
            frontend = self.frontend
            if frontend.waiting_on_branch:
                resume = frontend.resume_cycle
                if resume is not None and resume < nxt:
                    nxt = resume
            elif now < frontend.blocked_until < nxt:
                nxt = frontend.blocked_until
        return nxt

    # -- wrong-path execution -----------------------------------------------------

    def _squash_wrong_path(self, now: int) -> bool:
        """Squash the wrong-path tail once its branch has resolved."""
        branch = self._wp_branch
        if branch is None or branch.complete is None or branch.complete > now:
            return False
        self._wp_branch = None
        window = self._window
        squashed = False
        while window and window[-1].wrong_path:
            infl = window.pop()
            squashed = True
            infl.dead = True
            if infl.is_mem:
                self._lsq_count -= 1
                if infl.is_store and infl.issued:
                    self._fwd_stores[infl.dyn.ea & ~3].remove(infl)
            self._tlb_blockers.discard(infl.seq)
            self._by_seq.pop(infl.seq, None)
            # A correct-path rider piggybacked on a squashed host would
            # otherwise wait forever; complete it with the squash.
            for rider in self._riders.pop(infl.seq, ()):
                if rider.trans_done is None:
                    rider.trans_done = now
                    rider.tlb_waiting = False
                    self._finalize_mem(rider)
        if squashed:
            # Squashing an unissued wrong-path store can clear the
            # earlier-store-address block on later loads: rescan now.
            self._issue_next_try = 0
        return squashed

    def _dispatch_wrong_path(self, now: int) -> int:
        """Fill dispatch slots with synthetic wrong-path instructions."""
        window = self._window
        rob = self._rob_entries
        lsq = self._lsq_entries
        rng = self._wp_rng
        load_pct = self.config.wrong_path_load_pct
        store_pct = self.config.wrong_path_store_pct
        count = 0
        # Wrong-path fetch sustains roughly half the peak width: taken
        # branches and block breaks on the bogus path throttle it just
        # as they do on the correct path.
        budget = max(1, self._fetch_width // 2)
        while count < budget and len(window) < rob:
            roll = rng.below(100)
            if roll < load_pct and self._recent_eas:
                decoded, is_mem = _WP_LOAD, True
            elif roll < load_pct + store_pct and self._recent_eas:
                decoded, is_mem = _WP_STORE, True
            else:
                decoded, is_mem = _WP_ALU, False
            if is_mem and self._lsq_count >= lsq:
                decoded, is_mem = _WP_ALU, False
            ea = None
            if is_mem:
                # Wrong paths touch data near what the code just touched:
                # a recent effective address perturbed within its page.
                base = self._recent_eas[rng.below(len(self._recent_eas))]
                ea = (base & ~0xFF) + 4 * rng.below(64)
            dyn = DynInst(-1, decoded, pc=0, ea=ea)
            seq = self._next_seq
            self._next_seq += 1
            infl = _InFlight(dyn, seq, (), (), False, wrong_path=True)
            infl.fu = self._fu_map[decoded.fu_index]
            if decoded.is_store and not self._inorder:
                heappush(self._store_seqs, (seq, infl))
            if is_mem:
                self._lsq_count += 1
            window.append(infl)
            self._by_seq[seq] = infl
            self._unissued.append(infl)
            count += 1
        return count

    # -- commit -----------------------------------------------------------------

    def _commit(self, now: int) -> int:
        window = self._window
        if not window:
            return 0
        head = window[0]
        if head.complete is None or head.complete > now:
            return 0
        count = 0
        width = self._commit_width
        by_seq = self._by_seq
        blockers = self._tlb_blockers
        dcache_access = self.dcache.access
        loads = 0
        stores = 0
        while count < width:
            head = window[0]
            c = head.complete
            if c is None or c > now:
                break
            window.popleft()
            count += 1
            if head.is_mem:
                self._lsq_count -= 1
                if head.is_store:
                    stores += 1
                    ea = head.dyn.ea
                    # Committed stores write the data cache.
                    dcache_access(ea, write=True)
                    self._fwd_stores[ea & ~3].remove(head)
                else:
                    loads += 1
            if blockers:
                blockers.discard(head.seq)
            by_seq.pop(head.seq, None)
            if not window:
                break
        stats = self.stats
        stats.committed += count
        if loads:
            stats.loads += loads
        if stores:
            stats.stores += stores
        return count

    # -- TLB miss service ---------------------------------------------------------

    def _service_tlb_miss(self, now: int) -> bool:
        """Start the 30-cycle walk once the missing inst is oldest incomplete."""
        if not self._tlb_blockers:
            # Only instructions awaiting a walk block dispatch; with no
            # blockers there is nothing to service — skip the window scan.
            return False
        for infl in self._window:
            if infl.complete is not None and infl.complete <= now:
                continue
            # ``infl`` is the oldest incomplete instruction.
            if infl.tlb_waiting and infl.depends_host is None and not infl.wrong_path:
                infl.trans_done = max(now, infl.trans_base) + self._tlb_miss_latency
                infl.tlb_waiting = False
                self.stats.tlb_miss_services += 1
                self._finalize_mem(infl)
                self._complete_riders(infl)
                return True
            break
        return False

    def _complete_riders(self, host: _InFlight) -> None:
        for rider in self._riders.pop(host.seq, ()):
            rider.trans_done = host.trans_done
            rider.tlb_waiting = False
            self._finalize_mem(rider)

    # -- issue ------------------------------------------------------------------------

    def _issue(self, now: int) -> int:
        # The scan is the simulator's hottest loop, so blocked entries
        # carry a ``stall_until`` lower bound on their next possible
        # issue cycle and the whole phase is gated on the minimum of
        # those bounds (``_issue_next_try``).  Bounds come from three
        # monotone facts: a producer's completion cycle never changes
        # once known, functional-unit release times never move earlier,
        # and producers whose completion is still *unknown* lower the
        # gate through their ``waiters`` list the moment it is set.
        # Dispatch and squash reset the gate (new candidates / cleared
        # store-address blocks); MSHR-full blocks are never cached
        # (commit-time stores write-allocate the data cache, which can
        # turn a blocked load's miss into a hit the very next cycle).
        if now < self._issue_next_try:
            return 0
        unissued = self._unissued
        wake = self._wake
        if wake and wake[0][0] <= now:
            # Re-admit entries whose stall bound has arrived, in window
            # (seq) order; stale records for issued/dead entries drop.
            while wake and wake[0][0] <= now:
                entry = heappop(wake)[2]
                if not entry.issued and not entry.dead:
                    insort(unissued, entry, key=_SEQ_KEY)
        self._mem_issues_this_cycle = 0
        if not unissued:
            self._issue_next_try = wake[0][0] if wake else NEVER
            return 0
        issued = 0
        width = self._issue_width
        do_issue = self._do_issue
        probe = self.dcache.probe
        mshr_lookup = self.mshr.lookup
        mshr_full = self.mshr.full
        dshift = self._dblock_shift
        now1 = now + 1
        next_try = NEVER
        #: Replacement unissued list; ``None`` until the first entry is
        #: dropped (issued or dead) — a scan that drops nothing keeps
        #: the original list untouched instead of rebuilding it.
        retained: list[_InFlight] | None = None
        n = len(unissued)
        if self._inorder:
            # No renaming: WAW hazards against every issued instruction
            # whose result is still in flight.  Issued entries form a
            # window prefix in this model, so the hazard set is exactly
            # the (lazily purged) issued-incomplete list; the dict keeps
            # a witness writer per register so a WAW block yields a
            # stall bound, not just a boolean.
            pending: dict[int, _InFlight] = {}
            live: list[_InFlight] = []
            for infl in self._issued_incomplete:
                if infl.dead:
                    continue
                complete = infl.complete
                if complete is None or complete > now:
                    live.append(infl)
                    for d in infl.dyn.decoded.dests:
                        pending[d] = infl
            self._issued_incomplete = live
            for i in range(n):
                infl = unissued[i]
                if infl.dead:
                    if retained is None:
                        retained = unissued[:i]
                    continue
                if issued >= width:
                    if retained is not None:
                        retained.extend(unissued[i:])
                    next_try = now1
                    break
                s = infl.stall_until
                if s > now:
                    if retained is not None:
                        retained.extend(unissued[i:])
                    next_try = s
                    break
                dec = infl.dyn.decoded
                parked = False
                bound = -1
                for w in infl.addr_waits:
                    c = w.complete
                    if c is None:
                        ws = w.waiters
                        if ws is None:
                            w.waiters = [infl]
                        else:
                            ws.append(infl)
                        infl.stall_until = NEVER
                        parked = True
                        break
                    if c > now:
                        infl.stall_until = bound = c
                        break
                if not parked and bound < 0:
                    # No renaming: the in-order model stalls on the
                    # store data hazard too.
                    for w in infl.data_waits:
                        c = w.complete
                        if c is None:
                            ws = w.waiters
                            if ws is None:
                                w.waiters = [infl]
                            else:
                                ws.append(infl)
                            infl.stall_until = NEVER
                            parked = True
                            break
                        if c > now:
                            infl.stall_until = bound = c
                            break
                if not parked and bound < 0:
                    # WAW hazard against an incomplete earlier writer.
                    for d in dec.dests:
                        w = pending.get(d)
                        if w is not None:
                            c = w.complete
                            if c is None:
                                ws = w.waiters
                                if ws is None:
                                    w.waiters = [infl]
                                else:
                                    ws.append(infl)
                                infl.stall_until = NEVER
                                parked = True
                            else:
                                infl.stall_until = bound = c
                            break
                if not parked and bound < 0:
                    free_at = infl.fu[0]
                    ok = False
                    for fa in free_at:
                        if fa <= now:
                            ok = True
                            break
                    if not ok:
                        m = free_at[0]
                        for fa in free_at:
                            if fa < m:
                                m = fa
                        infl.stall_until = bound = m
                if not parked and bound < 0 and infl.is_load:
                    # Structural: a load that will miss needs an MSHR.
                    ea = infl.dyn.ea
                    if (
                        not probe(ea)
                        and mshr_lookup(ea >> dshift) is None
                        and mshr_full()
                    ):
                        bound = now1  # uncached: see gate comment above
                if parked or bound >= 0:
                    # The blocked head stalls everything behind it.
                    if retained is not None:
                        retained.extend(unissued[i:])
                    if bound >= 0:
                        next_try = bound
                    break
                do_issue(infl, now)
                issued += 1
                if retained is None:
                    retained = unissued[:i]
                complete = infl.complete
                if complete is None or complete > now:
                    live.append(infl)
                    for d in dec.dests:
                        pending[d] = infl
        else:
            store_seqs = self._store_seqs
            for i in range(n):
                infl = unissued[i]
                if infl.dead:
                    if retained is None:
                        retained = unissued[:i]
                    continue
                if issued >= width:
                    if retained is not None:
                        retained.extend(unissued[i:])
                    next_try = now1
                    break
                if infl.is_load:
                    # An earlier unissued store means its address is
                    # still unknown.  No bound needed: the blocking
                    # store wakes through its own heap record (or its
                    # producer's waiter notification).
                    while store_seqs:
                        top = store_seqs[0][1]
                        if top.issued or top.dead:
                            heappop(store_seqs)
                        else:
                            break
                    if store_seqs and store_seqs[0][0] < infl.seq:
                        if retained is not None:
                            retained.append(infl)
                        continue
                deferred = False
                for w in infl.addr_waits:
                    c = w.complete
                    if c is None:
                        # Producer completion unknown: park on it; its
                        # _set_complete pushes our wake record.
                        ws = w.waiters
                        if ws is None:
                            w.waiters = [infl]
                        else:
                            ws.append(infl)
                        deferred = True
                        break
                    if c > now:
                        heappush(wake, (c, infl.seq, infl))
                        deferred = True
                        break
                if not deferred:
                    free_at = infl.fu[0]
                    ok = False
                    for fa in free_at:
                        if fa <= now:
                            ok = True
                            break
                    if not ok:
                        m = free_at[0]
                        for fa in free_at:
                            if fa < m:
                                m = fa
                        heappush(wake, (m, infl.seq, infl))
                        deferred = True
                if deferred:
                    # Out of the scan list until the wake record (or
                    # waiter notification) re-admits it.
                    if retained is None:
                        retained = unissued[:i]
                    continue
                if infl.is_load:
                    # Structural: a load that will miss needs an MSHR.
                    # Never deferred on a bound: a commit-time store
                    # write-allocate can flip the probe to a hit any
                    # cycle, so re-check every cycle (gate = now + 1).
                    ea = infl.dyn.ea
                    if (
                        not probe(ea)
                        and mshr_lookup(ea >> dshift) is None
                        and mshr_full()
                    ):
                        if now1 < next_try:
                            next_try = now1
                        if retained is not None:
                            retained.append(infl)
                        continue
                do_issue(infl, now)
                issued += 1
                if retained is None:
                    retained = unissued[:i]
        if retained is not None:
            self._unissued = retained
        if wake and wake[0][0] < next_try:
            next_try = wake[0][0]
        self._issue_next_try = next_try
        self.stats.issued += issued
        if self._mem_issues_this_cycle:
            # Histogram of simultaneous translation requests per cycle:
            # the bandwidth-demand evidence behind the paper's Section 2.
            demand = self.stats.translation_demand
            bucket = self._mem_issues_this_cycle
            demand[bucket] = demand.get(bucket, 0) + 1
        return issued

    def _do_issue(self, infl: _InFlight, now: int) -> None:
        # Occupy the first free slot of the cached (free_at, busy,
        # latency) triple from FunctionalUnitPool.class_map.
        free_at, busy, latency = infl.fu
        for i, cycle in enumerate(free_at):
            if cycle <= now:
                free_at[i] = now + busy
                break
        infl.issued = True
        infl.issue_cycle = now
        if infl.is_mem:
            self._issue_memory(infl, now)
        else:
            ready = now + latency
            # _set_complete fast path: nothing parked on this entry.
            if infl.waiters is None:
                infl.complete = ready
            else:
                self._set_complete(infl, ready)
            if infl.mispredicted:
                # The branch resolves at completion; fetch resumes after
                # the misprediction penalty.
                self.frontend.resolve_branch(ready + self._mispredict_penalty)

    def _set_complete(self, infl: _InFlight, complete: int) -> None:
        """Set an entry's completion cycle and wake anything parked on it.

        Every site that learns a completion cycle funnels through here,
        so entries whose stall bound was ``NEVER`` (producer completion
        unknown at scan time) get a real bound and the issue-phase gate
        is lowered — the other half of the ``stall_until`` contract.
        """
        infl.complete = complete
        waiters = infl.waiters
        if waiters is not None:
            infl.waiters = None
            wake = self._wake
            inorder = self._inorder
            for e in waiters:
                if e.stall_until > complete:
                    e.stall_until = complete
                if not inorder and not e.issued and not e.dead:
                    # OOO: the entry left the scan list when it parked;
                    # re-admit it at the producer's completion cycle.
                    heappush(wake, (complete, e.seq, e))
            if complete < self._issue_next_try:
                self._issue_next_try = complete

    def _forwarding_store(self, load: _InFlight, now: int) -> _InFlight | None:
        """Youngest earlier store to the same word with its data ready.

        Paper: loads' "values come from a matching earlier store in the
        store queue or from the data cache".  Forwarding needs the
        store's data, so an address-matching store whose value is still
        in flight does not forward (the load takes the cache path and
        its result is correct because the functional simulator already
        resolved memory order).
        """
        candidates = self._fwd_stores.get(load.dyn.ea & ~3)
        if not candidates:
            return None
        # Youngest earlier store = max seq below the load's (the index
        # holds every issued in-window store to this word).
        seq = load.seq
        best = None
        best_seq = -1
        for infl in candidates:
            s = infl.seq
            if best_seq < s < seq:
                best = infl
                best_seq = s
        if best is None:
            return None
        for writer in best.data_waits:
            if writer.complete is None or writer.complete > now:
                return None
        return best

    def _issue_memory(self, infl: _InFlight, now: int) -> None:
        dyn = infl.dyn
        dec = dyn.decoded
        ea = dyn.ea
        self._mem_issues_this_cycle += 1
        if not infl.wrong_path:
            self._recent_eas.append(ea)
        if infl.is_store:
            word = ea & ~3
            candidates = self._fwd_stores.get(word)
            if candidates is None:
                self._fwd_stores[word] = [infl]
            else:
                candidates.append(infl)
        if infl.is_load:
            if self._forwarding_store(infl, now) is not None:
                # Store-to-load forwarding: data comes from the store
                # queue in a single cycle; no cache access.
                self.stats.forwarded_loads += 1
                infl.cache_done = now + 1
            elif self.dcache.access(ea):
                infl.cache_done = now + self._ldst_latency
            else:
                block = self.dcache.block_of(ea)
                self.mshr.expire(now)
                fill_done = self.mshr.allocate(block, now, self._dcache_miss_latency)
                if fill_done < self._mshr_next:
                    self._mshr_next = fill_done
                infl.cache_done = fill_done + self._ldst_latency
        req = TranslationRequest(
            infl.seq,
            ea >> self._page_shift,
            now,
            infl.is_store,
            infl.is_load,
            dec.base_reg,
            dec.offset,
        )
        result = self.mech.request(req)
        # The request may have queued port work (even when answered
        # immediately — shielded designs still enqueue status writes):
        # the mechanism's quiescent bound no longer holds.
        self._mech_quiet = 0
        if result is not None:
            self._apply_translation(result, now)

    # -- translation results ---------------------------------------------------------

    def _apply_translation(self, result: TranslationResult, now: int) -> None:
        infl = self._by_seq.get(result.req.seq)
        if infl is None:
            return  # request outlived its instruction (cannot happen on
            # the correct path, but stay robust)
        if result.tlb_miss:
            infl.tlb_waiting = True
            infl.trans_base = result.ready
            infl.depends_host = result.depends_on
            self._tlb_blockers.add(infl.seq)
            if result.depends_on is not None:
                host = self._by_seq.get(result.depends_on)
                if host is not None and host.trans_done is None:
                    self._riders.setdefault(result.depends_on, []).append(infl)
                else:
                    # Host already serviced (or gone): ride its result.
                    done = host.trans_done if host is not None else max(now, result.ready)
                    infl.trans_done = done
                    infl.tlb_waiting = False
                    self._finalize_mem(infl)
        else:
            infl.trans_done = result.ready
            self._finalize_mem(infl)

    def _finalize_mem(self, infl: _InFlight) -> None:
        """Set completion once both cache path and translation are known."""
        if infl.trans_done is None:
            return
        if infl.is_load:
            # Translation stall beyond the overlapped path adds directly.
            stall = infl.trans_done - infl.issue_cycle
            complete = infl.cache_done + stall
            if infl.waiters is None:
                infl.complete = complete
            else:
                self._set_complete(infl, complete)
        else:
            self._try_complete_store(infl)

    def _try_complete_store(self, infl: _InFlight) -> None:
        """A store completes when its address, translation and data are in."""
        data_ready = infl.issue_cycle
        for writer in infl.data_waits:
            c = writer.complete
            if c is None:
                # Data producer not yet scheduled: park on it.  The
                # producer's completion clears the NEVER marker (via
                # ``waiters``), which is what makes the store eligible
                # for the next ``_complete_ready_stores`` retry — same
                # cycle the retry-every-cycle loop would first succeed.
                ws = writer.waiters
                if ws is None:
                    writer.waiters = [infl]
                else:
                    ws.append(infl)
                infl.stall_until = NEVER
                self._stores_awaiting_data.append(infl)
                return
            if c > data_ready:
                data_ready = c
        complete = max(infl.issue_cycle + 1, infl.trans_done + 1, data_ready)
        if infl.waiters is None:
            infl.complete = complete
        else:
            self._set_complete(infl, complete)

    def _complete_ready_stores(self) -> bool:
        pending = self._stores_awaiting_data
        if not pending:
            return False
        for infl in pending:
            if infl.stall_until != NEVER:
                break
        else:
            return False  # every parked store's producer is still unknown
        self._stores_awaiting_data = []
        completed = False
        for infl in pending:
            if infl.complete is None:
                if infl.stall_until == NEVER:
                    self._stores_awaiting_data.append(infl)
                    continue
                self._try_complete_store(infl)
                if infl.complete is not None:
                    completed = True
        return completed

    # -- dispatch / fetch -----------------------------------------------------------------

    def _dispatch(self, now: int) -> bool:
        if self._tlb_blockers:
            self.stats.tlb_dispatch_stall_cycles += 1
            return False
        queue = self._fetch_queue
        width = self._fetch_width
        fetched = False
        if len(queue) <= width:
            group = self.frontend.fetch_group(now)
            if group is not None and group.insts:
                fetched = True
                queue.extend(group.insts)
                if group.mispredicted_tail:
                    self._mispredict_seqs.add(group.insts[-1].seq)
                    self.frontend.block_for_branch()
        count = 0
        window = self._window
        if queue and len(window) < self._rob_entries:
            rob = self._rob_entries
            lsq = self._lsq_entries
            lsq_count = self._lsq_count
            writer_of = self._last_writer.get
            last_writer = self._last_writer
            mispredict_seqs = self._mispredict_seqs
            by_seq = self._by_seq
            unissued_append = self._unissued.append
            window_append = window.append
            fu_map = self._fu_map
            track_stores = not self._inorder
            store_seqs = self._store_seqs
            needs_reg_events = self.mech.needs_register_events
            model_wrong_path = self._model_wrong_path
            seq = self._next_seq
            while queue and count < width:
                dyn = queue[0]
                dec = dyn.decoded
                if len(window) >= rob:
                    break
                if dec.is_mem and lsq_count >= lsq:
                    break
                queue.popleft()
                count += 1
                # Producers that already completed can never stall this
                # entry (issue is always at a later cycle than dispatch),
                # so prune them here rather than re-checking every scan.
                addr_waits: tuple = ()
                srcs = dec.addr_srcs
                if srcs:
                    waits = None
                    for s in srcs:
                        w = writer_of(s)
                        if w is not None:
                            c = w.complete
                            if c is None or c > now:
                                if waits is None:
                                    waits = [w]
                                else:
                                    waits.append(w)
                    if waits is not None:
                        addr_waits = tuple(waits)
                data_waits: tuple = ()
                srcs = dec.data_srcs
                if srcs:
                    waits = None
                    for s in srcs:
                        w = writer_of(s)
                        if w is not None:
                            c = w.complete
                            if c is None or c > now:
                                if waits is None:
                                    waits = [w]
                                else:
                                    waits.append(w)
                    if waits is not None:
                        data_waits = tuple(waits)
                mispredicted = dyn.seq in mispredict_seqs
                if mispredicted:
                    mispredict_seqs.discard(dyn.seq)
                infl = _InFlight(dyn, seq, addr_waits, data_waits, mispredicted)
                infl.fu = fu_map[dec.fu_index]
                if dec.is_store and track_stores:
                    heappush(store_seqs, (seq, infl))
                if mispredicted and model_wrong_path:
                    self._wp_branch = infl
                if needs_reg_events and dec.dests and not dec.is_load:
                    # Decode-order register events for pretranslation.
                    self.mech.on_register_write(dec.dests, dec.srcs)
                for d in dec.dests:
                    last_writer[d] = infl
                if dec.is_mem:
                    lsq_count += 1
                window_append(infl)
                by_seq[seq] = infl
                seq += 1
                unissued_append(infl)
            if count:
                self._next_seq = seq
                self._lsq_count = lsq_count
                if needs_reg_events:
                    # Register events mutated the mechanism: drop its bound.
                    self._mech_quiet = 0
        if (
            self._wp_branch is not None
            and self._model_wrong_path
            and not queue
            and count < width
        ):
            # The front end is fetching down the wrong path.
            count += self._dispatch_wrong_path(now)
        if count:
            # New issue candidates: the gate's bound no longer holds.
            self._issue_next_try = 0
        return fetched or count > 0
