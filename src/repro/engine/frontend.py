"""Fetch front end: I-cache, collapsing buffer, branch prediction.

Implements the paper's fetch interface: up to eight instructions per
cycle, all within one 32-byte instruction-cache block, with up to two
control-transfer predictions per cycle (the limited collapsing-buffer
variant of [CMMP95] the authors added after finding fetch bandwidth to
be a bottleneck).  Predicted-taken branches whose target lies in the
same cache block keep the group going; cross-block targets end it (the
next group starts at the target next cycle, without penalty).

Direction mispredictions end the group and block the front end until the
branch resolves plus the 3-cycle misprediction penalty.  Unconditional
jumps and returns are assumed target-predicted (ideal BTB/RAS); see
DESIGN.md §1.

The front end's *observable* behavior is time-invariant: whether a
probe attempt misses the I-cache or I-TLB, what the predictor says, and
which instructions group together depend only on the instruction
sequence and the front-end geometry — never on the cycle at which the
attempt happens (stall cycles return before probing, and nothing
outside fetch touches the I-cache, I-TLB, or predictor).  Fetch is
therefore split in two: :func:`build_fetch_plan` runs the probe loop
once and records the outcome stream as a :class:`FetchPlan`, and
:class:`FrontEnd` replays that stream under the run-time stall rules.
A plan built for one trace and front-end configuration can be shared
across runs — the paper grids evaluate thirteen translation designs
over the same workload, and twelve of them fetch for free (see
:func:`repro.eval.runner.simulate`).
"""

from __future__ import annotations

import struct
from typing import Iterable

from repro.branch.predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    BranchPredictor,
    GApPredictor,
    GSharePredictor,
    TournamentPredictor,
)
from repro.caches.cache import CacheStats, SetAssocCache
from repro.engine.config import MachineConfig
from repro.engine.stats import MachineStats
from repro.func.dyninst import DynInst
from repro.func.tracefile import TraceFileError
from repro.tlb.storage import FullyAssocTLB

#: FetchPlan event markers for the two kinds of missing probe attempt;
#: every other event is a ``(FetchGroup, branches, jumps)`` tuple.
_IMISS = 0
_ITLB_MISS = 1


def make_predictor(config: MachineConfig) -> BranchPredictor:
    """Instantiate the configured direction predictor."""
    if config.predictor == "gap":
        return GApPredictor(
            config.predictor_history_bits, config.predictor_pht_entries
        )
    if config.predictor == "gshare":
        return GSharePredictor(pht_entries=config.predictor_pht_entries)
    if config.predictor == "bimodal":
        return BimodalPredictor(config.predictor_pht_entries)
    if config.predictor == "tournament":
        return TournamentPredictor(config.predictor_pht_entries)
    return AlwaysTakenPredictor()


class FetchGroup:
    """One cycle's worth of fetched instructions."""

    __slots__ = ("insts", "mispredicted_tail")

    def __init__(self, insts: list[DynInst], mispredicted_tail: bool):
        #: Instructions fetched this cycle, in program order.
        self.insts = insts
        #: True when the last instruction is a mispredicted branch: the
        #: machine must block the front end until it resolves.
        self.mispredicted_tail = mispredicted_tail


class FetchPlan:
    """The precomputed probe-attempt stream of one trace.

    ``events`` holds, in order, the outcome of every fetch attempt that
    reaches the probes: :data:`_IMISS` / :data:`_ITLB_MISS` markers for
    attempts that stall on a fill, and ``(group, branches, jumps)``
    tuples for attempts that deliver a group (``branches``/``jumps``
    are that group's control-transfer counts, charged on delivery).
    The replay consumes exactly one event per probe-reaching attempt,
    so the stream encodes the retry behavior too: a miss event is
    followed by the same block's hit attempt, just as the blocked
    front end would retry it cycles later.
    """

    __slots__ = ("events", "icache_stats")

    def __init__(self, events: list, icache_stats):
        self.events = events
        #: Final I-cache counters (:class:`~repro.caches.cache.CacheStats`)
        #: — identical for every run that replays this plan.
        self.icache_stats = icache_stats


def build_fetch_plan(
    trace: Iterable[DynInst],
    config: MachineConfig,
    predictor: BranchPredictor | None = None,
    icache: SetAssocCache | None = None,
) -> FetchPlan:
    """Run the fetch probe loop over a whole trace, recording outcomes.

    ``predictor`` and ``icache`` default to fresh instances built from
    ``config``; passing them in lets a caller observe their final state
    (the front-end unit tests do).
    """
    insts = trace if isinstance(trace, list) else list(trace)
    if predictor is None:
        predictor = make_predictor(config)
    if icache is None:
        icache = SetAssocCache(
            config.icache_size, config.icache_assoc, config.icache_block
        )
    itlb = (
        FullyAssocTLB(config.itlb_entries, replacement="lru")
        if config.model_itlb
        else None
    )
    page_shift = config.page_shift
    shift = config.icache_block.bit_length() - 1
    width = config.fetch_width
    max_predictions = config.predictions_per_cycle
    icache_access = icache.access
    events: list = []
    add_event = events.append
    idx = 0
    n = len(insts)
    while idx < n:
        first = insts[idx]
        if itlb is not None:
            vpn = first.pc >> page_shift
            if not itlb.probe(vpn):
                itlb.insert(vpn)
                add_event(_ITLB_MISS)
                # The blocked front end re-probes on its next attempt
                # (an I-TLB hit now): loop without advancing.
                continue
        if not icache_access(first.pc):
            add_event(_IMISS)
            continue
        block = first.pc >> shift
        group: list[DynInst] = []
        append = group.append
        predictions = 0
        count = 0
        branches = 0
        jumps = 0
        mispredicted = False
        while count < width and idx < n:
            dyn = insts[idx]
            if (dyn.pc >> shift) != block:
                break
            idx += 1
            count += 1
            append(dyn)
            dec = dyn.decoded
            if not dec.is_control:
                continue
            predictions += 1
            if dec.is_branch:
                branches += 1
                predicted = predictor.predict(dyn.pc)
                predictor.update(dyn.pc, dyn.taken)
                if predicted != dyn.taken:
                    mispredicted = True
                    break
            else:
                jumps += 1
            if dyn.taken:
                # Taken transfer: only an intra-block target lets the
                # collapsing buffer keep fetching this cycle.
                if idx >= n or (insts[idx].pc >> shift) != block:
                    break
            if predictions >= max_predictions:
                break
        add_event((FetchGroup(group, mispredicted), branches, jumps))
    return FetchPlan(events, icache.stats)


#: The MachineConfig fields the fetch probes observe.  Two configs that
#: agree on these produce identical fetch plans for the same trace, so
#: this tuple is the sharing/caching key of the plan caches (the
#: in-process LRU in :mod:`repro.eval.runner` and the on-disk
#: :mod:`repro.eval.artifacts` store).
FETCH_CONFIG_FIELDS: tuple[str, ...] = (
    "icache_size",
    "icache_assoc",
    "icache_block",
    "predictor",
    "predictor_history_bits",
    "predictor_pht_entries",
    "fetch_width",
    "predictions_per_cycle",
    "model_itlb",
    "itlb_entries",
    "page_shift",
)


def fetch_config_key(config: MachineConfig) -> tuple:
    """The front-end slice of ``config`` (JSON-serializable value tuple)."""
    return tuple(getattr(config, name) for name in FETCH_CONFIG_FIELDS)


# ---------------------------------------------------------------------------
# FetchPlan (de)serialization.
#
# build_fetch_plan consumes the trace strictly in order: every group is a
# non-empty *consecutive slice* of the trace, and the groups partition it
# exactly.  A plan therefore serializes without repeating the instructions
# — one fixed-size record per event (miss markers carry no payload, group
# events carry their length and control-transfer summary) — and
# deserializes by re-slicing the hydrated trace.  The payload travels in
# the ``PLAN`` section of a :mod:`repro.func.tracefile` artifact container.
# ---------------------------------------------------------------------------

#: Plan payload preamble: event count, trace length, final I-cache
#: counters (accesses, misses, writebacks).
_PLAN_HEAD = struct.Struct("<QQQQQ")
#: One event record: kind (0 = I-miss, 1 = I-TLB miss, 2 = group),
#: instruction count, branch count, jump count, mispredicted-tail flag.
_PLAN_EVENT = struct.Struct("<BHHHB")
_KIND_GROUP = 2


def encode_fetch_plan(plan: FetchPlan, trace_length: int) -> bytes:
    """Serialize ``plan`` (built over a ``trace_length`` trace) to bytes."""
    stats = plan.icache_stats
    parts = [
        _PLAN_HEAD.pack(
            len(plan.events),
            trace_length,
            stats.accesses,
            stats.misses,
            stats.writebacks,
        )
    ]
    pack = _PLAN_EVENT.pack
    for event in plan.events:
        if event.__class__ is int:
            parts.append(pack(event, 0, 0, 0, 0))
        else:
            group, branches, jumps = event
            parts.append(
                pack(
                    _KIND_GROUP,
                    len(group.insts),
                    branches,
                    jumps,
                    1 if group.mispredicted_tail else 0,
                )
            )
    return b"".join(parts)


def decode_fetch_plan(data: bytes, trace: list[DynInst]) -> FetchPlan:
    """Rebuild a :class:`FetchPlan` from bytes, re-slicing ``trace``.

    The plan must have been built over exactly this trace (same workload
    build and instruction budget); the embedded trace length guards
    obvious mismatches.
    """
    if len(data) < _PLAN_HEAD.size:
        raise TraceFileError("truncated fetch-plan section")
    n_events, trace_len, accesses, misses, writebacks = _PLAN_HEAD.unpack_from(data)
    if trace_len != len(trace):
        raise TraceFileError(
            f"fetch plan was built over a {trace_len}-instruction trace; "
            f"this one has {len(trace)}"
        )
    if len(data) - _PLAN_HEAD.size < n_events * _PLAN_EVENT.size:
        raise TraceFileError("truncated fetch-plan event stream")
    events: list = []
    add_event = events.append
    pos = 0
    for kind, count, branches, jumps, mispredicted in _PLAN_EVENT.iter_unpack(
        data[_PLAN_HEAD.size : _PLAN_HEAD.size + n_events * _PLAN_EVENT.size]
    ):
        if kind == _KIND_GROUP:
            if count == 0 or pos + count > trace_len:
                raise TraceFileError("fetch-plan group exceeds the trace")
            add_event(
                (FetchGroup(trace[pos : pos + count], bool(mispredicted)), branches, jumps)
            )
            pos += count
        elif kind in (_IMISS, _ITLB_MISS):
            add_event(kind)
        else:
            raise TraceFileError(f"unknown fetch-plan event kind {kind}")
    if pos != trace_len:
        raise TraceFileError(
            f"fetch plan covers {pos} of {trace_len} trace instructions"
        )
    return FetchPlan(
        events,
        CacheStats(accesses=accesses, misses=misses, writebacks=writebacks),
    )


class FrontEnd:
    """Replays a :class:`FetchPlan` under the run-time stall rules.

    Stall handling (I-miss fills, misprediction blocking) is the only
    time-dependent part of fetch and lives here; everything the probes
    decided is read off the plan.  When no prebuilt ``plan`` is given,
    one is built from ``trace`` using the caller's ``predictor`` and
    ``icache`` — bit-identical to probing lazily, since only fetch
    touches either.
    """

    def __init__(
        self,
        trace: Iterable[DynInst],
        config: MachineConfig,
        predictor: BranchPredictor,
        icache: SetAssocCache,
        stats: MachineStats,
        plan: FetchPlan | None = None,
    ):
        if plan is None:
            plan = build_fetch_plan(trace, config, predictor, icache)
        self.plan = plan
        self._events = plan.events
        self._n = len(plan.events)
        self._ei = 0
        self._stats = stats
        self._icache_miss_latency = config.icache_miss_latency
        self._tlb_miss_latency = config.tlb_miss_latency
        #: Front end may not fetch again before this cycle (I-miss stall).
        self.blocked_until = 0
        #: Cycle at which fetch resumes after a mispredict (None = not
        #: blocked).  Set by the machine once the branch resolves.
        self.resume_cycle: int | None = None
        #: True while blocked on an unresolved mispredicted branch.
        self.waiting_on_branch = False

    # -- plan cursor ----------------------------------------------------------

    def exhausted(self) -> bool:
        """True when no instructions remain to fetch."""
        return self._ei >= self._n

    # -- misprediction control ----------------------------------------------------

    def block_for_branch(self) -> None:
        """Stall until :meth:`resolve_branch` supplies the resume cycle."""
        self.waiting_on_branch = True
        self.resume_cycle = None

    def resolve_branch(self, resume_cycle: int) -> None:
        """The mispredicted branch resolved; fetch resumes then."""
        self.resume_cycle = resume_cycle

    # -- fetch -------------------------------------------------------------------------

    def fetch_group(self, now: int) -> FetchGroup | None:
        """Fetch this cycle's group, or ``None`` when stalled/empty."""
        stats = self._stats
        if self.waiting_on_branch:
            resume = self.resume_cycle
            if resume is None or now < resume:
                stats.frontend_stall_cycles += 1
                return None
            self.waiting_on_branch = False
            self.resume_cycle = None
        if now < self.blocked_until:
            stats.frontend_stall_cycles += 1
            return None
        ei = self._ei
        if ei >= self._n:
            return None
        ev = self._events[ei]
        self._ei = ei + 1
        if ev.__class__ is int:
            if ev == _ITLB_MISS:
                stats.itlb_misses += 1
                self.blocked_until = now + self._tlb_miss_latency
            else:
                self.blocked_until = now + self._icache_miss_latency
            stats.frontend_stall_cycles += 1
            return None
        group, branches, jumps = ev
        if branches:
            stats.branches += branches
            if group.mispredicted_tail:
                stats.mispredicts += 1
        if jumps:
            stats.jumps += jumps
        return group
