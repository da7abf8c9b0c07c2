"""Translation-mechanism interface, shared port accounting and building blocks.

The timing engine drives a mechanism through three hooks:

* :meth:`TranslationMechanism.on_register_write` — called in program
  order as instructions enter the window (the decode stage, where
  pretranslation does its register-file-parallel propagation);
* :meth:`TranslationMechanism.request` — called when a load/store
  generates its effective address; may return an immediate
  :class:`~repro.tlb.request.TranslationResult` when a shielding
  mechanism satisfies the request, else the request queues internally;
* :meth:`TranslationMechanism.tick` — called once per cycle; arbitrates
  ports and returns the results that resolved this cycle.

Timing convention: TLB access is fully overlapped with data-cache access
(paper §4.1), so a request granted a port in its submission cycle with a
TLB hit has ``ready == request.cycle`` — zero added latency.  Base-TLB
misses are flagged and charged (30 cycles + ordering) by the engine.
"""

from __future__ import annotations

from repro.tlb.request import TranslationRequest, TranslationResult
from repro.tlb.stats import TranslationStats

#: Sentinel returned by :meth:`TranslationMechanism.quiescent_until` when a
#: mechanism has no pending work at all: "no event from this mechanism".
#: Large enough to compare above any reachable cycle count.
NEVER = 1 << 62


class TranslationMechanism:
    """Abstract base for all Table 2 designs."""

    #: Mechanisms that attach translations to register values need to see
    #: register writes (pretranslation); the engine checks this flag to
    #: avoid per-instruction overhead for everyone else.
    needs_register_events = False

    def __init__(self, page_shift: int = 12):
        self.page_shift = page_shift
        self.stats = TranslationStats()

    # -- engine hooks --------------------------------------------------------

    def on_register_write(self, dests: tuple, srcs: tuple) -> None:
        """In-order decode-stage register-write hook (default: nothing).

        Delivered only when :attr:`needs_register_events` is set, for
        every non-load instruction that writes registers, in program
        order — this is where pretranslation propagates attachments.
        """

    def request(self, req: TranslationRequest) -> TranslationResult | None:
        """Submit a request at address-generation time.

        Returns an immediate result when shielded, else ``None`` (the
        result will come out of :meth:`tick`).
        """
        raise NotImplementedError

    def tick(self, now: int) -> list[TranslationResult]:
        """Advance one cycle; returns results resolved this cycle."""
        raise NotImplementedError

    def pending(self) -> int:
        """Number of requests still queued (for engine drain checks)."""
        raise NotImplementedError

    def quiescent_until(self, now: int) -> int:
        """Earliest cycle after ``now`` at which :meth:`tick` may act.

        The event-driven engine calls this after ticking at ``now``; it
        may skip straight to the returned cycle, never invoking ``tick``
        in between.  The contract: for every cycle ``c`` with
        ``now < c < quiescent_until(now)``, ``tick(c)`` would return no
        results and leave the mechanism's state unchanged.  Return
        :data:`NEVER` when the mechanism holds no pending work at all.

        The default is maximally conservative — "tick me every cycle" —
        so third-party mechanisms are correct without opting in.  The
        port-arbitrated designs all override this via
        :meth:`PortArbiter.quiescent_until`.
        """
        return now + 1

    def flush(self) -> None:
        """Invalidate all cached translations (context switch / VM change).

        Queued requests stay queued — they re-probe the now-cold
        structures when granted.  Subclasses override to clear their
        arrays; the default covers mechanisms with no state.
        """

    # -- shared accounting (paper §4.1) -----------------------------------------

    def _stall(self, cycles: int) -> None:
        """Charge ``cycles`` of port queueing beyond the design's minimum."""
        if cycles > 0:
            self.stats.port_stall_cycles += cycles
            self.stats.port_stalled_requests += 1

    def _probe(self, tlb, req: TranslationRequest, stall: int) -> tuple[bool, int | None]:
        """Access ``tlb`` with a port granted after ``stall`` queued cycles.

        Charges the stall, counts the probe, fills the page on a miss
        (counted too) and returns ``(hit, victim)``: the vpn the fill
        evicted, else None.
        """
        self._stall(stall)
        self.stats.base_probes += 1
        if tlb.probe(req.vpn):
            return True, None
        self.stats.base_misses += 1
        return False, tlb.insert(req.vpn)

    def _ride(
        self, arbiter: PortArbiter, now: int, hosts: dict, limit: int, results: list
    ) -> None:
        """Piggyback waiting same-page requests on this cycle's hosts.

        ``hosts`` maps each granted vpn to ``(host seq, host missed)``.
        Up to ``limit`` eligible requests of ``arbiter``, earliest first,
        leave its queue and take their host's outcome this cycle: a rider
        on a missing host shares its walk (``depends_on``).
        """
        riders = 0
        for req in arbiter.peek_waiting(now):
            if riders >= limit:
                break
            outcome = hosts.get(req.vpn)
            if outcome is None:
                continue
            host_seq, missed = outcome
            arbiter.remove(req)
            riders += 1
            self.stats.piggybacked += 1
            self._stall(now - req.cycle)
            host = host_seq if missed else None
            results.append(TranslationResult(req, ready=now, tlb_miss=missed, depends_on=host))


class PortArbiter:
    """Queues requests for a fixed number of ports.

    Grants are in dynamic-sequence order ("the port is allocated first to
    the earliest issued instruction"), restricted to requests whose
    ``min_cycle`` has arrived (multi-level and pretranslation designs
    forward shield misses the *following* cycle).

    Queue depths in practice are single digits, so linear scans are both
    clear and fast.
    """

    __slots__ = ("ports", "_queue")

    def __init__(self, ports: int):
        if ports <= 0:
            raise ValueError(f"ports must be positive: {ports}")
        self.ports = ports
        #: List of (min_cycle, seq, payload) tuples.
        self._queue: list[tuple[int, int, object]] = []

    def submit(self, min_cycle: int, seq: int, payload: object) -> None:
        """Enqueue a request eligible for grant at ``min_cycle``."""
        self._queue.append((min_cycle, seq, payload))

    def grant(self, now: int) -> list[object]:
        """Pop up to ``ports`` eligible payloads in seq order."""
        queue = self._queue
        if not queue:
            return []
        if len(queue) == 1:
            # The overwhelmingly common case on busy cycles.
            if queue[0][0] <= now:
                return [queue.pop()[2]]
            return []
        if self.ports == 1:
            # Single port: pick the eligible min-seq item without sorting.
            best = None
            for item in queue:
                if item[0] <= now and (best is None or item[1] < best[1]):
                    best = item
            if best is None:
                return []
            queue.remove(best)
            return [best[2]]
        eligible = sorted(
            (item for item in queue if item[0] <= now), key=lambda item: item[1]
        )
        granted = eligible[: self.ports]
        for item in granted:
            queue.remove(item)
        return [item[2] for item in granted]

    def peek_waiting(self, now: int) -> list[object]:
        """Eligible-but-ungranted payloads, in seq order (for piggyback)."""
        eligible = sorted(
            (item for item in self._queue if item[0] <= now), key=lambda item: item[1]
        )
        return [item[2] for item in eligible]

    def remove(self, payload: object) -> None:
        """Withdraw a queued payload (piggybacked riders leave the queue)."""
        for item in self._queue:
            if item[2] is payload:
                self._queue.remove(item)
                return
        raise ValueError("payload not queued")

    def quiescent_until(self, now: int) -> int:
        """Earliest cycle after ``now`` at which a grant could occur.

        An empty queue yields :data:`NEVER`; leftover requests already
        eligible (the queue over-subscribed the ports) force ``now + 1``;
        otherwise the earliest future ``min_cycle`` is the next event.
        """
        queue = self._queue
        if not queue:
            return NEVER
        earliest = min(item[0] for item in queue)
        return earliest if earliest > now else now + 1

    def __len__(self) -> int:
        return len(self._queue)


class PageStatusTable:
    """Reference/dirty bits per virtual page.

    The shielding designs replicate page status upward, but changes are
    written through to the base TLB immediately (paper §4.1): the first
    reference and the first write to a page each generate one status
    write that competes for a base-TLB port.
    """

    __slots__ = ("_referenced", "_dirty")

    def __init__(self):
        self._referenced: set[int] = set()
        self._dirty: set[int] = set()

    def needs_update(self, vpn: int, is_write: bool) -> bool:
        """Would accessing ``vpn`` change its status bits?"""
        if vpn not in self._referenced:
            return True
        return is_write and vpn not in self._dirty

    def update(self, vpn: int, is_write: bool) -> None:
        """Record a reference (and write, if any) to ``vpn``."""
        self._referenced.add(vpn)
        if is_write:
            self._dirty.add(vpn)


class _StatusWrite:
    """A queued reference/dirty write-through (consumes a port cycle)."""

    __slots__ = ("vpn",)

    def __init__(self, vpn: int):
        self.vpn = vpn


class ShieldedTLB(TranslationMechanism):
    """A shield in front of a port-arbitrated base TLB (paper §3.3, §3.5).

    The shield (an L1 TLB, a pretranslation cache, a BAC/THB) answers a
    hit at zero added latency; its first reference or write to a page
    writes the status change through to the base TLB, taking a port
    cycle.  A shield miss is forwarded to the base the following cycle,
    and queueing beyond that cycle is port stall.  Subclasses supply the
    shield's policy only:

    * ``_hit(req)`` — does the shield translate ``req``?
    * ``_fill(req, victim)`` — update the shield after ``req`` accessed
      the base TLB, whose fill evicted ``victim`` (a vpn, or None).
    """

    #: Cycles from the base-TLB grant until the translation is ready.
    BASE_ACCESS_CYCLES = 0

    def __init__(self, shield, base, base_ports: int, page_shift: int):
        super().__init__(page_shift)
        self.shield = shield
        self.base = base
        self.arbiter = PortArbiter(base_ports)
        self.status = PageStatusTable()

    def request(self, req: TranslationRequest) -> TranslationResult | None:
        self.stats.requests += 1
        if self._hit(req):
            self.stats.shielded += 1
            if self.status.needs_update(req.vpn, req.is_write):
                self.status.update(req.vpn, req.is_write)
                self.stats.status_writes += 1
                self.arbiter.submit(req.cycle, req.seq, _StatusWrite(req.vpn))
            return TranslationResult(req, ready=req.cycle, shielded=True)
        self.arbiter.submit(req.cycle + 1, req.seq, req)
        return None

    def tick(self, now: int) -> list[TranslationResult]:
        results: list[TranslationResult] = []
        for req in self.arbiter.grant(now):
            if isinstance(req, _StatusWrite):
                continue  # consumes the port cycle; nothing to report
            hit, victim = self._probe(self.base, req, now - (req.cycle + 1))
            self._fill(req, victim)
            self.status.update(req.vpn, req.is_write)
            ready = now + self.BASE_ACCESS_CYCLES
            results.append(TranslationResult(req, ready=ready, tlb_miss=not hit))
        return results

    def pending(self) -> int:
        return len(self.arbiter)

    def quiescent_until(self, now: int) -> int:
        return self.arbiter.quiescent_until(now)

    def flush(self) -> None:
        self.shield.flush()
        self.base.flush()
        self.status = PageStatusTable()
