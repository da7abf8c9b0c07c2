"""Translation-mechanism interface and shared building blocks.

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

    def __init__(self, page_shift: int):
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
