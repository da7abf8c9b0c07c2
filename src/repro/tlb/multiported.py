"""Multi-ported TLBs (paper §3.1, §3.4) — designs T4, T2, T1, PB2 and PB1.

Every port has a path to every entry, so each granted request probes the
single shared fully-associative bank.  Bandwidth is exactly ``ports``
translations per cycle; excess simultaneous requests queue and are
granted to the earliest-issued instruction first.

T4 (four ports) can serve every request the 4 load/store-unit baseline
can generate, so it doubles as the paper's unlimited-bandwidth yardstick.

Piggyback ports (PB2, PB1): requests that fail to win a translation port
compare their virtual page address, in parallel with the TLB access,
against the requests that did; on a match the blocked request consumes
the in-progress translation instead of waiting for a port of its own.
The hardware cost is one comparator and a gate on the hit signal per
piggyback port, so riders add no latency.  If the host translation
*misses*, the rider shares the single page walk: its result carries
``depends_on = host.seq`` and the engine completes it together with the
host.
"""

from __future__ import annotations

from repro.tlb.base import NEVER, PortArbiter, TranslationMechanism
from repro.tlb.request import TranslationRequest, TranslationResult
from repro.tlb.storage import FullyAssocTLB


class MultiPortedTLB(TranslationMechanism):
    """A ``ports``-ported, fully-associative TLB."""

    #: Riders serviceable per cycle; the plain T designs have none.
    piggyback_ports = 0

    def __init__(
        self,
        ports: int,
        entries: int = 128,
        replacement: str = "random",
        page_shift: int = 12,
        seed: int = 0xBEEF_CAFE,
    ):
        super().__init__(page_shift)
        self.tlb = FullyAssocTLB(entries, replacement=replacement, seed=seed)
        self.arbiter = PortArbiter(ports)
        self.ports = ports

    def request(self, req: TranslationRequest) -> TranslationResult | None:
        self.stats.requests += 1
        self.arbiter.submit(req.cycle, req.seq, req)
        return None

    def tick(self, now: int) -> list[TranslationResult]:
        results: list[TranslationResult] = []
        # First host per vpn wins; later same-vpn grants are equivalent.
        hosts: dict[int, tuple[int, bool]] | None = {} if self.piggyback_ports else None
        for req in self.arbiter.grant(now):
            hit, _ = self._probe(self.tlb, req, now - req.cycle)
            results.append(TranslationResult(req, ready=now, tlb_miss=not hit))
            if hosts is not None:
                hosts.setdefault(req.vpn, (req.seq, not hit))
        if hosts:
            self._ride(self.arbiter, now, hosts, self.piggyback_ports, results)
        return results

    def pending(self) -> int:
        return len(self.arbiter)

    def quiescent_until(self, now: int) -> int:
        return self.arbiter.quiescent_until(now)

    def flush(self) -> None:
        self.tlb.flush()


class PiggybackTLB(MultiPortedTLB):
    """A multi-ported TLB that also serves ``piggyback_ports`` riders a cycle.

    PB2 has 2 real ports and 2 riders, PB1 has 1 and 3: enough for the
    baseline's four simultaneous requests in both cases.
    """

    def __init__(
        self,
        ports: int,
        piggyback_ports: int,
        entries: int = 128,
        replacement: str = "random",
        page_shift: int = 12,
        seed: int = 0xBEEF_CAFE,
    ):
        if piggyback_ports < 0:
            raise ValueError(f"piggyback_ports must be >= 0: {piggyback_ports}")
        super().__init__(ports, entries, replacement, page_shift, seed)
        self.piggyback_ports = piggyback_ports


class PerfectTLB(TranslationMechanism):
    """Unlimited bandwidth, zero misses: the ideal upper bound.

    Useful for sanity baselines and for isolating translation effects
    from the rest of the machine; not one of the paper's designs (T4
    plays that role there because it already saturates the core's
    demand).
    """

    def request(self, req: TranslationRequest) -> TranslationResult | None:
        self.stats.requests += 1
        self.stats.shielded += 1
        return TranslationResult(req, ready=req.cycle, shielded=True)

    def tick(self, now: int) -> list[TranslationResult]:
        return []

    def pending(self) -> int:
        return 0

    def quiescent_until(self, now: int) -> int:
        return NEVER
