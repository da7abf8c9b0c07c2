"""Multi-level TLB (paper §3.3) — designs M16, M8, M4.

A small multi-ported L1 TLB with LRU replacement shields a large
single-ported L2 TLB with random replacement.  The L1 has enough ports
(four) for every simultaneous request the baseline core can make, so an
L1 hit is a zero-added-latency shielded translation.

Timing (paper §4.1): L1 misses are sent *the following cycle* to the L2,
where they may queue behind other requests; the minimum added latency of
an L1 miss is therefore 2 cycles (one to forward, one to access the L2).

Consistency (paper §4.1):

* multi-level inclusion — misses fill both levels, and an entry replaced
  in the L2 is selectively invalidated from the L1;
* page status (reference/dirty bits) is replicated in the L1 but every
  status *change* is written through to the L2 immediately, consuming an
  L2 port cycle.
"""

from __future__ import annotations

from repro.tlb.base import ShieldedTLB
from repro.tlb.request import TranslationRequest
from repro.tlb.storage import FullyAssocTLB


class MultiLevelTLB(ShieldedTLB):
    """An L1/L2 TLB hierarchy with inclusion and status write-through.

    The L1 is the shield (``l1``) and the L2 the base TLB (``base``).
    """

    #: Added latency of the L2 access itself after the forward cycle.
    BASE_ACCESS_CYCLES = 1

    def __init__(
        self,
        l1_entries: int,
        l1_ports: int = 4,
        l2_entries: int = 128,
        l2_ports: int = 1,
        l1_replacement: str = "lru",
        page_shift: int = 12,
        seed: int = 0xBEEF_CAFE,
    ):
        super().__init__(
            FullyAssocTLB(l1_entries, replacement=l1_replacement, seed=seed),
            FullyAssocTLB(l2_entries, replacement="random", seed=seed ^ 0x5A5A),
            l2_ports,
            page_shift,
        )
        self.l1_ports = l1_ports

    @property
    def l1(self) -> FullyAssocTLB:
        """The L1 TLB (the shield)."""
        return self.shield

    def _hit(self, req: TranslationRequest) -> bool:
        return self.shield.probe(req.vpn)

    def _fill(self, req: TranslationRequest, victim: int | None) -> None:
        if victim is not None:
            # Enforce inclusion: the L1 may not cache a page the L2 no
            # longer holds.
            self.shield.invalidate(victim)
        self.shield.insert(req.vpn)

    def check_inclusion(self) -> bool:
        """True when every L1 entry is also in the L2 (test hook)."""
        return all(vpn in self.base for vpn in self.shield.resident())
