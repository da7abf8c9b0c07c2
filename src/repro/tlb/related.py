"""Related-work shielding mechanisms the paper builds on (§3.5).

The paper positions pretranslation as an extension of two earlier
proposals, which we implement as extension designs so the lineage can be
measured:

* **BAC** — Chiueh & Katz's *branch address cache* idea applied to data
  access: a small cache indexed by the **instruction address** of a
  load/store remembers the page that instruction last touched.  If the
  same instruction touches the same page again, the cached translation
  is reused.  Unlike pretranslation there is no propagation through
  register arithmetic, and reuse is per static instruction rather than
  per pointer value.
* **THB** — Bray & Flynn's *translation hint buffer*, which extends the
  same structure "to include a prediction of the next translation as
  well": a hit is also scored when the access lands on the page
  *following* the cached one (capturing code/data that streams across a
  page boundary), and the cached entry is updated to the new page.

Both sit over a single-ported 128-entry base TLB, like P8, so the three
designs isolate exactly the attachment policy.
"""

from __future__ import annotations

from repro.tlb.base import ShieldedTLB
from repro.tlb.pretranslation import PretranslationCache
from repro.tlb.request import TranslationRequest
from repro.tlb.storage import FullyAssocTLB


class BranchAddressCache(ShieldedTLB):
    """BAC-style per-static-instruction translation reuse.

    The tag is the requesting instruction's address; the engine does not
    currently thread the PC through translation requests, so the *base
    register + displacement* pair — which identifies the static access
    site in our builder-generated code — stands in for it.  A hit
    requires the access to land on the page the site last touched.  The
    site -> page cache is a :class:`PretranslationCache` (LRU) filled
    only on base-TLB accesses, never by register propagation.
    """

    #: When True, a hit is also scored on the page after the cached one
    #: (the THB's next-page prediction), updating the entry.
    next_page_hint = False

    def __init__(
        self,
        cache_entries: int = 32,
        base_entries: int = 128,
        base_ports: int = 1,
        page_shift: int = 12,
        seed: int = 0xBEEF_CAFE,
    ):
        super().__init__(
            PretranslationCache(cache_entries),
            FullyAssocTLB(base_entries, replacement="random", seed=seed),
            base_ports,
            page_shift,
        )

    @staticmethod
    def _tag(req: TranslationRequest) -> tuple[int, int] | None:
        if req.base_reg is None:
            return None
        return (req.base_reg, req.offset & 0xFFFF)

    def _hit(self, req: TranslationRequest) -> bool:
        tag = self._tag(req)
        if tag is None:
            return False
        cached = self.shield.lookup(tag)
        if cached is None:
            return False
        if cached == req.vpn:
            return True
        if self.next_page_hint and req.vpn == cached + 1:
            self.shield.insert(tag, req.vpn)
            return True
        return False

    def _fill(self, req: TranslationRequest, victim: int | None) -> None:
        if victim is not None:
            self.shield.flush()
            self.stats.shield_flushes += 1
        tag = self._tag(req)
        if tag is not None:
            self.shield.insert(tag, req.vpn)


class TranslationHintBuffer(BranchAddressCache):
    """THB: BAC plus next-page prediction (Bray & Flynn)."""

    next_page_hint = True
