"""Pretranslation (paper §3.5) — design P8.

A translation is *attached to a register value* at the first load/store
that dereferences it, and reused on later dereferences as long as the
access stays on the same virtual page.  Pointer arithmetic propagates
the attachment to the result register, so optimized code that copies and
strides pointers keeps its translations alive.

Implementation (paper §4.1):

* attachments live in a small *pretranslation cache* (8 entries, LRU,
  4-ported) tagged by ``base register id (5 bits) ++ upper 4 bits of a
  load's displacement`` (zero for stores and other instructions) — the
  offset bits let one pointer hold attachments for several nearby pages;
* the cache is probed in the decode stage in parallel with register-file
  read; the virtual-page comparison happens at address generation, so a
  pretranslation *miss* is detected the cycle after address generation
  and pays at least one extra cycle to reach the single-ported base TLB;
* page status changes write through to the base TLB (port traffic);
* coherence: the cache is flushed whenever a base-TLB entry is replaced.

The ``needs_register_events`` flag makes the engine deliver in-order
register-write events (decode order) for attachment propagation.
"""

from __future__ import annotations

from repro.tlb.base import ShieldedTLB
from repro.tlb.request import TranslationRequest
from repro.tlb.storage import FullyAssocTLB

#: Pretranslation tags take the upper bits of a 16-bit displacement;
#: the field width is the mechanism's ``offset_tag_bits`` (paper: 4).
OFFSET_TAG_SHIFT = 12


class PretranslationCache:
    """The small LRU cache of (register, offset-bits) -> vpn attachments."""

    def __init__(self, entries: int = 8):
        if entries <= 0:
            raise ValueError(f"entries must be positive: {entries}")
        self.entries = entries
        # Insertion-ordered dict is the LRU chain (MRU last).
        self._cache: dict[tuple[int, int], int] = {}
        # reg -> set of tags, so propagation is O(attachments of src).
        self._by_reg: dict[int, set[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return len(self._cache)

    def lookup(self, tag: tuple[int, int]) -> int | None:
        """Return the attached vpn for ``tag`` and touch LRU, else None."""
        vpn = self._cache.get(tag)
        if vpn is not None:
            del self._cache[tag]
            self._cache[tag] = vpn
        return vpn

    def insert(self, tag: tuple[int, int], vpn: int) -> None:
        """Attach (or refresh) ``tag -> vpn``, evicting LRU on overflow."""
        if tag in self._cache:
            del self._cache[tag]
        elif len(self._cache) >= self.entries:
            victim = next(iter(self._cache))
            del self._cache[victim]
            self._unindex(victim)
        self._cache[tag] = vpn
        self._by_reg.setdefault(tag[0], set()).add(tag)

    def tags_of(self, reg: int) -> tuple[tuple[int, int], ...]:
        """All live tags whose register field is ``reg``."""
        tags = self._by_reg.get(reg)
        if not tags:
            return ()
        return tuple(tags)

    def get(self, tag: tuple[int, int]) -> int | None:
        """Peek without LRU update."""
        return self._cache.get(tag)

    def flush(self) -> int:
        """Drop all attachments; returns how many were dropped."""
        count = len(self._cache)
        self._cache.clear()
        self._by_reg.clear()
        return count

    def _unindex(self, tag: tuple[int, int]) -> None:
        tags = self._by_reg.get(tag[0])
        if tags is not None:
            tags.discard(tag)
            if not tags:
                del self._by_reg[tag[0]]


class PretranslationMechanism(ShieldedTLB):
    """P8: an 8-entry pretranslation cache over a single-ported base TLB."""

    needs_register_events = True

    def __init__(
        self,
        cache_entries: int = 8,
        base_entries: int = 128,
        base_ports: int = 1,
        offset_tag_bits: int = 4,
        page_shift: int = 12,
        seed: int = 0xBEEF_CAFE,
    ):
        if not 0 <= offset_tag_bits <= 8:
            raise ValueError(f"offset_tag_bits out of range: {offset_tag_bits}")
        super().__init__(
            PretranslationCache(cache_entries),
            FullyAssocTLB(base_entries, replacement="random", seed=seed),
            base_ports,
            page_shift,
        )
        self.offset_tag_bits = offset_tag_bits
        self._offset_mask = (1 << offset_tag_bits) - 1

    @property
    def pcache(self) -> PretranslationCache:
        """The pretranslation cache (the shield)."""
        return self.shield

    # -- tagging ---------------------------------------------------------------

    def tag_of(self, req: TranslationRequest) -> tuple[int, int] | None:
        """Pretranslation-cache tag of a request (None if untaggable).

        The paper's configuration concatenates the base register id with
        the upper 4 bits of a load's displacement; ``offset_tag_bits``
        generalizes the width (0 reduces the tag to the register alone,
        the BAC-without-offsets policy).
        """
        if req.base_reg is None:
            return None
        off = (
            (req.offset >> OFFSET_TAG_SHIFT) & self._offset_mask
            if req.is_load
            else 0
        )
        return (req.base_reg, off)

    # -- engine hooks --------------------------------------------------------------

    def on_register_write(self, dests: tuple, srcs: tuple) -> None:
        """Propagate attachments through pointer arithmetic (decode order)."""
        pcache = self.shield
        for src in srcs:
            tags = pcache.tags_of(src)
            if not tags:
                continue
            for tag in tags:
                vpn = pcache.get(tag)
                if vpn is None:
                    continue
                for dst in dests:
                    if dst == src:
                        continue  # self-update keeps its attachment as-is
                    pcache.insert((dst, tag[1]), vpn)

    def _hit(self, req: TranslationRequest) -> bool:
        tag = self.tag_of(req)
        return tag is not None and self.shield.lookup(tag) == req.vpn

    def _fill(self, req: TranslationRequest, victim: int | None) -> None:
        if victim is not None:
            # Coherence rule: flush all attachments whenever a base-TLB
            # entry is replaced.
            self.shield.flush()
            self.stats.shield_flushes += 1
        # Attach the translation to the base register value.
        tag = self.tag_of(req)
        if tag is not None:
            self.shield.insert(tag, req.vpn)
