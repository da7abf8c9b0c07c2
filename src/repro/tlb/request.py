"""Translation request and result records exchanged with the timing engine."""

from __future__ import annotations


class TranslationRequest:
    """One data-memory translation request.

    Created by the timing engine when a load/store generates its
    effective address.  ``seq`` is the dynamic instruction sequence
    number; the paper's arbitration rule — "the port is allocated first
    to the earliest issued instruction" — is implemented by granting in
    ``seq`` order.
    """

    __slots__ = ("seq", "vpn", "cycle", "is_write", "is_load", "base_reg", "offset")

    def __init__(
        self,
        seq: int,
        vpn: int,
        cycle: int,
        is_write: bool = False,
        is_load: bool = True,
        base_reg: int | None = None,
        offset: int = 0,
    ):
        self.seq = seq
        self.vpn = vpn
        #: Cycle at which the address was generated (request submission).
        self.cycle = cycle
        self.is_write = is_write
        self.is_load = is_load
        #: Architected base register of the access (pretranslation tag).
        self.base_reg = base_reg
        #: Immediate displacement of the access (pretranslation tag bits).
        self.offset = offset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "st" if self.is_write else "ld"
        return f"<TReq #{self.seq} {kind} vpn={self.vpn:#x} @c{self.cycle}>"


class TranslationResult:
    """Outcome of a translation request.

    ``ready`` is the cycle the translation is available at the requester,
    *excluding* the TLB miss handler: when ``tlb_miss`` is true, the
    engine adds the fixed 30-cycle miss latency with the paper's ordering
    rule (service starts after earlier-issued instructions complete,
    because speculative TLB misses stall dispatch).

    ``depends_on`` links a piggybacked rider that combined with a
    translation which *missed*: the rider's translation becomes available
    when the host's miss service completes, without a second walk.
    """

    __slots__ = ("req", "ready", "tlb_miss", "shielded", "depends_on")

    def __init__(
        self,
        req: TranslationRequest,
        ready: int,
        tlb_miss: bool = False,
        shielded: bool = False,
        depends_on: int | None = None,
    ):
        self.req = req
        self.ready = ready
        self.tlb_miss = tlb_miss
        self.shielded = shielded
        self.depends_on = depends_on

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = []
        if self.tlb_miss:
            flags.append("miss")
        if self.shielded:
            flags.append("shielded")
        if self.depends_on is not None:
            flags.append(f"rides#{self.depends_on}")
        return f"<TRes #{self.req.seq} ready=c{self.ready} {' '.join(flags)}>"
