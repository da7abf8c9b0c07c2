"""High-bandwidth address translation mechanisms — the paper's contribution.

The thirteen designs of Table 2 are built from four mechanism modules:

``multiported``
    Brute-force multi-ported TLB (T4, T2, T1) — the baseline standard —
    and the same TLB with piggyback ports (PB2, PB1): simultaneous
    requests to the same virtual page combine at the access port.
``interleaved``
    Banked TLB behind a crossbar with bit-select or XOR-fold bank
    selection (I8, I4, X4), optionally with piggyback ports per bank
    (I4/PB).
``multilevel``
    Small multi-ported L1 TLB shielding a single-ported L2 (M16, M8, M4),
    with multi-level inclusion and status write-through.
``pretranslation``
    Translations attached to register values at first dereference and
    propagated through pointer arithmetic (P8).

``related`` adds the BAC and THB extension designs (paper §3.5).  Every
mechanism is a :class:`~repro.tlb.base.TranslationMechanism`, whose
``_probe`` and ``_ride`` charge every port grant and piggyback rider;
the shielding designs subclass :class:`~repro.tlb.base.ShieldedTLB` and
supply only their shield's policy.  :func:`~repro.tlb.factory.make_mechanism`
instantiates a design from its paper mnemonic.
"""

from repro.tlb.base import PageStatusTable, ShieldedTLB, TranslationMechanism
from repro.tlb.factory import DESIGN_MNEMONICS, make_mechanism
from repro.tlb.interleaved import InterleavedTLB
from repro.tlb.multilevel import MultiLevelTLB
from repro.tlb.multiported import MultiPortedTLB, PerfectTLB, PiggybackTLB
from repro.tlb.pretranslation import PretranslationMechanism
from repro.tlb.request import TranslationRequest, TranslationResult
from repro.tlb.stats import TranslationStats
from repro.tlb.storage import FullyAssocTLB

__all__ = [
    "DESIGN_MNEMONICS",
    "FullyAssocTLB",
    "InterleavedTLB",
    "MultiLevelTLB",
    "MultiPortedTLB",
    "PageStatusTable",
    "PerfectTLB",
    "PiggybackTLB",
    "PretranslationMechanism",
    "ShieldedTLB",
    "TranslationMechanism",
    "TranslationRequest",
    "TranslationResult",
    "TranslationStats",
    "make_mechanism",
]
