"""Design factory: each design mnemonic defined once, as a mechanism spec.

A design is a declarative ``(class name, kwargs pairs)`` spec — the form
:attr:`repro.eval.runner.RunRequest.mechanism` carries — with every
structural constructor argument spelled out.  Everything else derives
from that one entry: :func:`make_mechanism` instantiates it for the
simulator, :func:`repro.analysis.atmodel.mnemonic_space` reads it as an
analytical-model row, and :func:`repro.tlb.costmodel.design_cost`
prices it, so adding a design is one entry in :data:`DESIGNS`.
"""

from __future__ import annotations

from typing import Any

from repro.tlb.base import TranslationMechanism
from repro.tlb.interleaved import InterleavedTLB
from repro.tlb.multilevel import MultiLevelTLB
from repro.tlb.multiported import MultiPortedTLB, PerfectTLB, PiggybackTLB
from repro.tlb.pretranslation import PretranslationMechanism
from repro.tlb.related import BranchAddressCache, TranslationHintBuffer

#: A declarative mechanism spec: class name and constructor kwargs pairs.
Spec = tuple[str, tuple[tuple[str, Any], ...]]


#: Every design by mnemonic: Table 2, the ideal reference and the
#: related-work extensions pretranslation builds on (paper §3.5).
DESIGNS: dict[str, Spec] = {
    # Multi-ported, 128 entries, fully-associative, random replacement.
    "T4": ("MultiPortedTLB", (("ports", 4), ("entries", 128), ("replacement", "random"))),
    "T2": ("MultiPortedTLB", (("ports", 2), ("entries", 128), ("replacement", "random"))),
    "T1": ("MultiPortedTLB", (("ports", 1), ("entries", 128), ("replacement", "random"))),
    # Interleaved, 128 entries total.
    "I8": (
        "InterleavedTLB",
        (("banks", 8), ("entries", 128), ("select", "bit"), ("piggyback_per_bank", 0)),
    ),
    "I4": (
        "InterleavedTLB",
        (("banks", 4), ("entries", 128), ("select", "bit"), ("piggyback_per_bank", 0)),
    ),
    "X4": (
        "InterleavedTLB",
        (("banks", 4), ("entries", 128), ("select", "xor"), ("piggyback_per_bank", 0)),
    ),
    # Multi-level: 4-ported LRU L1 over a single-ported 128-entry L2.
    "M16": (
        "MultiLevelTLB",
        (("l1_entries", 16), ("l1_ports", 4), ("l2_entries", 128), ("l2_ports", 1),
         ("l1_replacement", "lru")),
    ),
    "M8": (
        "MultiLevelTLB",
        (("l1_entries", 8), ("l1_ports", 4), ("l2_entries", 128), ("l2_ports", 1),
         ("l1_replacement", "lru")),
    ),
    "M4": (
        "MultiLevelTLB",
        (("l1_entries", 4), ("l1_ports", 4), ("l2_entries", 128), ("l2_ports", 1),
         ("l1_replacement", "lru")),
    ),
    # Pretranslation: 8-entry cache over a single-ported 128-entry base.
    "P8": (
        "PretranslationMechanism",
        (("cache_entries", 8), ("base_entries", 128), ("base_ports", 1),
         ("offset_tag_bits", 4)),
    ),
    # Piggybacked multi-ported TLBs.
    "PB2": (
        "PiggybackTLB",
        (("ports", 2), ("piggyback_ports", 2), ("entries", 128), ("replacement", "random")),
    ),
    "PB1": (
        "PiggybackTLB",
        (("ports", 1), ("piggyback_ports", 3), ("entries", 128), ("replacement", "random")),
    ),
    # Interleaved with piggyback ports at each bank.
    "I4/PB": (
        "InterleavedTLB",
        (("banks", 4), ("entries", 128), ("select", "bit"), ("piggyback_per_bank", 3)),
    ),
    # Not in Table 2: ideal reference.
    "PERFECT": ("PerfectTLB", ()),
    # Extension designs: the related work pretranslation builds on
    # (paper §3.5), over the same single-ported 128-entry base as P8.
    "BAC32": (
        "BranchAddressCache",
        (("cache_entries", 32), ("base_entries", 128), ("base_ports", 1)),
    ),
    "THB32": (
        "TranslationHintBuffer",
        (("cache_entries", 32), ("base_entries", 128), ("base_ports", 1)),
    ),
}

#: Extension designs beyond Table 2 (related work; see repro.tlb.related).
EXTENSION_MNEMONICS: tuple[str, ...] = ("BAC32", "THB32", "PERFECT")

#: The thirteen Table 2 mnemonics, in the paper's presentation order.
DESIGN_MNEMONICS: tuple[str, ...] = (
    "T4",
    "T2",
    "T1",
    "M16",
    "M8",
    "M4",
    "P8",
    "I8",
    "I4",
    "X4",
    "PB2",
    "PB1",
    "I4/PB",
)


def design_spec(mnemonic: str) -> Spec:
    """The mechanism spec of a design mnemonic (case-insensitive).

    Raises ValueError for a name :func:`make_mechanism` does not accept.
    """
    spec = DESIGNS.get(str(mnemonic).upper())
    if spec is None:
        known = ", ".join(sorted(DESIGNS))
        raise ValueError(f"unknown design {mnemonic!r}; known designs: {known}")
    return spec


def make_mechanism(mnemonic: str, page_shift: int = 12) -> TranslationMechanism:
    """Instantiate a design (Table 2, ``PERFECT`` or an extension) by mnemonic."""
    return make_mechanism_from_spec(design_spec(mnemonic), page_shift)


#: Classes reachable from declarative mechanism specs.
MECHANISM_CLASSES: dict[str, type[TranslationMechanism]] = {
    cls.__name__: cls
    for cls in (
        MultiPortedTLB,
        PerfectTLB,
        InterleavedTLB,
        MultiLevelTLB,
        PiggybackTLB,
        PretranslationMechanism,
        BranchAddressCache,
        TranslationHintBuffer,
    )
}


def make_mechanism_from_spec(spec, page_shift: int = 12) -> TranslationMechanism:
    """Instantiate a mechanism from a declarative (class name, kwargs) spec.

    ``spec`` is ``(class_name, kwargs)`` where ``kwargs`` is a mapping or
    an iterable of ``(name, value)`` pairs — the serializable form the
    design table, the ablation sweeps and
    :class:`repro.eval.runner.RunRequest` use, so any design point can be
    hashed, pickled to worker processes, and memoized on disk.
    """
    name, kwargs = spec
    return mechanism_class(name)(page_shift=page_shift, **dict(kwargs))


def mechanism_class(name: str) -> type[TranslationMechanism]:
    """The class a declarative spec names; ValueError if unknown."""
    cls = MECHANISM_CLASSES.get(name)
    if cls is None:
        known = ", ".join(sorted(MECHANISM_CLASSES))
        raise ValueError(f"unknown mechanism class {name!r}; known: {known}")
    return cls
