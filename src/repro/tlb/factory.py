"""Design factory: paper mnemonics (Table 2) to mechanism instances."""

from __future__ import annotations

from typing import Callable

from repro.tlb.base import TranslationMechanism
from repro.tlb.interleaved import InterleavedTLB
from repro.tlb.multilevel import MultiLevelTLB
from repro.tlb.multiported import MultiPortedTLB, PerfectTLB
from repro.tlb.piggyback import PiggybackTLB
from repro.tlb.pretranslation import PretranslationMechanism
from repro.tlb.related import BranchAddressCache, TranslationHintBuffer

_BUILDERS: dict[str, Callable[[int], TranslationMechanism]] = {
    # Multi-ported, 128 entries, fully-associative, random replacement.
    "T4": lambda ps: MultiPortedTLB(ports=4, entries=128, page_shift=ps),
    "T2": lambda ps: MultiPortedTLB(ports=2, entries=128, page_shift=ps),
    "T1": lambda ps: MultiPortedTLB(ports=1, entries=128, page_shift=ps),
    # Interleaved, 128 entries total.
    "I8": lambda ps: InterleavedTLB(banks=8, entries=128, select="bit", page_shift=ps),
    "I4": lambda ps: InterleavedTLB(banks=4, entries=128, select="bit", page_shift=ps),
    "X4": lambda ps: InterleavedTLB(banks=4, entries=128, select="xor", page_shift=ps),
    # Multi-level: 4-ported LRU L1 over a single-ported 128-entry L2.
    "M16": lambda ps: MultiLevelTLB(l1_entries=16, page_shift=ps),
    "M8": lambda ps: MultiLevelTLB(l1_entries=8, page_shift=ps),
    "M4": lambda ps: MultiLevelTLB(l1_entries=4, page_shift=ps),
    # Pretranslation: 8-entry cache over a single-ported 128-entry base.
    "P8": lambda ps: PretranslationMechanism(cache_entries=8, page_shift=ps),
    # Piggybacked multi-ported TLBs.
    "PB2": lambda ps: PiggybackTLB(ports=2, piggyback_ports=2, page_shift=ps),
    "PB1": lambda ps: PiggybackTLB(ports=1, piggyback_ports=3, page_shift=ps),
    # Interleaved with piggyback ports at each bank.
    "I4/PB": lambda ps: InterleavedTLB(
        banks=4, entries=128, select="bit", piggyback_per_bank=3, page_shift=ps
    ),
    # Not in Table 2: ideal reference.
    "PERFECT": lambda ps: PerfectTLB(page_shift=ps),
    # Extension designs: the related work pretranslation builds on
    # (paper §3.5), over the same single-ported 128-entry base as P8.
    "BAC32": lambda ps: BranchAddressCache(cache_entries=32, page_shift=ps),
    "THB32": lambda ps: TranslationHintBuffer(cache_entries=32, page_shift=ps),
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


def design_builder(mnemonic: str) -> Callable[[int], TranslationMechanism]:
    """The ``page_shift -> mechanism`` builder of a design mnemonic.

    Raises ValueError for a name :func:`make_mechanism` does not accept.
    """
    builder = _BUILDERS.get(str(mnemonic).upper())
    if builder is None:
        known = ", ".join(sorted(_BUILDERS))
        raise ValueError(f"unknown design {mnemonic!r}; known designs: {known}")
    return builder


def make_mechanism(mnemonic: str, page_shift: int = 12) -> TranslationMechanism:
    """Instantiate a Table 2 design (or ``PERFECT``) by mnemonic."""
    return design_builder(mnemonic)(page_shift)


#: Classes reachable from declarative mechanism specs (see below).
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
    ablation sweeps and :class:`repro.eval.runner.RunRequest` use in
    place of closure-based factories, so off-grid design points can be
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
