"""Sparse data memory for the functional simulator.

The store is word-granular (4-byte words) and virtually addressed: the
functional simulator operates on virtual addresses, while the page table
(:mod:`repro.mem.pagetable`) supplies physical frame numbers to the TLB
and cache models on the timing side.

Words hold either a 32-bit integer or a Python float (for the FP
registers' ``LFW``/``SFW`` traffic).  Byte accesses (``LB``/``SB``) are
supported on integer-valued words; reading a byte out of a float-valued
word is an error, as it would be in a real program that type-puns without
a defined representation here.
"""

from __future__ import annotations


class MemoryError_(Exception):
    """Raised on invalid memory accesses (misalignment, type puns)."""


class SparseMemory:
    """Word-granularity sparse memory, default-zero."""

    __slots__ = ("_words",)

    def __init__(self):
        self._words: dict[int, int | float] = {}

    def load_word(self, vaddr: int) -> int | float:
        """Read the aligned word at ``vaddr`` (must be 4-byte aligned)."""
        if vaddr & 3:
            raise MemoryError_(f"misaligned word load at {vaddr:#x}")
        return self._words.get(vaddr, 0)

    def store_word(self, vaddr: int, value: int | float) -> None:
        """Write the aligned word at ``vaddr``."""
        if vaddr & 3:
            raise MemoryError_(f"misaligned word store at {vaddr:#x}")
        if isinstance(value, int):
            value &= 0xFFFF_FFFF
        self._words[vaddr] = value

    def load_byte(self, vaddr: int) -> int:
        """Read the byte at ``vaddr`` (zero-extended)."""
        word = self._words.get(vaddr & ~3, 0)
        if not isinstance(word, int):
            raise MemoryError_(f"byte load from float-valued word at {vaddr:#x}")
        shift = 8 * (vaddr & 3)
        return (word >> shift) & 0xFF

    def store_byte(self, vaddr: int, value: int) -> None:
        """Write the byte at ``vaddr``."""
        aligned = vaddr & ~3
        word = self._words.get(aligned, 0)
        if not isinstance(word, int):
            raise MemoryError_(f"byte store into float-valued word at {vaddr:#x}")
        shift = 8 * (vaddr & 3)
        word = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
        self._words[aligned] = word

    def store_words(self, vaddr: int, values) -> None:
        """Bulk-initialize consecutive words starting at ``vaddr``."""
        if vaddr & 3:
            raise MemoryError_(f"misaligned bulk store at {vaddr:#x}")
        for i, value in enumerate(values):
            self.store_word(vaddr + 4 * i, value)

    def clone(self) -> "SparseMemory":
        """Independent copy of this image (a shallow copy of its words).

        Functional runs mutate the image they execute on, so a caller
        that runs one initialized image more than once — the
        differential checker, tests comparing two captures — clones it
        first.  The build cache does not: it captures each freshly
        built image once, in place, and keeps only the trace.
        """
        copy = SparseMemory()
        copy._words = dict(self._words)
        return copy

    def footprint_words(self) -> int:
        """Number of distinct words ever written."""
        return len(self._words)

    def __contains__(self, vaddr: int) -> bool:
        return (vaddr & ~3) in self._words
