"""Sparse data memory for the functional simulator.

The store is word-granular (4-byte words) and virtually addressed: the
functional simulator operates on virtual addresses, and the timing
side's TLB and cache models see only their virtual page numbers.

Words live in 4 KB pages: a dict from page number to a 1,024-slot page,
allocated zero-filled on the first store into the page.  A page starts
as an ``array`` of unsigned 32-bit words, 4 bytes a word, which the
cyclic garbage collector never traverses.  The first word stored into
it that is not an int (a float) turns it into a list, 8 bytes a slot
plus the value objects, for good.  Either costs far less than a dict
entry and a boxed address key per word: xlisp's initialized image takes
0.6 MB rather than 11.3 MB, and doduc's, all floats, 2.1 MB rather than
6.3 MB.  A word never stored reads as zero, so "absent" and "zero" are
the same image.

Words hold either a 32-bit integer or a Python float (for the FP
registers' ``LFW``/``SFW`` traffic).  Byte accesses (``LB``/``SB``) are
supported on integer-valued words; reading a byte out of a float-valued
word is an error, as it would be in a real program that type-puns without
a defined representation here.
"""

from __future__ import annotations

from array import array
from itertools import islice

#: log2 of the page size in bytes.
PAGE_SHIFT = 12

#: Words per page.
PAGE_WORDS = 1 << (PAGE_SHIFT - 2)

#: ``array`` type code of an unsigned 32-bit word.
_WORD = "I" if array("I").itemsize == 4 else "L"

_ZERO_PAGE = bytes(4 * PAGE_WORDS)


class MemoryError_(Exception):
    """Raised on invalid memory accesses (misalignment, type puns)."""


class SparseMemory:
    """Word-granularity sparse memory in 4 KB pages, default-zero.

    The methods spell the page shift (12) and slot mask (1023) as
    literals: loads and stores here are the functional simulator's
    memory path, and a literal costs less than a global lookup.
    """

    __slots__ = ("_pages",)

    def __init__(self):
        self._pages: dict[int, array | list] = {}

    def page(self, vaddr: int) -> array | list:
        """The 1,024-slot page holding ``vaddr``, allocated on first use.

        Slot ``(vaddr >> 2) & 1023`` is the word at ``vaddr``.  It is the
        fast path for scattered bulk initialization, and takes 32-bit
        ints only: the page may be an int-only array.
        """
        page = self._pages.get(vaddr >> 12)
        if page is None:
            page = self._pages[vaddr >> 12] = array(_WORD, _ZERO_PAGE)
        return page

    def load_word(self, vaddr: int) -> int | float:
        """Read the aligned word at ``vaddr`` (must be 4-byte aligned)."""
        if vaddr & 3:
            raise MemoryError_(f"misaligned word load at {vaddr:#x}")
        page = self._pages.get(vaddr >> 12)
        return 0 if page is None else page[(vaddr >> 2) & 1023]

    def store_word(self, vaddr: int, value: int | float) -> None:
        """Write the aligned word at ``vaddr``."""
        if vaddr & 3:
            raise MemoryError_(f"misaligned word store at {vaddr:#x}")
        if isinstance(value, int):
            value &= 0xFFFF_FFFF
        page = self._pages.get(vaddr >> 12)
        if page is None:
            page = self._pages[vaddr >> 12] = array(_WORD, _ZERO_PAGE)
        try:
            page[(vaddr >> 2) & 1023] = value
        except TypeError:  # a float into an int-only page
            self._as_list(vaddr)[(vaddr >> 2) & 1023] = value

    def _as_list(self, vaddr: int) -> list:
        """The page holding ``vaddr``, turned into a list if it is an
        int-only array (to take a word that is not an int)."""
        page = self.page(vaddr)
        if type(page) is not list:
            page = self._pages[vaddr >> 12] = page.tolist()
        return page

    def load_byte(self, vaddr: int) -> int:
        """Read the byte at ``vaddr`` (zero-extended)."""
        page = self._pages.get(vaddr >> 12)
        word = 0 if page is None else page[(vaddr >> 2) & 1023]
        if not isinstance(word, int):
            raise MemoryError_(f"byte load from float-valued word at {vaddr:#x}")
        shift = 8 * (vaddr & 3)
        return (word >> shift) & 0xFF

    def store_byte(self, vaddr: int, value: int) -> None:
        """Write the byte at ``vaddr``."""
        page = self.page(vaddr)
        slot = (vaddr >> 2) & 1023
        word = page[slot]
        if not isinstance(word, int):
            raise MemoryError_(f"byte store into float-valued word at {vaddr:#x}")
        shift = 8 * (vaddr & 3)
        page[slot] = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)

    def store_words(self, vaddr: int, values) -> None:
        """Bulk-initialize consecutive words starting at ``vaddr``.

        ``values`` is any iterable; it is consumed one page-sized slice
        at a time, so a generator never becomes a region-sized list.
        """
        if vaddr & 3:
            raise MemoryError_(f"misaligned bulk store at {vaddr:#x}")
        values = iter(values)
        while True:
            slot = (vaddr >> 2) & 1023
            chunk = [
                v & 0xFFFF_FFFF if isinstance(v, int) else v
                for v in islice(values, PAGE_WORDS - slot)
            ]
            if not chunk:
                return
            end = slot + len(chunk)
            page = self.page(vaddr)
            if type(page) is list:
                page[slot:end] = chunk
            else:
                try:
                    page[slot:end] = array(_WORD, chunk)
                except TypeError:  # the slice holds a float
                    self._as_list(vaddr)[slot:end] = chunk
            vaddr += 4 * len(chunk)

    def clone(self) -> "SparseMemory":
        """Independent copy of this image (a copy of each page).

        Functional runs mutate the image they execute on, so a caller
        that runs one initialized image more than once — the
        differential checker, tests comparing two captures — clones it
        first.  The build cache does not: it captures each freshly
        built image once, in place, and keeps only the trace.
        """
        copy = SparseMemory()
        copy._pages = {number: page[:] for number, page in self._pages.items()}
        return copy

    def diff_words(self, other: "SparseMemory") -> list[int]:
        """Sorted addresses of the words whose values differ between
        this image and ``other`` (a word absent from one reads as 0)."""
        zero = [0] * PAGE_WORDS
        ours, theirs = self._pages, other._pages
        differ = []
        for number in sorted(ours.keys() | theirs.keys()):
            a = list(ours.get(number, zero))
            b = list(theirs.get(number, zero))
            if a != b:
                base = number << 12
                differ.extend(
                    base + 4 * slot
                    for slot, (x, y) in enumerate(zip(a, b))
                    if x is not y and x != y
                )
        return differ
