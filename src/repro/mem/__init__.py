"""Virtual-memory substrate.

``memory``
    :class:`SparseMemory` — word-granularity sparse backing store for the
    functional simulator (virtual-addressed, held in 4 KB pages).
``pagetable``
    :class:`PageTable` — virtual-page to physical-frame mapping with
    reference/dirty status bits; the structure the TLBs cache.
``layout``
    Standard address-space layout (code/global/heap/stack regions) and a
    bump allocator used by the workload generators.
"""

from repro.mem.layout import AddressSpaceLayout, Region
from repro.mem.memory import SparseMemory
from repro.mem.pagetable import PageTable, PageTableEntry

__all__ = [
    "AddressSpaceLayout",
    "Region",
    "SparseMemory",
    "PageTable",
    "PageTableEntry",
]
