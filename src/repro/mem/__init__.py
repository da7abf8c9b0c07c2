"""Virtual-memory substrate.

``memory``
    :class:`SparseMemory` — word-granularity sparse backing store for the
    functional simulator (virtual-addressed, held in 4 KB pages).
``layout``
    Standard address-space layout (code/global/heap/stack regions) and a
    bump allocator used by the workload generators.
"""

from repro.mem.layout import AddressSpaceLayout, Region
from repro.mem.memory import SparseMemory

__all__ = [
    "AddressSpaceLayout",
    "Region",
    "SparseMemory",
]
