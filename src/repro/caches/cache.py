"""Set-associative cache model.

The model tracks tags and dirty bits only (no data — the functional
simulator owns values), which is all the timing engine needs: hit/miss,
writeback generation, and occupancy.  Both of the paper's baseline
caches are instances: 32 KB, 2-way, 32-byte blocks, write-back,
write-allocate, 6-cycle miss latency (latency is charged by the engine).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.caches.replacement import XorShift32


@dataclass
class CacheStats:
    """Counters accumulated by :class:`SetAssocCache`."""

    accesses: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        """Fraction of accesses that missed (0 if no accesses)."""
        return self.misses / self.accesses if self.accesses else 0.0


class SetAssocCache:
    """A set-associative, write-back, write-allocate cache.

    Parameters
    ----------
    size:
        Total capacity in bytes.
    assoc:
        Ways per set (``assoc == blocks`` gives a fully-associative cache).
    block_size:
        Bytes per block (power of two).
    replacement:
        ``"lru"`` or ``"random"``.
    seed:
        PRNG seed for random replacement.
    """

    __slots__ = (
        "size",
        "assoc",
        "block_size",
        "block_shift",
        "num_sets",
        "set_mask",
        "replacement",
        "stats",
        "_rng",
        "_sets",
    )

    def __init__(
        self,
        size: int = 32 * 1024,
        assoc: int = 2,
        block_size: int = 32,
        replacement: str = "lru",
        seed: int = 0x2468_ACE1,
    ):
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError(f"block size must be a power of two: {block_size}")
        if size % (assoc * block_size):
            raise ValueError("size must be a multiple of assoc * block_size")
        if replacement not in ("lru", "random"):
            raise ValueError(f"unknown replacement policy: {replacement!r}")
        self.size = size
        self.assoc = assoc
        self.block_size = block_size
        self.block_shift = block_size.bit_length() - 1
        self.num_sets = size // (assoc * block_size)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"number of sets must be a power of two: {self.num_sets}")
        self.set_mask = self.num_sets - 1
        self.replacement = replacement
        self.stats = CacheStats()
        self._rng = XorShift32(seed)
        # Each set is a list of [tag, dirty]; MRU at the end (for LRU).
        self._sets: list[list[list]] = [[] for _ in range(self.num_sets)]

    # -- address arithmetic ----------------------------------------------------

    def block_of(self, addr: int) -> int:
        """Block number (tag+set) of an address."""
        return addr >> self.block_shift

    def _locate(self, addr: int) -> tuple[list[list], int]:
        block = addr >> self.block_shift
        return self._sets[block & self.set_mask], block >> 0

    # -- access ------------------------------------------------------------------

    def probe(self, addr: int) -> bool:
        """Check residency without updating state or stats."""
        block = addr >> self.block_shift
        ways = self._sets[block & self.set_mask]
        return any(line[0] == block for line in ways)

    def access(self, addr: int, write: bool = False) -> bool:
        """Access the block containing ``addr``.

        Returns True on hit.  On a miss the block is allocated
        (write-allocate), possibly writing back a dirty victim (counted
        in ``stats.writebacks``).
        """
        block = addr >> self.block_shift
        ways = self._sets[block & self.set_mask]
        self.stats.accesses += 1
        for i, line in enumerate(ways):
            if line[0] == block:
                if write:
                    line[1] = True
                # Move to MRU position.
                ways.append(ways.pop(i))
                return True
        self.stats.misses += 1
        self._fill(ways, block, write)
        return False

    def fill(self, addr: int, write: bool = False) -> None:
        """Install the block containing ``addr`` without counting an access."""
        ways, block = self._locate(addr)
        for i, line in enumerate(ways):
            if line[0] == block:
                if write:
                    line[1] = True
                ways.append(ways.pop(i))
                return
        self._fill(ways, block, write)

    def _fill(self, ways: list[list], block: int, write: bool) -> None:
        if len(ways) >= self.assoc:
            if self.replacement == "lru":
                victim = ways.pop(0)
            else:
                victim = ways.pop(self._rng.below(len(ways)))
            if victim[1]:
                self.stats.writebacks += 1
        ways.append([block, write])

    def invalidate(self, addr: int) -> bool:
        """Drop the block containing ``addr``; returns True if present.

        A dirty victim is written back (counted).
        """
        ways, block = self._locate(addr)
        for i, line in enumerate(ways):
            if line[0] == block:
                if line[1]:
                    self.stats.writebacks += 1
                del ways[i]
                return True
        return False

    def resident_blocks(self) -> int:
        """Number of valid blocks currently cached."""
        return sum(len(ways) for ways in self._sets)
