"""Replacement policy helpers shared by caches and TLBs.

Random replacement uses a small deterministic xorshift PRNG so that
simulations are exactly reproducible run-to-run (the paper's base TLBs
use random replacement; reproducibility matters more to us than entropy
quality, and xorshift32 is plenty uniform for victim selection).
"""

from __future__ import annotations


class XorShift32:
    """Deterministic 32-bit xorshift PRNG."""

    __slots__ = ("state",)

    def __init__(self, seed: int = 0x1234_5678):
        if seed == 0:
            raise ValueError("xorshift seed must be non-zero")
        self.state = seed & 0xFFFF_FFFF

    def next(self) -> int:
        """Return the next 32-bit pseudo-random value."""
        x = self.state
        x ^= (x << 13) & 0xFFFF_FFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFF_FFFF
        self.state = x
        return x

    def below(self, bound: int) -> int:
        """Return a pseudo-random integer in ``[0, bound)``."""
        if bound <= 0:
            raise ValueError(f"bound must be positive: {bound}")
        return self.next() % bound

    def words(self, count: int, mask: int = 0xFFFF_FFFF) -> list[int]:
        """The next ``count`` values of :meth:`next`, each ANDed with
        ``mask`` (one bulk draw: the same sequence, without a method
        call per value)."""
        x = self.state
        out = []
        append = out.append
        for _ in range(count):
            x ^= (x << 13) & 0xFFFF_FFFF
            x ^= x >> 17
            x ^= (x << 5) & 0xFFFF_FFFF
            append(x & mask)
        self.state = x
        return out

    def shuffle(self, items: list) -> None:
        """Fisher-Yates shuffle of ``items`` in place, drawing exactly
        what ``below(k + 1)`` for ``k`` from ``len(items) - 1`` down to 1
        would."""
        x = self.state
        for k in range(len(items) - 1, 0, -1):
            x ^= (x << 13) & 0xFFFF_FFFF
            x ^= x >> 17
            x ^= (x << 5) & 0xFFFF_FFFF
            j = x % (k + 1)
            items[k], items[j] = items[j], items[k]
        self.state = x
