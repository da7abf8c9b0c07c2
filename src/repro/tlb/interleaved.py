"""Interleaved TLB (paper §3.2) — designs I8, I4, X4 and I4/PB.

The entry array is split into single-ported banks behind a crossbar; a
bank selection function (:mod:`repro.tlb.bankselect`) maps each virtual
page to exactly one bank, which caps associativity at the bank size
(each of the paper's configurations keeps banks >= 16-way
fully-associative, so the hit-rate penalty is negligible — we model each
bank as fully associative with random replacement, as the paper does).

Bandwidth is one translation per bank per cycle; simultaneous requests
to the same bank serialize — the bank-conflict effect that makes the
plain interleaved designs underperform in Figure 5.  With
``piggyback_per_bank`` (design I4/PB), same-cycle requests to the same
*page* combine at the bank port instead of serializing, capturing both
kinds of locality.
"""

from __future__ import annotations

from repro.tlb.bankselect import BankSelect, bit_select, xor_fold
from repro.tlb.base import PortArbiter, TranslationMechanism
from repro.tlb.request import TranslationRequest, TranslationResult
from repro.tlb.storage import FullyAssocTLB


class InterleavedTLB(TranslationMechanism):
    """A banked TLB with per-bank single ports.

    Parameters
    ----------
    banks:
        Number of banks (power of two).
    entries:
        Total entries across all banks.
    select:
        ``"bit"`` or ``"xor"`` bank selection.
    piggyback_per_bank:
        Riders serviceable per bank per cycle (0 disables; I4/PB uses 3,
        enough to combine all four baseline requests at one bank).
    """

    def __init__(
        self,
        banks: int,
        entries: int = 128,
        select: str = "bit",
        piggyback_per_bank: int = 0,
        page_shift: int = 12,
        seed: int = 0xBEEF_CAFE,
    ):
        super().__init__(page_shift)
        if entries % banks:
            raise ValueError(f"{entries} entries do not divide into {banks} banks")
        if select == "bit":
            self.select: BankSelect = bit_select(banks)
        elif select == "xor":
            self.select = xor_fold(banks)
        else:
            raise ValueError(f"unknown bank selection: {select!r}")
        self.banks = banks
        self.piggyback_per_bank = piggyback_per_bank
        bank_entries = entries // banks
        self._banks = [
            FullyAssocTLB(bank_entries, replacement="random", seed=seed + 977 * i)
            for i in range(banks)
        ]
        self._arbiters = [PortArbiter(1) for _ in range(banks)]

    @property
    def rider_capacity(self) -> int:
        return self.piggyback_per_bank * self.banks

    def request(self, req: TranslationRequest) -> TranslationResult | None:
        self.stats.requests += 1
        self._arbiters[self.select(req.vpn)].submit(req.cycle, req.seq, req)
        return None

    def tick(self, now: int) -> list[TranslationResult]:
        results: list[TranslationResult] = []
        riders = self.piggyback_per_bank
        for bank, arbiter in enumerate(self._arbiters):
            granted = arbiter.grant(now)
            if not granted:
                continue
            req = granted[0]
            hit, _ = self._probe(self._banks[bank], req, now - req.cycle)
            results.append(TranslationResult(req, ready=now, tlb_miss=not hit))
            if riders:
                self._ride(arbiter, now, {req.vpn: (req.seq, not hit)}, riders, results)
        return results

    def pending(self) -> int:
        return sum(len(a) for a in self._arbiters)

    def quiescent_until(self, now: int) -> int:
        return min(arbiter.quiescent_until(now) for arbiter in self._arbiters)

    def flush(self) -> None:
        for bank in self._banks:
            bank.flush()
