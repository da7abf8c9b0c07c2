"""Conditional branch direction predictors.

Targets are assumed to come from an ideal BTB / return-address stack (the
trace supplies them), so a misprediction here means a *direction*
misprediction; the timing engine charges the paper's 3-cycle penalty and
stalls the front end until the branch resolves.  This matches the paper's
setup, which reports direction prediction rates of 80–93%.
"""

from __future__ import annotations


class BranchPredictor:
    """Interface: predict a direction, then learn the outcome."""

    __slots__ = ()

    def predict(self, pc: int) -> bool:
        """Return the predicted direction (True = taken)."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome."""
        raise NotImplementedError


class AlwaysTakenPredictor(BranchPredictor):
    """Degenerate baseline: predict taken."""

    __slots__ = ()

    def predict(self, pc: int) -> bool:
        return True

    def update(self, pc: int, taken: bool) -> None:
        pass


class BimodalPredictor(BranchPredictor):
    """Classic per-PC 2-bit saturating counter table."""

    __slots__ = ("_mask", "_table")

    def __init__(self, entries: int = 2048):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two: {entries}")
        self._mask = entries - 1
        self._table = [2] * entries  # weakly taken

    def predict(self, pc: int) -> bool:
        return self._table[(pc >> 2) & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = (pc >> 2) & self._mask
        counter = self._table[index]
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1


class GSharePredictor(BranchPredictor):
    """Gshare: global history XOR PC indexing a shared 2-bit PHT.

    Not in the paper (it predates McFarling's widespread adoption at
    this scale), included for the predictor ablation: it trades GAp's
    per-address columns for a larger effective pattern space.
    """

    __slots__ = ("history_bits", "_history", "_history_mask", "_index_mask", "_table")

    def __init__(self, history_bits: int = 12, pht_entries: int = 4096):
        if pht_entries <= 0 or pht_entries & (pht_entries - 1):
            raise ValueError(f"pht_entries must be a power of two: {pht_entries}")
        if history_bits <= 0:
            raise ValueError(f"history_bits must be positive: {history_bits}")
        self.history_bits = history_bits
        self._history = 0
        self._history_mask = (1 << history_bits) - 1
        self._index_mask = pht_entries - 1
        self._table = [2] * pht_entries

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._history) & self._index_mask

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._table[index]
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._history_mask


class TournamentPredictor(BranchPredictor):
    """McFarling-style tournament: bimodal vs gshare with a chooser."""

    __slots__ = ("_bimodal", "_gshare", "_chooser", "_mask")

    def __init__(self, entries: int = 4096):
        self._bimodal = BimodalPredictor(entries)
        self._gshare = GSharePredictor(pht_entries=entries)
        if entries <= 0 or entries & (entries - 1):
            raise ValueError(f"entries must be a power of two: {entries}")
        self._chooser = [2] * entries  # >=2 prefers gshare
        self._mask = entries - 1

    def predict(self, pc: int) -> bool:
        if self._chooser[(pc >> 2) & self._mask] >= 2:
            return self._gshare.predict(pc)
        return self._bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        index = (pc >> 2) & self._mask
        g_correct = self._gshare.predict(pc) == taken
        b_correct = self._bimodal.predict(pc) == taken
        if g_correct != b_correct:
            counter = self._chooser[index]
            if g_correct and counter < 3:
                self._chooser[index] = counter + 1
            elif b_correct and counter > 0:
                self._chooser[index] = counter - 1
        self._gshare.update(pc, taken)
        self._bimodal.update(pc, taken)


class GApPredictor(BranchPredictor):
    """GAp two-level predictor (Yeh & Patt taxonomy).

    An ``history_bits``-wide global history register is concatenated with
    low PC bits to index a pattern history table of 2-bit saturating
    counters.  The paper's configuration is 8 history bits and a
    4096-entry PHT (so 4 PC bits select the per-address column).

    The global history is updated speculatively at predict time in real
    front ends; here prediction and update happen at the same trace
    position, so updating at :meth:`update` is equivalent and simpler.
    """

    __slots__ = (
        "history_bits",
        "_history_mask",
        "_pc_bits",
        "_pc_mask",
        "_history",
        "_table",
    )

    def __init__(self, history_bits: int = 8, pht_entries: int = 4096):
        if history_bits <= 0:
            raise ValueError(f"history_bits must be positive: {history_bits}")
        if pht_entries <= 0 or pht_entries & (pht_entries - 1):
            raise ValueError(f"pht_entries must be a power of two: {pht_entries}")
        if pht_entries < (1 << history_bits):
            raise ValueError("PHT smaller than the history pattern space")
        self.history_bits = history_bits
        self._history_mask = (1 << history_bits) - 1
        self._pc_bits = (pht_entries.bit_length() - 1) - history_bits
        self._pc_mask = (1 << self._pc_bits) - 1
        self._history = 0
        self._table = [2] * pht_entries  # weakly taken

    def _index(self, pc: int) -> int:
        pc_part = (pc >> 2) & self._pc_mask
        return (pc_part << self.history_bits) | self._history

    def predict(self, pc: int) -> bool:
        return self._table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self._table[index]
        if taken:
            if counter < 3:
                self._table[index] = counter + 1
        elif counter > 0:
            self._table[index] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) & self._history_mask
