"""Mattson stack-distance (reuse-distance) analysis.

For an LRU-managed fully-associative TLB, a reference hits in a TLB of
``k`` entries exactly when its *stack distance* — the number of distinct
pages referenced since the last touch of this page — is less than ``k``.
One pass over the reference stream therefore yields the exact LRU miss
rate at every capacity simultaneously (Mattson et al., 1970), which is
how we cross-check Figure 6's LRU points, how the screening model
(:mod:`repro.analysis.atmodel`) prices every candidate TLB size, and how
users can explore arbitrary L1-TLB sizes without re-simulating.

Two implementations, same exact histogram:

* the streaming :class:`StackDistanceAnalyzer` keeps the LRU stack as a
  Fenwick tree over reference timestamps — the standard
  O(log n)-per-reference algorithm, pure stdlib, grows on demand;
* :func:`compute_stack_distances` processes a whole stream at once.
  With numpy available it runs a vectorized offline algorithm
  (previous-occurrence array via a stable argsort, then the nested-reuse
  correction as a bottom-up merge count); without numpy it falls back
  to the streaming analyzer.  The two paths are byte-identical:
  distances are exact integers either way.

The vectorized identity: with ``prev[i]`` the index of the previous
reference to ``page[i]`` (undefined on first touch), the stack distance
is the number of distinct pages in the window ``(prev[i], i)``.  Every
reference in that window whose own previous occurrence also falls inside
the window repeats a page already counted, so

``distance[i] = (i - prev[i] - 1) - #{k < i : prev[k] defined and prev[k] > prev[i]}``

(the constraint ``prev[k] > prev[i]`` already confines ``k`` to the
window, since ``prev[k] < k``).  The correction term is a per-element
"how many earlier entries are greater" count over the sequence of
``prev`` values, which a bottom-up merge computes with nothing but
reshapes, per-block sorts, and one flat ``searchsorted`` per level.
"""

from __future__ import annotations

from typing import Sequence


def _numpy():
    """numpy, or ``None`` when it is not installed."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is normally present
        return None
    return numpy


class _Fenwick:
    """Binary indexed tree over reference timestamps."""

    __slots__ = ("size", "tree")

    def __init__(self, size: int):
        self.size = size
        self.tree = [0] * (size + 1)

    def add(self, index: int, delta: int) -> None:
        i = index + 1
        while i <= self.size:
            self.tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, index: int) -> int:
        """Sum of entries at positions <= index."""
        i = index + 1
        total = 0
        while i > 0:
            total += self.tree[i]
            i -= i & (-i)
        return total


class StackDistanceAnalyzer:
    """Streaming stack-distance histogram for a page reference stream."""

    def __init__(self, expected_references: int = 1 << 20):
        self._fenwick = _Fenwick(max(int(expected_references), 1))
        self._last_use: dict[int, int] = {}
        self._time = 0
        #: Histogram: stack distance -> count.  Cold (first-touch)
        #: references are counted separately in :attr:`cold`.
        self.histogram: dict[int, int] = {}
        self.cold = 0
        self.references = 0

    def _grow(self) -> None:
        """Double the timestamp capacity, carrying the live stack over.

        Only the most recent timestamp of each distinct page is live in
        the tree, so rebuilding costs O(pages log n) — streams longer
        than ``expected_references`` degrade gracefully instead of
        raising.
        """
        grown = _Fenwick(max(self._fenwick.size * 2, 1024))
        for timestamp in self._last_use.values():
            grown.add(timestamp, +1)
        self._fenwick = grown

    def touch(self, page: int) -> int | None:
        """Record a reference; returns its stack distance (None = cold)."""
        if self._time >= self._fenwick.size:
            self._grow()
        self.references += 1
        last = self._last_use.get(page)
        distance: int | None = None
        if last is None:
            self.cold += 1
        else:
            # Each *live* timestamp in (last, now) is some page's most
            # recent use, so their count is exactly the number of
            # distinct pages touched since this page's last use.
            distance = self._fenwick.prefix_sum(self._time - 1) - self._fenwick.prefix_sum(
                last
            )
            self.histogram[distance] = self.histogram.get(distance, 0) + 1
            self._fenwick.add(last, -1)
        self._fenwick.add(self._time, +1)
        self._last_use[page] = self._time
        self._time += 1
        return distance

    @classmethod
    def from_pages(cls, pages: Sequence[int]) -> "StackDistanceAnalyzer":
        """Bulk-build an analyzer over a whole stream at once.

        Uses the vectorized :func:`compute_stack_distances` when numpy
        is available; the result — histogram, cold count, and the live
        LRU state for further :meth:`touch` calls — is identical to
        streaming the pages one at a time.
        """
        pages = list(pages)
        analyzer = cls(expected_references=max(len(pages), 1))
        np = _numpy()
        if np is None:
            for page in pages:
                analyzer.touch(page)
            return analyzer
        distances = _distances_numpy(np, pages)
        warm = distances[distances >= 0]
        values, counts = np.unique(warm, return_counts=True)
        analyzer.histogram = {int(v): int(c) for v, c in zip(values, counts)}
        analyzer.references = len(pages)
        analyzer.cold = len(pages) - int(warm.size)
        # Later duplicates win in dict(zip(...)), yielding last-use times.
        analyzer._last_use = dict(zip(pages, range(len(pages))))
        analyzer._time = len(pages)
        for timestamp in analyzer._last_use.values():
            analyzer._fenwick.add(timestamp, +1)
        return analyzer

    def miss_rate(self, capacity: int) -> float:
        """Exact LRU miss rate for a ``capacity``-entry TLB.

        Defined for every stream: an empty stream has miss rate 0.0 and
        a cold-only stream (no finite distances) has miss rate 1.0.
        """
        if self.references == 0:
            return 0.0
        hits = sum(
            count for dist, count in self.histogram.items() if dist < capacity
        )
        return 1.0 - hits / self.references

    def distinct_pages(self) -> int:
        """Number of distinct pages referenced."""
        return len(self._last_use)


def _count_prev_greater(np, values):
    """For each element, how many *earlier* elements are strictly greater.

    ``values`` must be pairwise distinct (previous-occurrence indices
    are).  Bottom-up merge count: at each level, blocks of width ``2h``
    split into a sorted left half and an in-order right half; a single
    flat ``searchsorted`` (left halves offset into disjoint per-row
    value ranges) counts, for every right element, the left elements
    less-or-equal — the complement is its earlier-and-greater
    contribution from that level.  O(n log^2 n), all vectorized.
    """
    m = int(values.size)
    if m <= 1:
        return np.zeros(m, dtype=np.int64)
    padded = 1 << (m - 1).bit_length()
    lo = int(values.min())
    hi = int(values.max())
    # Tail sentinels below every real value: as left-half elements they
    # are never "greater", and their own counts are discarded.
    x = np.concatenate(
        [
            values.astype(np.int64),
            np.full(padded - m, lo - 1, dtype=np.int64),
        ]
    )
    counts = np.zeros(padded, dtype=np.int64)
    positions = np.arange(padded, dtype=np.int64)
    span = hi - lo + 3  # row value ranges stay disjoint after offsetting
    half = 1
    while half < padded:
        width = 2 * half
        blocks = x.reshape(-1, width)
        pos = positions.reshape(-1, width)
        rows = blocks.shape[0]
        left_sorted = np.sort(blocks[:, :half], axis=1)
        right = blocks[:, half:]
        row_offset = np.arange(rows, dtype=np.int64)[:, None] * span
        flat_left = (left_sorted + row_offset).ravel()
        flat_right = (right + row_offset).ravel()
        rank = np.searchsorted(flat_left, flat_right, side="right")
        less_equal = rank - np.repeat(
            np.arange(rows, dtype=np.int64) * half, half
        )
        counts[pos[:, half:].ravel()] += half - less_equal
        half = width
    return counts[:m]


def _distances_numpy(np, pages):
    """Exact stack distances for a whole stream; -1 marks cold touches."""
    a = np.asarray(pages, dtype=np.int64)
    n = int(a.size)
    out = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out
    order = np.argsort(a, kind="stable")
    sorted_pages = a[order]
    same = sorted_pages[1:] == sorted_pages[:-1]
    prev = np.full(n, -1, dtype=np.int64)
    prev[order[1:][same]] = order[:-1][same]
    query = np.nonzero(prev >= 0)[0]
    if query.size == 0:
        return out
    prev_values = prev[query]
    nested = _count_prev_greater(np, prev_values)
    out[query] = (query - prev_values - 1) - nested
    return out


def compute_stack_distances(pages: Sequence[int]) -> list:
    """Stack distance of every reference; ``-1`` marks cold touches.

    Vectorized under numpy, streamed through the Fenwick analyzer
    otherwise; the two paths produce identical integers.
    """
    pages = list(pages)
    np = _numpy()
    if np is not None:
        return [int(d) for d in _distances_numpy(np, pages)]
    analyzer = StackDistanceAnalyzer(expected_references=max(len(pages), 1))
    return [
        distance if (distance := analyzer.touch(page)) is not None else -1
        for page in pages
    ]
