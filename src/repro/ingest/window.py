"""Sampling windows: fit a billion-reference trace into the budget.

Reference traces captured from real programs are orders of magnitude
longer than the instruction budget a cycle-level run can afford, so the
ingestion frontend replays a *sample*: after skipping ``warmup``
records, the stream is divided into fixed-length windows and a
deterministic subset of them is measured.  The selected windows are
replayed in their original temporal order, concatenated into one
dynamic instruction stream.

:class:`WindowSpec` is the whole policy — four integers and a mode —
and it is part of the ingested workload's *name* (see
:mod:`repro.ingest.build`), so every cache in the system (result store,
artifact store, in-flight dedup) keys on it automatically:

* ``warmup`` — records dropped from the head of the stream before any
  window is considered (cold-start effects the paper's reference
  streams also discard);
* ``window`` — window length in records; ``0`` means a single window
  spanning everything after warmup (no sampling);
* ``count`` — number of windows kept; ``0`` keeps every selected one;
* ``select`` — ``"stride"`` keeps every ``stride``-th window from the
  first; ``"random"`` draws ``count`` distinct windows with a seeded
  :class:`~repro.caches.replacement.XorShift32` (same seed ⇒ same
  sample, bit-identical results on every engine path);
* only *complete* windows participate: a partial tail shorter than
  ``window`` is never selected, so the sample does not depend on how a
  capture run happened to end.

Selection is pure arithmetic over record indices — no trace content is
read — so callers can select first and stream-extract second.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from urllib.parse import parse_qs

from repro.caches.replacement import XorShift32
from repro.ingest.format import IngestError

#: Window-selection modes.
SELECT_MODES = ("stride", "random")


@dataclass(frozen=True)
class WindowSpec:
    """Deterministic sampling policy for an ingested trace."""

    warmup: int = 0
    window: int = 0
    count: int = 0
    select: str = "stride"
    stride: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.warmup < 0:
            raise IngestError(f"warmup must be non-negative: {self.warmup}")
        if self.window < 0:
            raise IngestError(f"window length must be non-negative: {self.window}")
        if self.count < 0:
            raise IngestError(f"window count must be non-negative: {self.count}")
        if self.select not in SELECT_MODES:
            raise IngestError(
                f"unknown window selection {self.select!r} "
                f"(expected one of {', '.join(SELECT_MODES)})"
            )
        if self.stride <= 0:
            raise IngestError(f"stride must be positive: {self.stride}")
        if self.seed < 0:
            raise IngestError(f"seed must be non-negative: {self.seed}")

    # -- canonical wire form -------------------------------------------------

    def query(self) -> str:
        """Canonical query-string form (fixed field order, all fields).

        This exact string is embedded in the ingested workload name, so
        two specs compare equal iff their queries compare equal.
        """
        return (
            f"w={self.warmup}&l={self.window}&c={self.count}"
            f"&m={self.select}&s={self.stride}&r={self.seed}"
        )

    @classmethod
    def from_query(cls, query: str) -> "WindowSpec":
        """Inverse of :meth:`query`."""
        fields = parse_qs(query, keep_blank_values=True)
        try:
            return cls(
                warmup=int(fields["w"][0]),
                window=int(fields["l"][0]),
                count=int(fields["c"][0]),
                select=fields["m"][0],
                stride=int(fields["s"][0]),
                seed=int(fields["r"][0]),
            )
        except (KeyError, ValueError, IndexError) as exc:
            raise IngestError(f"malformed window query {query!r}: {exc}") from exc

    def to_payload(self) -> dict:
        """JSON-friendly form (the ``EXTR`` section's window field)."""
        return {
            "warmup": self.warmup,
            "window": self.window,
            "count": self.count,
            "select": self.select,
            "stride": self.stride,
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "WindowSpec":
        return cls(**payload)

    # -- selection -----------------------------------------------------------

    def select_windows(self, total_records: int) -> "list[tuple[int, int]]":
        """Half-open ``(start, stop)`` record ranges to replay, in order.

        Pure arithmetic over ``total_records``; raises
        :class:`IngestError` when nothing survives (warmup swallows the
        stream, or the window length exceeds what remains).
        """
        usable = total_records - self.warmup
        if usable <= 0:
            raise IngestError(
                f"warmup of {self.warmup} records swallows the whole "
                f"{total_records}-record trace"
            )
        if self.window == 0:
            return [(self.warmup, total_records)]
        n_windows = usable // self.window
        if n_windows == 0:
            raise IngestError(
                f"window length {self.window} exceeds the {usable} records "
                f"left after warmup"
            )
        if self.select == "stride":
            chosen = list(range(0, n_windows, self.stride))
            if self.count:
                chosen = chosen[: self.count]
        else:
            want = min(self.count or n_windows, n_windows)
            # Partial Fisher-Yates over the window indices with the
            # seeded xorshift: deterministic sample without replacement.
            rng = XorShift32(((self.seed ^ 0x9E3779B9) & 0xFFFF_FFFF) or 1)
            pool = list(range(n_windows))
            for i in range(want):
                j = i + rng.below(n_windows - i)
                pool[i], pool[j] = pool[j], pool[i]
            # Temporal order is preserved: the sample is sorted so the
            # replayed stream never runs time backwards.
            chosen = sorted(pool[:want])
        return [
            (self.warmup + w * self.window, self.warmup + (w + 1) * self.window)
            for w in chosen
        ]

    def extract(self, records, total_records: int):
        """Yield the sampled records from the iterable ``records``.

        ``records`` is streamed exactly once (it need not be a list);
        ranges come from :meth:`select_windows` over ``total_records``.
        """
        stream = iter(records)
        position = 0
        for start, stop in self.select_windows(total_records):
            # Records before the window are consumed (the reader still
            # checks each one) without a Python-level step per record.
            deque(islice(stream, start - position), maxlen=0)
            yield from islice(stream, stop - start)
            position = stop
