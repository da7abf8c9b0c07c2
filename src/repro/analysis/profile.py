"""Per-workload analysis profiles: everything the screening model needs.

An :class:`AnalysisProfile` condenses one workload's dynamic trace into
the design-independent statistics the analytical translation-cost model
(:mod:`repro.analysis.atmodel`) consumes:

* the exact LRU stack-distance histogram of the page stream, per page
  size — miss rates for *every* candidate TLB capacity at once
  (:mod:`repro.analysis.reusedist`);
* same-page clustering within small reference windows — the locality
  piggyback ports and interleaved banks turn into combining or
  serialization;
* the cross-page bank-collision probability of each candidate bank
  select function — how often adjacent references to *different* pages
  still land in the same bank, the statistic that separates a banked
  TLB that pipelines page runs across banks from one that serializes
  like a single port;
* a pretranslation-cache proxy hit rate per candidate cache size — an
  LRU cache of ``(base register, load-displacement tag) -> vpn``
  attachments replayed over the reference stream, the model's stand-in
  for the real mechanism's shielding (which adds propagation and
  coherence flushes; per-workload calibration absorbs the difference);
* a per-dispatch-group reference-count histogram, the trace-level proxy
  for the machine's measured per-cycle translation demand.

Profiles are a pure function of the trace (the profiling parameters
are this module's constants, covered by the code fingerprint in every
store key), so they memoize as result-store aux entries of kind
``"profile"`` keyed by the build axes: a malformed entry or a wrong
version reads as a clean miss and the profile is rebuilt.
:func:`workload_profile` is the one way to get a build's profile;
``python -m repro profile`` prints its 4 KB statistics with
:meth:`AnalysisProfile.render`.

Every statistic is defined for degenerate streams — empty traces,
single references, and cold-only page streams yield zeros, not division
errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis import reusedist

#: Bump when the payload layout changes; old entries read as misses.
PROFILE_VERSION = 3

#: Page sizes the profile covers (4 KB, 8 KB, 16 KB).
PAGE_SHIFTS = (12, 13, 14)
#: Reference-window sizes for same-page clustering statistics.
WINDOWS = (2, 4, 8)
#: Bank counts whose select functions the profile measures.
BANKS = (2, 4, 8, 16)
#: XOR folding width in bit groups (matches repro.tlb.bankselect).
XOR_FOLD_GROUPS = 3
#: Candidate pretranslation-cache sizes the proxy replays.
PRET_SIZES = (2, 4, 8, 16, 32)
#: Matches repro.tlb.pretranslation's paper-default tag field.
PRET_OFFSET_TAG_SHIFT = 12
PRET_OFFSET_TAG_BITS = 4
#: Instructions per dispatch group for the demand proxy (issue width).
DEMAND_GROUP = 8


@dataclass
class PageStreamStats:
    """Statistics of one workload's page stream at one page size."""

    page_shift: int
    references: int = 0
    distinct_pages: int = 0
    cold: int = 0
    #: Sorted stack-distance values and their reference counts.
    distance_values: tuple = ()
    distance_counts: tuple = ()
    #: window size -> fraction of references sharing their page with at
    #: least one other reference in the same window.
    dup_within: dict = field(default_factory=dict)
    #: pretranslation-cache entries -> proxy shield fraction.
    pretranslation_hit: dict = field(default_factory=dict)
    #: "<banks>:<select>" -> P(same bank | adjacent refs on different
    #: pages); same-page neighbors trivially collide and are excluded.
    bank_collision: dict = field(default_factory=dict)
    #: Fraction of base-register dereferences on the register's previous page.
    base_register_page_reuse: float = 0.0

    def miss_rate(self, capacity: float) -> float:
        """Exact LRU miss rate at ``capacity`` entries (0 references -> 0)."""
        if not self.references:
            return 0.0
        hits = 0
        for value, count in zip(self.distance_values, self.distance_counts):
            if value >= capacity:
                break
            hits += count
        return 1.0 - hits / self.references

    def miss_rates(self, capacities):
        """Vectorized :meth:`miss_rate` over a numpy array of capacities."""
        np = reusedist._numpy()
        if np is None:  # pragma: no cover - screening requires numpy
            raise RuntimeError("vectorized miss rates require numpy")
        capacities = np.asarray(capacities)
        if not self.references:
            return np.zeros(capacities.shape, dtype=np.float64)
        values = np.asarray(self.distance_values, dtype=np.int64)
        cumulative = np.concatenate(
            [[0], np.cumsum(np.asarray(self.distance_counts, dtype=np.int64))]
        )
        hits = cumulative[np.searchsorted(values, capacities, side="left")]
        return 1.0 - hits / self.references

    def to_payload(self) -> dict:
        return {
            "page_shift": self.page_shift,
            "references": self.references,
            "distinct_pages": self.distinct_pages,
            "cold": self.cold,
            "distance_values": list(self.distance_values),
            "distance_counts": list(self.distance_counts),
            "dup_within": {str(k): v for k, v in self.dup_within.items()},
            "pretranslation_hit": {
                str(k): v for k, v in self.pretranslation_hit.items()
            },
            "bank_collision": dict(self.bank_collision),
            "base_register_page_reuse": self.base_register_page_reuse,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "PageStreamStats":
        return cls(
            page_shift=int(payload["page_shift"]),
            references=int(payload["references"]),
            distinct_pages=int(payload["distinct_pages"]),
            cold=int(payload["cold"]),
            distance_values=tuple(int(v) for v in payload["distance_values"]),
            distance_counts=tuple(int(c) for c in payload["distance_counts"]),
            dup_within={int(k): float(v) for k, v in payload["dup_within"].items()},
            pretranslation_hit={
                int(k): float(v) for k, v in payload["pretranslation_hit"].items()
            },
            bank_collision={
                str(k): float(v) for k, v in payload["bank_collision"].items()
            },
            base_register_page_reuse=float(payload["base_register_page_reuse"]),
        )


@dataclass
class AnalysisProfile:
    """The complete screening-model input for one workload."""

    workload: str
    instructions: int = 0
    references: int = 0
    #: references-per-dispatch-group -> group count (0-ref groups excluded).
    group_histogram: dict = field(default_factory=dict)
    #: page shift -> per-page-size stream statistics.
    streams: dict = field(default_factory=dict)

    @property
    def refs_per_instruction(self) -> float:
        if not self.instructions:
            return 0.0
        return self.references / self.instructions

    def stream(self, page_shift: int) -> PageStreamStats:
        """The stats at ``page_shift`` (KeyError if not profiled)."""
        return self.streams[page_shift]

    def render(self, label: "str | None" = None) -> str:
        """Every 4 KB statistic the model reads, plus the LRU miss curve.

        ``label`` names the workload in the heading (default: its name).
        """
        stats = self.stream(12)

        def row(name: str, value) -> str:
            return f"  {name:25s}{value}"

        def rates(values: dict, unit: str) -> str:
            return "  ".join(f"{key}-{unit} {rate:.3f}" for key, rate in values.items())

        lines = [
            f"workload profile — {label or self.workload} "
            f"({self.instructions} instructions, 4 KB pages)",
            row("references", self.references),
            row("distinct pages", stats.distinct_pages),
            row("refs/instruction", f"{self.refs_per_instruction:.3f}"),
            row("base-reg page reuse", f"{stats.base_register_page_reuse:.3f}"),
            row("same-page sharing", rates(stats.dup_within, "ref")),
            row("pretranslation proxy", rates(stats.pretranslation_hit, "entry")),
        ]
        for select in ("bit", "xor"):
            collisions = {b: stats.bank_collision[f"{b}:{select}"] for b in BANKS}
            lines.append(row(f"bank collision ({select})", rates(collisions, "bank")))
        lines.append("exact LRU miss curve")
        for size in (2, 4, 8, 16, 32, 64, 128, 256):
            rate = stats.miss_rate(size)
            bar = "#" * round(50 * rate)
            lines.append(f"  {size:4d} entries: {100 * rate:6.2f}%  {bar}")
        return "\n".join(lines)

    def to_payload(self) -> dict:
        return {
            "version": PROFILE_VERSION,
            "workload": self.workload,
            "instructions": self.instructions,
            "references": self.references,
            "group_histogram": {
                str(k): v for k, v in sorted(self.group_histogram.items())
            },
            "streams": {
                str(shift): stats.to_payload()
                for shift, stats in sorted(self.streams.items())
            },
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "AnalysisProfile":
        """Inverse of :meth:`to_payload`; ValueError on a wrong version
        and on any malformed payload."""
        try:
            if payload.get("version") != PROFILE_VERSION:
                raise ValueError(f"unsupported profile version: {payload.get('version')}")
            return cls(
                workload=payload["workload"],
                instructions=int(payload["instructions"]),
                references=int(payload["references"]),
                group_histogram={
                    int(k): int(v) for k, v in payload["group_histogram"].items()
                },
                streams={
                    int(shift): PageStreamStats.from_payload(stats)
                    for shift, stats in payload["streams"].items()
                },
            )
        except (AttributeError, KeyError, OverflowError, TypeError) as exc:
            raise ValueError(f"malformed profile payload: {exc!r}") from None


# -- construction -------------------------------------------------------------


def _dup_within(pages: Sequence[int], window: int) -> float:
    """Fraction of references sharing a page with another in-window ref.

    Windows are consecutive, non-overlapping groups of ``window``
    references (the trailing partial window is dropped).
    """
    usable = (len(pages) // window) * window
    if not usable:
        return 0.0
    np = reusedist._numpy()
    if np is not None:
        grid = np.sort(
            np.asarray(pages[:usable], dtype=np.int64).reshape(-1, window), axis=1
        )
        edges = grid[:, 1:] == grid[:, :-1]
        sharer = np.zeros(grid.shape, dtype=bool)
        sharer[:, 1:] |= edges
        sharer[:, :-1] |= edges
        return float(sharer.sum() / usable)
    shared_refs = 0
    for start in range(0, usable, window):
        group = pages[start : start + window]
        counts: dict[int, int] = {}
        for page in group:
            counts[page] = counts.get(page, 0) + 1
        shared_refs += sum(c for c in counts.values() if c > 1)
    return shared_refs / usable


def build_profile(trace: Sequence, workload: str) -> AnalysisProfile:
    """Profile a dynamic instruction trace (a list of ``DynInst``)."""
    profile = AnalysisProfile(workload=workload)
    profile.instructions = len(trace)

    eas: list[int] = []
    bases: list[int] = []  # -1 = no base register
    tags: list[int] = []  # packed (base_reg << bits) | offset_tag; -1 = none
    group_counts: dict[int, int] = {}
    group = -1
    in_group = 0
    mask = (1 << PRET_OFFSET_TAG_BITS) - 1
    for index, dyn in enumerate(trace):
        this_group = index // DEMAND_GROUP
        if this_group != group:
            if in_group:
                group_counts[in_group] = group_counts.get(in_group, 0) + 1
            group = this_group
            in_group = 0
        if dyn.ea is None:
            continue
        in_group += 1
        eas.append(dyn.ea)
        decoded = dyn.decoded
        base = decoded.base_reg
        if base is None:
            bases.append(-1)
            tags.append(-1)
        else:
            bases.append(base)
            offset_tag = (
                (decoded.offset >> PRET_OFFSET_TAG_SHIFT) & mask
                if decoded.is_load
                else 0
            )
            tags.append((base << PRET_OFFSET_TAG_BITS) | offset_tag)
    if in_group:
        group_counts[in_group] = group_counts.get(in_group, 0) + 1
    profile.references = len(eas)
    profile.group_histogram = group_counts

    for shift in PAGE_SHIFTS:
        pages = [ea >> shift for ea in eas]
        stats = PageStreamStats(page_shift=shift, references=len(pages))
        analyzer = reusedist.StackDistanceAnalyzer.from_pages(pages)
        stats.distinct_pages = analyzer.distinct_pages()
        stats.cold = analyzer.cold
        ordered = sorted(analyzer.histogram.items())
        stats.distance_values = tuple(v for v, _ in ordered)
        stats.distance_counts = tuple(c for _, c in ordered)
        stats.dup_within = {w: _dup_within(pages, w) for w in WINDOWS}
        stats.pretranslation_hit = {
            size: _pretranslation_proxy(pages, tags, size) for size in PRET_SIZES
        }
        stats.bank_collision = {
            f"{banks}:{select}": _bank_collision(pages, banks, select)
            for banks in BANKS
            for select in ("bit", "xor")
        }
        stats.base_register_page_reuse = _base_reuse(pages, bases)
        profile.streams[shift] = stats
    return profile


def workload_profile(axes: tuple, store=None) -> AnalysisProfile:
    """The profile of the build ``axes`` names (see ``RunRequest.build_axes``).

    Read from ``store`` (a ``ResultStore``) when it holds the ``"profile"``
    aux entry for ``axes``; otherwise built from the build cache's trace
    and, with a store attached, written there.
    """
    spec = {"axes": list(axes)}
    if store is not None:
        cached = store.get_aux("profile", spec, AnalysisProfile.from_payload)
        if cached is not None:
            return cached
    from repro.eval.runner import _CACHE

    profile = build_profile(_CACHE.get_trace(*axes), axes[0])
    if store is not None:
        store.put_aux("profile", spec, profile.to_payload())
    return profile


def _select_banks(pages, banks: int, select: str):
    """Vectorized bank index of each page (mirrors repro.tlb.bankselect)."""
    mask = banks - 1
    if select == "bit":
        return pages & mask
    width = banks.bit_length() - 1
    folded = pages & mask
    for g in range(1, XOR_FOLD_GROUPS):
        folded = folded ^ ((pages >> (g * width)) & mask)
    return folded


def _bank_collision(pages: Sequence[int], banks: int, select: str) -> float:
    """P(adjacent refs share a bank | they reference different pages).

    This is the statistic that decides whether an interleaved TLB
    pipelines a page-run workload across its banks (low collision) or
    degrades toward a single shared port (high collision).  Same-page
    neighbors are excluded — they collide by construction and the model
    accounts for them through ``dup_within``.  A stream with no page
    changes reports 0.0 (no evidence of cross-page conflict).
    """
    if banks <= 1:
        return 1.0
    if len(pages) < 2:
        return 0.0
    np = reusedist._numpy()
    if np is not None:
        arr = np.asarray(pages, dtype=np.int64)
        changed = arr[1:] != arr[:-1]
        total = int(changed.sum())
        if not total:
            return 0.0
        bank = _select_banks(arr, banks, select)
        collide = int(((bank[1:] == bank[:-1]) & changed).sum())
        return collide / total
    total = collide = 0
    for prev, page in zip(pages, pages[1:]):
        if page == prev:
            continue
        total += 1
        if _select_banks(page, banks, select) == _select_banks(prev, banks, select):
            collide += 1
    return collide / total if total else 0.0


def _base_reuse(pages: Sequence[int], bases: Sequence[int]) -> float:
    """Fraction of based references hitting the base's previous page."""
    last: dict[int, int] = {}
    hits = total = 0
    for page, base in zip(pages, bases):
        if base < 0:
            continue
        total += 1
        if last.get(base) == page:
            hits += 1
        last[base] = page
    return hits / total if total else 0.0


def _pretranslation_proxy(
    pages: Sequence[int], tags: Sequence[int], entries: int
) -> float:
    """Shield fraction of an ``entries``-deep LRU attachment cache.

    Replays the reference stream against ``tag -> vpn`` attachments the
    way :class:`repro.tlb.pretranslation.PretranslationCache` would,
    minus register propagation and coherence flushes — the calibration
    step scales for those.
    """
    if not pages:
        return 0.0
    cache: dict[int, int] = {}
    hits = 0
    for page, tag in zip(pages, tags):
        if tag < 0:
            continue
        attached = cache.get(tag)
        if attached is not None:
            del cache[tag]
            if attached == page:
                hits += 1
        elif len(cache) >= entries:
            del cache[next(iter(cache))]
        cache[tag] = page
    return hits / len(pages)
