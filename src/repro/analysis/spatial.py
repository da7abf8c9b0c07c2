"""Spatial-locality and base-register-reuse profiling.

Quantifies the two workload properties the paper's new mechanisms
exploit:

* *same-page adjacency* — how often consecutive (and near-simultaneous)
  data references touch the same virtual page.  This is the locality
  piggyback ports combine at the TLB port;
* *base-register page reuse* — how often a load/store through a base
  register hits the same page as the previous access through that
  register.  This is the reuse pretranslation attaches to register
  values (an upper bound on its shielding, before capacity/flush loss).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SpatialProfile:
    """Reference-stream locality summary for one workload."""

    workload: str
    references: int = 0
    distinct_pages: int = 0
    #: Fraction of references to the same page as the previous reference.
    same_page_adjacent: float = 0.0
    #: Fraction of windowed reference groups (size <= 4, a dispatch
    #: group's worth) whose members all share one page.
    same_page_group4: float = 0.0
    #: Fraction of accesses whose base register points at the same page
    #: it pointed at on its previous dereference.
    base_register_page_reuse: float = 0.0
    #: Page footprint histogram by region tag.
    pages_by_region: dict = field(default_factory=dict)


_REGIONS = (
    ("globals", 0x1000_0000, 0x2000_0000),
    ("heap", 0x2000_0000, 0x6000_0000),
    ("stack", 0x7000_0000, 0x7FF0_0000),
    ("spill", 0x7FF0_0000, 0x8000_0000),
)


def _region_of(vaddr: int) -> str:
    for name, lo, hi in _REGIONS:
        if lo <= vaddr < hi:
            return name
    return "other"


def profile_workload(
    workload: str,
    max_instructions: int = 60_000,
    page_shift: int = 12,
    int_regs: int = 32,
    fp_regs: int = 32,
    scale: float = 1.0,
) -> SpatialProfile:
    """Profile a workload's reference stream (its build-cache trace)."""
    from repro.eval.runner import _CACHE, RunRequest

    req = RunRequest(
        workload, "T4", int_regs=int_regs, fp_regs=fp_regs, scale=scale,
        max_instructions=max_instructions,
    )
    profile = SpatialProfile(workload=workload)

    pages: set[int] = set()
    region_pages: dict[str, set[int]] = {}
    prev_page: int | None = None
    adjacent_same = 0
    base_page: dict[int, int] = {}
    base_reuse_hits = 0
    base_reuse_total = 0
    window: list[int] = []
    groups = uniform_groups = 0

    for dyn in _CACHE.get_trace(*req.build_axes):
        if dyn.ea is None:
            continue
        profile.references += 1
        page = dyn.ea >> page_shift
        pages.add(page)
        region_pages.setdefault(_region_of(dyn.ea), set()).add(page)
        if prev_page == page:
            adjacent_same += 1
        prev_page = page
        base = dyn.decoded.base_reg
        if base is not None:
            base_reuse_total += 1
            if base_page.get(base) == page:
                base_reuse_hits += 1
            base_page[base] = page
        window.append(page)
        if len(window) == 4:
            groups += 1
            if len(set(window)) == 1:
                uniform_groups += 1
            window.clear()

    refs = profile.references
    profile.distinct_pages = len(pages)
    profile.same_page_adjacent = adjacent_same / refs if refs else 0.0
    profile.same_page_group4 = uniform_groups / groups if groups else 0.0
    profile.base_register_page_reuse = (
        base_reuse_hits / base_reuse_total if base_reuse_total else 0.0
    )
    profile.pages_by_region = {k: len(v) for k, v in sorted(region_pages.items())}
    return profile
