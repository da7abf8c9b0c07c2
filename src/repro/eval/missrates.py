"""Figure 6: TLB miss rates versus TLB size.

The paper measures, per benchmark, the miss rate of fully-associative
TLBs from 4 to 128 entries over the data reference stream: the 4/8/16
entry points use LRU replacement (as the L1 TLBs do) and the 32/64/128
entry points use random replacement (as the base TLBs do).  The "RTW
Avg" line is the run-time weighted average over all benchmarks.

This is a trace-driven study — no timing machinery — so it is fast even
at large instruction budgets.  It reads each workload's dynamic trace
from the build cache (:mod:`repro.eval.runner`), the same trace the
timing runs replay, so an ingested ``trace:`` workload works too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.eval.runner import _CACHE, RunRequest
from repro.tlb.storage import FullyAssocTLB
from repro.workloads import iter_workload_names

#: The paper's TLB size sweep and the policy used at each point.
SIZES: tuple[int, ...] = (4, 8, 16, 32, 64, 128)


def policy_for(size: int) -> str:
    """LRU below 32 entries (L1-style), random at and above (base-style)."""
    return "lru" if size < 32 else "random"


@dataclass
class MissRateRow:
    """Miss rates of one program across the size sweep."""

    program: str
    references: int
    #: miss_rate[size] for each size in SIZES.
    miss_rate: dict[int, float]


def measure_miss_rates(
    workload: str,
    sizes: Sequence[int] = SIZES,
    max_instructions: int = 120_000,
    page_size: int = 4096,
    int_regs: int = 32,
    fp_regs: int = 32,
    scale: float = 1.0,
) -> MissRateRow:
    """Drive one workload's reference stream through the size sweep."""
    req = RunRequest(
        workload, "T4", int_regs=int_regs, fp_regs=fp_regs, scale=scale,
        max_instructions=max_instructions,
    )
    page_shift = page_size.bit_length() - 1
    tlbs = [FullyAssocTLB(size, replacement=policy_for(size)) for size in sizes]
    references = 0
    for dyn in _CACHE.get_trace(*req.build_axes):
        if dyn.ea is None:
            continue
        references += 1
        vpn = dyn.ea >> page_shift
        for tlb in tlbs:
            if not tlb.probe(vpn):
                tlb.insert(vpn)
    rates = {size: tlb.miss_rate for size, tlb in zip(sizes, tlbs)}
    return MissRateRow(program=workload, references=references, miss_rate=rates)


@dataclass
class Figure6Result:
    """The full Figure 6 data set."""

    sizes: tuple[int, ...]
    rows: list[MissRateRow]
    rtw_average: dict[int, float]


def run_figure6(
    workloads: Iterable[str] | None = None,
    sizes: Sequence[int] = SIZES,
    max_instructions: int = 120_000,
    page_size: int = 4096,
    scale: float = 1.0,
) -> Figure6Result:
    """Measure the Figure 6 sweep for every workload plus the average.

    The average is weighted by each program's reference count (the
    run-time weighting of the paper, with references standing in for
    cycles since this study runs no timing model).
    """
    names = list(workloads) if workloads is not None else list(iter_workload_names())
    rows = [
        measure_miss_rates(
            name,
            sizes=sizes,
            max_instructions=max_instructions,
            page_size=page_size,
            scale=scale,
        )
        for name in names
    ]
    total_refs = sum(row.references for row in rows)
    rtw = {
        size: (
            sum(row.miss_rate[size] * row.references for row in rows) / total_refs
            if total_refs
            else 0.0
        )
        for size in sizes
    }
    return Figure6Result(sizes=tuple(sizes), rows=rows, rtw_average=rtw)
