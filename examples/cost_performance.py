#!/usr/bin/env python3
"""Cost vs. performance: the paper's argument in one table.

Pairs each Table 2 design's measured relative IPC (Figure 5 protocol)
with the first-order area/latency model of §3: the point of the paper
is that several designs match T4's performance at a fraction of its
(quadratically scaling) multi-port cost.

Usage::

    python examples/cost_performance.py [instructions]
"""

import sys

from repro.eval import run_figure
from repro.tlb.costmodel import design_cost
from repro.tlb.factory import DESIGN_MNEMONICS


def main() -> None:
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 15_000
    print(f"running the Figure 5 grid at {budget} instructions per run ...\n")
    result = run_figure("figure5", max_instructions=budget)

    print(
        f"{'design':8s} {'rel IPC':>8s} {'area (T1=1)':>12s} {'hit delay':>10s}"
        f"  {'perf/area':>10s}"
    )
    rows = []
    for design in DESIGN_MNEMONICS:
        rel = result.relative[design]
        cost = design_cost(design)
        rows.append((design, rel, cost.area_vs_t1, cost.hit_latency))
    for design, rel, area, delay in rows:
        ratio = rel / area
        print(f"{design:8s} {rel:8.3f} {area:12.2f} {delay:10.2f} {ratio:10.3f}")

    # Pareto frontier on (area down, relative IPC up).
    frontier = []
    for candidate in rows:
        dominated = any(
            other[1] >= candidate[1] and other[2] < candidate[2]
            or other[1] > candidate[1] and other[2] <= candidate[2]
            for other in rows
            if other is not candidate
        )
        if not dominated:
            frontier.append(candidate[0])
    print(f"\nPareto-efficient designs (IPC vs area): {', '.join(frontier)}")
    print(
        "T4 buys its last few percent of IPC with ~16x the area of a\n"
        "single-ported TLB; the paper's designs sit far inside that cost."
    )


if __name__ == "__main__":
    main()
