#!/usr/bin/env python3
"""Design-space sweep: every Table 2 design over every workload.

A miniature of the paper's Figure 5 grid with a per-design breakdown of
*why* each design performs the way it does, in terms of the paper's
Section 2 model:

* ``f_shielded``  — fraction of requests never reaching the base TLB;
* ``piggybacked`` — requests satisfied by combining at a port;
* ``t_stalled``   — mean cycles queued for a translation port;
* ``M_TLB``       — base-TLB miss rate.

Usage::

    python examples/design_space_sweep.py [instructions]
"""

import sys

from repro import DESIGN_MNEMONICS
from repro.eval import EvalOptions, run_figure


def main() -> None:
    budget = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    progress = EvalOptions(progress=lambda line: print(f"  {line}", file=sys.stderr))
    grid = run_figure("figure5", max_instructions=budget, options=progress)

    print(
        f"\n{'design':8s} {'rel IPC':>8s} {'f_shield':>9s} {'piggy':>7s} "
        f"{'t_stall':>8s} {'M_TLB%':>7s}"
    )
    for design in DESIGN_MNEMONICS:
        runs = [res.stats.translation for res in grid.results[design].values()]
        requests = sum(t.requests for t in runs) or 1  # 0 requests: 0 of each
        probes = sum(t.base_probes for t in runs) or 1
        rel = grid.relative[design]
        print(
            f"{design:8s} {rel:8.3f} {sum(t.shielded for t in runs) / requests:9.3f} "
            f"{sum(t.piggybacked for t in runs) / requests:7.3f} "
            f"{sum(t.port_stall_cycles for t in runs) / requests:8.3f} "
            f"{100 * sum(t.base_misses for t in runs) / probes:7.2f}  "
            f"{'#' * round(rel * 40)}"
        )


if __name__ == "__main__":
    main()
