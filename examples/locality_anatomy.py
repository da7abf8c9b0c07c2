#!/usr/bin/env python3
"""Anatomy of a workload's translation behaviour.

Explains *why* a workload lands where it does in the paper's Figure 5
from the properties of its reference stream the paper reasons from:

1. its workload profile — the exact LRU miss curve (what a multi-level
   L1 TLB of any size would see), same-page sharing in small reference
   windows (what piggyback ports combine) and base-register page reuse
   (what pretranslation attaches) — the same statistics the screening
   model reads;
2. the measured translation bandwidth demand under T4.

Usage::

    python examples/locality_anatomy.py [workload] [instructions]
"""

import sys

from repro import RunRequest, run_one
from repro.analysis.demand import demand_profile
from repro.analysis.profile import workload_profile


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "compress"
    budget = int(sys.argv[2]) if len(sys.argv) > 2 else 40_000
    request = RunRequest(workload=workload, design="T4", max_instructions=budget)

    # 1. The reference stream, from the build the timing run replays.
    print(f"[1] {workload_profile(request.build_axes).render()}")

    # 2. Measured bandwidth demand on the timing machine.
    print(f"\n[2] {demand_profile(run_one(request)).render()}")


if __name__ == "__main__":
    main()
