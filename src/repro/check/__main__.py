"""CLI for the simulation sanitizer: ``python -m repro.check``.

The one command line for all of :mod:`repro.check`: every fuzzed point
runs under the invariant checker and through the three differential
checks (event-driven vs. plain loops, artifact round trip, timing vs.
functional state).

Examples::

    # CI smoke gate: fixed seed, every Table 2 design, both issue models.
    python -m repro.check --seed 0 --iterations 20

    # Interrogate one design (required for new mechanisms, see
    # docs/extending.md); add --insts for longer runs.
    python -m repro.check --design M8 --iterations 10

    # Fuzz over an ingested external trace instead of the synthetic
    # workloads (the functional check does not apply to it).
    python -m repro.check --trace lackey.ndjson --trace-window 4000 \\
        --trace-windows 2 --designs T4,M8 --insts 5000 --iterations 4

Exit status is non-zero when any invariant violation or differential
mismatch is found; details are printed per failing iteration.
"""

from __future__ import annotations

import argparse
import sys

from repro.check.fuzz import DEFAULT_INSTRUCTIONS, run_fuzz
from repro.eval.options import comma_list, design_name, int_at_least, workload_name
from repro.ingest.build import add_trace_args, trace_workload_from_args


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Fuzz the simulator with invariant and differential checks.",
    )
    parser.add_argument("--seed", type=int, default=0, help="fuzzer RNG seed")
    parser.add_argument(
        "--iterations", type=int_at_least(1), default=20, help="design points to fuzz"
    )
    parser.add_argument(
        "--design",
        "--designs",
        dest="designs",
        type=comma_list(design_name),
        default=None,
        help="comma-separated design mnemonics (default: all 13)",
    )
    parser.add_argument(
        "--workloads",
        type=comma_list(workload_name),
        default=None,
        help="comma-separated workload names (default: all registered)",
    )
    parser.add_argument(
        "--insts",
        type=int_at_least(1),
        default=DEFAULT_INSTRUCTIONS,
        help="dynamic instruction budget per run",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-iteration output"
    )
    add_trace_args(parser)
    args = parser.parse_args(argv)

    workloads = args.workloads
    if args.trace is not None:
        # The ingested trace is the fuzz's only workload.
        if workloads:
            parser.error("--trace and --workloads are mutually exclusive")
        workloads = [trace_workload_from_args(args)]

    def progress(index: int, total: int, record) -> None:
        if args.quiet:
            return
        status = "ok" if record.ok else "FAIL"
        req = record.request
        print(
            f"[{index + 1:3d}/{total}] {req.name:<16s} {req.issue_model:<7s} "
            f"{status}",
            flush=True,
        )
        if not record.ok:
            print(record.render(), flush=True)

    report = run_fuzz(
        seed=args.seed,
        iterations=args.iterations,
        designs=args.designs,
        workloads=workloads,
        insts=args.insts,
        progress=progress,
    )
    print(report.render())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
