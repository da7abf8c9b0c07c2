"""CLI for the simulation sanitizer.

Examples::

    # CI smoke gate: fixed seed, every Table 2 design, both issue models.
    python -m repro.check --seed 0 --iterations 20

    # Interrogate one design (required for new mechanisms, see
    # docs/extending.md); add --insts for longer runs.
    python -m repro.check --design M8 --iterations 10

Exit status is non-zero when any invariant violation or differential
mismatch is found; details are printed per failing iteration.
"""

from __future__ import annotations

import argparse
import sys

from repro.check.fuzz import DEFAULT_INSTRUCTIONS, run_fuzz
from repro.eval.options import int_at_least
from repro.tlb.factory import DESIGN_MNEMONICS
from repro.workloads import iter_workload_names


def _design_list(text: str) -> list[str]:
    known = {d.upper() for d in DESIGN_MNEMONICS}
    designs = [part.strip().upper() for part in text.split(",") if part.strip()]
    for design in designs:
        if design not in known:
            raise argparse.ArgumentTypeError(
                f"unknown design {design!r}; known: {', '.join(DESIGN_MNEMONICS)}"
            )
    return designs


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
        type=_design_list,
        default=None,
        help="comma-separated design mnemonics (default: all 13)",
    )
    parser.add_argument(
        "--workloads",
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
    args = parser.parse_args(argv)

    workloads = None
    if args.workloads:
        known = set(iter_workload_names())
        workloads = [w.strip() for w in args.workloads.split(",") if w.strip()]
        unknown = [w for w in workloads if w not in known]
        if unknown:
            parser.error(f"unknown workload(s): {', '.join(unknown)}")

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
