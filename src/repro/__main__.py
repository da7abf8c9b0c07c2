"""Top-level command line interface.

Usage::

    python -m repro list
    python -m repro run xlisp M8 [--insts N] [--inorder] [--pages 8192]
                                 [--regs 8] [--itlb] [--artifacts [DIR]]
    python -m repro profile tfft [--insts N]
    python -m repro demand espresso T4 [--insts N]
    python -m repro disasm perl [--max-lines N]
    python -m repro verify tfft [--regs 8]

(The experiment drivers live under ``python -m repro.eval``.)
"""

from __future__ import annotations

import argparse

from repro.analysis.demand import demand_profile
from repro.analysis.profile import workload_profile
from repro.eval.options import (
    REGS_RANGE,
    add_eval_args,
    design_name,
    int_at_least,
    int_in_range,
    page_size,
    workload_name,
)
from repro.eval.report import workload_label
from repro.eval.runner import RunRequest, run_one
from repro.ingest.build import add_trace_args, trace_workload_from_args
from repro.tlb.factory import DESIGN_MNEMONICS, EXTENSION_MNEMONICS
from repro.workloads import iter_workload_names, make_workload


def _cmd_list(args) -> int:
    print("workloads:")
    for name in iter_workload_names():
        wl = make_workload(name)
        print(f"  {name:12s} [{wl.regime:7s}] {wl.description}")
    print("\ndesigns (Table 2):")
    print("  " + " ".join(DESIGN_MNEMONICS))
    print("extension designs:")
    print("  " + " ".join(EXTENSION_MNEMONICS))
    return 0


def _cmd_run(args) -> int:
    if args.artifacts is not None:
        # Attach the on-disk artifact cache: a repeated run of the same
        # workload hydrates its program/trace/fetch plan instead of
        # regenerating and re-executing them.
        from repro.eval.artifacts import ArtifactStore
        from repro.eval.runner import configure_artifacts

        configure_artifacts(ArtifactStore(args.artifacts or None))
    workload = trace_workload_from_args(args)
    if workload is None:
        if args.workload is None:
            raise SystemExit("error: a workload name (or --trace FILE) is required")
        workload = args.workload
    elif args.workload is not None:
        raise SystemExit("error: give a workload name or --trace, not both")
    req = RunRequest.create(
        workload,
        args.design,
        issue_model="inorder" if args.inorder else "ooo",
        page_size=args.pages,
        int_regs=args.regs,
        fp_regs=args.regs,
        max_instructions=args.insts,
        **({"model_itlb": True} if args.itlb else {}),
    )
    profiler = None
    if args.profile:
        from repro.perf import SimProfiler

        profiler = SimProfiler()
    result = run_one(req, profiler=profiler)
    s = result.stats
    t = s.translation
    print(f"{workload_label(workload)} / {args.design}:")
    print(f"  cycles              {s.cycles}")
    print(f"  committed           {s.committed}  (IPC {s.commit_ipc:.3f})")
    print(f"  issued              {s.issued}  (IPC {s.issue_ipc:.3f}, incl. wrong path)")
    print(f"  loads/stores        {s.loads}/{s.stores}  ({s.mem_refs_per_cycle:.2f} refs/cycle)")
    print(f"  branch prediction   {100 * s.branch_prediction_rate:.1f}%")
    print(f"  f_shielded          {t.shielded_fraction:.3f}")
    print(f"  piggybacked         {t.piggybacked}")
    print(f"  port stall cycles   {t.port_stall_cycles} (mean {t.mean_port_stall:.3f}/req)")
    print(f"  base TLB miss rate  {100 * t.base_miss_rate:.2f}%  ({s.tlb_miss_services} walks)")
    print(f"  forwarded loads     {s.forwarded_loads}")
    print(f"  dcache miss rate    {100 * s.dcache.miss_rate:.2f}%")
    if args.itlb:
        print(f"  itlb misses         {s.itlb_misses}")
    if profiler is not None:
        print()
        print(profiler.render())
    return 0


def _cmd_profile(args) -> int:
    axes = RunRequest(args.workload, "T4", max_instructions=args.insts).build_axes
    print(workload_profile(axes).render(workload_label(args.workload)))
    return 0


def _cmd_demand(args) -> int:
    result = run_one(
        RunRequest(
            workload=args.workload, design=args.design, max_instructions=args.insts
        )
    )
    print(demand_profile(result).render())
    return 0


def _cmd_verify(args) -> int:
    from repro.isa.verify import verify_program

    build = make_workload(args.workload).build(int_regs=args.regs, fp_regs=args.regs)
    findings = verify_program(build.program)
    if not findings:
        print(f"{args.workload}: clean ({len(build.program)} instructions)")
        return 0
    for finding in findings:
        print(finding)
    errors = sum(1 for f in findings if f.severity == "error")
    return 1 if errors else 0


def _cmd_disasm(args) -> int:
    build = make_workload(args.workload).build()
    listing = build.program.listing().splitlines()
    for line in listing[: args.max_lines]:
        print(line)
    if len(listing) > args.max_lines:
        print(f"... ({len(listing) - args.max_lines} more lines)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and designs")

    p_run = sub.add_parser("run", help="one timing run")
    p_run.add_argument(
        "workload", nargs="?", default=None, type=workload_name,
        help="registered workload name (omit when replaying --trace)",
    )
    p_run.add_argument("design", type=design_name)
    p_run.add_argument("--insts", type=int_at_least(1), default=40_000)
    p_run.add_argument("--inorder", action="store_true")
    p_run.add_argument("--pages", type=page_size, default=4096)
    p_run.add_argument("--regs", type=int_in_range(*REGS_RANGE), default=32)
    p_run.add_argument(
        "--itlb", action="store_true", help="model the instruction-side micro-TLB"
    )
    p_run.add_argument(
        "--profile",
        action="store_true",
        help="print a host-side per-phase wall-time profile of the run",
    )
    # Single runs take only the artifact knob of the shared engine
    # flags (no grid: nothing to shard or memoize).
    add_eval_args(p_run, jobs=False, cache=False, artifacts=True)
    add_trace_args(p_run)

    p_prof = sub.add_parser(
        "profile", help="reference-stream profile and exact LRU miss curve"
    )
    p_prof.add_argument("workload", type=workload_name)
    p_prof.add_argument("--insts", type=int_at_least(1), default=60_000)

    p_dem = sub.add_parser("demand", help="translation demand histogram")
    p_dem.add_argument("workload", type=workload_name)
    p_dem.add_argument("design", type=design_name)
    p_dem.add_argument("--insts", type=int_at_least(1), default=30_000)

    p_dis = sub.add_parser("disasm", help="disassemble a workload")
    p_dis.add_argument("workload", type=workload_name)
    p_dis.add_argument("--max-lines", type=int_at_least(0), default=80)

    p_ver = sub.add_parser("verify", help="lint a workload's program")
    p_ver.add_argument("workload", type=workload_name)
    p_ver.add_argument("--regs", type=int_in_range(*REGS_RANGE), default=32)

    args = parser.parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "profile": _cmd_profile,
        "demand": _cmd_demand,
        "disasm": _cmd_disasm,
        "verify": _cmd_verify,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
