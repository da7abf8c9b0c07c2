"""CLI: regenerate one of the paper's experiments.

Usage::

    python -m repro.eval all [--jobs 2] [--store DIR]  # rewrite results/
    python -m repro.eval table3 [--insts N] [--jobs N] [--no-cache]
    python -m repro.eval figure5 [--insts N] [--designs T4,T1,M8] [--jobs 4]
    python -m repro.eval figure6 [--insts N]
    python -m repro.eval figure7|figure8|figure9 ...
    python -m repro.eval scorecard [--jobs 4]
    python -m repro.eval ablation_page_size [--workloads ...]
    python -m repro.eval --screen [--workloads ...] [--simulate N]
    python -m repro.eval figure5 --server            # use a running daemon

Every experiment is an entry of :data:`RESULTS`, named after the file it
writes under ``results/``, and runs by default at the instruction budget
that file was generated at: ``python -m repro.eval figure5`` prints
``results/figure5.txt``.  ``all`` regenerates every entry into
``results/`` in one process, so the grids share one result store: the
scorecard takes its claim margins on the Figure 5, 7 and 9 grids at
their budget, and its runs are store hits.

Timing grids fan out across ``--jobs`` worker processes (scheduled at
request granularity, longest runs first) and memoize every run in the
on-disk result store, so regenerating an unchanged figure is pure cache
hits — rerun with ``--no-cache`` to force fresh simulations.  The store
honors ``$REPRO_RESULT_STORE`` and ``--store DIR``; its hit/miss/stored
counts are reported on stderr after each experiment.  ``--artifacts
[DIR]`` additionally caches the design-independent build products
(program, trace, fetch plan) on disk so worker processes — and later
invocations — hydrate them instead of re-running the functional
simulator (honors ``$REPRO_ARTIFACT_STORE``).

``--server [ADDR]`` submits the grid to a running ``python -m
repro.serve`` daemon instead of simulating locally: the daemon owns the
stores and worker pool, dedupes identical in-flight requests across
every connected client, and streams results back (bit-identical to a
local run).  The shared engine flags live in
:mod:`repro.eval.options`.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from repro.eval.experiments import run_figure, run_table3
from repro.eval.missrates import run_figure6
from repro.eval.options import (
    EvalOptions,
    add_eval_args,
    comma_list,
    design_name,
    int_at_least,
    workload_name,
)
from repro.eval.report import render_figure, render_figure6, render_table3
from repro.eval.sensitivity import ALL_SWEEPS
from repro.ingest.build import add_trace_args, trace_workload_from_args


#: The budget of every committed timing grid.  The scorecard checks the
#: claims on the Figure 5, 7 and 9 grids as published, so it shares it,
#: and in ``all`` its runs are store hits.
GRID_BUDGET = 40_000

#: Every committed ``results/<stem>.txt`` and the dynamic instruction
#: budget per run it was generated at.  The stems are the CLI's
#: experiment names (:func:`_render` runs one).
RESULTS: dict[str, int] = {
    "table3": GRID_BUDGET,
    "figure5": GRID_BUDGET,
    "figure6": 60_000,
    "figure7": GRID_BUDGET,
    "figure8": GRID_BUDGET,
    "figure9": GRID_BUDGET,
    "scorecard": GRID_BUDGET,
    **{f"ablation_{name}": GRID_BUDGET for name in sorted(ALL_SWEEPS)},
}


def _render(stem: str, insts: int, workloads, designs, opts: EvalOptions) -> str:
    """Run the experiment ``stem`` names; return its rendered text."""
    if stem == "table3":
        return render_table3(run_table3(
            workloads=workloads, max_instructions=insts, options=opts
        ))
    if stem == "figure6":
        # Trace-driven: no timing grid, so the engine options do not apply.
        return render_figure6(run_figure6(workloads=workloads, max_instructions=insts))
    if stem == "scorecard":
        from repro.eval.claims import run_scorecard

        return run_scorecard(
            max_instructions=insts, workloads=workloads, options=opts
        ).render()
    if stem.startswith("ablation_"):
        sweep = ALL_SWEEPS[stem.removeprefix("ablation_")]
        return sweep(workloads=workloads, max_instructions=insts, options=opts).render()
    chosen = {} if designs is None else {"designs": designs}
    return render_figure(run_figure(
        stem, workloads=workloads, max_instructions=insts, options=opts, **chosen
    ))


def _write_all(opts: EvalOptions) -> None:
    """Regenerate every :data:`RESULTS` entry into ``results/``."""
    out = Path("results")
    out.mkdir(exist_ok=True)
    for stem, insts in RESULTS.items():
        started = time.time()
        (out / f"{stem}.txt").write_text(_render(stem, insts, None, None, opts) + "\n")
        print(f"[{out / stem}.txt regenerated in {time.time() - started:.1f}s]",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate a table/figure from Austin & Sohi (ISCA '96).",
    )
    parser.add_argument("experiment", nargs="?", choices=[*RESULTS, "all"])
    parser.add_argument(
        "--screen",
        action="store_true",
        help="screen the design space with the analytical model and "
        "simulate only the Pareto frontier (instead of an experiment)",
    )
    parser.add_argument(
        "--simulate",
        type=int_at_least(0),
        default=8,
        help="with --screen: frontier designs to confirm by simulation "
        "(default 8)",
    )
    parser.add_argument(
        "--insts",
        type=int_at_least(1),
        default=None,
        help="dynamic instruction budget per run (default: the "
        "experiment's results/ budget; 60000 with --screen)",
    )
    parser.add_argument(
        "--designs",
        type=comma_list(design_name),
        default=None,
        help="comma-separated design subset (default: all of Table 2)",
    )
    parser.add_argument(
        "--workloads",
        type=comma_list(workload_name),
        default=None,
        help="comma-separated workload subset (default: all ten)",
    )
    add_eval_args(parser, jobs=True, cache=True, artifacts=True, server=True)
    add_trace_args(parser)
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a host-side per-phase profile of the grid (forces "
        "serial execution and fresh simulations)",
    )
    args = parser.parse_args(argv)
    if args.screen and args.experiment:
        parser.error("--screen replaces the experiment argument")
    if not args.screen and not args.experiment:
        parser.error("an experiment name (or --screen) is required")
    if args.experiment == "all":
        for flag in ("insts", "workloads", "designs", "trace"):
            if getattr(args, flag) is not None:
                parser.error(f"all regenerates results/ at its own budgets; "
                             f"--{flag} does not apply")
    if args.insts is None:
        args.insts = RESULTS.get(args.experiment, 60_000)

    workloads = args.workloads
    if args.trace is not None:
        # An ingested trace replays as the (single) workload: the minted
        # token is an ordinary workload name to everything downstream.
        if workloads:
            parser.error("--trace and --workloads are mutually exclusive")
        workloads = [trace_workload_from_args(args)]
    progress = None if args.quiet else lambda msg: print(f"  .. {msg}", file=sys.stderr)
    opts = dataclasses.replace(EvalOptions.from_args(args), progress=progress)
    if args.profile:
        if args.experiment == "figure6":
            print("[--profile is not supported for figure6; ignoring]", file=sys.stderr)
        elif opts.server is not None:
            print("[--profile cannot cross --server; ignoring]", file=sys.stderr)
        else:
            from repro.perf import SimProfiler

            opts = dataclasses.replace(opts, profiler=SimProfiler())

    started = time.time()
    if args.screen:
        from repro.eval.screen import ScreenSpec, screen

        spec = ScreenSpec(
            workloads=tuple(workloads or ()),
            max_instructions=args.insts,
            simulate=args.simulate,
        )
        print(screen(spec, opts).render())
    elif args.experiment == "all":
        _write_all(opts)
    else:
        print(_render(args.experiment, args.insts, workloads, args.designs, opts))
    if opts.profiler is not None:
        print(f"\n{opts.profiler.render()}", file=sys.stderr)
    what = args.experiment or "screen"
    print(f"\n[{what} regenerated in {time.time() - started:.1f}s]", file=sys.stderr)
    if opts.server is not None:
        print(f"[evaluated by server: {opts.server}]", file=sys.stderr)
    if opts.store is not None:
        print(f"[result store: {opts.store.stats.render()} | {opts.store.root}]", file=sys.stderr)
    if opts.artifacts is not None:
        print(
            f"[artifact cache: {len(opts.artifacts)} entries | {opts.artifacts.root}]",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
