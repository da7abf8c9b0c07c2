"""CLI: regenerate one of the paper's experiments.

Usage::

    python -m repro.eval table3 [--insts N] [--jobs N] [--no-cache]
    python -m repro.eval figure5 [--insts N] [--designs T4,T1,M8] [--jobs 4]
    python -m repro.eval figure6 [--insts N]
    python -m repro.eval figure7|figure8|figure9 ...
    python -m repro.eval scorecard [--jobs 4]
    python -m repro.eval --screen [--workloads ...] [--simulate N]
    python -m repro.eval figure5 --server            # use a running daemon

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

from repro.eval.experiments import EXPERIMENTS, run_figure, run_table3
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
from repro.ingest.build import add_trace_args, trace_workload_from_args


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate a table/figure from Austin & Sohi (ISCA '96).",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=[
            "table3",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "scorecard",
        ],
    )
    parser.add_argument(
        "--screen",
        action="store_true",
        help="screen the design space with the analytical model and "
        "simulate only the Pareto frontier (instead of an experiment)",
    )
    parser.add_argument(
        "--simulate",
        type=int,
        default=8,
        help="with --screen: frontier designs to confirm by simulation "
        "(default 8)",
    )
    parser.add_argument(
        "--insts",
        type=int_at_least(1),
        default=60_000,
        help="dynamic instruction budget per run (default 60000)",
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

    workloads = args.workloads
    if args.trace is not None:
        # An ingested trace replays as the (single) workload: the minted
        # token is an ordinary workload name to everything downstream.
        if args.experiment == "figure6":
            parser.error("figure6 re-runs the functional simulator; an "
                         "ingested trace has none (--trace does not apply)")
        if workloads:
            parser.error("--trace and --workloads are mutually exclusive")
        workloads = [trace_workload_from_args(args)]
    progress = None if args.quiet else lambda msg: print(f"  .. {msg}", file=sys.stderr)
    if args.experiment == "figure6":
        # Figure 6 is trace-driven: the engine knobs do not apply.
        opts = EvalOptions()
    else:
        opts = dataclasses.replace(EvalOptions.from_args(args), progress=progress)
    if args.profile:
        if args.experiment in ("figure6", "scorecard"):
            print(f"[--profile is not supported for {args.experiment}; ignoring]",
                  file=sys.stderr)
        elif opts.server is not None:
            print("[--profile cannot cross --server; ignoring]", file=sys.stderr)
        else:
            from repro.perf import SimProfiler

            opts = dataclasses.replace(opts, profiler=SimProfiler())

    started = time.time()
    if args.screen:
        from repro.eval.screen import ScreenResult, ScreenSpec, screen

        spec = ScreenSpec(
            workloads=tuple(workloads or ()),
            max_instructions=args.insts,
            simulate=args.simulate,
        )
        if opts.server is not None:
            from repro.serve.client import screen_remote

            result = ScreenResult.from_payload(
                screen_remote(spec.to_dict(), address=opts.server)
            )
        else:
            result = screen(spec, opts)
        print(result.render())
    elif args.experiment == "scorecard":
        from repro.eval.claims import run_scorecard

        result = run_scorecard(
            max_instructions=args.insts,
            workloads=workloads,
            options=opts,
        )
        print(result.render())
    elif args.experiment == "table3":
        print(render_table3(run_table3(
            workloads=workloads, max_instructions=args.insts, options=opts
        )))
    elif args.experiment == "figure6":
        print(
            render_figure6(
                run_figure6(workloads=workloads, max_instructions=max(args.insts, 120_000))
            )
        )
    else:
        designs = args.designs
        kwargs = dict(
            workloads=workloads,
            max_instructions=args.insts,
            options=opts,
        )
        if designs is not None:
            kwargs["designs"] = designs
        result = run_figure(args.experiment, **kwargs)
        print(render_figure(result))
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
