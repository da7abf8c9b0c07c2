"""Differential harness: one request, several redundant execution paths.

Every acceleration layer in the library has a slow, obviously-correct
twin; this module runs both sides and diffs the outcome:

* **loops** — the event-driven cycle-skipping loop vs. the plain
  one-cycle-at-a-time loop (``MachineConfig.event_driven``), compared
  over the full stats dataclass.  On divergence the first divergent
  instruction/cycle is located by capturing both runs through
  :class:`~repro.engine.pipeview.PipelineTrace` and the excerpt is
  attached to the mismatch.
* **artifacts** — a cold build cache's fresh build vs. a fresh cache's
  hydration of it from an on-disk
  :class:`~repro.eval.artifacts.ArtifactStore` (program, trace, fetch
  plan and, for an ingested trace, its provenance), compared
  record-by-record and then by running the timing machine on both sides.
* **functional** — final architectural state (registers, memory image,
  retired count) of the original program vs. its codec round trip, plus
  timing-vs-functional counter cross-checks (committed instructions,
  memory references, and control transfers must match the trace the
  functional simulator produced).

The entry point is :func:`run_differential`, which returns a
:class:`DiffReport`; the fuzz harness (:mod:`repro.check.fuzz`) drives
it across random configurations, and ``python -m repro.check.diff``
runs a chosen check subset over a workload × design grid (CI's
``check-smoke`` and ``ingest-smoke`` jobs and the Figure 5 acceptance
sweep).
"""

from __future__ import annotations

import argparse
import dataclasses
import tempfile
from dataclasses import dataclass, field

from repro.engine.machine import Machine
from repro.engine.pipeview import PipelineTrace
from repro.eval.artifacts import ArtifactStore
from repro.eval.options import int_at_least
from repro.eval.runner import RunRequest, _CACHE, _BuildCache, simulate
from repro.func.executor import run_program
from repro.func.tracefile import decode_program, encode_program
from repro.ingest.build import is_trace_workload
from repro.workloads import make_workload

#: The redundant paths one differential run exercises.
CHECKS = ("loops", "artifacts", "functional")

#: Instructions captured per side when locating a loop divergence.
PIPEVIEW_LIMIT = 160


def request_with_config(req: RunRequest, **overrides) -> RunRequest:
    """A copy of ``req`` with extra ``MachineConfig`` override pairs."""
    merged = dict(req.config)
    merged.update(overrides)
    return dataclasses.replace(req, config=tuple(merged.items()))


@dataclass
class Mismatch:
    """One divergence between redundant execution paths."""

    check: str
    detail: str
    cycle: int | None = None
    excerpt: str = ""

    def render(self) -> str:
        where = f" (first divergent cycle {self.cycle})" if self.cycle is not None else ""
        text = f"[{self.check}]{where} {self.detail}"
        if self.excerpt:
            text += "\n" + self.excerpt
        return text


@dataclass
class DiffReport:
    """Outcome of one differential run."""

    request: RunRequest
    checks: tuple[str, ...] = CHECKS
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        if self.ok:
            return f"{self.request.name}: {len(self.checks)} checks ok"
        lines = [f"{self.request.name}: {len(self.mismatches)} mismatch(es)"]
        lines.extend(m.render() for m in self.mismatches)
        return "\n".join(lines)


def _stats_dict(stats) -> dict:
    return dataclasses.asdict(stats)


def _diff_stats(a: dict, b: dict, left: str, right: str) -> str:
    """Human-readable summary of the differing counter fields."""
    keys = sorted(k for k in a if a[k] != b[k])
    parts = [f"{k}: {a[k]!r} ({left}) != {b[k]!r} ({right})" for k in keys[:6]]
    if len(keys) > 6:
        parts.append(f"... {len(keys) - 6} more field(s)")
    return "; ".join(parts)


# ---------------------------------------------------------------------------
# Check 1: event-driven vs. plain cycle loop.
# ---------------------------------------------------------------------------


def _first_divergence(req: RunRequest, limit: int) -> tuple[int | None, str]:
    """Locate a loop divergence by lockstep pipeview comparison."""
    trace = _CACHE.get_trace(*req.build_axes)
    base = req.machine_config()
    views = []
    for flag in (True, False):
        config = dataclasses.replace(base, event_driven=flag, sanity=False)
        mech = req.make_mech(config.page_shift)
        views.append(PipelineTrace.capture(config, mech, trace, limit=limit))
    fast, slow = views
    for f, s in zip(fast.timelines, slow.timelines):
        f_stages = (f.dispatch, f.issue, f.complete, f.commit)
        s_stages = (s.dispatch, s.issue, s.complete, s.commit)
        if f_stages == s_stages:
            continue
        cycle = min(
            c
            for fa, sa in zip(f_stages, s_stages)
            if fa != sa
            for c in (fa, sa)
            if c >= 0
        )
        index = fast.timelines.index(f)
        lo, hi = max(0, index - 3), index + 4
        excerpt = (
            f"  first divergent instruction: #{f.seq} {f.text}\n"
            "  event-driven:\n"
            + _indent(PipelineTrace(fast.timelines[lo:hi], fast.result).render())
            + "\n  plain loop:\n"
            + _indent(PipelineTrace(slow.timelines[lo:hi], slow.result).render())
        )
        return cycle, excerpt
    return None, (
        f"  (stage timelines agree over the first {limit} instructions; "
        "the divergence lies beyond the pipeview window)"
    )


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.splitlines())


def _check_loops(req: RunRequest, mismatches: list[Mismatch], pipeview_limit: int):
    """Event-driven and plain loops must produce bit-identical stats."""
    fast = simulate(request_with_config(req, event_driven=True))
    slow = simulate(request_with_config(req, event_driven=False))
    a, b = _stats_dict(fast.stats), _stats_dict(slow.stats)
    if a == b:
        return fast
    cycle, excerpt = _first_divergence(req, pipeview_limit)
    mismatches.append(
        Mismatch(
            "loops",
            "event-driven and plain loops diverge: "
            + _diff_stats(a, b, "event-driven", "plain"),
            cycle=cycle,
            excerpt=excerpt,
        )
    )
    return fast


# ---------------------------------------------------------------------------
# Check 2: in-memory build vs. artifact-store round trip.
# ---------------------------------------------------------------------------


def _record_fields(dyn) -> tuple:
    return (dyn.seq, dyn.decoded.index, dyn.pc, dyn.ea, dyn.taken, dyn.next_index)


def _check_artifacts(req: RunRequest, mismatches: list[Mismatch]) -> None:
    """The cached (hydrated-from-disk) path must equal the uncached one.

    Both sides are the runner's own build cache over one temporary
    store: a cold cache builds the artifacts and writes them, a fresh
    one (a new process stand-in) must hydrate every one of them.
    """
    axes = req.build_axes
    config = dataclasses.replace(req.machine_config(), sanity=False)
    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        store = ArtifactStore(tmp, fingerprint="check")
        cold = _BuildCache(artifacts=store)
        trace = cold.get_trace(*axes)
        plan = cold.get_fetch_plan(req, config, trace)
        warm = _BuildCache(artifacts=store)
        trace2 = warm.get_trace(*axes)
        if store.stats.hits != 1:
            mismatches.append(
                Mismatch("artifacts", "build artifact did not survive the store round trip")
            )
            return
        plan2 = warm.get_fetch_plan(req, config, trace2)
    if store.stats.hits != 2:
        mismatches.append(
            Mismatch("artifacts", "fetch-plan artifact did not survive the store round trip")
        )
        return
    if len(trace2) != len(trace):
        mismatches.append(
            Mismatch(
                "artifacts",
                f"hydrated trace has {len(trace2)} records; original has {len(trace)}",
            )
        )
        return
    for i, (a, b) in enumerate(zip(trace, trace2)):
        if _record_fields(a) != _record_fields(b):
            mismatches.append(
                Mismatch(
                    "artifacts",
                    f"trace record {i} changed across the round trip: "
                    f"{_record_fields(a)} != {_record_fields(b)}",
                )
            )
            return
    fresh = Machine(
        config, req.make_mech(config.page_shift), trace, fetch_plan=plan
    ).run()
    hydrated_run = Machine(
        config, req.make_mech(config.page_shift), trace2, fetch_plan=plan2
    ).run()
    a, b = _stats_dict(fresh.stats), _stats_dict(hydrated_run.stats)
    if a != b:
        mismatches.append(
            Mismatch(
                "artifacts",
                "timing stats diverge between the uncached build and the "
                "artifact-store hydration: " + _diff_stats(a, b, "uncached", "cached"),
            )
        )


# ---------------------------------------------------------------------------
# Check 3: timing vs. functional architectural state.
# ---------------------------------------------------------------------------


def _check_functional(req: RunRequest, timing, mismatches: list[Mismatch]) -> None:
    """Functional state must survive the program codec; timing counters
    must agree with the functional trace's population."""
    # The build cache keeps no memory images, so build one here.
    workload, int_regs, fp_regs, scale, _ = req.build_axes
    build = make_workload(workload).build(
        int_regs=int_regs, fp_regs=fp_regs, scale=scale
    )
    trace = _CACHE.get_trace(*req.build_axes)
    program2 = decode_program(encode_program(build.program))
    original = run_program(
        build.program, build.memory.clone(), max_instructions=req.max_instructions
    )
    replayed = run_program(
        program2, build.memory, max_instructions=req.max_instructions
    )
    if original.regs != replayed.regs:
        diffs = [
            f"r{i}: {a!r} != {b!r}"
            for i, (a, b) in enumerate(zip(original.regs, replayed.regs))
            if a != b
        ]
        mismatches.append(
            Mismatch(
                "functional",
                "final register images diverge across the program codec: "
                + "; ".join(diffs[:6]),
            )
        )
    bad = original.memory.diff_words(replayed.memory)
    if bad:
        mismatches.append(
            Mismatch(
                "functional",
                f"final memory images diverge across the program codec at "
                f"{len(bad)} word(s), first at {bad[0]:#x}",
            )
        )
    if (original.retired, original.pc_index) != (replayed.retired, replayed.pc_index):
        mismatches.append(
            Mismatch(
                "functional",
                f"functional end state diverges: retired/pc "
                f"{original.retired}/{original.pc_index} != "
                f"{replayed.retired}/{replayed.pc_index}",
            )
        )
    # Timing-vs-functional cross-checks: the timing machine commits the
    # trace exactly once, so its committed/memory/control counters are
    # fully determined by the functional stream.
    stats = timing.stats
    expect = {
        "committed": len(trace),
        "loads": sum(1 for d in trace if d.decoded.is_load),
        "stores": sum(1 for d in trace if d.decoded.is_store),
        "branches": sum(1 for d in trace if d.decoded.is_branch),
        "jumps": sum(1 for d in trace if d.decoded.is_control and not d.decoded.is_branch),
    }
    got = {name: getattr(stats, name) for name in expect}
    if got != expect:
        mismatches.append(
            Mismatch(
                "functional",
                "timing counters disagree with the functional trace: "
                + _diff_stats(got, expect, "timing", "functional"),
            )
        )


def run_differential(
    req: RunRequest,
    pipeview_limit: int = PIPEVIEW_LIMIT,
    checks: "tuple[str, ...]" = CHECKS,
) -> DiffReport:
    """Run the selected redundant-path checks for one request."""
    unknown = set(checks) - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown check(s): {sorted(unknown)}")
    if is_trace_workload(req.workload):
        # An ingested trace has no functional executor to cross-check
        # against; every other redundant path applies unchanged.
        checks = tuple(c for c in checks if c != "functional")
    report = DiffReport(request=req, checks=tuple(checks))
    timing = None
    if "loops" in checks or "functional" in checks:
        timing = _check_loops(req, report.mismatches, pipeview_limit)
        if "loops" not in checks:
            # Only ran to obtain the timing result; drop loop findings.
            report.mismatches = [m for m in report.mismatches if m.check != "loops"]
    if "artifacts" in checks:
        _check_artifacts(req, report.mismatches)
    if "functional" in checks:
        _check_functional(req, timing, report.mismatches)
    return report


# ---------------------------------------------------------------------------
# CLI: differential sweep over a workload × design grid.
# ---------------------------------------------------------------------------


def _parse_checks(text: str) -> "tuple[str, ...]":
    """argparse type for ``--checks``: unknown names fail at parse time."""
    checks = tuple(c for c in text.split(",") if c)
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown check(s) {','.join(unknown)}; choose from {','.join(CHECKS)}"
        )
    return checks


def main(argv=None) -> int:
    """``python -m repro.check.diff`` — grid differential sweep.

    Runs the selected checks for every workload × design × issue-model
    combination and exits non-zero on the first batch containing a
    mismatch.  CI's check-smoke and ingest-smoke jobs and the Figure 5
    acceptance sweep drive this entry point.
    """
    from repro.tlb.factory import DESIGN_MNEMONICS
    from repro.workloads import iter_workload_names

    parser = argparse.ArgumentParser(
        prog="python -m repro.check.diff", description=main.__doc__
    )
    parser.add_argument(
        "--checks",
        type=_parse_checks,
        default=CHECKS,
        help=f"comma-separated subset of {','.join(CHECKS)} (default: all)",
    )
    parser.add_argument(
        "--workloads",
        default="compress,xlisp",
        help="comma-separated workload names, or 'all' (default: compress,xlisp)",
    )
    parser.add_argument(
        "--designs",
        default="T4,T1,I4,PB1",
        help="comma-separated TLB design mnemonics, or 'all' "
        "(default: T4,T1,I4,PB1)",
    )
    parser.add_argument(
        "--issue-models",
        default="ooo,inorder",
        help="comma-separated from ooo,inorder (default: both)",
    )
    parser.add_argument(
        "--insts",
        type=int_at_least(1),
        default=5000,
        metavar="N",
        help="instructions simulated per run (default: 5000)",
    )
    from repro.ingest.build import add_trace_args, trace_workload_from_args

    add_trace_args(parser)
    args = parser.parse_args(argv)

    checks = args.checks
    if args.trace is not None:
        # The ingested-workload leg: run the same redundant-path checks
        # over an external trace (functional is skipped automatically —
        # there is no functional executor behind an ingested stream).
        workloads = [trace_workload_from_args(args)]
    else:
        workloads = (
            sorted(iter_workload_names())
            if args.workloads == "all"
            else args.workloads.split(",")
        )
    designs = (
        list(DESIGN_MNEMONICS) if args.designs == "all" else args.designs.split(",")
    )
    issue_models = args.issue_models.split(",")
    for model in issue_models:
        if model not in ("ooo", "inorder"):
            parser.error(f"unknown issue model: {model}")

    failures = 0
    total = 0
    for workload in workloads:
        for design in designs:
            for model in issue_models:
                req = RunRequest(
                    workload=workload,
                    design=design,
                    issue_model=model,
                    max_instructions=args.insts,
                )
                report = run_differential(req, checks=checks)
                total += 1
                print(f"[{model}] {report.render()}")
                if not report.ok:
                    failures += 1
    verdict = "OK" if not failures else "FAIL"
    print(f"{verdict}: {total - failures}/{total} grid points clean "
          f"({','.join(checks)})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
