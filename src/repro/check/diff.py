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

The entry point is :func:`run_differential`, which runs every check
that applies to one request and returns a :class:`DiffReport`.  The
fuzz harness (:mod:`repro.check.fuzz`) drives it across random
configurations; its CLI, ``python -m repro.check``, is the one command
line for all three checks (this module has none of its own).
"""

from __future__ import annotations

import dataclasses
import tempfile
from dataclasses import dataclass, field

from repro.engine.machine import Machine
from repro.engine.pipeview import PipelineTrace
from repro.eval.artifacts import ArtifactStore
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


def _first_divergence(req: RunRequest) -> tuple[int | None, str]:
    """Locate a loop divergence by lockstep pipeview comparison."""
    trace = _CACHE.get_trace(*req.build_axes)
    base = req.machine_config()
    views = []
    for flag in (True, False):
        config = dataclasses.replace(base, event_driven=flag, sanity=False)
        mech = req.make_mech(config.page_shift)
        views.append(PipelineTrace.capture(config, mech, trace, limit=PIPEVIEW_LIMIT))
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
        f"  (stage timelines agree over the first {PIPEVIEW_LIMIT} instructions; "
        "the divergence lies beyond the pipeview window)"
    )


def _indent(text: str) -> str:
    return "\n".join("    " + line for line in text.splitlines())


def _check_loops(req: RunRequest, mismatches: list[Mismatch]):
    """Event-driven and plain loops must produce bit-identical stats."""
    fast = simulate(request_with_config(req, event_driven=True))
    slow = simulate(request_with_config(req, event_driven=False))
    a, b = _stats_dict(fast.stats), _stats_dict(slow.stats)
    if a == b:
        return fast
    cycle, excerpt = _first_divergence(req)
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


def run_differential(req: RunRequest) -> DiffReport:
    """Run every redundant-path check that applies to one request.

    An ingested trace has no functional executor to cross-check
    against, so ``functional`` is skipped for it; every other redundant
    path applies unchanged.
    """
    traced = is_trace_workload(req.workload)
    report = DiffReport(
        request=req, checks=tuple(c for c in CHECKS if not (traced and c == "functional"))
    )
    timing = _check_loops(req, report.mismatches)
    _check_artifacts(req, report.mismatches)
    if not traced:
        _check_functional(req, timing, report.mismatches)
    return report


if __name__ == "__main__":
    raise SystemExit("repro.check.diff has no command line; run `python -m repro.check`")
