"""Host-side performance instrumentation for the simulator core.

:class:`SimProfiler` measures where the simulator spends *host* time:
per-phase wall time (commit, issue, dispatch, ...), call counts, and the
event-driven loop's skip effectiveness (quiescent cycles jumped over
versus cycles actually executed).  It observes the run from outside the
simulated machine — attaching a profiler never changes simulated
results, only adds wrapper overhead to the host loop.

Attach one via the CLIs' ``--profile`` flag, or directly::

    prof = SimProfiler()
    Machine(config, mech, trace, profiler=prof).run()
    print(prof.render())

The per-phase wrappers cost roughly 2x on the hot loop, so profile runs
are for finding hot spots, not for benchmarking; use
``perfbench/run.py`` (the benchmark ledger) for timing.
"""

from __future__ import annotations

from time import perf_counter_ns


class SimProfiler:
    """Collects per-phase wall time and run-level throughput counters."""

    __slots__ = ("phase_ns", "phase_calls", "runs")

    def __init__(self):
        #: phase name -> accumulated wall nanoseconds.
        self.phase_ns: dict[str, int] = {}
        #: phase name -> number of calls.
        self.phase_calls: dict[str, int] = {}
        #: One record per completed Machine.run() (see :meth:`note_run`).
        self.runs: list[dict] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped to bill its wall time to phase ``name``."""
        phase_ns = self.phase_ns
        phase_calls = self.phase_calls
        phase_ns.setdefault(name, 0)
        phase_calls.setdefault(name, 0)

        def timed(*args):
            start = perf_counter_ns()
            result = fn(*args)
            phase_ns[name] += perf_counter_ns() - start
            phase_calls[name] += 1
            return result

        return timed

    def add_phase_ns(self, name: str, ns: int, calls: int = 1) -> None:
        """Bill ``ns`` wall nanoseconds to phase ``name`` directly.

        For loops that time a phase inline (accumulating into a local)
        instead of paying a :meth:`wrap` closure call per iteration.
        """
        self.phase_ns[name] = self.phase_ns.get(name, 0) + ns
        self.phase_calls[name] = self.phase_calls.get(name, 0) + calls

    def note_run(
        self,
        *,
        cycles: int,
        committed: int,
        skipped: int,
        jumps: int,
        wall_s: float,
    ) -> None:
        """Record one completed simulation (called by ``Machine.run``)."""
        self.runs.append(
            {
                "cycles": cycles,
                "committed": committed,
                "skipped_cycles": skipped,
                "skip_jumps": jumps,
                "wall_s": wall_s,
            }
        )

    # -- reporting ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready summary (phases sorted by time, runs aggregated)."""
        total_cycles = sum(r["cycles"] for r in self.runs)
        total_skipped = sum(r["skipped_cycles"] for r in self.runs)
        total_wall = sum(r["wall_s"] for r in self.runs)
        phases = [
            {
                "phase": name,
                "wall_s": ns / 1e9,
                "calls": self.phase_calls[name],
            }
            for name, ns in sorted(
                self.phase_ns.items(), key=lambda kv: kv[1], reverse=True
            )
        ]
        return {
            "runs": len(self.runs),
            "sim_cycles": total_cycles,
            "skipped_cycles": total_skipped,
            "skip_jumps": sum(r["skip_jumps"] for r in self.runs),
            "executed_cycles": total_cycles - total_skipped,
            "wall_s": total_wall,
            "host_cycles_per_s": (total_cycles / total_wall) if total_wall else 0.0,
            "phases": phases,
        }

    def render(self) -> str:
        """Human-readable profile table."""
        summary = self.to_dict()
        lines = [
            "simulator core profile",
            f"  runs            : {summary['runs']}",
            f"  sim cycles      : {summary['sim_cycles']:,}"
            f" ({summary['skipped_cycles']:,} skipped in"
            f" {summary['skip_jumps']:,} jumps)",
            f"  executed cycles : {summary['executed_cycles']:,}",
            f"  wall time       : {summary['wall_s']:.3f} s"
            f" ({summary['host_cycles_per_s']:,.0f} sim cycles/s)",
            "  phase              wall(s)      calls",
        ]
        for phase in summary["phases"]:
            lines.append(
                f"  {phase['phase']:<16s} {phase['wall_s']:>9.3f} {phase['calls']:>10,}"
            )
        return "\n".join(lines)
