"""ASCII rendering of experiment results, matching the paper's layout."""

from __future__ import annotations

from repro.eval.experiments import Table3Row
from repro.eval.missrates import Figure6Result
from repro.eval.sensitivity import GridResult

_BAR_WIDTH = 46


def workload_label(name: str) -> str:
    """Display label: trace tokens shorten to their ``stem@digest`` display."""
    from repro.ingest.build import is_trace_workload, parse_workload

    if is_trace_workload(name):
        try:
            return parse_workload(name).display
        except ValueError:
            pass
    return name


def render_figure(result: GridResult) -> str:
    """Render a relative-performance figure as a labeled bar chart."""
    lines = [result.title, "(RTW-average IPC normalized to T4)", ""]
    for design, rel in result.relative.items():
        bar = "#" * max(1, round(rel * _BAR_WIDTH))
        lines.append(f"  {design:6s} {rel:6.3f}  {bar}")
    lines.append("")
    lines.append("Per-workload relative IPC:")
    header = "  design " + " ".join(
        f"{workload_label(w)[:7]:>8s}" for w in result.workloads
    )
    lines.append(header)
    for design in result.relative:
        per = result.per_workload_relative(design)
        row = " ".join(f"{per[w]:8.3f}" for w in result.workloads)
        lines.append(f"  {design:6s} {row}")
    return "\n".join(lines)


def render_table3(rows: list[Table3Row]) -> str:
    """Render the Table 3 analogue (baseline program characterization)."""
    lines = [
        "Program execution performance (baseline 8-way OOO, T4)",
        "",
        f"  {'Program':12s} {'Insts':>8s} {'Loads':>8s} {'Stores':>8s} "
        f"{'I/C(iss)':>9s} {'I/C(com)':>9s} {'Refs/Cyc':>9s} {'BrPred%':>8s}",
    ]
    for r in rows:
        lines.append(
            f"  {workload_label(r.program):12s} {r.instructions:8d} {r.loads:8d} {r.stores:8d} "
            f"{r.issue_ipc:9.2f} {r.commit_ipc:9.2f} {r.refs_per_cycle:9.2f} "
            f"{100 * r.branch_prediction_rate:8.1f}"
        )
    return "\n".join(lines)


def render_figure6(result: Figure6Result) -> str:
    """Render the TLB miss-rate sweep."""
    sizes = result.sizes
    lines = [
        "TLB miss rates (fully-associative; LRU < 32 entries, random >= 32)",
        "",
        "  " + f"{'Program':12s}" + " ".join(f"{s:>8d}" for s in sizes),
    ]
    for row in result.rows:
        rates = " ".join(f"{100 * row.miss_rate[s]:8.2f}" for s in sizes)
        lines.append(f"  {workload_label(row.program):12s}{rates}")
    rtw = " ".join(f"{100 * result.rtw_average[s]:8.2f}" for s in sizes)
    lines.append(f"  {'RTW Avg':12s}{rtw}")
    lines.append("")
    lines.append("  (values are percent of data references missing the TLB)")
    return "\n".join(lines)
