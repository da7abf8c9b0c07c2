"""Experiment drivers for Table 3 and Figures 5, 7, 8, 9.

Each figure is a (processor model, page size, register budget) point
evaluated over all thirteen Table 2 designs and all ten workloads; the
result is the paper's bar chart data — per-design run-time-weighted
average IPC normalized to T4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.eval.options import EvalOptions
from repro.eval.parallel import run_many
from repro.eval.runner import RunRequest, RunResult
from repro.eval.weighting import normalized_rtw_average
from repro.tlb.factory import DESIGN_MNEMONICS
from repro.workloads import iter_workload_names


@dataclass
class ExperimentSpec:
    """One figure's machine configuration."""

    key: str
    title: str
    issue_model: str = "ooo"
    page_size: int = 4096
    int_regs: int = 32
    fp_regs: int = 32

    def request(
        self, workload: str, design: str, max_instructions: int, scale: float
    ) -> RunRequest:
        return RunRequest(
            workload=workload,
            design=design,
            issue_model=self.issue_model,
            page_size=self.page_size,
            int_regs=self.int_regs,
            fp_regs=self.fp_regs,
            scale=scale,
            max_instructions=max_instructions,
        )


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "figure5": ExperimentSpec(
        "figure5", "Relative performance on baseline simulator (OOO, 4K pages, 32 regs)"
    ),
    "figure7": ExperimentSpec(
        "figure7", "Relative performance with in-order issue", issue_model="inorder"
    ),
    "figure8": ExperimentSpec(
        "figure8", "Relative performance with 8K pages", page_size=8192
    ),
    "figure9": ExperimentSpec(
        "figure9",
        "Relative performance with fewer registers (8 int / 8 fp)",
        int_regs=8,
        fp_regs=8,
    ),
}


@dataclass
class FigureResult:
    """All data behind one relative-performance figure."""

    spec: ExperimentSpec
    designs: tuple[str, ...]
    workloads: tuple[str, ...]
    #: results[design][workload] -> RunResult
    results: dict[str, dict[str, RunResult]]
    #: Per-design RTW-average IPC normalized to T4.
    relative_ipc: dict[str, float]

    def per_workload_relative(self, design: str) -> dict[str, float]:
        """Per-workload IPC of ``design`` relative to T4 (same workload)."""
        out = {}
        for w in self.workloads:
            t4 = self.results["T4"][w].ipc
            out[w] = self.results[design][w].ipc / t4 if t4 else 0.0
        return out


def run_figure(
    key: str,
    designs: Iterable[str] = DESIGN_MNEMONICS,
    workloads: Iterable[str] | None = None,
    max_instructions: int = 60_000,
    scale: float = 1.0,
    options: EvalOptions | None = None,
) -> FigureResult:
    """Run one relative-performance figure's full design x workload grid.

    ``T4`` is always included (it is the normalization reference).  The
    grid is evaluated through :func:`repro.eval.parallel.run_many`
    under ``options`` (an :class:`~repro.eval.options.EvalOptions`:
    workers, stores, progress, profiler, or a running evaluation
    server; ``None`` runs inline without stores).
    """
    spec = EXPERIMENTS[key]
    design_list = list(dict.fromkeys(["T4", *designs]))
    workload_list = list(workloads) if workloads is not None else list(iter_workload_names())
    requests = [
        spec.request(workload, design, max_instructions, scale)
        for workload in workload_list
        for design in design_list
    ]
    grid = run_many(requests, options)
    results: dict[str, dict[str, RunResult]] = {d: {} for d in design_list}
    for req, res in zip(requests, grid):
        results[req.design][req.workload] = res
    t4_cycles = {w: float(results["T4"][w].cycles) for w in workload_list}
    ipc_by_design = {
        d: {w: results[d][w].ipc for w in workload_list} for d in design_list
    }
    relative = normalized_rtw_average(ipc_by_design, t4_cycles)
    return FigureResult(
        spec=spec,
        designs=tuple(design_list),
        workloads=tuple(workload_list),
        results=results,
        relative_ipc=relative,
    )


@dataclass
class Table3Row:
    """One benchmark's baseline characterization (paper Table 3)."""

    program: str
    instructions: int
    loads: int
    stores: int
    issue_ipc: float
    commit_ipc: float
    refs_per_cycle: float
    branch_prediction_rate: float


def run_table3(
    workloads: Iterable[str] | None = None,
    max_instructions: int = 60_000,
    scale: float = 1.0,
    options: EvalOptions | None = None,
) -> list[Table3Row]:
    """Baseline (OOO, T4) per-program execution statistics.

    The runs go through :func:`repro.eval.parallel.run_many` under
    ``options``, as in :func:`run_figure`.
    """
    spec = EXPERIMENTS["figure5"]
    names = list(workloads) if workloads is not None else list(iter_workload_names())
    requests = [spec.request(w, "T4", max_instructions, scale) for w in names]
    rows = []
    for res in run_many(requests, options):
        s = res.stats
        rows.append(
            Table3Row(
                program=res.request.workload,
                instructions=s.committed,
                loads=s.loads,
                stores=s.stores,
                issue_ipc=s.issue_ipc,
                commit_ipc=s.commit_ipc,
                refs_per_cycle=s.mem_refs_per_cycle,
                branch_prediction_rate=s.branch_prediction_rate,
            )
        )
    return rows

