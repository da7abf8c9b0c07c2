"""Table 3 and Figures 5, 7, 8, 9: presets of the one grid driver.

Each figure is a (processor model, page size, register budget) point
evaluated over all thirteen Table 2 designs and all ten workloads; the
result is the paper's bar chart data — per-design run-time-weighted
average IPC normalized to T4.  :func:`run_figure` runs that grid through
:func:`repro.eval.sensitivity.run_variants` with T4 as the first label,
and :func:`run_table3` reads the T4 column of the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.eval.options import EvalOptions
from repro.eval.runner import RunRequest
from repro.eval.sensitivity import GridResult, run_variants
from repro.tlb.factory import DESIGN_MNEMONICS


@dataclass
class ExperimentSpec:
    """One figure's machine configuration."""

    key: str
    title: str
    issue_model: str = "ooo"
    page_size: int = 4096
    int_regs: int = 32
    fp_regs: int = 32

    @property
    def overrides(self) -> dict:
        """The request fields this figure sets (``run_variants`` overrides)."""
        return dict(
            issue_model=self.issue_model,
            page_size=self.page_size,
            int_regs=self.int_regs,
            fp_regs=self.fp_regs,
        )

    def request(
        self, workload: str, design: str, max_instructions: int, scale: float
    ) -> RunRequest:
        return RunRequest(
            workload=workload,
            design=design,
            scale=scale,
            max_instructions=max_instructions,
            **self.overrides,
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


def run_figure(
    key: str,
    designs: Iterable[str] = DESIGN_MNEMONICS,
    workloads: Iterable[str] | None = None,
    max_instructions: int = 60_000,
    options: EvalOptions | None = None,
) -> GridResult:
    """Run one relative-performance figure's full design x workload grid.

    ``T4`` is always included, first: it is the normalization reference.
    Each design is its own label in :func:`run_variants`, under the
    figure's issue model, page size and register budgets, and the grid
    runs under ``options`` (an :class:`~repro.eval.options.EvalOptions`:
    workers, stores, progress, profiler, or a running evaluation
    server; ``None`` runs inline without stores).
    """
    spec = EXPERIMENTS[key]
    return run_variants(
        spec.title,
        [(d, d) for d in dict.fromkeys(["T4", *designs])],
        workloads=workloads,
        max_instructions=max_instructions,
        config_overrides=spec.overrides,
        options=options,
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
    options: EvalOptions | None = None,
) -> list[Table3Row]:
    """Baseline (OOO, T4) per-program execution statistics.

    The T4 column of the Figure 5 grid, run as in :func:`run_figure`.
    """
    grid = run_figure(
        "figure5", designs=(), workloads=workloads,
        max_instructions=max_instructions, options=options,
    )
    rows = []
    for workload in grid.workloads:
        s = grid.results["T4"][workload].stats
        rows.append(
            Table3Row(
                program=workload,
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
