"""Regenerate the paper's Figure 7."""

from conftest import archive, bench_designs, bench_insts, bench_jobs, bench_workloads

from repro.eval.experiments import run_figure
from repro.eval.options import EvalOptions
from repro.eval.report import render_figure
from repro.tlb.factory import DESIGN_MNEMONICS


def test_figure7(benchmark):
    def run():
        return run_figure(
            "figure7",
            designs=bench_designs() or DESIGN_MNEMONICS,
            workloads=bench_workloads(),
            max_instructions=bench_insts(),
            options=EvalOptions(jobs=bench_jobs()),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    archive("figure7", render_figure(result))
    # Sanity: the normalization reference is exact and every design's
    # relative IPC is positive and within slack of the T4 bound.
    assert result.relative_ipc["T4"] == 1.0
    assert all(0.0 < rel <= 1.1 for rel in result.relative_ipc.values())
