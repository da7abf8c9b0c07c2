"""Regenerate the paper's Table 3 (baseline program characterization)."""

from conftest import archive, bench_insts, bench_jobs, bench_workloads

from repro.eval.experiments import run_table3
from repro.eval.options import EvalOptions
from repro.eval.report import render_table3


def test_table3(benchmark):
    def run():
        return run_table3(
            workloads=bench_workloads(),
            max_instructions=bench_insts(),
            options=EvalOptions(jobs=bench_jobs()),
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    archive("table3", render_table3(rows))
    assert rows, "no workloads ran"
    for row in rows:
        assert row.instructions > 0
        assert 0.0 < row.commit_ipc <= 8.0
        assert 0.0 <= row.branch_prediction_rate <= 1.0
