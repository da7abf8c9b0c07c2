"""Tests for the evaluation harness (runner, weighting, experiments,
miss rates, reporting).
"""

from types import SimpleNamespace

import pytest

import repro.eval.sensitivity as sensitivity
from repro.eval.experiments import EXPERIMENTS, run_figure, run_table3
from repro.eval.missrates import SIZES, policy_for, run_figure6
from repro.eval.report import render_figure, render_figure6, render_table3
from repro.eval.runner import RunRequest, clear_build_cache, run_one
from repro.eval.sensitivity import run_variants
from repro.eval.weighting import rtw_average

FAST = dict(max_instructions=4_000)
TWO_WORKLOADS = ["espresso", "xlisp"]


class TestWeighting:
    def test_rtw_average_weights_correctly(self):
        values = {"a": 2.0, "b": 4.0}
        weights = {"a": 1.0, "b": 3.0}
        assert rtw_average(values, weights) == pytest.approx(3.5)

    def test_rtw_average_validates(self):
        with pytest.raises(ValueError):
            rtw_average({}, {})
        with pytest.raises(ValueError):
            rtw_average({"a": 1.0}, {"b": 1.0})
        with pytest.raises(ValueError):
            rtw_average({"a": 1.0}, {"a": 0.0})

    @staticmethod
    def _grid(monkeypatch, runs: dict) -> dict:
        """``run_variants`` over fake runs: ``runs[(design, workload)] = (ipc, cycles)``."""

        def fake_run_many(requests, options=None):
            return [
                SimpleNamespace(ipc=ipc, cycles=cycles)
                for ipc, cycles in (runs[r.design, r.workload] for r in requests)
            ]

        monkeypatch.setattr(sensitivity, "run_many", fake_run_many)
        designs = list(dict.fromkeys(design for design, _ in runs))
        workloads = list(dict.fromkeys(workload for _, workload in runs))
        return run_variants("fake", [(d, d) for d in designs], workloads).relative

    def test_normalization_reference_is_one(self, monkeypatch):
        rel = self._grid(monkeypatch, {
            ("T4", "a"): (2.0, 100), ("T4", "b"): (1.0, 300),
            ("T1", "a"): (1.0, 200), ("T1", "b"): (1.0, 300),
        })
        assert rel["T4"] == 1.0
        # Weighted by T4's cycles: (100 * 1 + 300 * 1) / (100 * 2 + 300 * 1).
        assert rel["T1"] == pytest.approx(400 / 500)

    def test_zero_reference_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="'T4' average IPC is zero"):
            self._grid(monkeypatch, {("T4", "w"): (0.0, 100), ("T1", "w"): (1.0, 100)})


class TestRunner:
    def test_run_one_produces_result(self):
        res = run_one(RunRequest(workload="espresso", design="T4", **FAST))
        assert res.stats.committed > 0
        assert res.ipc > 0

    def test_build_cache_reused_across_designs(self):
        from repro.eval.runner import _CACHE

        clear_build_cache()
        run_one(RunRequest(workload="espresso", design="T4", **FAST))
        key = ("espresso", 32, 32, 1.0, FAST["max_instructions"])
        trace = _CACHE.traces[key]
        run_one(RunRequest(workload="espresso", design="T1", **FAST))
        assert list(_CACHE.traces) == [key]
        assert _CACHE.get_trace(*key) is trace

    def test_distinct_budgets_cached_separately(self):
        from repro.eval.runner import _CACHE

        clear_build_cache()
        run_one(RunRequest(workload="espresso", design="T4", **FAST))
        run_one(
            RunRequest(workload="espresso", design="T4", int_regs=8, fp_regs=8, **FAST)
        )
        wide = ("espresso", 32, 32, 1.0, FAST["max_instructions"])
        narrow = ("espresso", 8, 8, 1.0, FAST["max_instructions"])
        assert list(_CACHE.traces) == list(_CACHE.programs) == [wide, narrow]
        assert _CACHE.programs[wide] is not _CACHE.programs[narrow]
        assert _CACHE.traces[wide] is not _CACHE.traces[narrow]


class TestExperiments:
    def test_experiment_specs_cover_figures(self):
        assert set(EXPERIMENTS) == {"figure5", "figure7", "figure8", "figure9"}
        assert EXPERIMENTS["figure7"].issue_model == "inorder"
        assert EXPERIMENTS["figure8"].page_size == 8192
        assert EXPERIMENTS["figure9"].int_regs == 8

    def test_run_figure_small_grid(self):
        result = run_figure(
            "figure5", designs=["T1"], workloads=TWO_WORKLOADS, **FAST
        )
        assert result.relative["T4"] == pytest.approx(1.0)
        assert 0.1 < result.relative["T1"] <= 1.05
        per = result.per_workload_relative("T1")
        assert set(per) == set(TWO_WORKLOADS)

    @pytest.mark.parametrize("key", sorted(EXPERIMENTS))
    def test_figure_requests_are_the_spec_requests(self, key, monkeypatch):
        """The grid asks for exactly ``spec.request``'s runs (the store keys)."""
        seen = []

        def record(requests, options=None):
            seen.extend(requests)
            return [SimpleNamespace(ipc=1.0, cycles=1) for _ in requests]

        monkeypatch.setattr(sensitivity, "run_many", record)
        run_figure(key, designs=["M8", "T4"], workloads=TWO_WORKLOADS, max_instructions=900)
        spec = EXPERIMENTS[key]
        assert seen == [
            spec.request(w, d, 900, 1.0) for d in ("T4", "M8") for w in TWO_WORKLOADS
        ]

    def test_t4_always_included(self):
        result = run_figure("figure5", designs=["PB1"], workloads=["espresso"], **FAST)
        assert list(result.relative) == ["T4", "PB1"]

    def test_run_table3(self):
        rows = run_table3(workloads=TWO_WORKLOADS, **FAST)
        assert [r.program for r in rows] == TWO_WORKLOADS
        for row in rows:
            assert row.instructions > 0
            assert 0 <= row.branch_prediction_rate <= 1
            assert row.loads > 0


class TestMissRates:
    def test_policy_selection(self):
        assert policy_for(4) == "lru"
        assert policy_for(16) == "lru"
        assert policy_for(32) == "random"
        assert policy_for(128) == "random"

    def test_run_figure6_shape(self):
        result = run_figure6(workloads=TWO_WORKLOADS, max_instructions=10_000)
        assert result.sizes == SIZES
        assert len(result.rows) == 2
        for row in result.rows:
            rates = [row.miss_rate[s] for s in SIZES]
            assert all(0.0 <= r <= 1.0 for r in rates)
        assert set(result.rtw_average) == set(SIZES)

    def test_bigger_tlb_not_worse_for_lru_sizes(self):
        result = run_figure6(workloads=["xlisp"], max_instructions=20_000)
        row = result.rows[0]
        # LRU sizes are strictly nested: monotone non-increasing rates.
        assert row.miss_rate[4] >= row.miss_rate[8] >= row.miss_rate[16]


class TestReport:
    def test_render_figure(self):
        result = run_figure("figure5", designs=["T1"], workloads=["espresso"], **FAST)
        text = render_figure(result)
        assert "T4" in text and "T1" in text
        assert "normalized to T4" in text

    def test_render_table3(self):
        rows = run_table3(workloads=["espresso"], **FAST)
        text = render_table3(rows)
        assert "espresso" in text
        assert "BrPred%" in text

    def test_render_table3_shortens_trace_tokens(self):
        from repro.eval.experiments import Table3Row
        from repro.ingest.build import IngestSpec
        from repro.ingest.window import WindowSpec

        token = IngestSpec("/data/lk.ndjson", "eb10b27598aa", WindowSpec()).token()
        row = Table3Row(token, 2000, 500, 200, 1.5, 1.4, 0.9, 0.95)
        line = render_table3([row]).splitlines()[-1]
        assert "trace:" not in line
        assert line.startswith("  lk@eb10b27598aa     2000 ")

    def test_render_figure6(self):
        result = run_figure6(workloads=["espresso"], max_instructions=5_000)
        text = render_figure6(result)
        assert "RTW Avg" in text
        assert "128" in text
