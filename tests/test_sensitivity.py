"""Tests for the ablation sweeps."""

import pytest

from repro.eval.sensitivity import (
    ALL_SWEEPS,
    run_variants,
    sweep_itlb,
    sweep_l1_replacement,
    sweep_l1_size,
    sweep_piggyback_ports,
    sweep_related_designs,
    sweep_tlb_miss_latency,
)

FAST = dict(workloads=["espresso", "xlisp"], max_instructions=6_000)


class TestInfrastructure:
    def test_reference_variant_normalized_to_one(self):
        result = sweep_l1_replacement(**FAST)
        first = next(iter(result.relative))
        assert result.relative[first] == pytest.approx(1.0)

    def test_render(self):
        result = sweep_l1_replacement(**FAST)
        text = result.render()
        assert "M8/L1-LRU" in text

    def test_all_sweeps_registered(self):
        assert len(ALL_SWEEPS) == 12

    def test_per_variant_config_applied(self):
        result = sweep_itlb(**FAST)
        base = result.results["T4/no-itlb"]["espresso"]
        itlb = result.results["T4/itlb4"]["espresso"]
        assert base.stats.itlb_misses == 0
        assert itlb.stats.itlb_misses > 0


class TestSweepShapes:
    def test_lru_at_least_as_good_as_random_l1(self):
        result = sweep_l1_replacement(workloads=["xlisp", "compress"], max_instructions=8_000)
        assert result.relative["M8/L1-random"] <= 1.02

    def test_l1_size_monotone_within_noise(self):
        result = sweep_l1_size(sizes=(4, 16), **FAST)
        assert result.relative["M4"] <= result.relative["M16"] * 1.03

    def test_more_piggyback_ports_never_hurt(self):
        result = sweep_piggyback_ports(counts=(3, 0), **FAST)
        # 0 riders == plain T1: strictly worse on bandwidth-bound espresso.
        assert result.relative["PB1/0riders"] < 1.0

    def test_longer_miss_latency_hurts(self):
        result = sweep_tlb_miss_latency(
            latencies=(30, 100), workloads=["xlisp"], max_instructions=8_000
        )
        assert result.relative["M8/miss100"] < 1.0

    def test_related_designs_are_shielding(self):
        result = sweep_related_designs(**FAST)
        # All three shielding designs beat the bare single-ported TLB.
        t1 = result.relative["T1"]
        for label in ("P8", "BAC32", "THB32"):
            assert result.relative[label] >= t1 * 0.98

    def test_itlb_costs_performance(self):
        result = sweep_itlb(**FAST)
        assert result.relative["T4/itlb4"] <= 1.0

    def test_smaller_base_tlb_never_helps(self):
        from repro.eval.sensitivity import sweep_base_tlb_size

        result = sweep_base_tlb_size(
            sizes=(256, 32), workloads=["xlisp"], max_instructions=8_000
        )
        assert result.relative["T2x32"] <= 1.02

    def test_page_size_sweep_runs(self):
        from repro.eval.sensitivity import sweep_page_size

        result = sweep_page_size(sizes=(4096, 8192), **FAST)
        assert set(result.relative) == {"M4/4K", "M4/8K"}

    def test_context_switches_hurt_monotonically(self):
        from repro.eval.sensitivity import sweep_context_switches

        result = sweep_context_switches(
            intervals=(0, 2_000, 500), workloads=["xlisp"], max_instructions=8_000
        )
        never = result.relative["M8/cs-never"]
        mid = result.relative["M8/cs2000"]
        hard = result.relative["M8/cs500"]
        assert never >= mid >= hard
        assert hard < 1.0
        # And the machine actually performed the flushes.
        assert result.results["M8/cs500"]["xlisp"].stats.context_switches > 0


class TestRunVariants:
    def test_custom_variant_set(self):
        result = run_variants("custom", [("a", "T4"), ("b", "T1")], **FAST)
        assert set(result.relative) == {"a", "b"}
        assert result.relative["b"] <= 1.0

    def test_duplicate_labels_rejected_before_simulating(self, monkeypatch):
        import repro.eval.sensitivity as sensitivity

        def never(*args, **kwargs):
            raise AssertionError("simulated despite duplicate labels")

        monkeypatch.setattr(sensitivity, "run_many", never)
        with pytest.raises(ValueError, match="'a'"):
            run_variants("dup", [("a", "T4"), ("a", "T1")], **FAST)

    def test_options_are_the_only_engine_settings(self, tmp_path):
        from repro.eval.options import EvalOptions
        from repro.eval.resultstore import ResultStore

        store = ResultStore(tmp_path)
        variants = [("a", "T4"), ("b", ("MultiPortedTLB", {"ports": 1}))]
        first = run_variants("opts", variants, options=EvalOptions(store=store), **FAST)
        assert store.stats.puts == 2 * len(FAST["workloads"])
        again = run_variants("opts", variants, options=EvalOptions(store=store), **FAST)
        assert again.relative == first.relative
        assert store.stats.hits == 2 * len(FAST["workloads"])
        with pytest.raises(TypeError):
            run_variants("opts", variants, jobs=2, **FAST)
