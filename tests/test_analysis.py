"""Tests for the analysis package (reuse distance, workload profile, demand)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import reusedist
from repro.analysis.demand import demand_profile
from repro.analysis.profile import build_profile, workload_profile
from repro.analysis.reusedist import StackDistanceAnalyzer
from repro.eval.runner import _CACHE, RunRequest, run_one
from repro.tlb.storage import FullyAssocTLB
from repro.workloads import iter_workload_names


def _miss_curve(pages, capacities=(4, 8, 16, 32, 64, 128)) -> dict:
    analyzer = StackDistanceAnalyzer.from_pages(pages)
    return {c: analyzer.miss_rate(c) for c in capacities}


def _profile(workload: str, insts: int, regs: int = 32):
    request = RunRequest(
        workload, "T4", int_regs=regs, fp_regs=regs, max_instructions=insts
    )
    return workload_profile(request.build_axes)


class TestStackDistance:
    def test_cold_references_counted(self):
        a = StackDistanceAnalyzer()
        for page in (1, 2, 3):
            assert a.touch(page) is None
        assert a.cold == 3

    def test_immediate_reuse_distance_zero(self):
        a = StackDistanceAnalyzer()
        a.touch(1)
        assert a.touch(1) == 0

    def test_distance_counts_distinct_intervening_pages(self):
        a = StackDistanceAnalyzer()
        for page in (1, 2, 3, 2, 1):
            a.touch(page)
        # Last touch of 1: pages {2, 3} intervened -> distance 2.
        assert a.histogram.get(2) == 1

    def test_repeated_intervening_page_counted_once(self):
        a = StackDistanceAnalyzer()
        for page in (1, 2, 2, 2, 1):
            a.touch(page)
        assert a.touch(1) == 0
        assert a.histogram.get(1) == 1  # the 1...2,2,2...1 reuse

    def test_miss_rate_semantics(self):
        a = StackDistanceAnalyzer()
        # Cyclic sweep over 3 pages: distance always 2.
        for _ in range(10):
            for page in (1, 2, 3):
                a.touch(page)
        assert a.miss_rate(2) == pytest.approx((3 + 27) / 30)  # all miss
        assert a.miss_rate(3) == pytest.approx(3 / 30)  # only cold miss

    def test_distinct_pages(self):
        a = StackDistanceAnalyzer()
        for page in (5, 6, 5, 7):
            a.touch(page)
        assert a.distinct_pages() == 3

    def test_stream_longer_than_expected_grows(self):
        """Streams past ``expected_references`` degrade gracefully."""
        a = StackDistanceAnalyzer(expected_references=4)
        reference = StackDistanceAnalyzer()
        stream = [p % 3 for p in range(40)]
        for page in stream:
            assert a.touch(page) == reference.touch(page)
        assert a.histogram == reference.histogram

    def test_empty_stream_defined(self):
        a = StackDistanceAnalyzer()
        assert a.miss_rate(8) == 0.0
        assert a.distinct_pages() == 0
        assert _miss_curve([]) == {c: 0.0 for c in (4, 8, 16, 32, 64, 128)}

    def test_cold_only_stream_all_miss(self):
        a = StackDistanceAnalyzer.from_pages([1, 2, 3, 4])
        assert a.cold == 4 and a.histogram == {}
        assert a.miss_rate(128) == 1.0

    @given(pages=st.lists(st.integers(0, 9), max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_vectorized_and_streaming_distances_identical(self, pages):
        vectorized = reusedist.compute_stack_distances(pages)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reusedist, "_numpy", lambda: None)
            fallback = reusedist.compute_stack_distances(pages)
        assert fallback == vectorized

    @given(pages=st.lists(st.integers(0, 9), max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_bulk_build_matches_streaming(self, pages):
        bulk = StackDistanceAnalyzer.from_pages(pages)
        streamed = StackDistanceAnalyzer()
        for page in pages:
            streamed.touch(page)
        assert bulk.histogram == streamed.histogram
        assert bulk.cold == streamed.cold
        assert bulk.distinct_pages() == streamed.distinct_pages()

    @given(
        pages=st.lists(st.integers(0, 12), min_size=1, max_size=300),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_lru_tlb_simulation(self, pages, capacity):
        """The analytic LRU miss rate must equal a simulated LRU TLB."""
        tlb = FullyAssocTLB(capacity, replacement="lru")
        misses = 0
        for page in pages:
            if not tlb.probe(page):
                misses += 1
                tlb.insert(page)
        curve = _miss_curve(pages, capacities=(capacity,))
        assert curve[capacity] == pytest.approx(misses / len(pages))

    def test_curve_monotone_nonincreasing(self):
        pages = [i % 17 for i in range(500)] + [i % 5 for i in range(200)]
        curve = _miss_curve(pages)
        rates = [curve[c] for c in sorted(curve)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    @given(pages=st.lists(st.integers(0, 30), max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_curve_monotone_property(self, pages):
        """Bigger TLBs never miss more: holds for any stream."""
        curve = _miss_curve(pages, capacities=(1, 2, 4, 8, 16, 32))
        rates = [curve[c] for c in sorted(curve)]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        assert all(0.0 <= r <= 1.0 for r in rates)


class TestSpatialProfile:
    """The spatial-locality statistics of the workload profile."""

    def test_profile_fields_populated(self):
        profile = _profile("espresso", 10_000)
        stats = profile.stream(12)
        assert profile.references == stats.references > 0
        assert stats.distinct_pages > 0
        assert all(0.0 <= share <= 1.0 for share in stats.dup_within.values())
        assert 0.0 <= stats.base_register_page_reuse <= 1.0

    def test_pointer_workload_has_high_base_register_reuse(self):
        """xlisp re-dereferences the same pointers constantly."""
        profile = _profile("xlisp", 15_000)
        assert profile.stream(12).base_register_page_reuse > 0.3

    def test_spill_region_appears_at_tight_budget(self):
        """Spill code at an 8-register budget adds references."""
        tight = _profile("doduc", 15_000, regs=8)
        assert tight.references > _profile("doduc", 15_000).references

    def test_streaming_workload_has_adjacency(self):
        profile = _profile("ghostscript", 15_000)
        assert profile.stream(12).dup_within[2] > 0.5


class TestWorkloadProfile:
    @pytest.mark.parametrize("workload", list(iter_workload_names()))
    def test_stdlib_and_numpy_profiles_identical(self, workload, monkeypatch):
        """Without numpy every statistic takes the stdlib path, and the
        payload stays the same to the last float bit."""
        pytest.importorskip("numpy")
        axes = RunRequest(workload, "T4", max_instructions=20_000).build_axes
        trace = _CACHE.get_trace(*axes)
        vectorized = build_profile(trace, workload).to_payload()
        monkeypatch.setattr(reusedist, "_numpy", lambda: None)
        assert build_profile(trace, workload).to_payload() == vectorized

    def test_profile_hydrates_from_the_result_store(self, tmp_path):
        from repro.eval.resultstore import ResultStore

        store = ResultStore(tmp_path)
        axes = RunRequest("compress", "T4", max_instructions=3_000).build_axes
        built = workload_profile(axes, store)
        assert store.stats.misses == 1 and store.stats.puts == 1
        hydrated = workload_profile(axes, store)
        assert store.stats.hits == 1 and store.stats.puts == 1
        assert hydrated.to_payload() == built.to_payload()
        assert workload_profile(axes).to_payload() == built.to_payload()


class TestDemandProfile:
    def test_profile_from_run(self):
        res = run_one(RunRequest(workload="espresso", design="T4", max_instructions=10_000))
        profile = demand_profile(res)
        assert profile.active_cycles > 0
        assert profile.mean_per_active_cycle >= 1.0
        assert 0.0 <= profile.fraction_needing_ports(1) <= 1.0
        assert profile.fraction_needing_ports(8) == 0.0

    def test_bandwidth_hungry_workload_needs_multiple_ports(self):
        res = run_one(RunRequest(workload="espresso", design="T4", max_instructions=10_000))
        profile = demand_profile(res)
        # espresso issues bursts of cube loads: >1 request/cycle often.
        assert profile.fraction_needing_ports(1) > 0.3

    def test_render(self):
        res = run_one(RunRequest(workload="espresso", design="T4", max_instructions=5_000))
        text = demand_profile(res).render()
        assert "req/cycle" in text
