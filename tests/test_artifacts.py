"""Tests for the on-disk artifact cache, the profile memo and request-level scheduling."""

import json
import struct

import pytest

from repro.analysis.profile import PROFILE_VERSION, build_profile, workload_profile
from repro.engine.frontend import build_fetch_plan, encode_fetch_plan, fetch_config_key
from repro.eval.artifacts import ArtifactStore
from repro.eval.options import EvalOptions
from repro.eval.parallel import _schedule_chunks, run_many
from repro.eval.resultstore import ResultStore
from repro.eval.runner import (
    RunRequest,
    _BuildCache,
    configure_artifacts,
    simulate,
)
from repro.func.executor import capture_trace
from repro.func.tracefile import (
    SECTION_PLAN,
    SECTION_PROGRAM,
    SECTION_TRACE,
    encode_program,
    encode_trace,
    read_container,
    write_container,
)
from repro.tlb import DESIGN_MNEMONICS
from repro.workloads import make_workload

FAST = dict(max_instructions=2_000)
AXES = ("espresso", 32, 32, 1.0, 2_000)


def _fresh_build_and_trace():
    build = make_workload("espresso").build()
    trace = capture_trace(build.program, build.memory.clone(), 2_000)
    return build, trace


class TestArtifactStore:
    def test_build_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        build, trace = _fresh_build_and_trace()
        assert not store.has_build(AXES)
        assert store.load_build(AXES) is None
        store.save_build(AXES, build.program, trace)
        assert store.has_build(AXES)
        program, hydrated = store.load_build(AXES)
        assert len(program) == len(build.program)
        assert [(d.seq, d.pc, d.ea, d.taken) for d in hydrated] == [
            (d.seq, d.pc, d.ea, d.taken) for d in trace
        ]
        assert store.stats.hits == 1 and store.stats.misses == 1
        assert store.stats.puts == 1
        assert len(store) == 1

    def test_plan_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _, trace = _fresh_build_and_trace()
        req = RunRequest(workload="espresso", design="T4", **FAST)
        config = req.machine_config()
        fkey = fetch_config_key(config)
        assert store.load_plan(AXES, fkey, trace) is None
        plan = build_fetch_plan(trace, config)
        store.save_plan(AXES, fkey, plan)
        hydrated = store.load_plan(AXES, fkey, trace)
        assert hydrated is not None
        assert len(hydrated.events) == len(plan.events)
        assert hydrated.icache_stats == plan.icache_stats

    def test_fingerprint_change_invalidates(self, tmp_path):
        build, trace = _fresh_build_and_trace()
        ArtifactStore(tmp_path, fingerprint="aaaa").save_build(
            AXES, build.program, trace
        )
        assert ArtifactStore(tmp_path, fingerprint="bbbb").load_build(AXES) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        build, trace = _fresh_build_and_trace()
        path = store.save_build(AXES, build.program, trace)
        path.write_bytes(b"garbage")
        assert store.load_build(AXES) is None

    def test_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        build, trace = _fresh_build_and_trace()
        store.save_build(AXES, build.program, trace)
        assert store.clear() == 1
        assert len(store) == 0


class TestProfileArtifacts:
    """A build's analysis profile memoizes as a result-store aux entry of
    kind ``"profile"`` keyed by the build axes (it was once a ``PROF``
    section of the build container).  Any corruption or a stale payload
    version reads as a clean miss, and the rebuilt profile overwrites
    the entry."""

    SPEC = {"axes": list(AXES)}

    def _store_with_profile(self, tmp_path):
        store = ResultStore(tmp_path)
        profile = workload_profile(AXES, store)
        [path] = tmp_path.glob("??/*.json")  # the store's one entry
        return store, profile, path

    def _assert_miss_then_overwritten(self, tmp_path, profile):
        store = ResultStore(tmp_path)
        rebuilt = workload_profile(AXES, store)
        assert store.stats.misses == 1 and store.stats.hits == 0
        assert store.stats.puts == 1
        assert rebuilt.to_payload() == profile.to_payload()
        fresh = ResultStore(tmp_path)
        assert workload_profile(AXES, fresh).to_payload() == profile.to_payload()
        assert fresh.stats.hits == 1 and fresh.stats.puts == 0

    def test_round_trip(self, tmp_path):
        store, profile, _ = self._store_with_profile(tmp_path)
        assert store.stats.misses == 1 and store.stats.puts == 1
        _, trace = _fresh_build_and_trace()
        assert profile.to_payload() == build_profile(trace, AXES[0]).to_payload()
        fresh = ResultStore(tmp_path)
        hydrated = workload_profile(AXES, fresh)
        assert fresh.stats.hits == 1 and fresh.stats.puts == 0
        assert hydrated.to_payload() == profile.to_payload()

    def test_version_mismatch_is_clean_miss(self, tmp_path):
        store, profile, _ = self._store_with_profile(tmp_path)
        stale = profile.to_payload()
        stale["version"] = PROFILE_VERSION - 1
        store.put_aux("profile", self.SPEC, stale)
        self._assert_miss_then_overwritten(tmp_path, profile)

    def test_corrupt_container_is_clean_miss(self, tmp_path):
        """The entry's file itself is damaged: truncated JSON."""
        _, profile, path = self._store_with_profile(tmp_path)
        path.write_bytes(path.read_bytes()[:32])
        self._assert_miss_then_overwritten(tmp_path, profile)

    @pytest.mark.parametrize(
        "payload",
        [b"[]", b"1", b'"s"', b"null", b"not json", b"\xff\xfe", b"[" * 100_000],
        ids=["list", "int", "string", "null", "not-json", "not-utf8", "nested"],
    )
    def test_corrupt_section_is_a_miss_then_overwritten(self, tmp_path, payload):
        _, profile, path = self._store_with_profile(tmp_path)
        path.write_bytes(payload)
        self._assert_miss_then_overwritten(tmp_path, profile)

    def test_wrong_shape_object_is_a_miss(self, tmp_path):
        """Valid JSON of the right version but the wrong shape."""
        store, profile, _ = self._store_with_profile(tmp_path)
        payload = profile.to_payload()
        payload["streams"] = {"12": []}
        store.put_aux("profile", self.SPEC, payload)
        self._assert_miss_then_overwritten(tmp_path, profile)


class TestLegacyKernelSection:
    """Build containers written while ``KERN`` (encoded replay arrays)
    and ``PROF`` (analysis profile) sections existed stay readable: both
    tags are now unknown sections, ignored on hydration."""

    KERN = b"KERN"
    #: Header of the retired encoding (magic, version, count) + arrays.
    PAYLOAD = struct.pack("<4sHxxQ", b"KTR\x01", 2, 2_000) + bytes(64)
    PROF = b"PROF"

    def _legacy_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        build, trace = _fresh_build_and_trace()
        config = RunRequest("espresso", "T4", **FAST).machine_config()
        fkey = fetch_config_key(config)
        plan = build_fetch_plan(trace, config)
        profile = build_profile(trace, AXES[0])
        build_path = store.build_path(AXES)
        build_path.parent.mkdir(parents=True, exist_ok=True)
        write_container(
            build_path,
            {
                SECTION_PROGRAM: encode_program(build.program),
                SECTION_TRACE: encode_trace(trace, len(build.program)),
                self.KERN: self.PAYLOAD,
                self.PROF: json.dumps(profile.to_payload()).encode(),
            },
        )
        plan_path = store.plan_path(AXES, fkey)
        plan_path.parent.mkdir(parents=True, exist_ok=True)
        write_container(
            plan_path, {SECTION_PLAN: encode_fetch_plan(plan, len(trace))}
        )
        return store, build, trace, plan, fkey

    def test_hydrates_every_known_section(self, tmp_path):
        store, build, trace, plan, fkey = self._legacy_store(tmp_path)
        program, hydrated = store.load_build(AXES)
        assert len(program) == len(build.program)
        assert [(d.seq, d.pc, d.ea) for d in hydrated] == [
            (d.seq, d.pc, d.ea) for d in trace
        ]
        loaded_plan = store.load_plan(AXES, fkey, hydrated)
        assert len(loaded_plan.events) == len(plan.events)
        assert loaded_plan.icache_stats == plan.icache_stats
        assert store.stats.misses == 0

    def test_rewrites_keep_the_container_readable(self, tmp_path):
        """The build cache's write-through replaces a legacy container
        whole: the retired sections go, and the build still hydrates."""
        store, build, trace, plan, fkey = self._legacy_store(tmp_path)
        store.save_build(AXES, build.program, trace)
        store.save_plan(AXES, fkey, plan)
        assert set(read_container(store.build_path(AXES))) == {SECTION_PROGRAM, SECTION_TRACE}
        _, hydrated = store.load_build(AXES)
        assert len(hydrated) == len(trace)
        assert store.load_plan(AXES, fkey, hydrated) is not None


class TestBuildCacheHydration:
    def test_cache_hydrates_before_building(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        warm = _BuildCache(artifacts=store)
        trace = warm.get_trace(*AXES)
        assert store.stats.puts >= 1  # written through on build

        # A fresh cache (fresh process stand-in) must hydrate, not build.
        def no_build(name):
            raise AssertionError("hydration must not invoke the workload builder")

        monkeypatch.setattr("repro.eval.runner.make_workload", no_build)
        cold = _BuildCache(artifacts=store)
        hydrated = cold.get_trace(*AXES)
        assert [(d.pc, d.ea) for d in hydrated] == [(d.pc, d.ea) for d in trace]

    def test_hydrated_simulation_bit_identical(self, tmp_path):
        req = RunRequest(workload="espresso", design="M8", **FAST)
        baseline = simulate(req)

        store = ArtifactStore(tmp_path)
        previous = configure_artifacts(store)
        try:
            simulate(req)  # writes artifacts through the global cache
        finally:
            configure_artifacts(previous)

        from repro.eval.runner import clear_build_cache

        clear_build_cache()
        previous = configure_artifacts(ArtifactStore(tmp_path))
        try:
            hydrated = simulate(req)
        finally:
            configure_artifacts(previous)
            clear_build_cache()
        assert hydrated.to_dict()["stats"] == baseline.to_dict()["stats"]


class TestRequestLevelScheduling:
    @pytest.mark.parametrize("jobs", [2, 4])
    @pytest.mark.parametrize(
        "designs",
        [("T4", "T2", "T1", "M8", "I4", "PB1"), DESIGN_MNEMONICS],
        ids=["six", "table2"],
    )
    def test_single_build_grid_still_splits(self, designs, jobs):
        grid = [RunRequest(workload="espresso", design=d, **FAST) for d in designs]
        chunks = _schedule_chunks(grid, jobs=jobs)
        assert len(chunks) > 1, "a one-workload grid must not collapse to one task"
        assert sorted(r.design for c in chunks for r in c) == sorted(
            r.design for r in grid
        )

    def test_chunks_never_mix_builds(self):
        grid = [
            RunRequest(workload=w, design=d, **FAST)
            for w in ("espresso", "xlisp")
            for d in ("T4", "T1")
        ]
        for chunk in _schedule_chunks(grid, jobs=2):
            assert len({r.build_axes for r in chunk}) == 1

    def test_longest_first_ordering(self):
        short = [RunRequest(workload="espresso", design=d, max_instructions=1_000) for d in ("T4", "T1")]
        long = [RunRequest(workload="xlisp", design=d, max_instructions=9_000) for d in ("T4", "T1")]
        chunks = _schedule_chunks(short + long, jobs=2)
        costs = [max(r.max_instructions for r in c) for c in chunks]
        assert costs == sorted(costs, reverse=True)

    def test_deterministic(self):
        grid = [
            RunRequest(workload=w, design=d, **FAST)
            for w in ("espresso", "xlisp")
            for d in ("T4", "T1", "M8")
        ]
        a = _schedule_chunks(list(grid), jobs=3)
        b = _schedule_chunks(list(grid), jobs=3)
        assert a == b


class TestRunManyWithArtifacts:
    GRID = [
        RunRequest(workload="espresso", design=d, **FAST)
        for d in ("T4", "T1", "M8", "I4")
    ]

    def test_parallel_single_workload_matches_serial(self, tmp_path):
        serial = run_many(self.GRID, EvalOptions(jobs=1))
        parallel = run_many(self.GRID, EvalOptions(jobs=2, artifacts=tmp_path))
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]

    def test_warm_artifact_rerun_matches(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = run_many(self.GRID, EvalOptions(jobs=2, artifacts=store))
        # Every artifact now exists: the capture phase is skipped.
        again = run_many(self.GRID, EvalOptions(jobs=2, artifacts=ArtifactStore(tmp_path)))
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
        serial = run_many(self.GRID, EvalOptions(jobs=1))
        assert [r.to_dict() for r in again] == [r.to_dict() for r in serial]

    def test_progress_reported_per_request(self, tmp_path):
        lines = []
        run_many(self.GRID, EvalOptions(jobs=2, artifacts=tmp_path, progress=lines.append))
        done = [line for line in lines if line.endswith(": done")]
        assert len(done) == len(self.GRID)
        assert {line.split(":")[0] for line in done} == {r.name for r in self.GRID}

    def test_inline_path_uses_artifacts_and_restores(self, tmp_path):
        from repro.eval.runner import _CACHE, clear_build_cache

        clear_build_cache()  # force a real build so the write-through fires
        store = ArtifactStore(tmp_path)
        before = _CACHE.artifacts
        results = run_many(self.GRID[:2], EvalOptions(jobs=1, artifacts=store))
        assert _CACHE.artifacts is before, "inline run must restore the attachment"
        assert store.has_build(self.GRID[0].build_axes)
        serial = run_many(self.GRID[:2], EvalOptions(jobs=1))
        assert [r.to_dict() for r in results] == [r.to_dict() for r in serial]