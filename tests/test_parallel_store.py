"""Tests for the parallel evaluation engine and the on-disk result store."""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.options import EvalOptions
from repro.eval.parallel import run_many
from repro.eval.resultstore import ResultStore, code_fingerprint
from repro.eval.runner import RunRequest, RunResult, _BuildCache, run_one, simulate

FAST = dict(max_instructions=2_000)
SMALL_GRID = [
    RunRequest(workload=w, design=d, **FAST)
    for w in ("espresso", "xlisp")
    for d in ("T4", "T1")
]


class TestRunRequest:
    def test_create_routes_overrides_into_config(self):
        req = RunRequest.create(
            "espresso", "M8", page_size=8192, tlb_miss_latency=60, **FAST
        )
        assert req.page_size == 8192
        assert req.config == (("tlb_miss_latency", 60),)
        assert req.machine_config().tlb_miss_latency == 60

    def test_config_is_canonicalized(self):
        a = RunRequest(
            "espresso", "T4", config={"sanity": True, "tlb_miss_latency": 2}
        )
        b = RunRequest(
            "espresso", "T4", config=[("tlb_miss_latency", 2), ("sanity", True)]
        )
        assert a == b
        assert hash(a) == hash(b)

    @pytest.mark.parametrize("name", ["kernel", "kernal"])
    def test_unknown_config_name_rejected_at_build(self, name):
        with pytest.raises(ValueError, match=name):
            RunRequest.create("compress", "T4", **{name: True})
        with pytest.raises(ValueError, match=name):
            RunRequest("compress", "T4", config={name: True})

    def test_request_fields_are_not_config_overrides(self):
        # issue_model/page_size are request fields; as config pairs they
        # would collide with them in machine_config().
        with pytest.raises(ValueError, match="page_size"):
            RunRequest("compress", "T4", config={"page_size": 8192})

    def test_unknown_config_name_rejected_from_dict(self):
        d = RunRequest.create("compress", "T4", **FAST).to_dict()
        d["config"] = [["kernel", True]]
        with pytest.raises(ValueError, match="kernel"):
            RunRequest.from_dict(d)

    def test_replace_revalidates(self):
        base = RunRequest.create("compress", "T4", **FAST)
        with pytest.raises(ValueError, match="kernel"):
            dataclasses.replace(base, config={"kernel": True})

    def test_round_trip(self):
        req = RunRequest.create(
            "xlisp",
            "custom",
            mechanism=("MultiLevelTLB", {"l1_entries": 4}),
            predictor="gshare",
            **FAST,
        )
        again = RunRequest.from_dict(json.loads(json.dumps(req.to_dict())))
        assert again == req
        assert again.key() == req.key()

    def test_mechanism_spec_instantiates(self):
        req = RunRequest(
            "xlisp", "custom", mechanism=("MultiLevelTLB", {"l1_entries": 4})
        )
        mech = req.make_mech(12)
        assert type(mech).__name__ == "MultiLevelTLB"

    def test_unknown_mechanism_class_rejected(self):
        with pytest.raises(ValueError, match="NoSuchTLB"):
            RunRequest("xlisp", "custom", mechanism=("NoSuchTLB", {}))
        with pytest.raises(ValueError, match="NoSuchTLB"):
            RunRequest.from_dict(
                {"workload": "xlisp", "design": "custom", "mechanism": ["NoSuchTLB", []]}
            )

    def test_unknown_design_rejected(self):
        with pytest.raises(ValueError, match="NOPE"):
            RunRequest("espresso", "NOPE")
        with pytest.raises(ValueError, match="NOPE"):
            RunRequest.create("espresso", "NOPE", **FAST)
        with pytest.raises(ValueError, match="NOPE"):
            dataclasses.replace(RunRequest("espresso", "T4"), design="NOPE")
        # The factory's own lookup decides: case-insensitive mnemonics
        # pass, and a mechanism spec frees the design to be a label.
        assert RunRequest("espresso", "m8").design == "m8"
        assert RunRequest("espresso", "NOPE", mechanism=("PerfectTLB", {}))

    def test_key_sensitive_to_every_field(self):
        base = RunRequest(workload="espresso", design="T4")
        variants = [
            dataclasses.replace(base, workload="xlisp"),
            dataclasses.replace(base, design="T1"),
            dataclasses.replace(base, issue_model="inorder"),
            dataclasses.replace(base, page_size=8192),
            dataclasses.replace(base, int_regs=8),
            dataclasses.replace(base, fp_regs=8),
            dataclasses.replace(base, scale=2.0),
            dataclasses.replace(base, max_instructions=1_000),
            dataclasses.replace(base, config=(("tlb_miss_latency", 60),)),
            dataclasses.replace(base, mechanism=("MultiPortedTLB", (("ports", 4),))),
        ]
        keys = {req.key() for req in variants}
        assert len(keys) == len(variants), "some field does not affect the key"
        assert base.key() not in keys
        # Same content, same key.
        assert base.key() == RunRequest(workload="espresso", design="T4").key()

    def test_keys_are_stable(self):
        # Stored results are addressed by these keys; build-time checks
        # must never alter them.
        assert RunRequest("espresso", "T4").key() == (
            "4680d50932fc7358cb0d88b1729616eae640f0c322714191ab91d7808356f2ca"
        )
        req = RunRequest.create(
            "xlisp",
            "custom",
            mechanism=("MultiLevelTLB", {"l1_entries": 4}),
            predictor="gshare",
            max_instructions=2000,
            page_size=8192,
            scale=2.0,
        )
        assert req.key() == (
            "9fddbe69e015b128f7e4a556f44486b7792d3edccd4c0ddab7e6c65b97ca6e05"
        )

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("workload", 5, "workload"),
            ("design", None, "design"),
            ("page_size", 3, "page size"),
            ("page_size", 4096.0, "page_size"),
            ("int_regs", "32", "int_regs"),
            ("fp_regs", False, "fp_regs"),
            ("scale", "1.0", "scale"),
            ("max_instructions", -5, "max_instructions"),
            ("max_instructions", 0, "max_instructions"),
            ("max_instructions", 1.5, "max_instructions"),
            ("max_instructions", True, "max_instructions"),
            ("issue_model", "bogus", "bogus"),
        ],
    )
    def test_bad_scalar_field_rejected_at_build(self, field, value, match):
        fields = {"workload": "espresso", "design": "T4", field: value}
        with pytest.raises(ValueError, match=match):
            RunRequest(**fields)
        d = RunRequest("espresso", "T4").to_dict()
        d[field] = value
        with pytest.raises(ValueError, match=match):
            RunRequest.from_dict(d)

    def test_machine_config_checks_run_at_build(self):
        with pytest.raises(ValueError, match="predictor"):
            RunRequest.create("espresso", "T4", predictor="psychic")

    @pytest.mark.parametrize("mechanism", [[], ["T4"], "x", 5, {}, ["PerfectTLB", 5]])
    def test_malformed_mechanism_rejected_from_dict(self, mechanism):
        d = RunRequest("espresso", "T4").to_dict()
        d["mechanism"] = mechanism
        with pytest.raises(ValueError, match="mechanism"):
            RunRequest.from_dict(d)

    def test_unhashable_override_rejected(self):
        # The daemon dedups in-flight work by request; an unhashable
        # value must fail here, not inside the scheduler.
        with pytest.raises(ValueError, match="hashable"):
            RunRequest("espresso", "T4", config={"tlb_miss_latency": [30]})


_NAMES = st.sampled_from(
    ["T4", "M8", "espresso", "ooo", "gshare", "MultiLevelTLB", "l1_entries",
     "tlb_miss_latency", "predictor", "sanity", "kernel"]
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | st.text(max_size=8)
    | _NAMES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8) | _NAMES, inner, max_size=4),
    max_leaves=12,
)
_PAIRS = st.lists(st.lists(_NAMES | _JSON, min_size=1, max_size=3), max_size=3)
_FIELDS = list(RunRequest("espresso", "T4").to_dict()) + ["nonsense"]


class TestRequestDecodingFuzz:
    """Arbitrary JSON in a request dict: a request, or a clean rejection.

    ``RunRequest.from_dict`` is the daemon's decoder for untrusted
    client bytes; anything but ValueError/TypeError/KeyError escapes
    its error reply and leaves the client waiting.
    """

    @staticmethod
    def _decode(d: dict) -> None:
        try:
            req = RunRequest.from_dict(d)
        except (ValueError, TypeError, KeyError):
            return
        hash(req)
        again = RunRequest.from_dict(json.loads(json.dumps(req.to_dict())))
        assert again.key() == req.key()

    @settings(max_examples=200, deadline=None)
    @given(field=st.sampled_from(_FIELDS), value=_JSON)
    def test_any_value_at_any_field(self, field, value):
        d = RunRequest("espresso", "T4").to_dict()
        d[field] = value
        self._decode(d)

    @settings(max_examples=200, deadline=None)
    @given(mechanism=_JSON | st.tuples(_NAMES | _JSON, _PAIRS | _JSON).map(list))
    def test_any_mechanism(self, mechanism):
        d = RunRequest("espresso", "T4").to_dict()
        d["mechanism"] = mechanism
        self._decode(d)

    @settings(max_examples=200, deadline=None)
    @given(config=_JSON | _PAIRS)
    def test_any_config(self, config):
        d = RunRequest("espresso", "T4").to_dict()
        d["config"] = config
        self._decode(d)


class TestRunResult:
    def test_dict_round_trip_identity(self):
        result = simulate(RunRequest(workload="espresso", design="M8", **FAST))
        wire = json.loads(json.dumps(result.to_dict()))
        again = RunResult.from_dict(wire)
        assert again.to_dict() == result.to_dict()
        assert again.ipc == result.ipc
        assert again.cycles == result.cycles
        assert again.name == "espresso/M8"
        # The demand histogram's int keys survive the JSON round trip.
        assert all(
            isinstance(k, int) for k in again.stats.translation_demand
        )


class TestParallelDeterminism:
    def test_parallel_matches_serial(self):
        serial = [r.to_dict() for r in run_many(SMALL_GRID, EvalOptions(jobs=1))]
        for jobs in (2, 4):
            parallel = run_many(SMALL_GRID, EvalOptions(jobs=jobs))
            assert [r.to_dict() for r in parallel] == serial, f"jobs={jobs}"

    def test_results_in_input_order(self):
        results = run_many(SMALL_GRID, EvalOptions(jobs=2))
        assert [r.request for r in results] == SMALL_GRID

    def test_duplicate_requests_deduplicated(self):
        req = RunRequest(workload="espresso", design="T4", **FAST)
        a, b = run_many([req, req], EvalOptions(jobs=1))
        assert a is b


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


#: Damaged result-store payloads, each derived from a valid entry.
CORRUPT_ENTRIES = {
    "stats-empty-object": lambda d: {**d, "stats": {}},
    "stats-list": lambda d: {**d, "stats": []},
    "stats-missing-field": lambda d: {**d, "stats": _without(d["stats"], "cycles")},
    "demand-list": lambda d: {**d, "stats": {**d["stats"], "translation_demand": []}},
    "demand-non-int-key": lambda d: {
        **d, "stats": {**d["stats"], "translation_demand": {"x": 1}}
    },
    "icache-not-object": lambda d: {**d, "stats": {**d["stats"], "icache": 5}},
    "dcache-empty": lambda d: {**d, "stats": {**d["stats"], "dcache": {}}},
    "translation-missing-field": lambda d: {
        **d,
        "stats": {**d["stats"], "translation": _without(d["stats"]["translation"], "requests")},
    },
    "foreign-request": lambda d: {**d, "request": SMALL_GRID[1].to_dict()},
    "payload-list": lambda d: [],
    "payload-int": lambda d: 5,
}


class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        req = SMALL_GRID[0]
        assert store.get(req) is None
        result = run_one(req, store=store)
        assert req in store
        cached = store.get(req)
        assert cached.to_dict()["stats"] == result.to_dict()["stats"]
        assert store.stats.hits == 1 and store.stats.puts == 1
        assert len(store) == 1

    def test_persists_across_instances(self, tmp_path):
        run_one(SMALL_GRID[0], store=ResultStore(tmp_path))
        fresh = ResultStore(tmp_path)
        assert fresh.get(SMALL_GRID[0]) is not None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_many_warm_rerun_skips_simulation(self, tmp_path, jobs):
        cold = ResultStore(tmp_path)
        first = run_many(SMALL_GRID, EvalOptions(jobs=jobs, store=cold))
        assert cold.stats.puts == len(SMALL_GRID)
        warm = ResultStore(tmp_path)
        results = run_many(SMALL_GRID, EvalOptions(jobs=jobs, store=warm))
        assert warm.stats.hits == len(SMALL_GRID)
        assert warm.stats.misses == 0 and warm.stats.puts == 0
        assert [r.to_dict()["stats"] for r in results] == [
            r.to_dict()["stats"] for r in first
        ]

    def test_fingerprint_changes_invalidate(self, tmp_path):
        store = ResultStore(tmp_path, fingerprint="aaaa")
        run_one(SMALL_GRID[0], store=store)
        other = ResultStore(tmp_path, fingerprint="bbbb")
        assert other.get(SMALL_GRID[0]) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(simulate(SMALL_GRID[0]))
        path.write_text("{not json")
        assert store.get(SMALL_GRID[0]) is None

    @pytest.mark.parametrize("corrupt", CORRUPT_ENTRIES.values(), ids=CORRUPT_ENTRIES.keys())
    def test_corrupt_payload_is_a_miss_then_overwritten(self, tmp_path, corrupt):
        store = ResultStore(tmp_path)
        req = SMALL_GRID[0]
        good = simulate(req)
        path = store.put(good)
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        assert store.get(req) is None
        assert store.stats.misses == 1 and store.stats.hits == 0
        result = run_one(req, store=store)
        assert result.to_dict()["stats"] == good.to_dict()["stats"]
        assert store.stats.puts == 2
        assert store.get(req).to_dict()["stats"] == good.to_dict()["stats"]

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        run_one(SMALL_GRID[0], store=store)
        assert store.clear() == 1
        assert len(store) == 0

    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 16

    def test_module_edit_invalidates_stored_results(self, tmp_path):
        """Editing any imported repro module must change the fingerprint.

        The fingerprint covers modules resolved via ``sys.modules``, not
        just files under the package directory, so sources loaded from
        elsewhere (editable installs, injected modules) also invalidate
        the store.  Exercised here with a probe module outside the
        package root.
        """
        import importlib.util
        import sys

        probe = tmp_path / "fingerprint_probe.py"
        probe.write_text("VALUE = 1\n")
        spec = importlib.util.spec_from_file_location(
            "repro._fingerprint_probe", probe
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules["repro._fingerprint_probe"] = module
        try:
            before = code_fingerprint(refresh=True)
            req = SMALL_GRID[0]
            store = ResultStore(tmp_path / "store", fingerprint=before)
            run_one(req, store=store)
            assert store.get(req) is not None

            probe.write_text("VALUE = 2\n")
            after = code_fingerprint(refresh=True)
            assert after != before

            stale = ResultStore(tmp_path / "store", fingerprint=after)
            # Source change -> new key -> the old entry is never reused.
            assert stale.get(req) is None
            assert req not in stale
        finally:
            del sys.modules["repro._fingerprint_probe"]
            code_fingerprint(refresh=True)


class TestBuildCacheLRU:
    @staticmethod
    def _axes(workload, budget=500):
        return (workload, 32, 32, 1.0, budget)

    def test_plans_bounded_lru(self):
        cache = _BuildCache(max_traces=4, max_plans=2)
        # 100 is refreshed before 300 arrives, so 200 is evicted.
        for budget in (100, 200, 100, 300):
            req = RunRequest(workload="espresso", design="T4", max_instructions=budget)
            trace = cache.get_trace(*self._axes("espresso", budget))
            cache.get_fetch_plan(req, req.machine_config(), trace)
        assert [key[4] for key in cache.plans] == [100, 300]

    def test_traces_bounded_lru(self):
        cache = _BuildCache(max_traces=2)
        for budget in (100, 200, 300):
            cache.get_trace(*self._axes("espresso", budget))
        assert len(cache.traces) == 2
        assert self._axes("espresso", 100) not in cache.traces

    def test_lru_recency_respected(self):
        cache = _BuildCache(max_traces=2)
        cache.get_trace(*self._axes("espresso"))
        cache.get_trace(*self._axes("xlisp"))
        cache.get_trace(*self._axes("espresso"))  # refresh
        cache.get_trace(*self._axes("compress"))  # evicts xlisp, not espresso
        assert list(cache.traces) == [self._axes("espresso"), self._axes("compress")]
