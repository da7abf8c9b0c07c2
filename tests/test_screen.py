"""Tests of the design-space screening pipeline (repro.eval.screen)."""

import pytest

np = pytest.importorskip("numpy")

from repro.analysis import atmodel
from repro.analysis.profile import AnalysisProfile
from repro.eval.options import EvalOptions
from repro.eval.resultstore import ResultStore
from repro.eval.screen import (
    ScreenPipeline,
    ScreenSpec,
    enumerate_space,
    pareto_mask,
    screen,
    space_cost,
)
from repro.tlb.costmodel import design_cost

TINY = ScreenSpec(
    workloads=("xlisp",),
    max_instructions=20_000,
    entries=(64, 128),
    multi_ports=(1, 4),
    piggy_ports=(1,),
    piggy_riders=(3,),
    banks=(4,),
    bank_selects=("bit",),
    bank_riders=(0,),
    ml_l1=(8,),
    pret_sizes=(8,),
    simulate=2,
)


class TestEnumerate:
    def test_families_present_and_valid(self):
        space = enumerate_space(ScreenSpec())
        fams = set(int(f) for f in np.unique(space.family))
        assert {
            atmodel.FAMILY_MULTI,
            atmodel.FAMILY_PIGGY,
            atmodel.FAMILY_INTER,
            atmodel.FAMILY_MULTILEVEL,
            atmodel.FAMILY_PRETRANS,
        } <= fams
        inter = space.family == atmodel.FAMILY_INTER
        assert np.all(space.entries[inter] % space.banks[inter] == 0)
        ml = space.family == atmodel.FAMILY_MULTILEVEL
        assert np.all(space.shield_entries[ml] < space.entries[ml])

    def test_scales_past_1e5(self):
        spec = ScreenSpec(
            page_shifts=(12, 13, 14),
            entries=tuple(range(16, 4112, 16)),
            multi_ports=(1, 2, 3, 4, 6, 8),
            piggy_ports=(1, 2, 3, 4),
            piggy_riders=(1, 2, 3, 4, 6, 8),
            banks=(2, 4, 8, 16, 32),
            bank_riders=(0, 1, 2, 3, 4, 6),
            ml_l1=tuple(2**k for k in range(1, 11)),
            ml_ports=(1, 2, 4),
            pret_sizes=tuple(2**k for k in range(1, 11)),
            pret_ports=(1, 2, 4),
        )
        space = enumerate_space(spec)
        assert len(space) >= 100_000
        area, delay = space_cost(space)
        assert area.shape == delay.shape == (len(space),)
        assert np.all(area > 0) and np.all(delay > 0)

    def test_empty_spec_raises(self):
        spec = ScreenSpec(
            multi_ports=(), piggy_ports=(), banks=(), ml_l1=(), pret_sizes=()
        )
        with pytest.raises(ValueError):
            enumerate_space(spec)


class TestSpaceCost:
    @pytest.mark.parametrize(
        "mnemonic", ["T4", "T2", "T1", "M16", "M8", "M4", "P8", "I8", "I4", "PB2", "PB1", "I4/PB"]
    )
    def test_matches_scalar_cost_model(self, mnemonic):
        """The vectorized pricing agrees with design_cost's constants."""
        space = atmodel.mnemonic_space([mnemonic])
        area, delay = space_cost(space)
        scalar = design_cost(mnemonic)
        assert float(area[0]) == pytest.approx(scalar.area)
        assert float(delay[0]) == pytest.approx(scalar.hit_latency)


class TestPareto:
    def test_dominated_points_dropped(self):
        area = np.array([1.0, 2.0, 2.0, 3.0, 4.0])
        cpi = np.array([5.0, 4.0, 6.0, 4.0, 3.0])
        mask = pareto_mask(np, area, cpi)
        assert mask.tolist() == [True, True, False, False, True]

    def test_frontier_monotone(self):
        rng = np.random.default_rng(7)
        area = rng.uniform(1, 100, 500)
        cpi = rng.uniform(0.5, 3.0, 500)
        mask = pareto_mask(np, area, cpi)
        idx = np.nonzero(mask)[0]
        order = idx[np.argsort(area[idx])]
        vals = cpi[order]
        assert np.all(np.diff(vals) < 0)

    def test_single_point(self):
        mask = pareto_mask(np, np.array([1.0]), np.array([1.0]))
        assert mask.tolist() == [True]


class TestPipeline:
    def test_end_to_end_with_store(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        opts = EvalOptions(jobs=1, store=store)
        result = screen(TINY, opts)
        assert result.designs == len(enumerate_space(TINY))
        assert result.workloads == ["xlisp"]
        # Frontier is area-sorted, predictions monotone decreasing.
        areas = [e["area"] for e in result.frontier]
        preds = [e["predicted"] for e in result.frontier]
        assert areas == sorted(areas)
        assert all(a > b for a, b in zip(preds, preds[1:]))
        # The simulated subset re-simulated without error and agrees
        # loosely with the predictions (the committed bound is checked
        # on the full grid in CI; this is a smoke-level sanity check).
        simulated = [e for e in result.frontier if e.get("simulated")]
        assert len(simulated) == min(TINY.simulate, len(result.frontier))
        for entry in simulated:
            assert entry["predicted"] == pytest.approx(entry["simulated"], rel=0.35)
        assert set(result.calibrations) == {"xlisp"}
        assert isinstance(result.calibrations["xlisp"], atmodel.Calibration)
        # A warm rerun recomputes the summary from store hits alone: no
        # simulation, no profile build, no store write.
        stats = (store.stats.misses, store.stats.puts)
        replay = screen(TINY, opts)
        assert (store.stats.misses, store.stats.puts) == stats
        assert replay.frontier == result.frontier
        assert replay.calibrations == result.calibrations
        rendered = result.render()
        assert "screened" in rendered and "pred CPI" in rendered

    def test_anchor_and_frontier_requests_shape(self):
        pipeline = ScreenPipeline(TINY)
        reqs = pipeline.anchor_requests()
        assert len(reqs) == len(TINY.anchors)
        assert {r.workload for r in reqs} == {"xlisp"}
        assert all(r.max_instructions == TINY.max_instructions for r in reqs)


class TestAuxEntries:
    """The screen's one aux entry is the workload profile (kind
    ``"profile"``); its decoder turns every malformed payload into the
    ValueError the store reads as a miss (the corruption cases are in
    tests/test_artifacts.py)."""

    @pytest.mark.parametrize("payload", [[], 1, "s", None, {}, {"spec": 1}])
    def test_from_payload_raises_value_error(self, payload):
        with pytest.raises(ValueError):
            AnalysisProfile.from_payload(payload)
