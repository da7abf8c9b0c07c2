"""Tests of the analytical translation-cost model (repro.analysis.atmodel).

Degenerate designs must be exact — a perfect TLB predicts zero
translation stalls, enough ports predict zero waits, enough entries
predict zero warm misses — and the anchor calibration must reproduce
its reference anchor bit-exactly (near-tied design rankings depend on
it).  The full Figure-5 cross-validation lives in
``test_crossvalidation.py``-style CI jobs; here one workload keeps the
suite fast.
"""

import pytest

pytest.importorskip("numpy")

from repro.analysis import atmodel
from repro.analysis.profile import build_profile
from repro.eval.runner import RunRequest, run_one, _CACHE

BUDGET = 20_000
WORKLOAD = "xlisp"


@pytest.fixture(scope="module")
def profile():
    trace = _CACHE.get_trace(WORKLOAD, 32, 32, 1.0, BUDGET)
    return build_profile(trace, WORKLOAD)


@pytest.fixture(scope="module")
def anchors():
    out = {}
    for mnemonic in atmodel.DEFAULT_ANCHORS:
        space = atmodel.mnemonic_space([mnemonic])
        req = RunRequest.create(
            WORKLOAD,
            mnemonic,
            mechanism=space.mechanism_spec(0),
            max_instructions=BUDGET,
        )
        out[mnemonic] = run_one(req)
    return out


@pytest.fixture(scope="module")
def calibration(profile, anchors):
    return atmodel.calibrate(profile, anchors)


DEMAND = {1: 0.20, 2: 0.10, 4: 0.05}


class TestDegenerateExactness:
    def test_perfect_tlb_zero_stalls(self, profile):
        space = atmodel.mnemonic_space(["PERFECT"])
        parts = atmodel.stall_components(profile, space, DEMAND)
        assert float(parts.port_cycles[0]) == 0.0
        assert float(parts.overload_cycles[0]) == 0.0
        assert float(parts.miss_cycles[0]) == 0.0
        cal = atmodel.Calibration(workload=WORKLOAD, groups_per_inst=DEMAND)
        pred = atmodel.predict(profile, cal, space)
        assert float(pred.translation_cpi[0]) == 0.0

    def test_enough_ports_zero_wait(self, profile):
        """Demand never exceeding the port count waits for nothing."""
        space = atmodel.mnemonic_space(["T4"])
        parts = atmodel.stall_components(profile, space, DEMAND)
        assert float(parts.port_cycles[0]) == 0.0
        assert float(parts.overload_cycles[0]) == 0.0

    def test_starved_ports_wait(self, profile):
        space = atmodel.mnemonic_space(["T1"])
        parts = atmodel.stall_components(profile, space, DEMAND)
        assert float(parts.port_cycles[0]) > 0.0

    def test_infinite_capacity_zero_warm_misses(self, profile):
        stream = profile.stream(12)
        big = stream.distinct_pages
        space = atmodel.DesignSpace.from_rows(
            [{"family": atmodel.FAMILY_MULTI, "ports": 4, "entries": big}]
        )
        parts = atmodel.stall_components(profile, space, DEMAND)
        assert float(parts.miss_cycles[0]) == pytest.approx(0.0, abs=1e-12)

    def test_miss_cycles_monotone_in_entries(self, profile):
        sizes = (16, 32, 64, 128, 256)
        space = atmodel.DesignSpace.from_rows(
            [
                {"family": atmodel.FAMILY_MULTI, "ports": 4, "entries": e}
                for e in sizes
            ]
        )
        parts = atmodel.stall_components(profile, space, DEMAND)
        vals = [float(v) for v in parts.miss_cycles]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


class TestCalibration:
    def test_reference_anchor_reproduced_exactly(self, profile, anchors, calibration):
        """T4 (the fit reference) must predict its own measured CPI."""
        t4 = anchors["T4"]
        measured = t4.stats.cycles / t4.stats.committed
        space = atmodel.mnemonic_space(["T4"])
        pred = atmodel.predict(profile, calibration, space)
        assert float(pred.cpi[0]) == pytest.approx(measured, abs=1e-9)

    def test_anchor_fit_close(self, anchors, calibration):
        """Every anchor's fitted CPI lands within 15% of measured."""
        assert set(calibration.anchor_fit) == set(anchors)
        for mnemonic, (measured, fitted) in calibration.anchor_fit.items():
            assert fitted == pytest.approx(measured, rel=0.15), mnemonic

    def test_ranking_sane_on_table2(self, profile, calibration):
        """128-entry 4-ported beats 16-entry 4-ported; PERFECT beats all."""
        space = atmodel.mnemonic_space(["T4", "T4E16", "PERFECT"])
        pred = atmodel.predict(profile, calibration, space)
        t4, t4e16, perfect = (float(c) for c in pred.cpi)
        assert perfect <= t4 < t4e16


class TestDesignSpace:
    def test_row_round_trip(self):
        space = atmodel.mnemonic_space(["T4", "M8", "I4/PB", "PB1"])
        rebuilt = atmodel.DesignSpace.from_rows(
            [space.row(i) for i in range(len(space))]
        )
        for i in range(len(space)):
            assert rebuilt.row(i) == space.row(i)

    def test_labels_distinct(self):
        from repro.tlb.factory import DESIGN_MNEMONICS

        space = atmodel.mnemonic_space(DESIGN_MNEMONICS)
        labels = [space.label(i) for i in range(len(space))]
        assert len(set(labels)) == len(labels)

    def test_mechanism_specs_instantiate(self):
        from repro.tlb.factory import make_mechanism_from_spec

        space = atmodel.mnemonic_space(["T4", "M8", "P8", "I8", "PB2", "I4/PB"])
        for i in range(len(space)):
            mech = make_mechanism_from_spec(space.mechanism_spec(i), 12)
            assert mech is not None
