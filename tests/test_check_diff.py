"""Tests for the differential harness (:mod:`repro.check.diff`)."""

import dataclasses

import pytest

from repro.check.diff import (
    CHECKS,
    Mismatch,
    main,
    request_with_config,
    run_differential,
)
from repro.engine.machine import Machine
from repro.eval.artifacts import ArtifactStore
from repro.eval.runner import RunRequest
from repro.func.dyninst import DynInst

FAST = dict(max_instructions=1200)


class TestRequestWithConfig:
    def test_merges_and_overrides_pairs(self):
        req = RunRequest.create("compress", "T4", tlb_miss_latency=60, **FAST)
        out = request_with_config(req, sanity=True, tlb_miss_latency=45)
        merged = dict(out.config)
        assert merged["sanity"] is True
        assert merged["tlb_miss_latency"] == 45
        # The original request is untouched (RunRequest is frozen).
        assert dict(req.config) == {"tlb_miss_latency": 60}

    def test_result_builds_a_config(self):
        req = RunRequest.create("compress", "T4", **FAST)
        out = request_with_config(req, sanity=True)
        assert out.machine_config().sanity is True


class TestCleanPoint:
    def test_all_checks_pass(self):
        report = run_differential(RunRequest.create("compress", "M8", **FAST))
        assert report.ok
        assert report.checks == CHECKS
        assert not report.mismatches
        assert "3 checks ok" in report.render()


class TestLoopDivergence:
    def test_detected_and_located(self, monkeypatch):
        """A skewed event horizon corrupts only the event-driven loop."""
        orig = Machine._next_event

        def skewed(self, now):
            return orig(self, now) + 3

        monkeypatch.setattr(Machine, "_next_event", skewed)
        report = run_differential(RunRequest.create("compress", "T1", **FAST))
        loops = [m for m in report.mismatches if m.check == "loops"]
        assert loops, report.render()
        mismatch = loops[0]
        assert "diverge" in mismatch.detail
        assert mismatch.excerpt
        # The pipeview lockstep comparison pins the first divergent cycle.
        assert mismatch.cycle is not None and mismatch.cycle > 0
        # The other redundant paths are unaffected by the skew.
        assert not [m for m in report.mismatches if m.check != "loops"]


class TestArtifactDivergence:
    def test_corrupted_round_trip_detected(self, monkeypatch):
        orig = ArtifactStore.load_build

        def corrupting(self, axes):
            hydrated = orig(self, axes)
            if hydrated is None:
                return None
            program, trace = hydrated
            bad = trace[5]
            trace[5] = DynInst(
                bad.seq,
                bad.decoded,
                bad.pc ^ 0x40,
                ea=bad.ea,
                taken=bad.taken,
                next_index=bad.next_index,
            )
            return program, trace

        monkeypatch.setattr(ArtifactStore, "load_build", corrupting)
        report = run_differential(RunRequest.create("compress", "T4", **FAST))
        artifacts = [m for m in report.mismatches if m.check == "artifacts"]
        assert artifacts, report.render()
        assert "record 5" in artifacts[0].detail


class TestRendering:
    def test_mismatch_render_with_cycle_and_excerpt(self):
        m = Mismatch("loops", "stats diverge", cycle=41, excerpt="  #12 lw ...")
        text = m.render()
        assert "(first divergent cycle 41)" in text
        assert text.endswith("  #12 lw ...")

    def test_mismatch_render_without_cycle(self):
        assert Mismatch("functional", "regs diverge").render() == (
            "[functional] regs diverge"
        )


class TestCli:
    @pytest.mark.parametrize("name", ["kernel", "kernel-batch", "bogus"])
    def test_unknown_check_fails_at_parse_time(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main(["--checks", f"loops,{name}", "--workloads", "compress"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"unknown check(s) {name}" in err
        assert "loops,artifacts,functional" in err
