"""Tests for the config fuzzer and the ``python -m repro.check`` CLI."""

import argparse
import random

import pytest

from repro.check.__main__ import _design_list, main
from repro.check.diff import Mismatch
from repro.check.fuzz import (
    FuzzRecord,
    FuzzReport,
    random_request,
    run_fuzz,
)
from repro.tlb.factory import DESIGN_MNEMONICS


class TestRandomRequest:
    def test_deterministic_for_a_seed(self):
        draws_a = [
            random_request(random.Random(9), d, insts=500)
            for d in ("T4", "M8", "I4/PB")
        ]
        draws_b = [
            random_request(random.Random(9), d, insts=500)
            for d in ("T4", "M8", "I4/PB")
        ]
        assert draws_a == draws_b

    @pytest.mark.parametrize(
        "design, fuzzed",
        [("I4/PB", {"InterleavedTLB"}), ("PERFECT", set()), ("THB32", set())],
    )
    def test_perturbs_within_the_factory_spec_class(self, design, fuzzed):
        rng = random.Random(5)
        draws = [random_request(rng, design, insts=500) for _ in range(40)]
        classes = {d.mechanism[0] if d.mechanism else None for d in draws}
        assert classes - {None} == fuzzed

    @pytest.mark.parametrize("design", sorted(DESIGN_MNEMONICS))
    def test_every_draw_is_a_valid_request(self, design):
        rng = random.Random(2026)
        for _ in range(4):
            req = random_request(rng, design, insts=500)
            assert req.design == design
            config = req.machine_config()
            mech = req.make_mech(config.page_shift)
            assert mech.pending() == 0


class TestRunFuzz:
    def test_round_robins_designs_and_issue_models(self):
        report = run_fuzz(
            seed=3,
            iterations=4,
            designs=["T4", "M8"],
            workloads=["compress"],
            insts=500,
        )
        assert report.ok, report.render()
        designs = [r.request.design for r in report.records]
        models = [r.request.issue_model for r in report.records]
        assert designs == ["T4", "M8", "T4", "M8"]
        assert models == ["ooo", "inorder", "ooo", "inorder"]

    def test_progress_callback_sees_every_record(self):
        seen = []
        report = run_fuzz(
            seed=1,
            iterations=2,
            designs=["T2"],
            workloads=["compress"],
            insts=400,
            progress=lambda i, total, record: seen.append((i, total, record.ok)),
        )
        assert seen == [(0, 2, True), (1, 2, True)]
        assert len(report.records) == 2


class TestReportAggregation:
    def test_counters_and_render(self):
        req = random_request(random.Random(0), "T4", insts=400)
        report = FuzzReport(
            seed=7,
            records=[
                FuzzRecord(request=req),
                FuzzRecord(request=req, sanity_error="cycle 3: boom"),
                FuzzRecord(request=req, mismatches=[Mismatch("loops", "diverge")]),
            ],
        )
        assert report.violations == 1
        assert report.mismatched == 1
        assert not report.ok
        assert "1 invariant violations" in report.render()
        assert "1 differential mismatches" in report.render()

    def test_failing_record_renders_details(self):
        req = random_request(random.Random(0), "T4", insts=400)
        record = FuzzRecord(
            request=req,
            sanity_error="cycle 3: boom",
            mismatches=[Mismatch("loops", "diverge")],
        )
        assert not record.ok
        text = record.render()
        assert "invariant violation: cycle 3: boom" in text
        assert "[loops] diverge" in text


class TestCli:
    def test_design_list_normalizes_and_validates(self):
        assert _design_list("t4, m8") == ["T4", "M8"]
        with pytest.raises(argparse.ArgumentTypeError, match="unknown design"):
            _design_list("T4,NOPE")

    def test_smoke_run_exits_zero(self, capsys):
        status = main(
            [
                "--seed",
                "0",
                "--iterations",
                "1",
                "--insts",
                "500",
                "--design",
                "T4",
                "--workloads",
                "compress",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "fuzz(seed=0): 1 iterations" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["--workloads", "nonsense"])
