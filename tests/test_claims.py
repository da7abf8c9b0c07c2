"""Tests for the reproduction scorecard machinery."""

import re
from pathlib import Path

import pytest

from repro.eval.claims import CLAIMS, Claim, ScorecardResult, run_scorecard
from repro.eval.experiments import run_figure
from repro.eval.options import EvalOptions
from repro.eval.resultstore import ResultStore
from repro.eval.sensitivity import GridResult

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"
FIGURES = ("figure5", "figure7", "figure9")


def _committed(key: str) -> GridResult:
    """The relative IPCs a committed ``results/<key>.txt`` figure shows."""
    relative = {}
    for line in (RESULTS_DIR / f"{key}.txt").read_text().splitlines()[3:]:
        if not line.strip():
            break
        design, value, _bar = line.split()
        relative[design] = float(value)
    return GridResult(key, (), relative, {})


def _scorecard_margins() -> dict[str, float]:
    """Claim text -> the margin the committed ``results/scorecard.txt`` prints."""
    margins = {}
    for line in (RESULTS_DIR / "scorecard.txt").read_text().splitlines()[2:]:
        match = re.match(r"  (PASS|FAIL)  ([+-]\d\.\d{3})  \[[^]]*\] (.*)$", line)
        assert match, f"no margin on scorecard line: {line!r}"
        margins[match.group(3)] = float(match.group(2))
    return margins


class TestClaimSet:
    def test_claims_cover_the_key_sections(self):
        sources = {c.source.split(" ")[0] for c in CLAIMS}
        assert "§4.3" in sources  # baseline figure
        assert "§4.4" in sources  # in-order
        assert "§4.6" in sources  # fewer registers

    def test_keys_unique(self):
        keys = [c.key for c in CLAIMS]
        assert len(keys) == len(set(keys))

    def test_at_least_a_dozen_claims(self):
        assert len(CLAIMS) >= 12


class TestScorecard:
    @pytest.fixture(scope="class")
    def scorecard(self):
        # Three workloads across the locality regimes keep this quick
        # while exercising every claim's inputs.
        return run_scorecard(
            max_instructions=8_000,
            workloads=["espresso", "xlisp", "compress", "tomcatv"],
        )

    def test_runs_and_scores(self, scorecard):
        assert isinstance(scorecard, ScorecardResult)
        assert len(scorecard.passed) + len(scorecard.failed) == len(CLAIMS)

    def test_most_claims_hold_even_at_small_budget(self, scorecard):
        """At tiny budgets some ordinal claims may wobble, but the large
        majority must hold or the reproduction is broken."""
        assert len(scorecard.passed) >= len(CLAIMS) - 3, scorecard.render()

    def test_core_claims_always_hold(self, scorecard):
        held = {c.key for c in scorecard.passed}
        for key in ("t4-dominates", "ports-monotone", "pb2-near-t4"):
            assert key in held, scorecard.render()

    def test_render(self, scorecard):
        text = scorecard.render()
        assert "PASS" in text
        assert "/" in scorecard.score

    def test_margin_sign_agrees_with_the_verdict(self, scorecard):
        for line in scorecard.render().splitlines()[2:]:
            verdict, margin = line.split()[:2]
            assert (verdict == "PASS") == (float(margin) > 0), line


class TestMargins:
    #: (claim, figure 5/7/9 index, design varied, the value at which the
    #: claim flips on the committed figures, whether it holds above it).
    THRESHOLDS = [
        ("t4-dominates", 0, "PB2", lambda f: 1.01, False),
        ("ports-monotone", 0, "T2", lambda f: f[0]["T4"], False),
        ("t1-substantial-loss", 0, "T1", lambda f: 0.90, False),
        ("multilevel-near-t4", 0, "M16", lambda f: 0.93, True),
        ("interleaved-lackluster", 0, "I8", lambda f: f[0]["M8"], False),
        ("pb2-near-t4", 0, "PB2", lambda f: 0.98, True),
        ("pb1-beats-t1", 0, "PB1", lambda f: f[0]["T1"] + 0.05, True),
        ("i4pb-composes", 0, "I4/PB", lambda f: 0.97, True),
        ("inorder-closes-gaps", 1, "T1", lambda f: 1 - 0.75 * (1 - f[0]["T1"]), True),
        ("inorder-helps-interleaved", 1, "I4", lambda f: f[0]["I4"], True),
        ("fewregs-multilevel-strong", 2, "M4", lambda f: 0.90, True),
        ("fewregs-bandwidth-crunch", 2, "T1", lambda f: f[0]["T1"] - 0.10, False),
        ("fewregs-pb1-worst-piggyback", 2, "PB1", lambda f: f[2]["I4/PB"], False),
    ]

    def test_every_claim_has_a_threshold(self):
        assert [row[0] for row in self.THRESHOLDS] == [c.key for c in CLAIMS]

    @pytest.mark.parametrize("key,figure,design,threshold,above", THRESHOLDS)
    def test_claim_flips_exactly_at_its_threshold(
        self, key, figure, design, threshold, above
    ):
        claim = next(c for c in CLAIMS if c.key == key)
        committed = [_committed(k) for k in FIGURES]
        flip = threshold([g.relative for g in committed])

        def holds(value: float) -> bool:
            grids = [GridResult(g.title, (), dict(g.relative), {}) for g in committed]
            grids[figure].relative[design] = value
            return claim.margin(*grids) > 0

        assert holds(flip + 1e-9) is above
        assert holds(flip - 1e-9) is not above

    def test_committed_scorecard_is_the_committed_figures_margins(self):
        """The scorecard is taken on the figures as published: its margins
        match the ones the committed figures give (to their 3 decimals)."""
        figures = [_committed(k) for k in FIGURES]
        printed = _scorecard_margins()
        assert len(printed) == len(CLAIMS)
        for claim in CLAIMS:
            assert claim.margin(*figures) > 0, claim.key
            assert claim.margin(*figures) == pytest.approx(printed[claim.text], abs=0.002)

    def test_scorecard_after_the_figures_simulates_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        grid = dict(
            workloads=["espresso"], max_instructions=2_000,
            options=EvalOptions(store=store),
        )
        figures = [run_figure(key, **grid) for key in FIGURES]
        misses = store.stats.misses
        scorecard = run_scorecard(**grid)
        assert store.stats.misses == misses
        assert store.stats.hits == sum(len(f.relative) for f in figures)
        assert scorecard.margins == [(c, c.margin(*figures)) for c in CLAIMS]


class TestClaimObject:
    def test_custom_claim(self):
        claim = Claim("x", "§0", "always true", lambda a, b, c: 1.0)
        assert claim.margin(None, None, None) > 0
        card = ScorecardResult([(claim, 1.0)], budget=10)
        assert card.passed == [claim] and card.failed == [] and card.score == "1/1"

    def test_source_column_fits_the_longest_source(self):
        short = Claim("a", "§4", "first", lambda a, b, c: 0.5)
        wide = Claim("b", "§4.3 / abstract", "second", lambda a, b, c: -0.25)
        lines = ScorecardResult([(short, 0.5), (wide, -0.25)], 10).render().splitlines()
        assert lines[2] == "  PASS  +0.500  [§4             ] first"
        assert lines[3] == "  FAIL  -0.250  [§4.3 / abstract] second"
