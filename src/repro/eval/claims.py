"""The paper's claims as executable checks: a reproduction scorecard.

Every load-bearing qualitative claim in the paper's Section 4/5 is
encoded as a predicate over a measured figure grid.  Running the
scorecard evaluates them all against fresh simulations and reports
PASS/FAIL per claim — the "does the reproduction actually reproduce"
question, answerable in one command::

    python -m repro.eval scorecard

Claims are deliberately *ordinal* (who beats whom, what moves which
way), not numeric: the substrate is a different simulator on different
workloads, so only the orderings are transportable (DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.eval.experiments import FigureResult, run_figure
from repro.eval.options import EvalOptions


@dataclass
class Claim:
    """One checkable statement from the paper."""

    key: str
    source: str  # paper section
    text: str
    #: predicate(fig5, fig7, fig9) -> bool
    check: Callable[[FigureResult, FigureResult, FigureResult], bool]


def _rel(fig: FigureResult, design: str) -> float:
    return fig.relative_ipc[design]


CLAIMS: list[Claim] = [
    Claim(
        "t4-dominates",
        "§4.3",
        "the four-ported TLB's performance is always the best (1% seed-noise"
        " tolerance: the random-replacement base TLBs see different probe"
        " streams under shielding designs)",
        lambda f5, f7, f9: all(
            _rel(f, d) <= 1.01 for f in (f5, f7, f9) for d in f.designs
        ),
    ),
    Claim(
        "ports-monotone",
        "§4.3",
        "performance falls as multi-ported TLB ports are removed (T4 > T2 > T1)",
        lambda f5, f7, f9: _rel(f5, "T4") > _rel(f5, "T2") > _rel(f5, "T1"),
    ),
    Claim(
        "t1-substantial-loss",
        "§4.3",
        "a single-ported TLB loses substantial performance on the OOO baseline",
        lambda f5, f7, f9: _rel(f5, "T1") < 0.90,
    ),
    Claim(
        "multilevel-near-t4",
        "§4.3 / abstract",
        "multi-level TLBs with small L1s come within a few percent of T4",
        lambda f5, f7, f9: _rel(f5, "M16") > 0.93 and _rel(f5, "M4") > 0.90,
    ),
    Claim(
        "interleaved-lackluster",
        "§4.3",
        "plain interleaved TLBs underperform the other alternatives (bank conflicts)",
        lambda f5, f7, f9: max(_rel(f5, d) for d in ("I8", "I4", "X4"))
        < min(_rel(f5, d) for d in ("M16", "M8", "PB2", "PB1", "I4/PB", "P8")),
    ),
    Claim(
        "pb2-near-t4",
        "§4.3 / §5",
        "a piggybacked dual-ported TLB is an adequate substitute for T4",
        lambda f5, f7, f9: _rel(f5, "PB2") > 0.98,
    ),
    Claim(
        "pb1-beats-t1",
        "§4.3",
        "piggybacking rescues a single-ported TLB",
        lambda f5, f7, f9: _rel(f5, "PB1") > _rel(f5, "T1") + 0.05,
    ),
    Claim(
        "i4pb-composes",
        "§4.3",
        "piggybacked interleaving combines both benefits (I4/PB ~ T4, >> I4)",
        lambda f5, f7, f9: _rel(f5, "I4/PB") > 0.97
        and _rel(f5, "I4/PB") > _rel(f5, "I4"),
    ),
    Claim(
        "inorder-closes-gaps",
        "§4.4",
        "with in-order issue, reduced bandwidth demand shrinks T1's loss",
        lambda f5, f7, f9: (1 - _rel(f7, "T1")) < 0.75 * (1 - _rel(f5, "T1")),
    ),
    Claim(
        "inorder-helps-interleaved",
        "§4.4",
        "the interleaved designs perform much better under in-order issue",
        lambda f5, f7, f9: _rel(f7, "I4") > _rel(f5, "I4"),
    ),
    Claim(
        "fewregs-multilevel-strong",
        "§4.6",
        "with 8 registers the multi-level designs still perform well",
        lambda f5, f7, f9: min(_rel(f9, d) for d in ("M16", "M8", "M4")) > 0.90,
    ),
    Claim(
        "fewregs-bandwidth-crunch",
        "§4.6",
        "with 8 registers the bandwidth-starved designs degrade sharply",
        lambda f5, f7, f9: _rel(f9, "T1") < _rel(f5, "T1") - 0.10
        and _rel(f9, "I4") < _rel(f5, "I4") - 0.05,
    ),
    Claim(
        "fewregs-pb1-worst-piggyback",
        "§4.6",
        "PB1 is the weakest piggybacked design under register pressure",
        lambda f5, f7, f9: _rel(f9, "PB1")
        < min(_rel(f9, "PB2"), _rel(f9, "I4/PB")),
    ),
]


@dataclass
class ScorecardResult:
    """Evaluated claims plus the grids they were checked against."""

    passed: list[Claim]
    failed: list[Claim]
    budget: int

    @property
    def score(self) -> str:
        total = len(self.passed) + len(self.failed)
        return f"{len(self.passed)}/{total}"

    def render(self) -> str:
        lines = [
            f"Reproduction scorecard ({self.score} claims hold, "
            f"{self.budget} instructions/run)",
            "",
        ]
        for claim in self.passed:
            lines.append(f"  PASS  [{claim.source:12s}] {claim.text}")
        for claim in self.failed:
            lines.append(f"  FAIL  [{claim.source:12s}] {claim.text}")
        return "\n".join(lines)


def run_scorecard(
    max_instructions: int = 20_000,
    workloads=None,
    options: EvalOptions | None = None,
) -> ScorecardResult:
    """Run the three figure grids and evaluate every claim.

    Every grid runs under ``options`` (an
    :class:`~repro.eval.options.EvalOptions`), as in
    :func:`repro.eval.experiments.run_figure`.
    """
    grid = dict(
        workloads=workloads,
        max_instructions=max_instructions,
        options=options,
    )
    fig5 = run_figure("figure5", **grid)
    fig7 = run_figure("figure7", **grid)
    fig9 = run_figure("figure9", **grid)
    passed, failed = [], []
    for claim in CLAIMS:
        (passed if claim.check(fig5, fig7, fig9) else failed).append(claim)
    return ScorecardResult(passed=passed, failed=failed, budget=max_instructions)
