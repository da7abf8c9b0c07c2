"""The paper's claims as executable checks: a reproduction scorecard.

Every load-bearing qualitative claim in the paper's Section 4/5 is
encoded as a signed margin over the Figure 5, 7 and 9 grids: positive
when the claim holds, zero or negative when it fails, and the smallest
term's for a claim with several.  The grids are the published figures'
(same driver, same budget), so with a result store the scorecard
simulates nothing after the figures.  It reports PASS/FAIL and the
margin per claim — the "does the reproduction actually reproduce"
question, answerable in one command::

    python -m repro.eval scorecard

Claims are deliberately *ordinal* (who beats whom, what moves which
way), not numeric: the substrate is a different simulator on different
workloads, so only the orderings are transportable (DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.eval.experiments import run_figure
from repro.eval.options import EvalOptions
from repro.eval.sensitivity import GridResult


@dataclass
class Claim:
    """One checkable statement from the paper."""

    key: str
    source: str  # paper section
    text: str
    #: margin(fig5, fig7, fig9) -> float; the claim holds when positive.
    margin: Callable[[GridResult, GridResult, GridResult], float]


def _rel(fig: GridResult, design: str) -> float:
    return fig.relative[design]


CLAIMS: list[Claim] = [
    Claim(
        "t4-dominates",
        "§4.3",
        "the four-ported TLB's performance is always the best (1% seed-noise"
        " tolerance: the random-replacement base TLBs see different probe"
        " streams under shielding designs)",
        # Over the other designs: T4's own 1.000 would pin the margin at 0.01.
        lambda f5, f7, f9: 1.01 - max(
            _rel(f, d) for f in (f5, f7, f9) for d in f.relative if d != "T4"
        ),
    ),
    Claim(
        "ports-monotone",
        "§4.3",
        "performance falls as multi-ported TLB ports are removed (T4 > T2 > T1)",
        lambda f5, f7, f9: min(
            _rel(f5, "T4") - _rel(f5, "T2"), _rel(f5, "T2") - _rel(f5, "T1")
        ),
    ),
    Claim(
        "t1-substantial-loss",
        "§4.3",
        "a single-ported TLB loses substantial performance on the OOO baseline",
        lambda f5, f7, f9: 0.90 - _rel(f5, "T1"),
    ),
    Claim(
        "multilevel-near-t4",
        "§4.3 / abstract",
        "multi-level TLBs with small L1s come within a few percent of T4",
        lambda f5, f7, f9: min(_rel(f5, "M16") - 0.93, _rel(f5, "M4") - 0.90),
    ),
    Claim(
        "interleaved-lackluster",
        "§4.3",
        "plain interleaved TLBs underperform the other alternatives (bank conflicts)",
        lambda f5, f7, f9: min(
            _rel(f5, d) for d in ("M16", "M8", "PB2", "PB1", "I4/PB", "P8")
        ) - max(_rel(f5, d) for d in ("I8", "I4", "X4")),
    ),
    Claim(
        "pb2-near-t4",
        "§4.3 / §5",
        "a piggybacked dual-ported TLB is an adequate substitute for T4",
        lambda f5, f7, f9: _rel(f5, "PB2") - 0.98,
    ),
    Claim(
        "pb1-beats-t1",
        "§4.3",
        "piggybacking rescues a single-ported TLB",
        lambda f5, f7, f9: _rel(f5, "PB1") - (_rel(f5, "T1") + 0.05),
    ),
    Claim(
        "i4pb-composes",
        "§4.3",
        "piggybacked interleaving combines both benefits (I4/PB ~ T4, >> I4)",
        lambda f5, f7, f9: min(
            _rel(f5, "I4/PB") - 0.97, _rel(f5, "I4/PB") - _rel(f5, "I4")
        ),
    ),
    Claim(
        "inorder-closes-gaps",
        "§4.4",
        "with in-order issue, reduced bandwidth demand shrinks T1's loss",
        lambda f5, f7, f9: 0.75 * (1 - _rel(f5, "T1")) - (1 - _rel(f7, "T1")),
    ),
    Claim(
        "inorder-helps-interleaved",
        "§4.4",
        "the interleaved designs perform much better under in-order issue",
        lambda f5, f7, f9: _rel(f7, "I4") - _rel(f5, "I4"),
    ),
    Claim(
        "fewregs-multilevel-strong",
        "§4.6",
        "with 8 registers the multi-level designs still perform well",
        lambda f5, f7, f9: min(_rel(f9, d) for d in ("M16", "M8", "M4")) - 0.90,
    ),
    Claim(
        "fewregs-bandwidth-crunch",
        "§4.6",
        "with 8 registers the bandwidth-starved designs degrade sharply",
        lambda f5, f7, f9: min(
            _rel(f5, "T1") - 0.10 - _rel(f9, "T1"),
            _rel(f5, "I4") - 0.05 - _rel(f9, "I4"),
        ),
    ),
    Claim(
        "fewregs-pb1-worst-piggyback",
        "§4.6",
        "PB1 is the weakest piggybacked design under register pressure",
        lambda f5, f7, f9: min(_rel(f9, "PB2"), _rel(f9, "I4/PB")) - _rel(f9, "PB1"),
    ),
]


@dataclass
class ScorecardResult:
    """Every claim with its signed margin, at one instruction budget."""

    #: (claim, margin) in CLAIMS order.
    margins: list[tuple[Claim, float]]
    budget: int

    @property
    def passed(self) -> list[Claim]:
        return [claim for claim, margin in self.margins if margin > 0]

    @property
    def failed(self) -> list[Claim]:
        return [claim for claim, margin in self.margins if margin <= 0]

    @property
    def score(self) -> str:
        return f"{len(self.passed)}/{len(self.margins)}"

    def render(self) -> str:
        lines = [
            f"Reproduction scorecard ({self.score} claims hold, "
            f"{self.budget} instructions/run)",
            "",
        ]
        width = max(len(claim.source) for claim, _ in self.margins)
        for claim, margin in self.margins:
            verdict = "PASS" if margin > 0 else "FAIL"
            lines.append(
                f"  {verdict}  {margin:+.3f}  [{claim.source:{width}s}] {claim.text}"
            )
        return "\n".join(lines)


def run_scorecard(
    max_instructions: int = 40_000,
    workloads=None,
    options: EvalOptions | None = None,
) -> ScorecardResult:
    """Run the Figure 5, 7 and 9 grids and take every claim's margin.

    The grids are :func:`repro.eval.experiments.run_figure`'s, run under
    ``options`` (an :class:`~repro.eval.options.EvalOptions`), so with a
    result store they are hits once the figures have been run at the
    same budget.  The default budget is the committed figures'.
    """
    grid = dict(
        workloads=workloads,
        max_instructions=max_instructions,
        options=options,
    )
    figures = [run_figure(key, **grid) for key in ("figure5", "figure7", "figure9")]
    return ScorecardResult(
        margins=[(claim, claim.margin(*figures)) for claim in CLAIMS],
        budget=max_instructions,
    )
