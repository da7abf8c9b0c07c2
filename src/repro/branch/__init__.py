"""Branch prediction.

The paper's baseline front end uses a GAp two-level adaptive predictor
("8 bit global history indexing a 4096 entry pattern history table with
2-bit saturating counters") with a 3-cycle misprediction penalty.
"""

from repro.branch.predictors import (
    AlwaysTakenPredictor,
    BimodalPredictor,
    BranchPredictor,
    GApPredictor,
    GSharePredictor,
    TournamentPredictor,
)

__all__ = [
    "AlwaysTakenPredictor",
    "BimodalPredictor",
    "BranchPredictor",
    "GApPredictor",
    "GSharePredictor",
    "TournamentPredictor",
]
