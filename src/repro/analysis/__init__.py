"""Workload and mechanism analysis tools.

These support (and extend) the paper's evaluation:

``reusedist``
    Mattson stack-distance analysis of the page reference stream: exact
    LRU miss rates for *every* TLB size in one pass — the one-pass
    generalization of Figure 6's LRU points.
``demand``
    Translation bandwidth-demand summaries from timing runs (the
    measured distribution of simultaneous requests per cycle).
``profile``
    The one summary of a workload's reference stream: per-page-size
    statistics (exact LRU miss curves, same-page sharing in small
    windows — what piggyback ports combine — base-register page reuse
    and a pretranslation-cache proxy — what pretranslation attaches —
    and bank-collision rates) plus the demand histogram.  Read by the
    analytical model, printed by ``python -m repro profile``, and
    memoized in the result store.
``atmodel``
    The analytical translation-cost model itself: a vectorized
    predictor of per-design translation stalls and CPI, calibrated per
    workload against a handful of cycle-simulated anchor runs.  Feeds
    :mod:`repro.eval.screen`, which turns design-space sweeps into
    Pareto search.
"""

from repro.analysis.atmodel import (
    Calibration,
    DesignSpace,
    Prediction,
    calibrate,
    mnemonic_space,
    predict,
    stall_components,
)
from repro.analysis.demand import demand_profile, DemandProfile
from repro.analysis.profile import AnalysisProfile, build_profile, workload_profile
from repro.analysis.reusedist import StackDistanceAnalyzer

__all__ = [
    "AnalysisProfile",
    "Calibration",
    "DemandProfile",
    "DesignSpace",
    "Prediction",
    "StackDistanceAnalyzer",
    "build_profile",
    "calibrate",
    "demand_profile",
    "mnemonic_space",
    "predict",
    "stall_components",
    "workload_profile",
]
