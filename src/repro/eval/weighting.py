"""Run-time-weighted aggregation, as in the paper.

"All the results presented in this section are run-time weighted
averages across all the benchmarks ... the run-time weighted average IPC
(weighted by the run-time of T4 in cycles) is shown for each design.
The IPCs are normalized to the IPC of the four-ported TLB design (T4)."

Concretely: for design ``d``, with per-benchmark IPCs ``ipc[d][w]`` and
T4 cycle counts ``t4_cycles[w]``::

    rtw_ipc(d) = sum_w t4_cycles[w] * ipc[d][w] / sum_w t4_cycles[w]
    relative(d) = rtw_ipc(d) / rtw_ipc(T4)

The normalization is done once, by the grid driver
(:func:`repro.eval.sensitivity.run_variants`), against the grid's first
label: T4 in every figure.
"""

from __future__ import annotations

from typing import Mapping


def rtw_average(values: Mapping[str, float], weights: Mapping[str, float]) -> float:
    """Weighted average of ``values`` keyed like ``weights``."""
    if not values:
        raise ValueError("no values to average")
    missing = set(values) - set(weights)
    if missing:
        raise ValueError(f"missing weights for: {sorted(missing)}")
    total_weight = sum(weights[k] for k in values)
    if total_weight <= 0:
        raise ValueError("weights sum to zero")
    return sum(values[k] * weights[k] for k in values) / total_weight
