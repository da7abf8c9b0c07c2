"""Simulation sanitizer: invariant checking, differential testing, fuzzing.

The simulator core trades transparency for speed — event-driven cycle
skipping, precomputed fetch plans, on-disk artifact hydration — and each
of those optimizations can silently corrupt Table 2/Figure 5 numbers if
its enabling assumption is wrong.  This package actively *hunts* such
bugs, in the spirit of sim-outorder's ``sim-safe`` cross-checks and
DiffTest-style co-simulation:

* :mod:`repro.check.invariants` — a :class:`SanityChecker` hooked into
  the cycle loop behind ``MachineConfig.sanity`` that validates
  per-cycle microarchitectural invariants and re-validates every
  event-driven skip against the mechanism's ``quiescent_until``
  contract (by replaying the skipped span on a clone);
* :mod:`repro.check.diff` — a differential harness running the same
  :class:`~repro.eval.runner.RunRequest` through event-driven vs. plain
  loops, cached vs. uncached artifact paths, and timing vs. functional
  architectural state;
* :mod:`repro.check.fuzz` — a seeded config fuzzer driving both across
  random valid machine/mechanism combinations.

``python -m repro.check`` is the sanitizer's one command line: every
fuzzed point runs under the invariant checker and all three
differential checks, over the synthetic workloads or (``--trace``) an
ingested external trace.
"""

from repro.check.diff import DiffReport, Mismatch, request_with_config, run_differential
from repro.check.fuzz import FuzzRecord, FuzzReport, random_request, run_fuzz
from repro.check.invariants import SanityChecker, SanityError

__all__ = [
    "DiffReport",
    "FuzzRecord",
    "FuzzReport",
    "Mismatch",
    "SanityChecker",
    "SanityError",
    "random_request",
    "request_with_config",
    "run_differential",
    "run_fuzz",
]
