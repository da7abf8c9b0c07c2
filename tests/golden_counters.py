"""Golden counters: the full stats of a fixed matrix of timing runs.

``tests/golden_counters.json`` holds ``dataclasses.asdict(stats)`` of
every ``DESIGNS`` entry under two issue models (out-of-order; in-order
with a context switch every 700 instructions) on four workloads, at
4,000 instructions: 128 runs.  ``tests/test_golden_counters.py``
recomputes it, so a change that moves any counter of any of these runs
fails a test, even one no committed table prints.

It is a regression pin, not an oracle: it records what the simulator
computes today.  A change that alters timing on purpose rewrites the
file and says why in CHANGES.md::

    PYTHONPATH=src python tests/golden_counters.py

This is the one way to rewrite it.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden_counters.json")

WORKLOADS = ("compress", "tomcatv", "gcc", "xlisp")
#: ``(label, RunRequest options)`` of each issue model in the matrix.
ISSUE_MODELS = (
    ("ooo", {"issue_model": "ooo"}),
    ("inorder-cs700", {"issue_model": "inorder", "context_switch_interval": 700}),
)
INSTRUCTIONS = 4_000


def requests() -> "dict[str, object]":
    """``{run name: RunRequest}`` for the matrix, workload-major so each
    workload's trace is built once and replayed under every design."""
    from repro.eval.runner import RunRequest
    from repro.tlb.factory import DESIGNS

    return {
        f"{workload}/{design}/{label}": RunRequest.create(
            workload, design, max_instructions=INSTRUCTIONS, **options
        )
        for workload in WORKLOADS
        for design in DESIGNS
        for label, options in ISSUE_MODELS
    }


def compute() -> "dict[str, dict]":
    """Run the matrix; each run's stats as they read back from JSON
    (the demand histogram's int keys become strings)."""
    from repro.eval.runner import simulate

    return {
        name: json.loads(json.dumps(dataclasses.asdict(simulate(req).stats)))
        for name, req in requests().items()
    }


def render(runs: "dict[str, dict]") -> str:
    """One run per line, keys sorted: small, and a diff names the run."""
    lines = [
        f"{json.dumps(name)}: {json.dumps(stats, sort_keys=True, separators=(',', ':'))}"
        for name, stats in runs.items()
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def first_difference(expected, actual, path: str = "") -> "str | None":
    """Dotted name of the first counter (in sorted key order) that differs
    between two stats dicts, or None when they are equal."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            name = f"{path}.{key}" if path else key
            if key not in expected or key not in actual:
                return name
            found = first_difference(expected[key], actual[key], name)
            if found is not None:
                return found
        return None
    return None if expected == actual else path


def main() -> int:
    GOLDEN_PATH.write_text(render(compute()))
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
