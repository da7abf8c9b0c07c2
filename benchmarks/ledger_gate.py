"""CI gate over benchmark-ledger results: every output correct, speed held.

Usage, from the root of a checkout::

    python benchmarks/ledger_gate.py RESULT.json [RESULT.json ...]

Each file holds the last line ``perfbench/run.py`` prints.  Every result
must be ``"correct": true`` with ``"failed": 0``.  Over the ``--trace 1``
results, each gated metric's best value must meet its floor;
``model_over_simulator`` is model designs/s over simulated designs/s,
``len(REPLAY_DESIGNS) / replay.wall_s``.  The exit status is 1, with a
``FAIL`` line per failed check, unless every check passes.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Reference per metric: median over 12 rounds of the best of the two
#: seed-1 traced runs (cold-build, served-grid; both sweep espresso),
#: 2-vCPU shared host, 2026-10-17.  docs/performance.md gives the spread.
REFERENCES = {
    "replay.kcycles_per_s": 35.84,
    "parallel.busy_frac": 0.7268,
    "atmodel.kdesigns_per_s": 391.8,
}
#: Largest regression against a reference that still passes.
THRESHOLD = 0.30
#: Floors that hold on any host.
ABSOLUTE_FLOORS = {
    "atmodel.kdesigns_per_s": 10.0,
    "model_over_simulator": 1000.0,
    "screen_designs": 100_000,
}
GATED = (*REFERENCES, "replay.wall_s")


@functools.cache
def _ledger_sizes() -> "tuple[int, int]":
    """(designs each layer sweep replays, designs in its screen space)."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    from layers import REPLAY_DESIGNS, screen_spec
    from repro.eval.screen import enumerate_space

    return len(REPLAY_DESIGNS), len(enumerate_space(screen_spec()))


def _check(name: str, value: "float | None", floor: float, how: str) -> bool:
    ok = value is not None and value >= floor
    shown = "missing" if value is None else f"{value:,.6g}"
    print(f"{'ok  ' if ok else 'FAIL'} {name} = {shown}, floor {floor:,.6g} ({how})")
    return ok


def main(paths: "list[str]") -> int:
    ok, traced = True, []
    for path in paths:
        try:
            result = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            result = None
        if not (isinstance(result, dict) and isinstance(result.get("metrics"), dict)):
            result = {}  # no result line
        correct, failed = result.get("correct"), result.get("failed")
        good = correct is True and failed == 0
        print(f"{'ok  ' if good else 'FAIL'} {path}: correct={correct} failed={failed}")
        ok &= good
        if "trace.wall_s" in result.get("metrics", {}):  # a --trace 1 line
            traced.append({name: result["metrics"].get(name, {}).get("value") for name in GATED})
    if not traced:
        print("FAIL no --trace 1 result to gate speed on")
        return 1
    replayed, screen = _ledger_sizes()
    for run in traced:
        model, wall = run["atmodel.kdesigns_per_s"], run["replay.wall_s"]
        run["screen_designs"] = screen
        if None not in (model, wall):
            run["model_over_simulator"] = model * wall * 1e3 / replayed

    def best(name: str) -> "float | None":
        values = [run.get(name) for run in traced]
        return None if None in values else max(values)

    for name, ref in REFERENCES.items():
        relative = f"{1 - THRESHOLD:g} x reference {ref:g}"
        ok &= _check(name, best(name), (1 - THRESHOLD) * ref, relative)
    for name, floor in ABSOLUTE_FLOORS.items():
        ok &= _check(name, best(name), floor, "absolute")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
