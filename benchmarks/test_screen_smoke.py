"""Screening-tier smoke: model accuracy + frontier re-simulation.

Cross-validates the analytical model against the cycle simulator on a
Figure-5 slice (all 13 Table 2 designs, a subset of workloads) and
asserts the committed accuracy bound — mean absolute relative CPI
error <= 10% per workload, true best design inside the predicted
top-3.  Then runs a small end-to-end screen and asserts the selected
frontier re-simulates without error, and that a rerun on the same store
prints the same frontier without a single store write (every run and
profile is a hit; the summary is recomputed).

Run directly (the CI ``screen-smoke`` job)::

    PYTHONPATH=src python benchmarks/test_screen_smoke.py

It checks a 3-workload slice covering the pointer-chasing, integer and
dense-loop regimes (:data:`WORKLOADS`) at :data:`INSTS`, the budget the
committed accuracy numbers in docs/performance.md were measured at.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: The committed per-workload accuracy bound (see docs/performance.md).
MAE_BOUND = 0.10
TOP_K = 3
INSTS = 60_000
WORKLOADS = ["xlisp", "espresso", "tomcatv"]


def main() -> int:
    from repro.analysis import atmodel
    from repro.analysis.profile import build_profile
    from repro.eval.options import EvalOptions
    from repro.eval.resultstore import ResultStore
    from repro.eval.runner import RunRequest, run_one, _CACHE
    from repro.eval.screen import ScreenSpec, screen
    from repro.tlb.factory import DESIGN_MNEMONICS

    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-screen-smoke-") as td:
        store = ResultStore(Path(td) / "store")

        def req_for(workload, mnemonic):
            if mnemonic.upper() in DESIGN_MNEMONICS:
                return RunRequest.create(workload, mnemonic, max_instructions=INSTS)
            single = atmodel.mnemonic_space([mnemonic])
            return RunRequest.create(
                workload,
                mnemonic,
                mechanism=single.mechanism_spec(0),
                max_instructions=INSTS,
            )

        for workload in WORKLOADS:
            axes = RunRequest(workload, "T4", max_instructions=INSTS).build_axes
            trace = _CACHE.get_trace(*axes)
            profile = build_profile(trace, workload)
            results = {
                d: run_one(req_for(workload, d), store=store)
                for d in DESIGN_MNEMONICS
            }
            anchors = {
                m: results.get(m) or run_one(req_for(workload, m), store=store)
                for m in atmodel.DEFAULT_ANCHORS
            }
            cal = atmodel.calibrate(profile, anchors)
            space = atmodel.mnemonic_space(DESIGN_MNEMONICS)
            pred = atmodel.predict(profile, cal, space)
            true = [
                results[d].stats.cycles / results[d].stats.committed
                for d in DESIGN_MNEMONICS
            ]
            errs = [
                abs(float(pred.cpi[i]) - t) / t for i, t in enumerate(true)
            ]
            mae = sum(errs) / len(errs)
            best = min(range(len(true)), key=lambda i: true[i])
            order = sorted(range(len(true)), key=lambda i: float(pred.cpi[i]))
            rank = order.index(best) + 1
            line = (
                f"{workload:12s} MAE {100 * mae:5.2f}%"
                f" best {DESIGN_MNEMONICS[best]:6s} predicted rank {rank}"
            )
            print(line, flush=True)
            if mae > MAE_BOUND:
                failures.append(f"{workload}: MAE {100 * mae:.2f}% > {100 * MAE_BOUND:.0f}%")
            if rank > TOP_K:
                failures.append(f"{workload}: true best ranked {rank} (> top-{TOP_K})")

        # End-to-end: a small screen whose frontier re-simulates cleanly.
        spec = ScreenSpec(
            workloads=(WORKLOADS[0],),
            max_instructions=INSTS,
            entries=(64, 128, 256),
            simulate=3,
        )
        result = screen(spec, EvalOptions(jobs=2, store=store))
        simulated = [e for e in result.frontier if e.get("simulated")]
        print(
            f"screen: {result.designs} designs -> {len(result.frontier)} frontier,"
            f" {len(simulated)} re-simulated OK",
            flush=True,
        )
        if len(simulated) != min(spec.simulate, len(result.frontier)):
            failures.append(
                f"frontier re-simulation incomplete:"
                f" {len(simulated)}/{min(spec.simulate, len(result.frontier))}"
            )

        # Warm rerun: the same frontier from store hits, nothing written.
        puts = store.stats.puts
        rerun = screen(spec, EvalOptions(jobs=2, store=store))
        print(f"screen rerun: {store.stats.puts - puts} store writes", flush=True)
        if rerun.frontier != result.frontier:
            failures.append("warm screen rerun changed the frontier")
        if store.stats.puts != puts:
            failures.append(f"warm screen rerun wrote {store.stats.puts - puts} store entries")

    if failures:
        print("FAIL:\n  " + "\n  ".join(failures))
        return 1
    print("screen-smoke OK")
    return 0


def test_screen_smoke():
    assert main() == 0


if __name__ == "__main__":
    raise SystemExit(main())
