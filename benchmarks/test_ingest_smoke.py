"""Ingestion smoke gate: committed lackey fixture end to end.

Converts the committed Valgrind-lackey fixture
(``benchmarks/fixtures/lackey_mixed.log.gz``, regenerable with
``make_lackey_fixture.py``) to the portable format, windows it down to
the measurement budget, and replays a 3-design grid through the ingested
path.  Asserts:

1. the headline statistics are bit-identical to the committed golden
   (``benchmarks/GOLDEN_ingest.json``);
2. the serial, artifact-cached, and jobs=2 parallel paths all agree
   bit-for-bit.

Run directly (the CI ``ingest-smoke`` job)::

    PYTHONPATH=src python benchmarks/test_ingest_smoke.py

Pass ``--update`` after an intentional engine change to refresh the
golden file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

FIXTURE = ROOT / "benchmarks" / "fixtures" / "lackey_mixed.log.gz"
GOLDEN = ROOT / "benchmarks" / "GOLDEN_ingest.json"
DESIGNS = ("T4", "M8", "I4")
BUDGET = 6_000
WINDOW = dict(warmup=2_000, window=4_000, count=3, select="stride", stride=7)


def headline(result) -> dict:
    s = result.stats
    return {
        "cycles": s.cycles,
        "committed": s.committed,
        "loads": s.loads,
        "stores": s.stores,
        "tlb_miss_services": s.tlb_miss_services,
        "port_stall_cycles": s.translation.port_stall_cycles,
        "piggybacked": s.translation.piggybacked,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update", action="store_true", help="rewrite GOLDEN_ingest.json"
    )
    args = parser.parse_args(argv)

    from repro.eval.artifacts import ArtifactStore
    from repro.eval.options import EvalOptions
    from repro.eval.parallel import run_many
    from repro.eval.runner import (
        RunRequest,
        clear_build_cache,
        configure_artifacts,
        simulate,
    )
    from repro.ingest import WindowSpec, convert_lackey, trace_workload, write_portable

    failures: list[str] = []

    with tempfile.TemporaryDirectory(prefix="repro-ingest-smoke-") as td:
        tmp = Path(td)

        # 1. Convert the committed fixture to the portable format.
        portable = tmp / "lackey_mixed.ndjson.gz"
        n = write_portable(portable, convert_lackey(FIXTURE))
        print(f"converted fixture: {n} records")
        if n < 100_000:
            failures.append(f"fixture too small: {n} records < 100000")

        # 2. Window down to the measurement budget and mint the token.
        token = trace_workload(portable, WindowSpec(**WINDOW))
        reqs = [
            RunRequest.create(token, design, max_instructions=BUDGET)
            for design in DESIGNS
        ]

        # 3. Interpreted grid vs the committed golden.
        base = {d: headline(simulate(r)) for d, r in zip(DESIGNS, reqs)}
        print(json.dumps(base, indent=2))
        if args.update:
            GOLDEN.write_text(json.dumps(base, indent=2, sort_keys=True) + "\n")
            print(f"updated {GOLDEN}")
            return 0
        golden = json.loads(GOLDEN.read_text())
        for design in DESIGNS:
            if base[design] != golden.get(design):
                failures.append(
                    f"{design}: stats drifted from golden "
                    f"(got {base[design]}, want {golden.get(design)})"
                )

        # 4. Bit-identity across every execution path.
        full = {d: dataclasses.asdict(simulate(r).stats) for d, r in zip(DESIGNS, reqs)}

        store = ArtifactStore(tmp / "artifacts", fingerprint="ingest-smoke")
        previous = configure_artifacts(store)
        try:
            clear_build_cache()
            cold = {d: dataclasses.asdict(simulate(r).stats) for d, r in zip(DESIGNS, reqs)}
            clear_build_cache()
            warm = {d: dataclasses.asdict(simulate(r).stats) for d, r in zip(DESIGNS, reqs)}
        finally:
            configure_artifacts(previous)
            clear_build_cache()
        if store.stats.hits < 1:
            failures.append("artifact store never hit on the warm pass")
        for design in DESIGNS:
            if cold[design] != full[design] or warm[design] != full[design]:
                failures.append(f"cached/{design}: diverged from serial path")

        par = run_many(reqs, EvalOptions(jobs=2))
        for design, result in zip(DESIGNS, par):
            if dataclasses.asdict(result.stats) != full[design]:
                failures.append(f"jobs=2/{design}: diverged from serial path")
        print("bit-identity: cached, jobs=2 agree with serial")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("ingest smoke: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
