"""Parallel-scheduling scaling benchmark -> BENCH_parallel.json.

Times the issue's target shape — ONE workload replayed under all
thirteen Table 2 designs — serial/inline versus ``run_many(grid, EvalOptions(jobs=N))``
with a cold and a warm shared artifact cache
(:mod:`repro.eval.artifacts`).  Before request-level scheduling this
grid collapsed to a single workload group and ``jobs`` was ignored;
the committed ``benchmarks/BENCH_parallel.json`` records the measured
speedups (and the host's CPU count — speedup is bounded by it), and CI
re-measures at ``jobs=2`` and fails if the speedup ratio regresses more
than 30% against the committed reference.

Every mode must be bit-identical to the serial baseline; the benchmark
asserts this on full result dicts before reporting any timing.

Standalone::

    PYTHONPATH=src python benchmarks/test_parallel_scaling.py          # print
    PYTHONPATH=src python benchmarks/test_parallel_scaling.py --write  # refresh JSON
    PYTHONPATH=src python benchmarks/test_parallel_scaling.py --check  # CI gate

Under pytest (sanity + timing via pytest-benchmark)::

    PYTHONPATH=src pytest benchmarks/test_parallel_scaling.py --benchmark-only

``--check`` honors ``REPRO_BENCH_INSTS`` (smaller budgets for smoke
runs) but always compares speedup *ratios* against the committed file,
and ``--threshold`` overrides the default 0.30 allowed regression.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH_FILE = Path(__file__).resolve().parent / "BENCH_parallel.json"
SCHEMA = 1

#: The issue's target shape: one workload, every Table 2 design.
WORKLOAD = "compress"


def _grid(max_instructions: int):
    from repro.eval.runner import RunRequest
    from repro.tlb import DESIGN_MNEMONICS

    return [
        RunRequest.create(WORKLOAD, d, max_instructions=max_instructions)
        for d in DESIGN_MNEMONICS
    ]


def measure(max_instructions: int = 20_000, jobs_list: tuple = (2, 4)) -> dict:
    """Time serial vs parallel over a one-workload 13-design grid."""
    from repro.eval.artifacts import ArtifactStore
    from repro.eval.options import EvalOptions
    from repro.eval.parallel import _schedule_chunks, run_many
    from repro.eval.runner import clear_build_cache

    grid = _grid(max_instructions)

    clear_build_cache()
    start = perf_counter()
    serial = run_many(grid, EvalOptions(jobs=1))
    serial_wall = perf_counter() - start
    reference = [r.to_dict() for r in serial]

    scaling = []
    for jobs in jobs_list:
        chunks = _schedule_chunks(grid, jobs)
        assert len(chunks) > 1, "single-workload grid must split into chunks"
        with tempfile.TemporaryDirectory(prefix="repro-bench-art-") as root:
            clear_build_cache()
            start = perf_counter()
            cold = run_many(grid, EvalOptions(jobs=jobs, artifacts=ArtifactStore(root)))
            cold_wall = perf_counter() - start
            assert [r.to_dict() for r in cold] == reference, "parallel != serial"

            clear_build_cache()
            start = perf_counter()
            warm = run_many(grid, EvalOptions(jobs=jobs, artifacts=ArtifactStore(root)))
            warm_wall = perf_counter() - start
            assert [r.to_dict() for r in warm] == reference, "warm != serial"
        scaling.append(
            {
                "jobs": jobs,
                "chunks": len(chunks),
                "cold_wall_s": round(cold_wall, 4),
                "warm_wall_s": round(warm_wall, 4),
                "cold_speedup": round(serial_wall / cold_wall, 3),
                "warm_speedup": round(serial_wall / warm_wall, 3),
            }
        )
    return {
        "schema": SCHEMA,
        "settings": {
            "workload": WORKLOAD,
            "designs": len(grid),
            "max_instructions": max_instructions,
            "host_cpus": os.cpu_count(),
            "measurement": (
                "wall-clock of run_many over one-workload x 13-design grid;"
                " cold = empty artifact dir, warm = second run on same dir"
            ),
        },
        "serial": {"wall_s": round(serial_wall, 4)},
        "scaling": scaling,
        "bit_identical": True,
    }


def _render(payload: dict) -> str:
    lines = [
        "parallel scheduling over a shared artifact cache"
        f" ({payload['settings']['workload']} x"
        f" {payload['settings']['designs']} designs,"
        f" {payload['settings']['host_cpus']} host cpus)",
        f"  serial        {payload['serial']['wall_s']:>7.3f} s",
    ]
    for entry in payload["scaling"]:
        lines.append(
            f"  jobs={entry['jobs']} cold  {entry['cold_wall_s']:>7.3f} s"
            f"  ({entry['cold_speedup']:.2f}x, {entry['chunks']} chunks)"
        )
        lines.append(
            f"  jobs={entry['jobs']} warm  {entry['warm_wall_s']:>7.3f} s"
            f"  ({entry['warm_speedup']:.2f}x)"
        )
    lines.append("  all modes bit-identical to serial")
    return "\n".join(lines)


def _entry(payload: dict, jobs: int) -> dict:
    for entry in payload["scaling"]:
        if entry["jobs"] == jobs:
            return entry
    raise SystemExit(f"no jobs={jobs} entry in payload")


def check(payload: dict, threshold: float, jobs: int = 2) -> int:
    """Compare the fresh jobs=N speedup ratio against the committed one."""
    committed = json.loads(BENCH_FILE.read_text())
    ref = _entry(committed, jobs)["cold_speedup"]
    fresh = _entry(payload, jobs)["cold_speedup"]
    floor = (1.0 - threshold) * ref
    verdict = "OK" if fresh >= floor else "REGRESSION"
    print(
        f"jobs={jobs} cold speedup: {fresh:.2f}x vs committed {ref:.2f}x"
        f" (floor {floor:.2f}x, threshold {threshold:.0%}) -> {verdict}"
    )
    return 0 if fresh >= floor else 1


# -- pytest entry points ------------------------------------------------------


def test_parallel_scaling(benchmark):
    from conftest import archive, bench_insts

    payload = benchmark.pedantic(
        measure,
        kwargs={"max_instructions": bench_insts(8_000), "jobs_list": (2,)},
        rounds=1,
        iterations=1,
    )
    archive("parallel_scaling", _render(payload))
    assert payload["bit_identical"]
    assert all(entry["chunks"] > 1 for entry in payload["scaling"])


# -- CLI ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help=f"refresh {BENCH_FILE.name}"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit 1 if the jobs=2 speedup regressed vs {BENCH_FILE.name}",
    )
    parser.add_argument("--insts", type=int, default=None, help="instruction budget")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.30,
        help="allowed fractional regression for --check (default 0.30)",
    )
    args = parser.parse_args(argv)

    insts = args.insts or int(os.environ.get("REPRO_BENCH_INSTS", 20_000))
    jobs_list = (2,) if args.check else (2, 4)
    payload = measure(max_instructions=insts, jobs_list=jobs_list)
    print(_render(payload))
    if args.check:
        return check(payload, args.threshold)
    if args.write:
        BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main())
