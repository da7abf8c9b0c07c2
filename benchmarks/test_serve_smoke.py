"""Evaluation-service smoke: daemon up, grid served, clean shutdown.

Boots a real ``python -m repro.serve`` daemon on a temporary store,
submits a small grid through the public client API (``run_many`` with a
server address), checks the streamed results are bit-identical to the
local engine, checks that a second daemon on the same store is refused
at startup, drives the ``python -m repro.eval --server`` CLI path for a
figure and for a screen (which needs numpy), and shuts the daemon down
cleanly.

Run directly (the CI ``serve-smoke`` job)::

    PYTHONPATH=src python benchmarks/test_serve_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

INSTS = 3_000
DESIGNS = ("T4", "T1")


def _daemon_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def main() -> int:
    from repro.eval import EvalOptions, RunRequest, run_many, run_one
    from repro.serve.client import server_info, shutdown_server

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as td:
        address = f"unix:{td}/serve.sock"
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--listen", address,
                "--store", f"{td}/store",
                "--artifacts", f"{td}/artifacts",
                "--jobs", "2",
            ],
            env=_daemon_env(),
        )
        try:
            grid = [
                RunRequest(workload="espresso", design=d, max_instructions=INSTS)
                for d in DESIGNS
            ]
            lines: list[str] = []
            served = run_many(
                grid, EvalOptions(server=address, progress=lines.append)
            )
            assert len(lines) == len(grid), f"progress lines: {lines}"
            for req, res in zip(grid, served):
                local = run_one(req)
                assert res.stats == local.stats, f"served != local for {req.name}"
            print(f"served {len(grid)} requests, bit-identical to run_one")

            # Rerun: everything must now be a store hit, nothing resimulated.
            run_many(grid, EvalOptions(server=address))
            stats = server_info(address)["scheduler"]
            assert stats["simulated"] == len(grid), stats
            assert stats["store_hits"] >= len(grid), stats
            print(f"warm rerun: {stats['store_hits']} store hits, "
                  f"{stats['simulated']} total simulations")

            # One daemon per store: a second one on the same store
            # (another socket) must exit non-zero, naming the store.
            second = subprocess.run(
                [
                    sys.executable, "-m", "repro.serve",
                    "--listen", f"unix:{td}/second.sock",
                    "--store", f"{td}/store",
                    "--artifacts", f"{td}/artifacts",
                ],
                env=_daemon_env(),
                capture_output=True,
                text=True,
                timeout=30,
            )
            assert second.returncode != 0, second.stderr
            assert "is already served by another daemon" in second.stderr, second.stderr
            assert f"{td}/store" in second.stderr, second.stderr
            print("second daemon on the same store refused")

            # The CLI client path: a tiny figure-5 slice over the daemon.
            cli = subprocess.run(
                [
                    sys.executable, "-m", "repro.eval", "figure5",
                    "--server", address,
                    "--designs", ",".join(DESIGNS),
                    "--workloads", "espresso",
                    "--insts", str(INSTS),
                    "--quiet",
                ],
                env=_daemon_env(),
                capture_output=True,
                text=True,
                timeout=300,
            )
            assert cli.returncode == 0, cli.stderr
            assert "T4" in cli.stdout, cli.stdout
            print("CLI --server path ok")

            # A screen over the daemon: its anchor and frontier batches
            # are served, the model runs here.  Every rendered line but
            # the first (model timings) equals a local screen's.
            screen_args = [
                sys.executable, "-m", "repro.eval", "--screen",
                "--workloads", "espresso",
                "--insts", "2000",
                "--simulate", "1",
                "--quiet",
            ]
            served_screen, local_screen = [
                subprocess.run(
                    screen_args + extra,
                    env=_daemon_env(),
                    capture_output=True,
                    text=True,
                    timeout=600,
                )
                for extra in (["--server", address], ["--store", f"{td}/local-store"])
            ]
            for run in (served_screen, local_screen):
                assert run.returncode == 0, run.stderr
            served_lines = served_screen.stdout.splitlines()
            assert len(served_lines) > 2, served_screen.stdout
            assert served_lines[1:] == local_screen.stdout.splitlines()[1:], (
                served_screen.stdout, local_screen.stdout,
            )
            print("CLI --screen --server path ok, frontier identical to local")

            shutdown_server(address)
            code = daemon.wait(timeout=30)
            assert code == 0, f"daemon exited {code}"
            print("clean shutdown ok")
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
    return 0


def test_serve_smoke():
    assert main() == 0


if __name__ == "__main__":
    raise SystemExit(main())
