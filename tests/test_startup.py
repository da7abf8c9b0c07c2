"""The start-up contract: computing the store key loads no simulator.

The stores key on the fingerprint of the package sources, and
computing it needs no simulator, so ``import repro.eval`` +
:func:`code_fingerprint` + ``ResultStore(root)`` must stay light.
The package facades re-export
their public names lazily; these tests pin both halves: what a light
process does *not* load, and that every public name still resolves.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.eval

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules (with their submodules) a light process must not import.
HEAVY = (
    "repro.eval.runner",
    "repro.engine",
    "repro.workloads",
    "repro.analysis",
    "repro.ingest",
    "multiprocessing",
    "concurrent.futures.process",
)


def _run(code: str, tmp_path: Path) -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON object."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(out.stdout)


LIGHT = """
import json, sys
import repro.eval
fp = repro.eval.code_fingerprint()
repro.eval.ResultStore("store")
print(json.dumps({"fingerprint": fp, "modules": sorted(sys.modules)}))
"""

HEAVY_FIRST = """
import json, sys
import repro.eval.runner, repro.engine.machine, repro.serve
import repro.eval
print(json.dumps({"fingerprint": repro.eval.code_fingerprint()}))
"""


def _is_heavy(name: str) -> bool:
    return any(name == h or name.startswith(h + ".") for h in HEAVY)


class TestLightStartup:
    def test_fingerprint_and_store_load_no_simulator(self, tmp_path):
        modules = _run(LIGHT, tmp_path)["modules"]
        assert [m for m in modules if _is_heavy(m)] == []
        assert [m for m in modules if m == "repro" or m.startswith("repro.")] == [
            "repro",
            "repro.eval",
            "repro.eval.resultstore",
        ]

    def test_fingerprint_independent_of_what_is_imported(self, tmp_path):
        light = _run(LIGHT, tmp_path)["fingerprint"]
        heavy = _run(HEAVY_FIRST, tmp_path)["fingerprint"]
        assert light == heavy


COST = """
import json, sys
from repro.tlb.costmodel import design_cost
cost = design_cost("I4/PB")
print(json.dumps({"area": cost.area, "modules": sorted(sys.modules)}))
"""


class TestCostModelStartup:
    def test_design_cost_loads_no_numpy(self, tmp_path):
        out = _run(COST, tmp_path)
        assert out["area"] == 134.2
        assert [m for m in out["modules"] if m == "numpy" or m.startswith("numpy.")] == []


class TestFacades:
    @pytest.mark.parametrize("module", [repro, repro.eval], ids=lambda m: m.__name__)
    def test_every_public_name_resolves(self, module):
        for name in module.__all__:
            assert getattr(module, name) is not None, name
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("module", ["repro", "repro.eval"])
    def test_star_import(self, module):
        namespace: dict = {}
        exec(f"from {module} import *", namespace)
        assert set(sys.modules[module].__all__) <= set(namespace)

    def test_reexports_are_the_defining_objects(self):
        from repro.eval.resultstore import ResultStore, code_fingerprint
        from repro.eval.runner import RunRequest, run_one
        from repro.serve.client import ServeClient

        assert repro.RunRequest is repro.eval.RunRequest is RunRequest
        assert repro.run_one is run_one
        assert repro.ResultStore is repro.eval.ResultStore is ResultStore
        assert repro.eval.code_fingerprint is code_fingerprint
        assert repro.eval.ServeClient is ServeClient

    @pytest.mark.parametrize("module", [repro, repro.eval], ids=lambda m: m.__name__)
    def test_unknown_name_raises_attribute_error(self, module):
        with pytest.raises(AttributeError, match=module.__name__.replace(".", r"\.")):
            module.no_such_name
