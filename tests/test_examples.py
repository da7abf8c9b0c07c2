"""Smoke tests: every shipped example must run end-to-end.

Budgets are shrunk via argv so the whole file stays fast; the goal is
catching API drift, not performance.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str, argv: list[str], monkeypatch, capsys) -> str:
    path = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "argv", [str(path), *argv])
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_quickstart(monkeypatch, capsys):
    out = _run_example("quickstart.py", ["espresso", "4000"], monkeypatch, capsys)
    assert "T4" in out and "f_shielded" in out


def test_custom_workload_asm(monkeypatch, capsys):
    out = _run_example("custom_workload_asm.py", [], monkeypatch, capsys)
    assert "functional result" in out
    assert "PB1" in out


def test_register_pressure(monkeypatch, capsys):
    out = _run_example("register_pressure.py", ["espresso"], monkeypatch, capsys)
    assert "refs/inst" in out


def test_locality_anatomy(monkeypatch, capsys):
    out = _run_example("locality_anatomy.py", ["espresso", "4000"], monkeypatch, capsys)
    assert "exact LRU miss curve" in out
    assert "same-page sharing" in out and "base-reg page reuse" in out
    assert "req/cycle" in out


@pytest.mark.slow
def test_design_space_sweep(monkeypatch, capsys):
    out = _run_example("design_space_sweep.py", ["2500"], monkeypatch, capsys)
    assert "I4/PB" in out


@pytest.mark.slow
def test_cost_performance(monkeypatch, capsys):
    out = _run_example("cost_performance.py", ["2500"], monkeypatch, capsys)
    assert "Pareto" in out
