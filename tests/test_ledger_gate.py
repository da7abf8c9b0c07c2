"""Tests for the CI gate over benchmark-ledger results (benchmarks/ledger_gate.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # the gate sizes the ledger's screen space

_spec = importlib.util.spec_from_file_location(
    "ledger_gate", Path(__file__).resolve().parent.parent / "benchmarks" / "ledger_gate.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _line(traced=True, correct=True, failed=0, **changes) -> dict:
    """A result line; a traced one sits at the gate's references."""
    values = {"setup_s": 0.1, "wall_s": 3.0}
    if traced:
        values = {"trace.wall_s": 9.0, "replay.wall_s": 0.25, **gate.REFERENCES}
    values.update(changes)
    metrics = {name: {"value": v, "unit": "x"} for name, v in values.items() if v is not None}
    return {"correct": correct, "attempted": 40, "failed": failed, "metrics": metrics}


def _run(tmp_path, capsys, *lines) -> "tuple[int, list[str]]":
    paths = [tmp_path / f"ledger-{i}.json" for i in range(len(lines))]
    for path, line in zip(paths, lines):
        path.write_text(line if isinstance(line, str) else json.dumps(line) + "\n")
    code = gate.main([str(path) for path in paths])
    return code, [out for out in capsys.readouterr().out.splitlines() if out.startswith("FAIL")]


def test_passing_lines(tmp_path, capsys):
    # The best traced run counts: the other may fall below every floor.
    slow = _line(**{name: 0.01 * ref for name, ref in gate.REFERENCES.items()})
    lines = [_line(traced=False), slow, _line(traced=False), _line()]
    assert _run(tmp_path, capsys, *lines) == (0, [])


@pytest.mark.parametrize("metric", gate.REFERENCES)
def test_relative_floor_violated_alone(tmp_path, capsys, metric):
    slow = _line(**{metric: 0.69 * gate.REFERENCES[metric]})
    code, failures = _run(tmp_path, capsys, slow, slow)
    assert code == 1 and len(failures) == 1 and failures[0].startswith(f"FAIL {metric} =")


@pytest.mark.parametrize(
    "changes,floor",
    [
        (
            {"atmodel.kdesigns_per_s": 9.0, "replay.wall_s": 1.0},
            "FAIL atmodel.kdesigns_per_s = 9, floor 10 ",
        ),
        ({"replay.wall_s": 0.001}, "FAIL model_over_simulator ="),  # 6 designs in 1 ms
        ({}, "FAIL screen_designs = 99,999, floor 100,000 "),
    ],
)
def test_absolute_floor_violated_alone(tmp_path, capsys, monkeypatch, changes, floor):
    line = _line(**changes)
    monkeypatch.setitem(gate.REFERENCES, "atmodel.kdesigns_per_s", 1.0)  # only the absolute floor
    if not changes:
        monkeypatch.setattr(gate, "_ledger_sizes", lambda: (6, 99_999))
    code, failures = _run(tmp_path, capsys, line, line)
    assert code == 1 and len(failures) == 1 and failures[0].startswith(floor)


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 1}, {"correct": "true"}])
def test_incorrect_result_fails(tmp_path, capsys, bad):
    code, failures = _run(tmp_path, capsys, _line(traced=False, **bad), _line(), _line())
    assert code == 1 and len(failures) == 1 and "ledger-0.json" in failures[0]


@pytest.mark.parametrize("metric", gate.GATED)
def test_missing_gated_metric_fails(tmp_path, capsys, metric):
    code, failures = _run(tmp_path, capsys, _line(), _line(**{metric: None}))
    assert code == 1 and failures and all("= missing" in line for line in failures)


@pytest.mark.parametrize("inputs", [[], ["untraced"], ["", "untraced"], ["{not json"]])
def test_no_traced_result_fails(tmp_path, capsys, inputs):
    lines = [_line(traced=False) if item == "untraced" else item for item in inputs]
    code, failures = _run(tmp_path, capsys, *lines)
    assert code == 1 and failures[-1] == "FAIL no --trace 1 result to gate speed on"
