"""Tests for both command-line interfaces."""

import argparse
from pathlib import Path

import pytest

import repro.eval.__main__ as eval_cli
import repro.eval.parallel
import repro.eval.runner
from repro.__main__ import main as repro_main
from repro.check.__main__ import main as check_main
from repro.check.diff import main as diff_main
from repro.eval.__main__ import main as eval_main
from repro.eval.missrates import run_figure6
from repro.eval.report import render_figure6
from repro.eval.sensitivity import ALL_SWEEPS
from repro.eval.options import workload_name
from repro.ingest import TraceRecord, parse_workload, trace_workload, write_portable
from repro.ingest.__main__ import main as ingest_main
from repro.serve.__main__ import main as serve_main

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"


class TestReproCli:
    def test_list(self, capsys):
        assert repro_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "xlisp" in out and "T4" in out and "BAC32" in out

    def test_run(self, capsys):
        assert repro_main(["run", "espresso", "M8", "--insts", "3000"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "f_shielded" in out

    def test_run_inorder_and_pages(self, capsys):
        assert (
            repro_main(
                ["run", "espresso", "T1", "--insts", "3000", "--inorder", "--pages", "8192"]
            )
            == 0
        )
        assert "cycles" in capsys.readouterr().out

    def test_profile(self, capsys):
        assert repro_main(["profile", "espresso", "--insts", "3000"]) == 0
        assert "distinct pages" in capsys.readouterr().out

    def test_profile_prints_miss_curve(self, capsys):
        assert repro_main(["profile", "espresso", "--insts", "3000"]) == 0
        out = capsys.readouterr().out
        assert "exact LRU miss curve" in out and "128 entries" in out

    def test_profile_labels_a_trace_token_by_stem_and_digest(self, capsys, tmp_path):
        path = tmp_path / "lk.ndjson"
        write_portable(
            path,
            [TraceRecord("load", 0x1000 + 4 * i, 0x0040_0000 + 64 * i, 4) for i in range(200)],
        )
        token = trace_workload(path)
        assert repro_main(["profile", token, "--insts", "100"]) == 0
        heading = capsys.readouterr().out.splitlines()[0]
        assert f"— {parse_workload(token).display} (" in heading
        assert "lk@" in heading and "trace:" not in heading

    def test_demand(self, capsys):
        assert repro_main(["demand", "espresso", "T4", "--insts", "3000"]) == 0
        assert "req/cycle" in capsys.readouterr().out

    def test_disasm(self, capsys):
        assert repro_main(["disasm", "perl", "--max-lines", "20"]) == 0
        out = capsys.readouterr().out
        assert "lw" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            repro_main(["frobnicate"])


class TestEvalCli:
    def test_table3(self, capsys):
        assert eval_main(["table3", "--insts", "3000", "--workloads", "espresso"]) == 0
        assert "espresso" in capsys.readouterr().out

    def test_figure_subset(self, capsys):
        code = eval_main(
            [
                "figure5",
                "--insts",
                "3000",
                "--designs",
                "T1",
                "--workloads",
                "espresso",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "T4" in out and "T1" in out

    def test_figure6(self, capsys):
        # No --insts: figure6 runs at its results/ budget (60,000); keep
        # workloads few.
        assert eval_main(["figure6", "--workloads", "espresso,doduc"]) == 0
        assert "RTW Avg" in capsys.readouterr().out

    def test_figure6_honours_insts(self, capsys):
        assert eval_main(["figure6", "--insts", "5000", "--workloads", "espresso"]) == 0
        expected = render_figure6(run_figure6(["espresso"], max_instructions=5000))
        assert capsys.readouterr().out == expected + "\n"

    def test_results_table_covers_every_committed_file(self):
        committed = {path.stem for path in RESULTS_DIR.glob("*.txt")}
        assert set(eval_cli.RESULTS) == committed
        assert {f"ablation_{name}" for name in ALL_SWEEPS} <= set(eval_cli.RESULTS)

    def test_all_writes_each_table_entry(self, capsys, monkeypatch, tmp_path):
        tiny = {"table3": 500, "figure6": 500}
        monkeypatch.setattr(eval_cli, "RESULTS", tiny)
        monkeypatch.chdir(tmp_path)
        assert eval_main(["all", "--no-cache", "--quiet"]) == 0
        written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
        assert written == [Path("results/figure6.txt"), Path("results/table3.txt")]
        capsys.readouterr()
        for stem in tiny:
            assert eval_main([stem, "--insts", "500", "--no-cache", "--quiet"]) == 0
            assert (tmp_path / "results" / f"{stem}.txt").read_text() == capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", ["--insts 5", "--workloads espresso", "--designs T1", "--trace x.ndjson"]
    )
    def test_all_rejects_budget_and_grid_flags(self, flag, monkeypatch):
        def refuse(*args, **kwargs):
            pytest.fail("a rejected command line simulated")

        monkeypatch.setattr(eval_cli, "_write_all", refuse)
        with pytest.raises(SystemExit) as exc:
            eval_main(["all", *flag.split()])
        assert exc.value.code == 2

    def test_parallel_jobs_identical_output(self, capsys, tmp_path):
        argv = [
            "figure5",
            "--insts",
            "2000",
            "--designs",
            "T1",
            "--workloads",
            "espresso,xlisp",
            "--quiet",
            "--store",
            str(tmp_path),
        ]
        assert eval_main(argv + ["--jobs", "1", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert eval_main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_second_invocation_hits_store(self, capsys, tmp_path):
        argv = [
            "table3",
            "--insts",
            "2000",
            "--workloads",
            "espresso",
            "--store",
            str(tmp_path),
            "--quiet",
        ]
        assert eval_main(argv) == 0
        first = capsys.readouterr()
        assert "1 misses, 1 stored" in first.err
        assert eval_main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "1 hits, 0 misses, 0 stored" in second.err

    def test_no_cache_skips_store(self, capsys, tmp_path):
        argv = [
            "table3",
            "--insts",
            "2000",
            "--workloads",
            "espresso",
            "--store",
            str(tmp_path),
            "--quiet",
            "--no-cache",
        ]
        assert eval_main(argv) == 0
        assert "result store" not in capsys.readouterr().err
        assert not any(tmp_path.glob("??/*.json"))


@pytest.mark.parametrize(
    "cli,argv",
    [
        ("eval", "table3 --insts 0"),
        ("eval", "table3 --insts many"),
        ("eval", "table3 --jobs -2"),
        ("eval", "figure5 --designs T4,BOGUS"),
        ("eval", "table3 --workloads nosuch"),
        ("repro", "run compress T4 --insts -5"),
        ("repro", "run compress BOGUS"),
        ("repro", "run nosuch T4"),
        ("repro", "demand compress BOGUS"),
        ("repro", "profile compress --insts 0"),
        ("repro", "run compress T4 --pages 3000"),
        ("repro", "run compress T4 --regs 1"),
        ("repro", "verify compress --regs 0"),
        ("repro", "disasm compress --max-lines -5"),
        ("serve", "--jobs -2"),
        ("repro", "run T4 --trace lk.ndjson --trace-stride 0"),
        ("repro", "run T4 --trace lk.ndjson --trace-warmup -5"),
        ("repro", "run T4 --trace lk.ndjson --trace-window -3"),
        ("repro", "run T4 --trace lk.ndjson --trace-windows -1"),
        ("repro", "run T4 --trace lk.ndjson --trace-seed -1"),
        ("check", "--insts 0"),
        ("check", "--iterations -1"),
        ("check.diff", "--insts 0"),
        ("ingest", "compile lk.ndjson --max-instructions -4"),
        ("ingest", "compile lk.ndjson --int-regs 0"),
        ("ingest", "inspect lk.ndjson --trace-stride 0"),
        ("eval", "--screen --simulate -1"),
    ],
)
def test_bad_arguments_rejected_at_parse_time(cli, argv, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("a rejected command line simulated")

    monkeypatch.setattr(repro.eval.parallel, "run_many", refuse)
    monkeypatch.setattr(repro.eval.runner, "simulate", refuse)
    with pytest.raises(SystemExit) as exc:
        CLIS[cli](argv.split())
    assert exc.value.code == 2 and "error: argument " in capsys.readouterr().err


#: Every command-line entry point, by the module ``python -m`` runs.
CLIS = {
    "repro": repro_main,
    "eval": eval_main,
    "check": check_main,
    "check.diff": diff_main,
    "ingest": ingest_main,
    "serve": serve_main,
}

#: Flags that take every integer.
UNBOUNDED_INTS = {"--seed"}


class _Built(Exception):
    """Carries a CLI's finished parser out of its ``main``."""

    def __init__(self, parser):
        self.parser = parser


def _parser_of(main, monkeypatch) -> argparse.ArgumentParser:
    def built(self, args=None, namespace=None):
        raise _Built(self)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", built)
    with pytest.raises(_Built) as caught:
        main([])
    return caught.value.parser


def _actions(parser: argparse.ArgumentParser):
    """``(prog, action)`` for every action of ``parser`` and its subcommands."""
    for action in parser._actions:
        yield parser.prog, action
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _actions(sub)


def test_no_integer_argument_is_unbounded(monkeypatch):
    """Every integer argument has a bounded type from ``repro.eval.options``."""
    bare, typed = [], 0
    for main in CLIS.values():
        for prog, action in _actions(_parser_of(main, monkeypatch)):
            if action.type is int and not UNBOUNDED_INTS & set(action.option_strings):
                bare.append(f"{prog} {'/'.join(action.option_strings) or action.dest}")
            typed += getattr(action.type, "__name__", "") == "int"
    assert not bare, f"integer arguments without a range: {bare}"
    assert typed > 20  # the walk reached the subcommands' flags


def test_trace_token_accepted_as_workload():
    assert workload_name("trace:0123456789ab:x.rptx?w=0") == "trace:0123456789ab:x.rptx?w=0"
