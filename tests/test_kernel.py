"""Tests for the simulation kernel: the one cycle engine behind the runner.

:func:`repro.eval.runner.simulate` always runs the interpreted
:class:`repro.engine.machine.Machine`, fed from the build cache with a
shared prebuilt fetch plan.  These tests pin that path against the same
engine built directly on the trace with a live front end (no plan), so
every simulated number the runner reports is the interpreter's:

* the runner matches the interpreter, bit for bit, over a
  workload × design × issue-model spot matrix, under both the
  event-driven and the plain cycle loop;
* a ``sanity=True`` run, which attaches the checker hooks to the
  interpreter, reports the same statistics as an unchecked run.
"""

import dataclasses

import pytest

from repro.engine.machine import Machine
from repro.eval.runner import RunRequest, _CACHE, simulate

FAST = dict(max_instructions=1500)


def _stats(req: RunRequest) -> dict:
    return dataclasses.asdict(simulate(req).stats)


def _interpreted(req: RunRequest) -> dict:
    """Stats of ``req`` from a directly built Machine with a live front end."""
    trace = _CACHE.get_trace(
        req.workload, req.int_regs, req.fp_regs, req.scale, req.max_instructions
    )
    config = req.machine_config()
    machine = Machine(config, req.make_mech(config.page_shift), trace)
    return dataclasses.asdict(machine.run().stats)


class TestBitIdentity:
    @pytest.mark.parametrize("workload", ["compress", "xlisp"])
    @pytest.mark.parametrize("design", ["T4", "T1", "M8", "I4", "PB1"])
    @pytest.mark.parametrize("issue_model", ["ooo", "inorder"])
    def test_kernel_matches_interpreter(self, workload, design, issue_model):
        req = RunRequest.create(workload, design, issue_model=issue_model, **FAST)
        assert _stats(req) == _interpreted(req)

    def test_kernel_matches_under_plain_loop(self):
        plain = RunRequest.create("compress", "T1", event_driven=False, **FAST)
        event = RunRequest.create("compress", "T1", **FAST)
        assert _stats(plain) == _interpreted(plain) == _stats(event)


class TestRunnerIntegration:
    def test_sanity_falls_back_to_interpreter(self):
        # The sanity hooks live in the interpreted machine; attaching them
        # must not change any simulated statistic.
        plain = RunRequest.create("compress", "T4", **FAST)
        checked = RunRequest.create("compress", "T4", sanity=True, **FAST)
        assert _stats(checked) == _stats(plain)
