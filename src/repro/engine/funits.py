"""Functional-unit pool scheduling.

Each unit class has a number of units, a result latency, and an issue
interval (how long an issue occupies a unit).  Fully-pipelined units have
interval 1; the divide units occupy their unit for the full operation
(interval == latency), matching Table 1's ``DIV-12/12``.
"""

from __future__ import annotations

from repro.engine.config import MachineConfig
from repro.isa.opcodes import OpClass

#: OpClass -> functional-unit class name.
_UNIT_OF_CLASS = {
    OpClass.IALU: "ialu",
    OpClass.BRANCH: "ialu",
    OpClass.JUMP: "ialu",
    OpClass.NOP: "ialu",
    OpClass.HALT: "ialu",
    OpClass.LOAD: "ldst",
    OpClass.STORE: "ldst",
    OpClass.FPADD: "fpadd",
    OpClass.IMULT: "imuldiv",
    OpClass.IDIV: "imuldiv",
    OpClass.FPMULT: "fpmuldiv",
    OpClass.FPDIV: "fpmuldiv",
}

#: "No busy unit pending" sentinel for :meth:`~FunctionalUnitPool.next_busy_release`.
_NEVER = 1 << 62


class FunctionalUnitPool:
    """Tracks per-unit busy times for the machine's issue loop."""

    __slots__ = ("_free_at", "_latency", "_interval", "_div_latency")

    def __init__(self, config: MachineConfig):
        self._free_at: dict[str, list[int]] = {
            name: [0] * spec.units for name, spec in config.fu_specs.items()
        }
        self._latency: dict[str, int] = {
            name: spec.latency for name, spec in config.fu_specs.items()
        }
        self._interval: dict[str, int] = {
            name: spec.interval for name, spec in config.fu_specs.items()
        }
        self._div_latency = {
            "idiv": config.int_div_latency,
            "fpdiv": config.fp_div_latency,
        }

    def next_busy_release(self, now: int) -> int:
        """Earliest cycle after ``now`` at which any busy unit frees up.

        The event-driven engine uses this as the next structural-hazard
        event; only the divide units (interval == latency) can actually
        stay busy past the issue cycle, so the scan is short.
        """
        best = _NEVER
        for free_at in self._free_at.values():
            for cycle in free_at:
                if now < cycle < best:
                    best = cycle
        return best

    def class_map(self) -> dict[OpClass, tuple[list[int], int, int]]:
        """Per-opclass ``(free_at, busy, latency)`` scheduling triples.

        The ``free_at`` lists are the pool's *live* internal state (not
        copies): a caller that finds ``free_at[i] <= now`` issues by
        writing ``free_at[i] = now + busy``; the result is ready at
        ``now + latency``.  Op classes that share a unit class share one
        list.  The machine caches one triple per window entry at
        dispatch so the issue loop's structural-hazard check is pure
        list traversal.
        """
        out: dict[OpClass, tuple[list[int], int, int]] = {}
        for op_class, name in _UNIT_OF_CLASS.items():
            if op_class is OpClass.IDIV:
                busy = latency = self._div_latency["idiv"]
            elif op_class is OpClass.FPDIV:
                busy = latency = self._div_latency["fpdiv"]
            else:
                busy, latency = self._interval[name], self._latency[name]
            out[op_class] = (self._free_at[name], busy, latency)
        return out
