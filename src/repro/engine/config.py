"""Machine configuration (the paper's Table 1, as a dataclass)."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class FunctionalUnitSpec:
    """One functional-unit class: count, result latency, issue interval."""

    units: int
    latency: int
    interval: int = 1


def _default_fu_specs() -> dict[str, FunctionalUnitSpec]:
    """Table 1's functional units and latencies (total/issue)."""
    return {
        "ialu": FunctionalUnitSpec(units=8, latency=1, interval=1),
        "ldst": FunctionalUnitSpec(units=4, latency=2, interval=1),
        "fpadd": FunctionalUnitSpec(units=4, latency=2, interval=1),
        "imuldiv": FunctionalUnitSpec(units=1, latency=3, interval=1),
        "fpmuldiv": FunctionalUnitSpec(units=1, latency=4, interval=1),
    }


@dataclass
class MachineConfig:
    """Baseline simulation model (paper Table 1).

    The defaults reproduce the paper's configuration exactly; experiments
    override ``issue_model`` (Figure 7), ``page_size`` (Figure 8), or the
    workload's register budget (Figure 9) and the translation design.
    """

    #: ``"ooo"`` (out-of-order, baseline) or ``"inorder"`` (Figure 7).
    issue_model: str = "ooo"
    #: Instructions fetched/dispatched/issued/committed per cycle.
    fetch_width: int = 8
    issue_width: int = 8
    commit_width: int = 8
    #: Re-order buffer entries (out-of-order model).
    rob_entries: int = 64
    #: Load/store queue entries.
    lsq_entries: int = 32
    #: Branch predictions per cycle within one cache block (collapsing
    #: buffer variant of [CMMP95], as in the paper's methodology).
    predictions_per_cycle: int = 2
    #: Branch misprediction penalty in cycles.
    mispredict_penalty: int = 3
    #: Branch predictor: "gap" (paper baseline), "gshare", "bimodal",
    #: "tournament", or "taken" (always-taken strawman).
    predictor: str = "gap"
    #: Branch predictor geometry (GAp/gshare/PHT sizes).
    predictor_history_bits: int = 8
    predictor_pht_entries: int = 4096

    # Instruction cache: 32 KB, 2-way, 32-byte blocks, 6-cycle miss.
    icache_size: int = 32 * 1024
    icache_assoc: int = 2
    icache_block: int = 32
    icache_miss_latency: int = 6

    # Data cache: 32 KB, 2-way, 32-byte blocks, write-back,
    # write-allocate, 6-cycle miss, four-ported, non-blocking.
    dcache_size: int = 32 * 1024
    dcache_assoc: int = 2
    dcache_block: int = 32
    dcache_miss_latency: int = 6
    dcache_mshrs: int = 64

    # Virtual memory: 4 KB pages (8 KB for Figure 8); fixed 30-cycle TLB
    # miss latency charged after earlier-issued instructions complete.
    page_size: int = 4096
    tlb_miss_latency: int = 30

    # Instruction-side micro-TLB (paper §1: "a single-ported instruction
    # TLB or ... a small micro-TLB").  The paper scopes instruction
    # translation out of its study, so the default is off; enabling it
    # charges fetch stalls for I-side translation misses.
    model_itlb: bool = False
    itlb_entries: int = 32

    # Execute down mispredicted paths (as the paper's simulator does):
    # after a mispredicted branch dispatches, synthetic wrong-path
    # instructions consume fetch/dispatch/issue/translation bandwidth
    # until the branch resolves, then are squashed.  Wrong-path TLB
    # misses stall dispatch and are never serviced (paper §4.1).
    model_wrong_path: bool = True
    #: Fraction (percent) of wrong-path instructions that are loads/stores.
    wrong_path_load_pct: int = 25
    wrong_path_store_pct: int = 10

    # Multiprogramming stand-in: flush all cached translations every N
    # cycles (0 = never).  Models the TLB invalidation a context switch
    # forces — the workload trend the paper's introduction motivates.
    context_switch_interval: int = 0

    # Event-driven cycle skipping: when no phase can do work before the
    # next scheduled event (in-flight completion, MSHR fill, mechanism
    # queue readiness, fetch resume, context-switch flush), the cycle
    # loop jumps straight to that event instead of ticking.  Results are
    # bit-identical either way (see docs/performance.md); the knob
    # exists for A/B verification and the equivalence property test.
    event_driven: bool = True

    # Simulation sanitizer: attach a repro.check.invariants.SanityChecker
    # to the run, validating per-cycle engine invariants and replaying
    # every event-driven skip against the mechanism's quiescent_until
    # contract.  Purely observational — a passing run's results are
    # bit-identical with the flag off — but slow; meant for the
    # differential/fuzz harness (python -m repro.check) and tests, not
    # for figure grids.
    sanity: bool = False

    # Integer divide occupies its unit for its full latency.
    int_div_latency: int = 12
    fp_div_latency: int = 12

    fu_specs: dict[str, FunctionalUnitSpec] = field(default_factory=_default_fu_specs)

    #: Safety valve: abort runs that exceed this many cycles (0 = off).
    max_cycles: int = 0

    def __post_init__(self):
        if self.issue_model not in ("ooo", "inorder"):
            raise ValueError(f"unknown issue model: {self.issue_model!r}")
        if self.predictor not in ("gap", "gshare", "bimodal", "tournament", "taken"):
            raise ValueError(f"unknown predictor: {self.predictor!r}")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ValueError(f"page size must be a power of two: {self.page_size}")

    @property
    def page_shift(self) -> int:
        """log2 of the page size."""
        return self.page_size.bit_length() - 1
