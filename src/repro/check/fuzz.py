"""Seeded config fuzzer driving the sanitizer across random design points.

Each iteration draws a random valid :class:`~repro.eval.runner.RunRequest`
— workload, machine-config overrides, and (sometimes) a randomized
declarative mechanism spec — then runs it twice:

1. under the invariant checker (``MachineConfig.sanity``), which
   validates per-cycle engine invariants and replays every skipped
   mechanism tick against the ``quiescent_until`` contract;
2. through the differential harness (:func:`repro.check.diff.
   run_differential`), comparing event-driven vs. plain loops, cached
   vs. uncached artifacts, and timing vs. functional state.

Designs round-robin over the requested mnemonics (all 13 Table 2
designs by default, so 20 iterations touch every one) and the issue
model alternates out-of-order/in-order, flipping its phase on each pass
over the pool, so every design meets both models within two passes
(an odd-sized pool just keeps alternating).  Everything is derived from
``random.Random(seed)``: the same seed always fuzzes the same points.

Exposed as ``python -m repro.check`` (see :mod:`repro.check.__main__`),
the sanitizer's one command line; CI's ``check-smoke`` job runs it at a
fixed seed and budget, and ``ingest-smoke`` over an ingested trace.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.check.diff import Mismatch, request_with_config, run_differential
from repro.check.invariants import SanityError
from repro.eval.runner import RunRequest, simulate
from repro.tlb.factory import DESIGN_MNEMONICS, design_spec
from repro.workloads import iter_workload_names

#: Default per-iteration dynamic instruction budget.  Small enough that
#: one iteration (five timing runs plus two functional replays) stays
#: in the low seconds; large enough that every design sees base-TLB
#: misses, port conflicts, and MSHR pressure.
DEFAULT_INSTRUCTIONS = 2000


def _random_mechanism_spec(rng: random.Random, design: str):
    """A randomized declarative spec of ``design``'s mechanism class.

    Keeps the fuzzed point in the class the design's factory spec names,
    so ``--design`` still governs which mechanism code is exercised; a
    design of any other class (``PERFECT``, the extensions) is not
    perturbed.
    """
    name = design_spec(design)[0]
    if name == "MultiPortedTLB":
        return (
            "MultiPortedTLB",
            {
                "ports": rng.randint(1, 4),
                "entries": rng.choice((64, 128)),
                "replacement": rng.choice(("random", "lru")),
            },
        )
    if name == "InterleavedTLB":
        banks = rng.choice((2, 4, 8))
        return (
            "InterleavedTLB",
            {
                "banks": banks,
                "entries": 128,  # must divide evenly into the banks
                "select": rng.choice(("bit", "xor")),
                "piggyback_per_bank": rng.randint(0, 3),
            },
        )
    if name == "MultiLevelTLB":
        return (
            "MultiLevelTLB",
            {
                "l1_entries": rng.choice((4, 8, 16)),
                "l1_ports": rng.choice((2, 4)),
                "l2_ports": rng.choice((1, 2)),
            },
        )
    if name == "PiggybackTLB":
        return (
            "PiggybackTLB",
            {
                "ports": rng.choice((1, 2)),
                "piggyback_ports": rng.randint(0, 3),
            },
        )
    if name == "PretranslationMechanism":
        return (
            "PretranslationMechanism",
            {
                "cache_entries": rng.choice((4, 8, 16)),
                "offset_tag_bits": rng.choice((0, 2, 4)),
            },
        )
    return None


def random_request(
    rng: random.Random,
    design: str,
    workloads: "list[str] | None" = None,
    insts: int = DEFAULT_INSTRUCTIONS,
    issue_model: str | None = None,
) -> RunRequest:
    """Draw one random valid request for ``design``."""
    if workloads is None:
        workloads = list(iter_workload_names())
    options: dict = {
        "issue_model": issue_model or rng.choice(("ooo", "inorder")),
        "max_instructions": insts,
        # 0 twice: context switches stay the exception, as in the grids.
        "context_switch_interval": rng.choice((0, 0, 700, 2100)),
    }
    if rng.random() < 0.5:
        width = rng.choice((2, 4, 8))
        options.update(fetch_width=width, issue_width=width, commit_width=width)
    if rng.random() < 0.4:
        options["rob_entries"] = rng.choice((16, 32, 64))
    if rng.random() < 0.4:
        options["lsq_entries"] = rng.choice((8, 16, 32))
    if rng.random() < 0.3:
        options["page_size"] = 8192
    if rng.random() < 0.25:
        options["model_itlb"] = True
    if rng.random() < 0.25:
        options["model_wrong_path"] = False
    if rng.random() < 0.3:
        options["dcache_mshrs"] = rng.choice((4, 8, 64))
    if rng.random() < 0.3:
        options["predictor"] = rng.choice(("gap", "gshare", "bimodal", "taken"))
    mechanism = None
    if rng.random() < 0.4:
        mechanism = _random_mechanism_spec(rng, design)
    return RunRequest.create(
        rng.choice(workloads), design, mechanism=mechanism, **options
    )


@dataclass
class FuzzRecord:
    """One fuzzed design point and what the sanitizer found there."""

    request: RunRequest
    sanity_error: str | None = None
    mismatches: list[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.sanity_error is None and not self.mismatches

    def render(self) -> str:
        lines = []
        if self.sanity_error is not None:
            lines.append(f"  invariant violation: {self.sanity_error}")
        lines.extend("  " + m.render() for m in self.mismatches)
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Aggregate outcome of one fuzzing campaign."""

    seed: int
    records: list[FuzzRecord] = field(default_factory=list)

    @property
    def violations(self) -> int:
        return sum(1 for r in self.records if r.sanity_error is not None)

    @property
    def mismatched(self) -> int:
        return sum(1 for r in self.records if r.mismatches)

    @property
    def ok(self) -> bool:
        return self.violations == 0 and self.mismatched == 0

    def render(self) -> str:
        return (
            f"fuzz(seed={self.seed}): {len(self.records)} iterations, "
            f"{self.violations} invariant violations, "
            f"{self.mismatched} differential mismatches"
        )


def run_fuzz(
    seed: int = 0,
    iterations: int = 20,
    designs: "list[str] | None" = None,
    workloads: "list[str] | None" = None,
    insts: int = DEFAULT_INSTRUCTIONS,
    progress=None,
) -> FuzzReport:
    """Fuzz ``iterations`` random points; returns the aggregate report.

    ``progress`` is an optional callable ``(index, total, record)``
    invoked after each iteration (the CLI's live output).
    """
    rng = random.Random(seed)
    pool = list(designs) if designs else list(DESIGN_MNEMONICS)
    report = FuzzReport(seed=seed)
    for i in range(iterations):
        design = pool[i % len(pool)]
        # Flip the alternation on each pass over the pool, so with an
        # even pool every design also gets both issue models.
        issue_model = ("ooo", "inorder")[(i % len(pool) + i // len(pool)) % 2]
        req = random_request(
            rng, design, workloads=workloads, insts=insts, issue_model=issue_model
        )
        record = FuzzRecord(request=req)
        try:
            simulate(request_with_config(req, sanity=True))
        except SanityError as exc:
            record.sanity_error = str(exc)
        record.mismatches = run_differential(req).mismatches
        report.records.append(record)
        if progress is not None:
            progress(i, iterations, record)
    return report
