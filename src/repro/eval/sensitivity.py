"""The one grid driver, and the ablation sweeps built on it.

:func:`run_variants` is the one way a grid of timing runs is evaluated:
labelled variants x workloads go through
:func:`~repro.eval.parallel.run_many`, and each label's run-time-weighted
(RTW) average IPC is normalized to the first label's.  The figures and
Table 3 (:mod:`repro.eval.experiments`) are presets of it, and so is
every sweep below.

Each sweep isolates one knob of a translation mechanism (or the machine)
among the design choices DESIGN.md calls out, and reports RTW relative
IPC against the same baseline protocol the figures use.  These go beyond
the paper's presented data but answer questions its design sections
raise:

* how much does LRU in the L1 TLB buy over random replacement (§3.3)?
* how many piggyback ports does a single-ported TLB need (§3.4)?
* does XOR-folding ever beat bit selection (§3.2)?
* how much do the pretranslation tag's offset bits matter (§3.5)?
* how sensitive are the conclusions to the 30-cycle miss latency?
* what does pretranslation add over the BAC/THB designs it extends?
* what would instruction-side translation have cost (§1's scoping)?

A sweep is a list of labelled variants, each a design mnemonic or a
declarative ``(class name, kwargs)`` mechanism spec, so every point is
an ordinary :class:`~repro.eval.runner.RunRequest`: content-addressed,
cached in the result store and parallel under ``options``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, Union

from repro.eval.options import EvalOptions
from repro.eval.parallel import run_many
from repro.eval.runner import RunRequest, RunResult
from repro.eval.weighting import rtw_average
from repro.workloads import iter_workload_names

#: A variant pairs a label with a mechanism description: a factory
#: mnemonic ("M8") or a declarative (class name, kwargs) spec.  Both
#: become RunRequests, so every sweep parallelizes and memoizes through
#: run_many.
MechDescription = Union[str, tuple[str, dict]]
Variant = tuple[str, MechDescription]


@dataclass
class GridResult:
    """One evaluated grid: labelled variants x workloads."""

    title: str
    workloads: tuple[str, ...]
    #: label -> RTW-average IPC relative to the grid's first label.
    relative: dict[str, float]
    #: label -> {workload -> RunResult}
    results: dict[str, dict[str, RunResult]]

    def per_workload_relative(self, label: str) -> dict[str, float]:
        """Per-workload IPC of ``label`` relative to the first label's."""
        reference = self.results[next(iter(self.results))]
        out = {}
        for w in self.workloads:
            ref = reference[w].ipc
            out[w] = self.results[label][w].ipc / ref if ref else 0.0
        return out

    def render(self) -> str:
        lines = [self.title, ""]
        for label, rel in self.relative.items():
            bar = "#" * max(1, round(rel * 44))
            lines.append(f"  {label:24s} {rel:6.3f}  {bar}")
        return "\n".join(lines)


def run_variants(
    title: str,
    variants: Sequence[Variant],
    workloads: Iterable[str] | None = None,
    max_instructions: int = 20_000,
    config_overrides: dict | None = None,
    per_variant_config: dict[str, dict] | None = None,
    options: EvalOptions | None = None,
) -> GridResult:
    """Run each variant over the workloads; normalize to the first.

    Every variant becomes one :class:`~repro.eval.runner.RunRequest`
    per workload, built from ``config_overrides`` (request fields such
    as ``issue_model`` or ``int_regs``, or MachineConfig names) updated
    by the variant's ``per_variant_config`` entry.  The whole grid runs
    through :func:`repro.eval.parallel.run_many` under ``options`` (an
    :class:`~repro.eval.options.EvalOptions`), and each label's RTW
    average IPC, weighted by the first label's cycles per workload, is
    divided by the first label's.  Labels key the results, so they must
    be unique.
    """
    labels = [label for label, _ in variants]
    duplicates = sorted({label for label in labels if labels.count(label) > 1})
    if duplicates:
        raise ValueError(f"duplicate variant label(s): {duplicates}")
    names = list(workloads) if workloads is not None else list(iter_workload_names())
    results: dict[str, dict[str, RunResult]] = {label: {} for label in labels}
    requests: list[RunRequest] = []
    owners: list[tuple[str, str]] = []
    for label, described in variants:
        overrides = dict(config_overrides or {})
        overrides.update((per_variant_config or {}).get(label, {}))
        mechanism = None if isinstance(described, str) else described
        design = described if isinstance(described, str) else label
        for workload in names:
            requests.append(
                RunRequest.create(
                    workload,
                    design,
                    mechanism=mechanism,
                    max_instructions=max_instructions,
                    **overrides,
                )
            )
            owners.append((label, workload))
    for (label, workload), res in zip(owners, run_many(requests, options)):
        results[label][workload] = res
    reference = results[labels[0]]
    weights = {w: float(reference[w].cycles) for w in names}
    averages = {
        label: rtw_average({w: results[label][w].ipc for w in names}, weights)
        for label in labels
    }
    ref = averages[labels[0]]
    if ref <= 0:
        raise ValueError(f"reference {labels[0]!r} average IPC is zero")
    relative = {label: avg / ref for label, avg in averages.items()}
    return GridResult(
        title=title, workloads=tuple(names), relative=relative, results=results
    )


# -- the individual sweeps ----------------------------------------------------


def sweep_l1_replacement(**kw) -> GridResult:
    """LRU vs random replacement in the M8 design's L1 TLB (§3.3)."""
    variants: list[Variant] = [
        ("M8/L1-LRU", ("MultiLevelTLB", {"l1_entries": 8, "l1_replacement": "lru"})),
        ("M8/L1-random", ("MultiLevelTLB", {"l1_entries": 8, "l1_replacement": "random"})),
    ]
    return run_variants("L1 TLB replacement policy (M8)", variants, **kw)


def sweep_l1_size(sizes: Sequence[int] = (2, 4, 8, 16, 32), **kw) -> GridResult:
    """L1 TLB capacity sweep for the multi-level design."""
    variants: list[Variant] = [
        (f"M{size}", ("MultiLevelTLB", {"l1_entries": size}))
        for size in sorted(sizes, reverse=True)
    ]
    return run_variants("L1 TLB capacity (multi-level design)", variants, **kw)


def sweep_piggyback_ports(counts: Sequence[int] = (3, 2, 1, 0), **kw) -> GridResult:
    """Riders per cycle on a single-ported piggybacked TLB (§3.4)."""
    variants: list[Variant] = [
        (f"PB1/{count}riders", ("PiggybackTLB", {"ports": 1, "piggyback_ports": count}))
        for count in counts
    ]
    return run_variants("Piggyback ports on a single-ported TLB", variants, **kw)


def sweep_bank_selection(**kw) -> GridResult:
    """Bit selection vs XOR folding at 4 and 8 banks (§3.2)."""
    variants: list[Variant] = [
        ("I4/bit", ("InterleavedTLB", {"banks": 4, "select": "bit"})),
        ("I4/xor", ("InterleavedTLB", {"banks": 4, "select": "xor"})),
        ("I8/bit", ("InterleavedTLB", {"banks": 8, "select": "bit"})),
        ("I8/xor", ("InterleavedTLB", {"banks": 8, "select": "xor"})),
    ]
    return run_variants("Interleaved bank selection function", variants, **kw)


def sweep_offset_tag_bits(bits: Sequence[int] = (4, 2, 0), **kw) -> GridResult:
    """Width of the pretranslation tag's displacement field (§3.5)."""
    variants: list[Variant] = [
        (f"P8/off{b}", ("PretranslationMechanism", {"offset_tag_bits": b}))
        for b in bits
    ]
    return run_variants("Pretranslation offset-tag width", variants, **kw)


def sweep_tlb_miss_latency(
    latencies: Sequence[int] = (30, 10, 60, 100), design: str = "M8", **kw
) -> GridResult:
    """Sensitivity of a shielded design to the miss-handler latency."""
    variants: list[Variant] = [(f"{design}/miss{lat}", design) for lat in latencies]
    per_variant = {
        f"{design}/miss{lat}": {"tlb_miss_latency": lat} for lat in latencies
    }
    return run_variants(
        f"TLB miss latency ({design})",
        variants,
        per_variant_config=per_variant,
        **kw,
    )


def sweep_related_designs(**kw) -> GridResult:
    """Pretranslation vs the BAC/THB designs it extends (§3.5)."""
    variants: list[Variant] = [("P8", "P8"), ("BAC32", "BAC32"), ("THB32", "THB32"), ("T1", "T1")]
    return run_variants("Pretranslation vs related work (over T1 base)", variants, **kw)


def sweep_page_size(
    sizes: Sequence[int] = (4096, 8192, 16384), design: str = "M4", **kw
) -> GridResult:
    """Page-size trend beyond Figure 8's single 8 KB point ([TH94])."""
    variants: list[Variant] = [(f"{design}/{size // 1024}K", design) for size in sizes]
    per_variant = {
        f"{design}/{size // 1024}K": {"page_size": size} for size in sizes
    }
    return run_variants(
        f"Page size ({design})", variants, per_variant_config=per_variant, **kw
    )


def sweep_base_tlb_size(
    sizes: Sequence[int] = (256, 128, 64, 32), ports: int = 2, **kw
) -> GridResult:
    """Base-TLB capacity at fixed port count: reach vs the paper's 128."""
    variants: list[Variant] = [
        (f"T{ports}x{size}", ("MultiPortedTLB", {"ports": ports, "entries": size}))
        for size in sizes
    ]
    return run_variants(f"Base TLB capacity ({ports} ports)", variants, **kw)


def sweep_predictor(**kw) -> GridResult:
    """Direction-predictor choice behind the same T4 machine."""
    kinds = ("gap", "tournament", "gshare", "bimodal", "taken")
    variants: list[Variant] = [(f"T4/{kind}", "T4") for kind in kinds]
    per_variant = {f"T4/{kind}": {"predictor": kind} for kind in kinds}
    return run_variants(
        "Branch predictor choice (T4)", variants, per_variant_config=per_variant, **kw
    )


def sweep_context_switches(
    intervals: Sequence[int] = (0, 20_000, 5_000, 1_000), design: str = "M8", **kw
) -> GridResult:
    """Multiprogramming pressure: flush all translations every N cycles.

    The paper's introduction motivates high-bandwidth translation with
    workload trends toward multitasking; this sweep quantifies how a
    shielded design degrades as context switches shorten.
    """
    def label(interval: int) -> str:
        return f"{design}/cs-never" if interval == 0 else f"{design}/cs{interval}"

    variants: list[Variant] = [(label(interval), design) for interval in intervals]
    per_variant = {
        label(interval): {"context_switch_interval": interval}
        for interval in intervals
    }
    return run_variants(
        f"Context-switch interval ({design})",
        variants,
        per_variant_config=per_variant,
        **kw,
    )


def sweep_itlb(**kw) -> GridResult:
    """Cost of modelling instruction-side translation (§1's scoping)."""
    variants: list[Variant] = [
        ("T4/no-itlb", "T4"),
        ("T4/itlb32", "T4"),
        ("T4/itlb4", "T4"),
    ]
    per_variant = {
        "T4/itlb32": {"model_itlb": True, "itlb_entries": 32},
        "T4/itlb4": {"model_itlb": True, "itlb_entries": 4},
    }
    return run_variants(
        "Instruction-side micro-TLB", variants, per_variant_config=per_variant, **kw
    )


#: All sweeps, for the ablation benchmark.
ALL_SWEEPS: dict[str, Callable[..., GridResult]] = {
    "l1_replacement": sweep_l1_replacement,
    "l1_size": sweep_l1_size,
    "piggyback_ports": sweep_piggyback_ports,
    "bank_selection": sweep_bank_selection,
    "offset_tag_bits": sweep_offset_tag_bits,
    "tlb_miss_latency": sweep_tlb_miss_latency,
    "related_designs": sweep_related_designs,
    "itlb": sweep_itlb,
    "predictor": sweep_predictor,
    "context_switches": sweep_context_switches,
    "page_size": sweep_page_size,
    "base_tlb_size": sweep_base_tlb_size,
}
