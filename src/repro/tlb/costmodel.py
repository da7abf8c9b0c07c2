"""First-order area and latency models for the Table 2 designs.

The paper's case *against* multi-porting is a scaling argument (§3.1):
"the capacitance and resistance load on each access path increases with
the number of ports ... the area of a multi-ported device is
proportional to the square of the number of ports [Jol91]", while the
alternatives add small fixed costs (comparators, a crossbar, a small
extra array).  This module turns that argument into first-order
numbers so performance results can be paired with cost, in the spirit
of the paper's "any latency and area benefits will serve to improve
system performance through increased clock speeds and/or better die
space utilization".

Units are normalized, not nanometers: area is measured in
*single-ported CAM-entry equivalents* (one entry of a one-ported
fully-associative TLB = 1.0) and latency in *relative access delays*
(one 128-entry single-ported fully-associative lookup = 1.0).  The
scaling rules:

* a ``p``-ported cell costs ``~p**2 / 1**2`` area (wire-dominated
  layout, [Jol91]); its delay grows with the per-port load,
  modeled as ``1 + 0.15 * (p - 1)``;
* array delay grows logarithmically with entries (match-line length):
  ``0.5 + 0.5 * log2(entries) / log2(128)``;
* an interleaved design pays a ``b x b`` crossbar:
  area ``~0.05 * b**2`` entry-equivalents and a fixed 0.15 delay
  adder, but its banks are small and single-ported;
* a piggyback port costs one comparator + gate: 0.25 entry-equivalents
  and (paper §3.4) no added latency on the critical path;
* multi-level/pretranslation front structures are small multi-ported
  arrays costed by the same rules; their *hit* path sees only the small
  array's latency.

These constants are deliberately coarse — the point is relative order
of magnitude, which is all the paper claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.tlb.factory import design_spec

_BASELINE_ENTRIES = 128

#: Crossbar area per switch point (an interleaved design pays
#: ``ldst_ports x banks`` of them) and its fixed delay adder.
CROSSBAR_AREA_PER_POINT = 0.05
CROSSBAR_DELAY = 0.15
#: Processor-side ports feeding an interleaved crossbar.
CROSSBAR_PORTS = 4
#: One piggyback port = one comparator + gating.
PIGGYBACK_COMPARATOR_AREA = 0.25
#: Ports of a small front structure read by every load/store unit at
#: once: a pretranslation or PC-indexed cache, and the multi-level L1
#: of a design space row (which has no column for them).
FRONT_PORTS = 4


def _log2(x):
    """``math.log2`` for a number, elementwise ``numpy.log2`` for an array."""
    if isinstance(x, (int, float)):
        return math.log2(x)
    import numpy as np

    return np.log2(x)


def _array_delay(entries, ports=1):
    """Relative delay of a fully-associative array lookup."""
    size_term = 0.5 + 0.5 * (_log2(entries) / math.log2(_BASELINE_ENTRIES))
    port_term = 1.0 + 0.15 * (ports - 1)
    return size_term * port_term


def _array_area(entries, ports=1):
    """Area in single-ported entry equivalents."""
    return entries * ports * ports


# -- the cost rules -----------------------------------------------------------
#
# One rule per mechanism class, over its constructor arguments: plain
# ints for one design (design_cost) or equal-length numpy arrays for a
# whole family of a screening space (repro.eval.screen.space_cost).
# Each returns (area, hit delay); arguments a rule does not price are
# swallowed by ``**_``.


def _multi_ported(ports, entries, **_):
    return _array_area(entries, ports), _array_delay(entries, ports)


def _piggyback(ports, piggyback_ports, entries, **_):
    # Riders gate on the hit signal only: no added delay (paper §3.4).
    area = _array_area(entries, ports) + PIGGYBACK_COMPARATOR_AREA * piggyback_ports
    return area, _array_delay(entries, ports)


def _interleaved(banks, entries, piggyback_per_bank, **_):
    bank_entries = entries // banks
    # ports x banks crossbar switch points.
    crossbar = CROSSBAR_AREA_PER_POINT * banks * banks * CROSSBAR_PORTS
    area = (
        _array_area(bank_entries, 1) * banks
        + crossbar
        + PIGGYBACK_COMPARATOR_AREA * piggyback_per_bank * banks
    )
    return area, _array_delay(bank_entries, 1) + CROSSBAR_DELAY


def _multi_level(l1_entries, l2_entries, l2_ports, l1_ports=FRONT_PORTS, **_):
    # The small L1 is on the hit path; the L2 is off it.
    area = _array_area(l1_entries, l1_ports) + _array_area(l2_entries, l2_ports)
    return area, _array_delay(l1_entries, l1_ports)


def _front(cache_entries, base_entries, base_ports, **_):
    # A cache read at decode (pretranslation, BAC, THB): translations
    # are ready before cache access, so the hit path sees half the
    # small array's delay.
    area = _array_area(cache_entries, FRONT_PORTS) + _array_area(base_entries, base_ports)
    return area, _array_delay(cache_entries, FRONT_PORTS) * 0.5


class CostRule(NamedTuple):
    """How one mechanism class is priced and described."""

    #: ``(**constructor args) -> (area, hit delay)``.
    price: Callable
    #: ``(**constructor args) -> str``: what dominates the cost.
    note: Callable[..., str]


def _interleaved_note(banks, select, piggyback_per_bank, **_):
    if piggyback_per_bank:
        return f"{'X' if select == 'xor' else 'I'}{banks} plus per-bank piggyback comparators"
    return "single-ported banks + crossbar adder"


def _pc_indexed_note(cache_entries, **_):
    return f"{cache_entries}-entry PC-indexed cache read at decode"


#: Mechanism class name -> its cost rule.  A class without one (the
#: ideal PerfectTLB) has no price.
COST_RULES: dict[str, CostRule] = {
    "MultiPortedTLB": CostRule(
        _multi_ported,
        lambda ports, **_: f"{ports}-ported cells: area x{ports * ports}, loaded match lines",
    ),
    "PiggybackTLB": CostRule(
        _piggyback,
        lambda ports, piggyback_ports, **_: f"{ports} real ports + {piggyback_ports} comparators",
    ),
    "InterleavedTLB": CostRule(_interleaved, _interleaved_note),
    "MultiLevelTLB": CostRule(
        _multi_level,
        lambda l1_ports, **_: f"small {l1_ports}-ported L1 on the hit path; L2 off it",
    ),
    "PretranslationMechanism": CostRule(
        _front,
        lambda cache_entries, **_: f"{cache_entries}-entry pretranslation cache read at decode",
    ),
    "BranchAddressCache": CostRule(_front, _pc_indexed_note),
    "TranslationHintBuffer": CostRule(_front, _pc_indexed_note),
}


@dataclass
class DesignCost:
    """First-order cost summary of one design."""

    mnemonic: str
    #: Area in single-ported CAM-entry equivalents.
    area: float
    #: Relative delay of the common-case (hit) translation path.
    hit_latency: float
    #: Short explanation of what dominates the cost.
    note: str

    @property
    def area_vs_t1(self) -> float:
        """Area relative to the single-ported 128-entry baseline."""
        return self.area / _array_area(_BASELINE_ENTRIES, 1)


def design_cost(mnemonic: str) -> DesignCost:
    """Cost model for a design mnemonic, priced from its factory spec."""
    name, kwargs = design_spec(mnemonic)
    rule = COST_RULES.get(name)
    if rule is None:
        raise ValueError(f"no cost model for design {mnemonic!r}")
    args = dict(kwargs)
    area, delay = rule.price(**args)
    return DesignCost(mnemonic.upper(), area, delay, rule.note(**args))


def cost_table(mnemonics) -> str:
    """Render an area/latency table for a set of designs."""
    lines = [
        f"  {'design':8s} {'area (T1=1)':>12s} {'hit delay':>10s}  note",
    ]
    for m in mnemonics:
        c = design_cost(m)
        lines.append(
            f"  {c.mnemonic:8s} {c.area_vs_t1:12.2f} {c.hit_latency:10.2f}  {c.note}"
        )
    return "\n".join(lines)
