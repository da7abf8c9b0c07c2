"""Analytical translation-cost model: predict CPI without simulating.

The cycle simulator prices a design point in seconds; this model prices
a million in one vectorized pass, from the per-workload
:class:`~repro.analysis.profile.AnalysisProfile` alone.  It follows the
decomposition the paper's data suggests — translation cost is port/bank
*contention* on the request stream plus *miss* servicing on the page
working set — with each piece driven by an exact or measured statistic:

* **Shielding**: the fraction of requests a front structure absorbs
  before they reach arbitrated ports.  Multi-level L1 shields follow
  directly from the LRU stack-distance curve (an ``e``-entry LRU L1
  hits exactly the references with distance < ``e``); pretranslation
  shields come from the profile's attachment-cache replay; piggyback
  and interleaved designs shield nothing.
* **Contention**, split into two statistics because the simulator shows
  they are hidden very differently.  *Transient* waits: each cycle with
  ``k`` simultaneous requests thins to ``Binomial(k, 1 - shield)``
  unshielded probes, which drain through the design's ports/banks under
  a small closed recurrence (same-page duplicates serialize on a bank,
  ride on a piggyback port); the out-of-order window hides most of
  these.  *Sustained overload*: the extra cycles needed to serve the
  mean busy-cycle demand at the design's steady-state throughput, which
  the window cannot hide — a saturated single port costs almost exactly
  ``refs/inst * (1 - mu/lambda)`` CPI in the simulator.  The per-``k``
  cycle frequencies come from the anchor run's measured
  ``translation_demand`` histogram.  Banked designs use the profile's
  *measured* cross-page bank-collision probability: a same-page run
  serializes inside its bank, but that drain overlaps with later
  references whenever they select other banks — which is why an
  interleaved TLB on a page-run workload behaves like several pipelined
  ports rather than one shared one.  Piggyback ports sustain
  ``ports / P(page change)`` throughput, because a granted host clears
  its whole page run across cycles.
* **Misses**: warm (capacity) misses at the backing TLB size, straight
  off the stack-distance curve.  Compulsory misses are excluded from
  the priced miss column — every design of any size takes exactly one
  per touched page, so they are a design-independent constant the
  calibration's CPI floor absorbs.  This also makes the model *exact*
  for degenerate designs: infinite capacity and full port coverage
  predict exactly zero translation stalls.  The one place compulsory
  misses *are* design-dependent is the piggyback ride credit: a rider
  merged into a missing host shares the host's 30-cycle service —
  first-touch misses included — where a port-only design serializes
  both, so the credit column is computed from the *total* miss rate.

A per-workload :func:`calibrate` step anchors the model to a handful of
cycle-simulated points in two stages.  Stage one rescales shield
efficiencies to the anchors' measured ``shielded_fraction`` and fits
``CPI = base + coef_port * port + coef_over * overload + coef_miss *
miss - coef_ride * ride`` over the *unshielded* anchors only (default
T4, T2, T1, I4/PB and the capacity-starved T4E16 — T2 pins the
transient/overload split, I4/PB prices the ride credit), so the
contention and miss coefficients are never contaminated by
front-structure effects.  Stage two measures each shielded family's
*signed* residual at its anchor (M8, P8) and carries it as an additive
offset, scaled by the ratio of unshielded fractions: the simulator
shows small but systematic, seed-stable family effects (a multi-level
or pretranslation design can land a fraction of a percent *under* T4)
that no per-cycle latency term reproduces, so the model measures them
instead of guessing.  Everything else — every size, port count, bank
count, page size, rider count — is pure prediction.

Predictions are *screening* quality: they rank designs and expose the
Pareto-relevant region, after which :mod:`repro.eval.screen` hands the
frontier back to the exact simulator.  Cross-validation against the
full Figure-5 grid is part of the test suite; committed error numbers
live in ``docs/performance.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.analysis.profile import AnalysisProfile
from repro.analysis.reusedist import _numpy

#: Design family codes (`DesignSpace.family` values).
FAMILY_MULTI = 0
FAMILY_PIGGY = 1
FAMILY_INTER = 2
FAMILY_MULTILEVEL = 3
FAMILY_PRETRANS = 4
FAMILY_PERFECT = 5

FAMILY_NAMES = {
    FAMILY_MULTI: "multi-ported",
    FAMILY_PIGGY: "piggyback",
    FAMILY_INTER: "interleaved",
    FAMILY_MULTILEVEL: "multi-level",
    FAMILY_PRETRANS: "pretranslation",
    FAMILY_PERFECT: "perfect",
}

#: Base-TLB miss service latency (MachineConfig.tlb_miss_latency).
MISS_LATENCY = 30

#: Largest per-cycle demand the drain recurrence tabulates.
MAX_DEMAND = 16

#: Cap on the unshielded-fraction ratio that scales a shielded family's
#: anchor residual onto other members: keeps a noise-level residual
#: measured at a nearly-fully-shielded anchor from being extrapolated
#: onto heavily exposed configurations.
OFFSET_RATIO_CAP = 4.0

#: Default calibration anchors: the three MULTI port counts (T2 pins
#: how much transient queueing the out-of-order window hides, between
#: the saturated T1 and free T4 extremes), one representative of each
#: shielded family, one piggybacked design (I4/PB, which prices the
#: rider miss-merging credit), and one capacity-starved point (T4E16)
#: so the miss coefficient is identifiable — the Table 2 designs all
#: back onto 128 entries, which leaves the miss column nearly constant
#: across them.
DEFAULT_ANCHORS = ("T4", "T2", "T1", "M8", "P8", "I4/PB", "T4E16")


def _require_numpy():
    np = _numpy()
    if np is None:
        raise RuntimeError(
            "the analytical screening model requires numpy "
            "(install repro[fast])"
        )
    return np


# -- the design space, structure-of-arrays ------------------------------------


@dataclass
class DesignSpace:
    """N candidate designs as parallel numpy arrays.

    Field semantics by family: ``ports`` is the arbitrated port count —
    real TLB ports for multi-ported/piggyback, the *backing* structure's
    ports for multi-level (L2) and pretranslation (base TLB).
    ``entries`` is the backing/main TLB capacity; ``shield_entries`` the
    front structure's (L1 / pretranslation cache); ``riders`` the
    piggyback port count (total, or per bank for interleaved); ``banks``
    and ``xor_select`` apply to interleaved designs only.
    """

    family: "object"
    ports: "object"
    riders: "object"
    banks: "object"
    xor_select: "object"
    entries: "object"
    shield_entries: "object"
    page_shift: "object"

    def __len__(self) -> int:
        return int(self.family.shape[0])

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping]) -> "DesignSpace":
        """Build from dicts with the field names above (missing -> 0)."""
        np = _require_numpy()

        def col(name, default=0):
            return np.asarray(
                [row.get(name, default) for row in rows], dtype=np.int64
            )

        return cls(
            family=col("family"),
            ports=col("ports", 1),
            riders=col("riders"),
            banks=col("banks"),
            xor_select=col("xor_select").astype(bool),
            entries=col("entries", 128),
            shield_entries=col("shield_entries"),
            page_shift=col("page_shift", 12),
        )

    def row(self, i: int) -> dict:
        """Design ``i`` as a plain dict (the inverse of from_rows)."""
        return {
            "family": int(self.family[i]),
            "ports": int(self.ports[i]),
            "riders": int(self.riders[i]),
            "banks": int(self.banks[i]),
            "xor_select": bool(self.xor_select[i]),
            "entries": int(self.entries[i]),
            "shield_entries": int(self.shield_entries[i]),
            "page_shift": int(self.page_shift[i]),
        }

    def label(self, i: int) -> str:
        """Compact human-readable name of design ``i``."""
        fam = int(self.family[i])
        if fam == FAMILY_MULTI:
            core = f"T{int(self.ports[i])}e{int(self.entries[i])}"
        elif fam == FAMILY_PIGGY:
            core = (
                f"PB{int(self.ports[i])}+{int(self.riders[i])}"
                f"e{int(self.entries[i])}"
            )
        elif fam == FAMILY_INTER:
            sel = "X" if self.xor_select[i] else "I"
            pb = f"/pb{int(self.riders[i])}" if self.riders[i] else ""
            core = f"{sel}{int(self.banks[i])}e{int(self.entries[i])}{pb}"
        elif fam == FAMILY_MULTILEVEL:
            core = f"M{int(self.shield_entries[i])}e{int(self.entries[i])}"
        elif fam == FAMILY_PRETRANS:
            core = f"P{int(self.shield_entries[i])}e{int(self.entries[i])}"
        else:
            core = "PERFECT"
        shift = int(self.page_shift[i])
        return core if shift == 12 else f"{core}@{shift}"

    def mechanism_spec(self, i: int) -> "tuple[str, tuple]":
        """Declarative mechanism spec of design ``i`` for a RunRequest."""
        fam = int(self.family[i])
        if fam not in FAMILY_SPECS:
            raise ValueError(f"unknown family code {fam}")
        name, args = FAMILY_SPECS[fam]
        pairs = []
        for arg, column in args:
            value = int(getattr(self, column)[i])
            pairs.append((arg, _SELECTS[value] if arg == "select" else value))
        return (name, tuple(pairs))


#: Each family's mechanism class, and which constructor argument each of
#: its row columns holds — the one map between model rows and mechanism
#: specs, read one way by :meth:`DesignSpace.mechanism_spec` and the
#: other by :func:`spec_row`.  ``select`` is the one non-integer
#: argument: the ``xor_select`` column indexes :data:`_SELECTS`.
FAMILY_SPECS: dict[int, tuple[str, tuple[tuple[str, str], ...]]] = {
    FAMILY_MULTI: ("MultiPortedTLB", (("ports", "ports"), ("entries", "entries"))),
    FAMILY_PIGGY: (
        "PiggybackTLB",
        (("ports", "ports"), ("piggyback_ports", "riders"), ("entries", "entries")),
    ),
    FAMILY_INTER: (
        "InterleavedTLB",
        (
            ("banks", "banks"),
            ("entries", "entries"),
            ("select", "xor_select"),
            ("piggyback_per_bank", "riders"),
        ),
    ),
    FAMILY_MULTILEVEL: (
        "MultiLevelTLB",
        (("l1_entries", "shield_entries"), ("l2_entries", "entries"), ("l2_ports", "ports")),
    ),
    FAMILY_PRETRANS: (
        "PretranslationMechanism",
        (("cache_entries", "shield_entries"), ("base_entries", "entries"), ("base_ports", "ports")),
    ),
    FAMILY_PERFECT: ("PerfectTLB", ()),
}

_SELECTS = ("bit", "xor")

#: Calibration anchors the model uses beyond the factory's designs: a
#: capacity-starved multi-ported point.
ANCHOR_SPECS = {"T4E16": ("MultiPortedTLB", (("ports", 4), ("entries", 16)))}


def spec_row(spec) -> dict:
    """The model row of a declarative mechanism spec (the inverse of
    :meth:`DesignSpace.mechanism_spec`).

    Arguments the row has no column for are not read; ValueError when
    no family models the spec's class or the spec lacks a row argument.
    """
    name, kwargs = spec
    kwargs = dict(kwargs)
    family = next((f for f, (cls, _) in FAMILY_SPECS.items() if cls == name), None)
    if family is None:
        raise ValueError(f"the analytical model has no family for {name}")
    row = {"family": family}
    for arg, column in FAMILY_SPECS[family][1]:
        if arg not in kwargs:
            raise ValueError(f"{name} spec lacks {arg!r}")
        value = kwargs[arg]
        row[column] = _SELECTS.index(value) if arg == "select" else int(value)
    return row


def mnemonic_space(mnemonics: Sequence[str], page_shift: int = 12) -> DesignSpace:
    """The given design mnemonics (or :data:`ANCHOR_SPECS` names) as a
    :class:`DesignSpace`, each row read from the design's spec."""
    from repro.tlb.factory import design_spec

    rows = []
    for m in mnemonics:
        spec = ANCHOR_SPECS.get(m.upper()) or design_spec(m)
        rows.append(dict(spec_row(spec), page_shift=page_shift))
    return DesignSpace.from_rows(rows)


# -- contention: the per-cycle drain recurrence -------------------------------


def _cycle_capacity(np, family, ports, riders, banks, kappa, rem, dup):
    """Expected requests served in one cycle given ``rem`` waiting.

    ``dup`` is the profile's probability that a reference shares its
    page with another reference of the same small window — the model's
    stand-in for same-cycle same-page clustering.  ``kappa`` is the
    measured cross-page bank-collision probability of each design's
    select function (zero for non-banked designs).
    """
    cap = np.where(family == FAMILY_PERFECT, rem, ports.astype(np.float64))
    piggy = family == FAMILY_PIGGY
    if piggy.any():
        overflow = np.maximum(rem - ports, 0.0)
        cap = np.where(
            piggy, ports + np.minimum(riders, overflow * dup), cap
        )
    inter = family == FAMILY_INTER
    if inter.any():
        # Same-page requests form clusters; distinct clusters engage
        # distinct banks except when the select function collides them
        # (measured kappa).  A cluster's extra members serialize inside
        # their bank, but that drain overlaps with whatever comes next
        # unless the next references collide into the same bank — so
        # duplicates cost throughput only with probability kappa.
        clusters = np.where(rem >= 1.0, 1.0 + (rem - 1.0) * (1.0 - dup), rem)
        occupied = np.minimum(
            1.0 + (clusters - 1.0) * (1.0 - kappa),
            np.maximum(banks.astype(np.float64), 1.0),
        )
        duplicates = np.maximum(rem - clusters, 0.0)
        merged = np.minimum(duplicates, riders * occupied)
        leftover = duplicates - merged
        cap = np.where(inter, occupied + merged + leftover * (1.0 - kappa), cap)
    return np.minimum(cap, rem)


def _sustained_capacity(np, space: DesignSpace, kappa, rem, dup: float):
    """Steady-state requests served per cycle at arrival level ``rem``.

    Mostly the per-cycle drain capacity, with one cross-cycle effect the
    within-burst recurrence cannot see: a piggyback port granted for one
    page clears the *whole page run* — references of that page arriving
    in later cycles ride free — so hosts are consumed by page changes,
    not references.  Sustained piggyback throughput is therefore
    ``ports / P(page change)``, bounded by the rider hardware.
    """
    cap = _cycle_capacity(
        np, space.family, space.ports, space.riders, space.banks, kappa, rem, dup
    )
    piggy = space.family == FAMILY_PIGGY
    if piggy.any():
        ports = space.ports.astype(np.float64)
        runs = ports / max(1.0 - dup, 1.0 / MAX_DEMAND)
        cap = np.where(
            piggy,
            np.maximum(cap, np.minimum(runs, ports + space.riders)),
            cap,
        )
    return cap


def _wait_table(np, space: DesignSpace, kappa, dup: float, kmax: int):
    """``W[k, i]``: expected total wait cycles when ``k`` unshielded
    requests arrive at design ``i`` in one cycle.

    Capacity is independent of TLB size, so the recurrence runs on the
    unique port-geometry rows only and scatters back — the table costs
    the same for 10^2 or 10^6 candidate designs.
    """
    geometry = np.stack(
        [
            space.family.astype(np.float64),
            space.ports.astype(np.float64),
            space.riders.astype(np.float64),
            space.banks.astype(np.float64),
            np.asarray(kappa, dtype=np.float64),
        ]
    )
    unique, inverse = np.unique(geometry, axis=1, return_inverse=True)
    family, ports, riders, banks, kap = (
        unique[0].astype(np.int64),
        unique[1],
        unique[2],
        unique[3],
        unique[4],
    )
    n = family.shape[0]
    table = np.zeros((kmax + 1, n))
    for k in range(1, kmax + 1):
        rem = np.full(n, float(k))
        wait = np.zeros(n)
        for _ in range(4 * kmax):
            served = _cycle_capacity(
                np, family, ports, riders, banks, kap, rem, dup
            )
            rem = np.maximum(rem - served, 0.0)
            wait += rem
            if rem.max() <= 1e-9:
                break
        table[k] = wait
    return table[:, inverse]


def _bank_kappa(stream, banks: int, xor: bool) -> float:
    """The stream's measured collision probability for one bank select.

    Falls back to the largest profiled bank count not above ``banks``
    (fewer banks collide more, so the substitute errs conservative) and
    to 0.5 when the profile carries no bank statistics at all.
    """
    if banks <= 1:
        return 1.0
    select = "xor" if xor else "bit"
    table = getattr(stream, "bank_collision", None) or {}
    key = f"{banks}:{select}"
    if key in table:
        return float(table[key])
    best = None
    for entry, value in table.items():
        count, _, sel = entry.partition(":")
        if sel != select:
            continue
        count = int(count)
        if count <= banks and (best is None or count > best[0]):
            best = (count, float(value))
    return best[1] if best is not None else 0.5


# -- shielding ----------------------------------------------------------------


def _shield_fractions(
    np, profile: AnalysisProfile, space: DesignSpace, mask, shift: int,
    eta_ml: float, eta_pret: float,
):
    """Shield fraction of every masked design at one page shift."""
    stream = profile.stream(shift)
    shield = np.zeros(int(mask.sum()))
    family = space.family[mask]
    entries = space.shield_entries[mask]
    ml = family == FAMILY_MULTILEVEL
    if ml.any():
        hit = 1.0 - stream.miss_rates(np.maximum(entries[ml], 1))
        shield[ml] = np.clip(hit * eta_ml, 0.0, 1.0)
    pret = family == FAMILY_PRETRANS
    if pret.any():
        sizes = sorted(stream.pretranslation_hit)
        if sizes:
            xs = np.asarray(sizes, dtype=np.float64)
            ys = np.asarray([stream.pretranslation_hit[s] for s in sizes])
            hit = np.interp(entries[pret].astype(np.float64), xs, ys)
        else:
            hit = np.zeros(int(pret.sum()))
        shield[pret] = np.clip(hit * eta_pret, 0.0, 1.0)
    shield[family == FAMILY_PERFECT] = 1.0
    return shield


# -- the model proper ---------------------------------------------------------


@dataclass
class Components:
    """Raw (uncalibrated-scale) per-instruction stall components."""

    #: Expected transient port/bank wait cycles per instruction (the
    #: within-burst drain; the out-of-order window hides most of it).
    port_cycles: "object"
    #: Expected sustained-overload cycles per instruction — extra time
    #: the design needs to serve the average busy-cycle demand at all.
    overload_cycles: "object"
    #: Expected warm-miss service cycles per instruction.
    miss_cycles: "object"
    #: Portion of ``miss_cycles`` a piggyback rider shares with its
    #: host (a rider on a missed host completes with the host, so the
    #: rider's own miss service is saved).  Enters the fit as a credit.
    ride_miss_cycles: "object"
    #: Shield fraction per design.
    shield: "object"


def stall_components(
    profile: AnalysisProfile,
    space: DesignSpace,
    groups_per_inst: Mapping[int, float],
    eta_ml: float = 1.0,
    eta_pret: float = 1.0,
) -> Components:
    """Predict both stall components for every design in ``space``.

    ``groups_per_inst`` maps simultaneous-request count ``k`` to how
    many such cycles occur per committed instruction (the anchor run's
    measured ``translation_demand`` histogram, normalized).
    """
    np = _require_numpy()
    n = len(space)
    port_cycles = np.zeros(n)
    overload_cycles = np.zeros(n)
    miss_cycles = np.zeros(n)
    ride_miss_cycles = np.zeros(n)
    shield = np.zeros(n)
    demand = sorted(
        (int(k), float(g)) for k, g in groups_per_inst.items() if k > 0 and g > 0
    )
    refs_per_inst = profile.refs_per_instruction
    for shift in np.unique(space.page_shift):
        shift = int(shift)
        mask = space.page_shift == shift
        stream = profile.stream(shift)
        sub_shield = _shield_fractions(
            np, profile, space, mask, shift, eta_ml, eta_pret
        )
        shield[mask] = sub_shield
        # -- contention: thin each k-demand cycle binomially by the
        # shield, then charge the drain recurrence's expected wait.
        # Same-cycle page matching is tighter than 4-window sharing, so
        # the rider/cluster probability uses the adjacent-pair figure.
        dup = stream.dup_within.get(2, 0.0)
        kmax = min(max((k for k, _ in demand), default=0), MAX_DEMAND)
        sub_space = DesignSpace(
            family=space.family[mask],
            ports=space.ports[mask],
            riders=space.riders[mask],
            banks=space.banks[mask],
            xor_select=space.xor_select[mask],
            entries=space.entries[mask],
            shield_entries=space.shield_entries[mask],
            page_shift=space.page_shift[mask],
        )
        kappa = np.zeros(int(mask.sum()))
        inter = sub_space.family == FAMILY_INTER
        if inter.any():
            combos = np.unique(
                np.stack(
                    [
                        sub_space.banks[inter],
                        sub_space.xor_select[inter].astype(np.int64),
                    ]
                ),
                axis=1,
            )
            for b, x in combos.T:
                sel = inter & (sub_space.banks == b) & (
                    sub_space.xor_select == bool(x)
                )
                kappa[sel] = _bank_kappa(stream, int(b), bool(x))
        waits = _wait_table(np, sub_space, kappa, dup, kmax) if kmax else None
        q = np.clip(1.0 - sub_shield, 0.0, 1.0)  # unshielded probability
        sub_port = np.zeros(int(mask.sum()))
        for k, groups in demand:
            k = min(k, MAX_DEMAND)
            # Binomial(k, q) over j surviving requests, iteratively:
            # weight(j) built from weight(j-1) * (k-j+1)/j * q/(1-q)
            # would divide by zero at q in {0,1}; the direct form is
            # cheap for k <= MAX_DEMAND.
            expected = np.zeros_like(sub_port)
            for j in range(1, k + 1):
                comb = _comb(k, j)
                weight = comb * q**j * (1.0 - q) ** (k - j)
                expected += weight * waits[j]
            sub_port += groups * expected
        port_cycles[mask] = sub_port
        # -- sustained overload: extra cycles per instruction the design
        # needs just to keep up with the *average* busy-cycle demand.
        # Transient burst waits above mostly hide inside the out-of-order
        # window; time the machine spends over sustained capacity cannot.
        busy = sum(g for _, g in demand)
        if busy > 0:
            lam = sum(k * g for k, g in demand) / busy
            arrival = lam * q
            mu = _sustained_capacity(
                np, sub_space, kappa, np.maximum(arrival, 1.0), dup
            )
            overload_cycles[mask] = busy * np.maximum(
                arrival / np.maximum(mu, 1e-9) - 1.0, 0.0
            )
        # -- warm misses at the backing capacity (compulsory excluded;
        # see module docstring).  Banked designs keep their full
        # capacity: the select functions spread pages evenly enough
        # that the simulator shows no measurable banking miss penalty.
        capacity = space.entries[mask].astype(np.float64)
        total_miss = stream.miss_rates(capacity)
        warm_miss = total_miss
        if stream.references:
            warm_miss = np.maximum(
                total_miss - stream.cold / stream.references, 0.0
            )
        perfect = sub_space.family == FAMILY_PERFECT
        warm_miss[perfect] = 0.0
        total_miss = np.where(perfect, 0.0, total_miss)
        miss_cycles[mask] = warm_miss * refs_per_inst * MISS_LATENCY
        # -- rider miss merging: a reference that rides a piggyback port
        # shares its (same-page) host's miss service instead of queueing
        # its own, so the expected riding fraction of references enters
        # the fit as a miss credit column.  The credit covers *total*
        # misses — compulsory ones merge too, which is how a piggybacked
        # design can land below the wide-ported ideal in the simulator.
        refs_in_groups = sum(k * g for k, g in demand)
        if refs_in_groups > 0:
            ports_f = sub_space.ports.astype(np.float64)
            riders_f = sub_space.riders.astype(np.float64)
            piggy = sub_space.family == FAMILY_PIGGY
            inter_pb = (sub_space.family == FAMILY_INTER) & (sub_space.riders > 0)
            rides = np.zeros(int(mask.sum()))
            for k, groups in demand:
                k = float(min(k, MAX_DEMAND))
                per_cycle = np.where(
                    piggy,
                    np.minimum(np.maximum(k - ports_f, 0.0) * dup, riders_f),
                    0.0,
                )
                per_cycle = np.where(
                    inter_pb,
                    np.minimum(
                        (k - 1.0) * dup,
                        riders_f * np.maximum(sub_space.banks, 1),
                    ),
                    per_cycle,
                )
                rides += groups * per_cycle
            ride_frac = np.clip(rides / refs_in_groups, 0.0, 1.0)
            ride_miss_cycles[mask] = (
                total_miss * refs_per_inst * MISS_LATENCY * ride_frac
            )
    return Components(
        port_cycles=port_cycles,
        overload_cycles=overload_cycles,
        miss_cycles=miss_cycles,
        ride_miss_cycles=ride_miss_cycles,
        shield=shield,
    )


def _comb(k: int, j: int) -> float:
    import math

    return float(math.comb(k, j))


# -- calibration --------------------------------------------------------------


@dataclass
class Calibration:
    """Per-workload anchor fit; everything predict() needs besides the space."""

    workload: str
    #: k simultaneous requests -> cycles per committed instruction.
    groups_per_inst: dict
    #: Shield-efficiency rescales measured at the anchors.
    eta_ml: float = 1.0
    eta_pret: float = 1.0
    #: CPI = cpi_base + coef_port * port_cycles + coef_over *
    #: overload_cycles + coef_miss * miss_cycles - coef_ride *
    #: ride_miss_cycles + family offset (below).
    cpi_base: float = 1.0
    coef_port: float = 1.0
    coef_over: float = 0.0
    coef_miss: float = 1.0
    coef_ride: float = 0.0
    #: Signed residuals measured at the shielded-family anchors, and the
    #: anchors' unshielded fractions used to scale them onto other
    #: family members (see :func:`_family_offsets`).
    delta_ml: float = 0.0
    delta_pret: float = 0.0
    q_ml: float = 0.0
    q_pret: float = 0.0
    #: Anchor diagnostics: mnemonic -> (measured CPI, fitted CPI).
    anchor_fit: dict = field(default_factory=dict)


def _measured_cpi(result) -> float:
    stats = result.stats
    return stats.cycles / stats.committed if stats.committed else 0.0


def calibrate(
    profile: AnalysisProfile,
    anchor_results: Mapping[str, "object"],
    page_shift: int = 12,
) -> Calibration:
    """Fit the model to cycle-simulated anchor runs of one workload.

    ``anchor_results`` maps design mnemonics to finished
    :class:`~repro.eval.runner.RunResult` objects.  The demand
    histogram is taken from the widest-ported anchor present (its
    request stream is least perturbed by port back-pressure).
    """
    np = _require_numpy()
    if not anchor_results:
        raise ValueError("calibration needs at least one anchor result")
    # Demand histogram: prefer T4, else the anchor with most ports.
    order = sorted(
        anchor_results,
        key=lambda m: (m != "T4", m),
    )
    demand_source = anchor_results[order[0]]
    committed = max(demand_source.stats.committed, 1)
    groups = {
        int(k): cycles / committed
        for k, cycles in demand_source.stats.translation_demand.items()
        if int(k) > 0
    }
    cal = Calibration(workload=profile.workload, groups_per_inst=groups)

    # Shield-efficiency rescales from measured shielded fractions.
    mnemonics = list(anchor_results)
    space = mnemonic_space(mnemonics, page_shift=page_shift)
    stream = profile.stream(page_shift)
    for i, mnemonic in enumerate(mnemonics):
        family = int(space.family[i])
        shield_entries = int(space.shield_entries[i])
        measured = anchor_results[mnemonic].stats.translation.shielded_fraction
        if family == FAMILY_MULTILEVEL:
            raw = 1.0 - stream.miss_rate(shield_entries)
            if raw > 0:
                cal.eta_ml = min(measured / raw, 1.0 / max(raw, 1e-9))
        elif family == FAMILY_PRETRANS:
            raw = stream.pretranslation_hit.get(shield_entries)
            if raw is None:
                sizes = sorted(stream.pretranslation_hit)
                raw = (
                    float(
                        np.interp(
                            shield_entries,
                            np.asarray(sizes, dtype=np.float64),
                            np.asarray(
                                [stream.pretranslation_hit[s] for s in sizes]
                            ),
                        )
                    )
                    if sizes
                    else 0.0
                )
            if raw > 0:
                cal.eta_pret = min(measured / raw, 1.0 / max(raw, 1e-9))

    # Stage 1: non-negative least squares over the *unshielded* anchors
    # only, so contention and miss coefficients stay clean of
    # front-structure effects (falls back to every anchor if too few
    # qualify).  Slopes are fit on deltas relative to the reference
    # anchor (T4 when present) so the reference is reproduced exactly —
    # every low-stall design's prediction inherits its accuracy, which
    # is what near-tied orderings at the top of a ranking hinge on.
    parts = stall_components(
        profile, space, groups, eta_ml=cal.eta_ml, eta_pret=cal.eta_pret
    )
    y = np.asarray([_measured_cpi(anchor_results[m]) for m in mnemonics])
    shielded = (FAMILY_MULTILEVEL, FAMILY_PRETRANS)
    stage1 = [i for i, fam in enumerate(space.family) if fam not in shielded]
    if len(stage1) < 2:
        stage1 = list(range(len(mnemonics)))
    ref = next((i for i in stage1 if mnemonics[i].upper() == "T4"), stage1[0])
    rest = [i for i in stage1 if i != ref]
    raw_cols = (
        parts.port_cycles,
        parts.overload_cycles,
        parts.miss_cycles,
        -parts.ride_miss_cycles,
    )
    if rest:
        idx = np.asarray(rest)
        deltas = [c[idx] - c[ref] for c in raw_cols]
        coef = _nonneg_fit(np, deltas, y[idx] - y[ref], free=())
    else:
        coef = np.zeros(len(raw_cols))
    cal.coef_port, cal.coef_over, cal.coef_miss, cal.coef_ride = (
        float(coef[0]),
        float(coef[1]),
        float(coef[2]),
        float(coef[3]),
    )
    slope = sum(c * col[ref] for c, col in zip(coef, raw_cols))
    cal.cpi_base = float(y[ref] - slope)
    # Stage 2: each shielded family's signed residual at its anchor(s),
    # plus the anchor's unshielded fraction for ratio scaling.
    stage1_fit = cal.cpi_base + sum(c * col for c, col in zip(coef, raw_cols))
    for target, delta_attr, q_attr in (
        (FAMILY_MULTILEVEL, "delta_ml", "q_ml"),
        (FAMILY_PRETRANS, "delta_pret", "q_pret"),
    ):
        members = [i for i, fam in enumerate(space.family) if fam == target]
        if not members:
            continue
        residuals = [float(y[i] - stage1_fit[i]) for i in members]
        exposures = [float(1.0 - parts.shield[i]) for i in members]
        setattr(cal, delta_attr, sum(residuals) / len(residuals))
        setattr(cal, q_attr, sum(exposures) / len(exposures))
    fitted = stage1_fit + _family_offsets(np, cal, parts, space.family)
    cal.anchor_fit = {
        m: (float(y[i]), float(fitted[i])) for i, m in enumerate(mnemonics)
    }
    return cal


def _family_offsets(np, cal: "Calibration", parts: Components, family):
    """Per-design additive offsets from the shielded-family residuals.

    A family's anchor residual is scaled by the ratio of the design's
    unshielded fraction to the anchor's (capped at
    :data:`OFFSET_RATIO_CAP`): the measured effect tracks how much
    traffic actually reaches the backing structure, and a fully
    shielded design (q -> 0) keeps the degenerate-exactness property of
    zero predicted translation cost.
    """
    offsets = np.zeros(family.shape[0])
    for target, delta, q_anchor in (
        (FAMILY_MULTILEVEL, cal.delta_ml, cal.q_ml),
        (FAMILY_PRETRANS, cal.delta_pret, cal.q_pret),
    ):
        members = family == target
        if not members.any() or not delta:
            continue
        q = 1.0 - parts.shield[members]
        if q_anchor > 1e-6:
            scale = np.clip(q / q_anchor, 0.0, OFFSET_RATIO_CAP)
        else:
            scale = (q > 1e-6).astype(np.float64)
        offsets[members] = delta * scale
    return offsets


def _nonneg_fit(np, columns, y, free=(0,)):
    """Least squares with slope columns clamped non-negative.

    Columns listed in ``free`` (by default an intercept at position 0)
    may go negative; any other negative fitted slope is dropped (clamped
    to 0) and the rest refit — with a handful of columns this tiny
    active-set loop is exact enough for calibration.
    """
    active = list(range(len(columns)))
    while active:
        X = np.stack([columns[i] for i in active], axis=1)
        fit, *_ = np.linalg.lstsq(X, y, rcond=None)
        negative = [
            active[j]
            for j in range(len(active))
            if active[j] not in free and fit[j] < 0
        ]
        if not negative:
            coef = np.zeros(len(columns))
            for j, i in enumerate(active):
                coef[i] = fit[j]
            return coef
        active = [i for i in active if i not in negative]
    return np.zeros(len(columns))


# -- prediction ---------------------------------------------------------------


@dataclass
class Prediction:
    """Vectorized model output for a design space."""

    #: Predicted CPI per design.
    cpi: "object"
    #: Predicted translation stall cycles per instruction (both kinds,
    #: in calibrated CPI units).
    translation_cpi: "object"
    components: Components


def predict(
    profile: AnalysisProfile, calibration: Calibration, space: DesignSpace
) -> Prediction:
    """Predicted CPI of every design in ``space`` for one workload."""
    np = _require_numpy()
    parts = stall_components(
        profile,
        space,
        calibration.groups_per_inst,
        eta_ml=calibration.eta_ml,
        eta_pret=calibration.eta_pret,
    )
    stalls = (
        calibration.coef_port * parts.port_cycles
        + calibration.coef_over * parts.overload_cycles
        + calibration.coef_miss * parts.miss_cycles
        - calibration.coef_ride * parts.ride_miss_cycles
        + _family_offsets(np, calibration, parts, space.family)
    )
    return Prediction(
        cpi=calibration.cpi_base + stalls,
        translation_cpi=stalls,
        components=parts,
    )
