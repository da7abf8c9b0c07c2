"""Design-space screening: sweep the analytical model, simulate the frontier.

The cycle simulator prices one (workload, design) point in seconds; the
analytical model (:mod:`repro.analysis.atmodel`) prices a design in
microseconds.  This module turns that gap into a search procedure:

1. **Enumerate** a large design space — every size, port count, bank
   count, rider count, page size the spec asks for — directly as the
   model's structure-of-arrays :class:`~repro.analysis.atmodel.DesignSpace`.
2. **Calibrate** the model per workload against a handful of
   cycle-simulated anchor runs (scheduled through the normal
   :func:`~repro.eval.parallel.run_many` machinery, so anchor results
   land in — and return from — the :class:`~repro.eval.resultstore
   .ResultStore` like any other run).  Workload profiles memoize in the
   same store, as aux entries of kind ``"profile"``.
3. **Score** every candidate with the vectorized model and **price** it
   with the first-order area model (:mod:`repro.tlb.costmodel`).
4. **Select** the Pareto frontier of (area, predicted CPI) and hand a
   spread of frontier designs back to the exact simulator for
   confirmation.

The result records predicted and simulated CPI side by side, so the
screen is self-auditing: a frontier design whose simulation disagrees
with its prediction is visible right in the output.  A screen memoizes
its inputs, not its output, as a figure does: on a warm store every
run and profile is a hit, and the summary is recomputed from them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis import atmodel
from repro.analysis.profile import workload_profile
from repro.eval.options import EvalOptions
from repro.eval.runner import RunRequest
from repro.tlb import costmodel

#: Workload list fallback (late import keeps module load light).
def _all_workloads() -> list:
    from repro.workloads import iter_workload_names

    return list(iter_workload_names())


@dataclass(frozen=True)
class ScreenSpec:
    """One screening job: the candidate axes and the evaluation scope.

    The cross product of the per-family axes (filtered for validity:
    interleaved capacity must split evenly across banks, a multi-level
    L1 must be smaller than its L2) is the candidate space.  ``()`` for
    ``workloads`` means all ten.
    """

    workloads: tuple = ()
    max_instructions: int = 60_000
    page_shifts: tuple = (12,)
    entries: tuple = (32, 64, 128, 256)
    multi_ports: tuple = (1, 2, 4)
    piggy_ports: tuple = (1, 2)
    piggy_riders: tuple = (1, 2, 3)
    banks: tuple = (2, 4, 8)
    bank_selects: tuple = ("bit", "xor")
    bank_riders: tuple = (0, 3)
    ml_l1: tuple = (4, 8, 16, 32)
    ml_ports: tuple = (1,)
    pret_sizes: tuple = (4, 8, 16, 32)
    pret_ports: tuple = (1,)
    #: Calibration anchors (Table 2 mnemonics plus model extensions).
    anchors: tuple = atmodel.DEFAULT_ANCHORS
    #: How many frontier designs to confirm with the cycle simulator.
    simulate: int = 8


# -- enumeration --------------------------------------------------------------


def enumerate_space(spec: ScreenSpec) -> "atmodel.DesignSpace":
    """The spec's cross-product candidate space, as parallel arrays.

    Built with meshgrids and concatenation — no per-design Python
    objects — so a 10^5-point space materializes in milliseconds.
    """
    np = atmodel._require_numpy()
    cols = ("family", "ports", "riders", "banks", "xor_select",
            "entries", "shield_entries", "page_shift")
    blocks: list = []

    def block(family: int, keep=None, **axes):
        """One family's cross product; ``axes`` values are 1-D arrays."""
        named = {k: np.asarray(v, dtype=np.int64) for k, v in axes.items()}
        grids = np.meshgrid(*named.values(), indexing="ij")
        flat = {k: g.ravel() for k, g in zip(named, grids)}
        n = next(iter(flat.values())).shape[0] if flat else 0
        out = {
            "family": np.full(n, family, dtype=np.int64),
            "ports": np.ones(n, dtype=np.int64),
            "riders": np.zeros(n, dtype=np.int64),
            "banks": np.zeros(n, dtype=np.int64),
            "xor_select": np.zeros(n, dtype=np.int64),
            "entries": np.full(n, 128, dtype=np.int64),
            "shield_entries": np.zeros(n, dtype=np.int64),
            "page_shift": np.full(n, 12, dtype=np.int64),
        }
        out.update(flat)
        if keep is not None:
            mask = keep(out)
            out = {k: v[mask] for k, v in out.items()}
        blocks.append(out)

    shifts = list(spec.page_shifts) or [12]
    entries = list(spec.entries) or [128]
    if spec.multi_ports:
        block(
            atmodel.FAMILY_MULTI,
            ports=spec.multi_ports, entries=entries, page_shift=shifts,
        )
    if spec.piggy_ports and spec.piggy_riders:
        block(
            atmodel.FAMILY_PIGGY,
            ports=spec.piggy_ports, riders=spec.piggy_riders,
            entries=entries, page_shift=shifts,
        )
    if spec.banks:
        selects = [int(s == "xor") for s in spec.bank_selects] or [0]
        block(
            atmodel.FAMILY_INTER,
            banks=spec.banks, xor_select=sorted(set(selects)),
            riders=spec.bank_riders or (0,),
            entries=entries, page_shift=shifts,
            keep=lambda out: out["entries"] % np.maximum(out["banks"], 1) == 0,
        )
    if spec.ml_l1:
        block(
            atmodel.FAMILY_MULTILEVEL,
            shield_entries=spec.ml_l1, ports=spec.ml_ports or (1,),
            entries=entries, page_shift=shifts,
            keep=lambda out: out["shield_entries"] < out["entries"],
        )
    if spec.pret_sizes:
        block(
            atmodel.FAMILY_PRETRANS,
            shield_entries=spec.pret_sizes, ports=spec.pret_ports or (1,),
            entries=entries, page_shift=shifts,
        )
    if not blocks:
        raise ValueError("screen spec enumerates an empty design space")
    merged = {
        k: np.concatenate([b[k] for b in blocks]) for k in cols
    }
    merged["xor_select"] = merged["xor_select"].astype(bool)
    return atmodel.DesignSpace(**merged)


def space_cost(space: "atmodel.DesignSpace"):
    """Vectorized (area, hit delay) of every design in ``space``.

    Each family's rows go, as arrays of constructor arguments, through
    the same :data:`repro.tlb.costmodel.COST_RULES` rule
    :func:`~repro.tlb.costmodel.design_cost` prices one design with.
    """
    np = atmodel._require_numpy()
    area = np.zeros(len(space))
    delay = np.zeros(len(space))
    for family in np.unique(space.family):
        name, args = atmodel.FAMILY_SPECS[int(family)]
        rule = costmodel.COST_RULES.get(name)
        if rule is None:
            raise ValueError(f"no cost model for {name} designs")
        mask = space.family == family
        kwargs = {
            arg: getattr(space, column)[mask].astype(np.float64)
            for arg, column in args
        }
        area[mask], delay[mask] = rule.price(**kwargs)
    return area, delay


def pareto_mask(np, area, cpi):
    """Boolean mask of the (area, cpi) Pareto frontier.

    A design survives iff no design is both cheaper-or-equal and
    strictly faster: sort by (area, cpi) and keep strict running-min
    improvements.
    """
    order = np.lexsort((cpi, area))
    sorted_cpi = cpi[order]
    best = np.minimum.accumulate(sorted_cpi)
    keep = np.ones(order.size, dtype=bool)
    keep[1:] = sorted_cpi[1:] < best[:-1]
    mask = np.zeros(order.size, dtype=bool)
    mask[order[keep]] = True
    return mask


# -- the pipeline -------------------------------------------------------------


@dataclass
class ScreenResult:
    """Everything a screening run learned."""

    spec: ScreenSpec
    designs: int
    workloads: list
    #: Frontier entries, cheapest first: label/row/area/delay/predicted
    #: mean CPI, per-workload predictions, and (for the simulated
    #: subset) measured CPI.
    frontier: list
    #: Wall-clock seconds spent scoring (model only, no simulation).
    model_seconds: float
    #: (designs x workloads) scored per model second.
    scores_per_sec: float
    #: workload -> Calibration (anchor fit diagnostics).
    calibrations: dict = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"screened {self.designs} designs x {len(self.workloads)} workloads "
            f"in {self.model_seconds:.2f}s model time "
            f"({self.scores_per_sec:,.0f} scores/s)",
            f"  {'design':16s} {'area':>9s} {'delay':>6s} {'pred CPI':>9s} "
            f"{'sim CPI':>9s} {'err':>7s}",
        ]
        for entry in self.frontier:
            sim = entry.get("simulated")
            if sim:
                err = (entry["predicted"] - sim) / sim
                sim_s, err_s = f"{sim:9.4f}", f"{err:+6.1%}"
            else:
                sim_s, err_s = f"{'-':>9s}", f"{'-':>7s}"
            lines.append(
                f"  {entry['label']:16s} {entry['area']:9.1f} "
                f"{entry['delay']:6.2f} {entry['predicted']:9.4f} "
                f"{sim_s} {err_s}"
            )
        return "\n".join(lines)


class ScreenPipeline:
    """The screening state machine, runner-agnostic.

    Drives in two steps, each a batch of requests for
    :func:`~repro.eval.parallel.run_many` (local workers or a serve
    daemon, by ``EvalOptions.server``):

    1. :meth:`anchor_requests` -> run them -> :meth:`calibrate`
    2. :meth:`frontier_requests` -> run them -> :meth:`finish`
    """

    def __init__(self, spec: ScreenSpec, store=None):
        np = atmodel._require_numpy()
        self.np = np
        self.spec = spec
        self.store = store
        self.workloads = list(spec.workloads) or _all_workloads()
        self.space = enumerate_space(spec)
        self.area, self.delay = space_cost(self.space)
        self.calibrations: dict = {}
        self.predictions: dict = {}
        self.model_seconds = 0.0
        self._frontier_rows: list = []
        self._frontier_sim_idx: list = []

    # -- step 1: anchors -----------------------------------------------------

    def anchor_requests(self) -> list:
        """Anchor runs for every workload, in a fixed order."""
        reqs = []
        for workload in self.workloads:
            for mnemonic in self.spec.anchors:
                reqs.append(self._anchor_request(workload, mnemonic))
        return reqs

    def _anchor_request(self, workload: str, mnemonic: str) -> RunRequest:
        from repro.tlb.factory import DESIGN_MNEMONICS

        if mnemonic.upper() in DESIGN_MNEMONICS:
            return RunRequest.create(
                workload, mnemonic, max_instructions=self.spec.max_instructions
            )
        single = atmodel.mnemonic_space([mnemonic])
        return RunRequest.create(
            workload,
            mnemonic,
            mechanism=single.mechanism_spec(0),
            max_instructions=self.spec.max_instructions,
        )

    def calibrate(self, anchor_results: Sequence) -> None:
        """Consume anchor results (in :meth:`anchor_requests` order)."""
        per = len(self.spec.anchors)
        for w, workload in enumerate(self.workloads):
            chunk = anchor_results[w * per : (w + 1) * per]
            anchors = dict(zip(self.spec.anchors, chunk))
            # The profile of the build the anchors replay.
            profile = workload_profile(chunk[0].request.build_axes, self.store)
            cal = atmodel.calibrate(profile, anchors)
            tick = time.perf_counter()
            pred = atmodel.predict(profile, cal, self.space)
            self.model_seconds += time.perf_counter() - tick
            self.calibrations[workload] = cal
            self.predictions[workload] = pred.cpi
        self._select_frontier()

    def _select_frontier(self) -> None:
        np = self.np
        mean_cpi = np.mean(
            np.stack([self.predictions[w] for w in self.workloads]), axis=0
        )
        self.mean_cpi = mean_cpi
        mask = pareto_mask(np, self.area, mean_cpi)
        idx = np.nonzero(mask)[0]
        idx = idx[np.argsort(self.area[idx], kind="stable")]
        self._frontier_rows = [int(i) for i in idx]
        # Simulate a spread across the frontier: endpoints always, the
        # rest evenly spaced along the (area-sorted) frontier.
        budget = max(0, int(self.spec.simulate))
        if budget >= len(idx):
            chosen = list(range(len(idx)))
        elif budget:
            pos = np.linspace(0, len(idx) - 1, budget)
            chosen = sorted({int(round(p)) for p in pos})
        else:
            chosen = []
        self._frontier_sim_idx = [self._frontier_rows[i] for i in chosen]

    # -- step 2: frontier confirmation ---------------------------------------

    def frontier_requests(self) -> list:
        reqs = []
        for i in self._frontier_sim_idx:
            for workload in self.workloads:
                reqs.append(
                    RunRequest.create(
                        workload,
                        self.space.label(i),
                        mechanism=self.space.mechanism_spec(i),
                        page_size=1 << int(self.space.page_shift[i]),
                        max_instructions=self.spec.max_instructions,
                    )
                )
        return reqs

    def finish(self, frontier_results: Sequence) -> ScreenResult:
        """Assemble the result (frontier order = :meth:`frontier_requests`)."""
        measured: dict = {}
        k = len(self.workloads)
        for j, i in enumerate(self._frontier_sim_idx):
            chunk = frontier_results[j * k : (j + 1) * k]
            cpis = [
                r.stats.cycles / r.stats.committed
                for r in chunk
                if r is not None and r.stats.committed
            ]
            if cpis:
                measured[i] = sum(cpis) / len(cpis)
        frontier = []
        for i in self._frontier_rows:
            entry = {
                "label": self.space.label(i),
                "row": self.space.row(i),
                "area": float(self.area[i]),
                "delay": float(self.delay[i]),
                "predicted": float(self.mean_cpi[i]),
                "per_workload": {
                    w: float(self.predictions[w][i]) for w in self.workloads
                },
            }
            if i in measured:
                entry["simulated"] = measured[i]
            frontier.append(entry)
        scored = len(self.space) * len(self.workloads)
        return ScreenResult(
            spec=self.spec,
            designs=len(self.space),
            workloads=list(self.workloads),
            frontier=frontier,
            model_seconds=self.model_seconds,
            scores_per_sec=scored / self.model_seconds if self.model_seconds else 0.0,
            calibrations=dict(self.calibrations),
        )


# -- the driver ---------------------------------------------------------------


def screen(spec: ScreenSpec, options: "EvalOptions | None" = None) -> ScreenResult:
    """Run one screening job with the standard evaluation machinery.

    Anchor and frontier simulations go through
    :func:`~repro.eval.parallel.run_many` with ``options`` (jobs, result
    store, artifact store, progress all apply; with ``server`` set they
    run on that daemon, deduped against its other clients and answered
    from its store).  Profiles, calibration and scoring run here; with a
    result store attached, profiles are read from and written to it.
    """
    from repro.eval.parallel import run_many

    options = options or EvalOptions()
    pipeline = ScreenPipeline(spec, store=options.store)
    anchor_results = run_many(pipeline.anchor_requests(), options)
    pipeline.calibrate(anchor_results)
    frontier_results = run_many(pipeline.frontier_requests(), options)
    return pipeline.finish(frontier_results)
