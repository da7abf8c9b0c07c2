"""Single-run driver: the canonical run description and its executor.

:class:`RunRequest` is the *only* way a timing run is described anywhere
in the library — the experiment drivers, the ablation sweeps, both CLIs
and the benchmark harness all build one and hand it to :func:`run_one`
(or in batches to :func:`repro.eval.parallel.run_many`).  A request is
frozen, hashable and serializable, so it can be sent to a worker
process, used as a dict key, and content-hashed for the on-disk result
store (:mod:`repro.eval.resultstore`).

:func:`run_one` returns a :class:`RunResult`: the full machine counters
plus the request that produced them and provenance, round-trippable
through ``to_dict``/``from_dict``.

Workload programs and their dynamic traces depend only on (workload,
register budget, scale, budget), and fetch plans on those plus the
front-end configuration — not on the translation design — so all three
are cached per process in a small LRU (:class:`_BuildCache`) and
replayed under every design.  A workload's memory image is built,
captured once and dropped: replay never reads it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Mapping

from repro.caches.cache import CacheStats
from repro.engine.config import MachineConfig
from repro.engine.frontend import FetchPlan, build_fetch_plan, fetch_config_key
from repro.engine.machine import Machine
from repro.engine.stats import MachineStats
from repro.func.executor import capture_trace
from repro.ingest.build import compile_workload, is_trace_workload, parse_workload
from repro.tlb.base import TranslationMechanism
from repro.tlb.factory import (
    design_spec,
    make_mechanism,
    make_mechanism_from_spec,
    mechanism_class,
)
from repro.tlb.stats import TranslationStats
from repro.workloads import make_workload

if TYPE_CHECKING:
    from repro.eval.artifacts import ArtifactStore

#: Bumped whenever the RunResult serialization layout changes.
SCHEMA_VERSION = 2


def _normalize_pairs(value) -> tuple[tuple[str, Any], ...]:
    """Canonicalize a mapping / iterable of pairs to sorted tuples."""
    items = value.items() if isinstance(value, Mapping) else value
    return tuple(sorted((str(k), v) for k, v in items))


#: Names a request's ``config`` pairs may override: every MachineConfig
#: field except the two the request carries as fields of its own.
_CONFIG_NAMES = frozenset(f.name for f in fields(MachineConfig)) - {
    "issue_model",
    "page_size",
}


@dataclass(frozen=True)
class RunRequest:
    """Everything that identifies one timing run.

    Beyond the grid axes the paper's figures vary (design, issue model,
    page size, register budget), ``config`` carries arbitrary
    :class:`~repro.engine.config.MachineConfig` overrides as sorted
    ``(name, value)`` pairs, and ``mechanism`` optionally replaces the
    ``design`` mnemonic with a declarative ``(class name, kwargs)``
    mechanism spec (see :func:`repro.tlb.factory.make_mechanism_from_spec`)
    — the ablation sweeps use both.  Prefer :meth:`create`, which routes
    unknown keyword arguments into ``config`` automatically.
    """

    workload: str
    design: str
    issue_model: str = "ooo"
    page_size: int = 4096
    int_regs: int = 32
    fp_regs: int = 32
    scale: float = 1.0
    max_instructions: int = 60_000
    #: Extra MachineConfig overrides, as sorted (name, value) pairs.
    config: tuple[tuple[str, Any], ...] = ()
    #: Declarative mechanism spec (class name, sorted kwargs pairs);
    #: None means "instantiate the ``design`` mnemonic via the factory".
    mechanism: tuple[str, tuple[tuple[str, Any], ...]] | None = None

    def __post_init__(self):
        # Fail where the request is built (client, CLI, journal replay),
        # not later in a worker: mistyped fields, unknown config names,
        # designs and mechanism classes, and anything MachineConfig
        # refuses all raise ValueError here.
        for name in ("workload", "design"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string: {getattr(self, name)!r}")
        for name in ("page_size", "int_regs", "fp_regs", "max_instructions"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer: {value!r}")
        if not isinstance(self.scale, (int, float)) or isinstance(self.scale, bool):
            raise ValueError(f"scale must be a number: {self.scale!r}")
        if self.max_instructions < 1:
            raise ValueError(f"max_instructions must be >= 1: {self.max_instructions}")
        object.__setattr__(self, "config", _normalize_pairs(self.config))
        unknown = [name for name, _ in self.config if name not in _CONFIG_NAMES]
        if unknown:
            raise ValueError(f"unknown MachineConfig override(s): {unknown}")
        if self.mechanism is not None:
            name, kwargs = self.mechanism
            object.__setattr__(
                self, "mechanism", (str(name), _normalize_pairs(kwargs))
            )
            mechanism_class(self.mechanism[0])
        else:
            design_spec(self.design)
        self.machine_config()
        try:
            hash(self)  # the daemon's in-flight table keys on requests
        except TypeError as exc:
            raise ValueError(f"config and mechanism values must be hashable: {exc}") from None

    @classmethod
    def create(cls, workload: str, design: str, *, mechanism=None, **options):
        """Build a request, routing non-field options into ``config``."""
        known = {f.name for f in fields(cls)} - {"workload", "design", "mechanism"}
        direct = {k: options.pop(k) for k in list(options) if k in known}
        if options:
            merged = dict(_normalize_pairs(direct.get("config", ())))
            merged.update(options)
            direct["config"] = merged
        return cls(workload=workload, design=design, mechanism=mechanism, **direct)

    # -- derived objects ----------------------------------------------------

    def machine_config(self) -> MachineConfig:
        """The MachineConfig this request describes."""
        return MachineConfig(
            issue_model=self.issue_model,
            page_size=self.page_size,
            **dict(self.config),
        )

    def make_mech(self, page_shift: int) -> TranslationMechanism:
        """Instantiate the translation mechanism this request names."""
        if self.mechanism is not None:
            return make_mechanism_from_spec(self.mechanism, page_shift)
        return make_mechanism(self.design, page_shift)

    @property
    def build_axes(self) -> tuple:
        """``(workload, int_regs, fp_regs, scale, max_instructions)``: all
        a run's program, trace and fetch plans depend on, and the key of
        the build cache and the artifact store."""
        return (
            self.workload,
            self.int_regs,
            self.fp_regs,
            self.scale,
            self.max_instructions,
        )

    @property
    def name(self) -> str:
        """Display name, e.g. ``xlisp/M8`` (trace tokens shortened)."""
        workload = self.workload
        if is_trace_workload(workload):
            try:
                workload = parse_workload(workload).display
            except ValueError:
                pass  # malformed token: show it verbatim
        return f"{workload}/{self.design}"

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "design": self.design,
            "issue_model": self.issue_model,
            "page_size": self.page_size,
            "int_regs": self.int_regs,
            "fp_regs": self.fp_regs,
            "scale": self.scale,
            "max_instructions": self.max_instructions,
            "config": [list(pair) for pair in self.config],
            "mechanism": (
                None
                if self.mechanism is None
                else [self.mechanism[0], [list(p) for p in self.mechanism[1]]]
            ),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunRequest":
        d = dict(d)
        mech = d.pop("mechanism", None)
        if mech is not None:
            try:
                name, pairs = mech
                mech = (name, tuple((k, v) for k, v in pairs))
            except (TypeError, ValueError):
                raise ValueError(
                    f"mechanism must be a [name, [[key, value], ...]] pair: {mech!r}"
                ) from None
        return cls(mechanism=mech, **d)

    def key(self) -> str:
        """Stable content hash of this request (hex).

        Two requests have the same key iff every field matches; the
        result store combines this with a code-version fingerprint to
        form its on-disk key.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RunResult:
    """Outcome of one timing run: stats + the request + provenance.

    Serializable via :meth:`to_dict`/:meth:`from_dict` (the result-store
    on-disk format).  Exposes the same ``cycles``/``ipc``/``stats``/
    ``name`` surface the old ``SimulationResult`` did, so downstream
    consumers (report, analysis) are drop-in.
    """

    request: RunRequest
    stats: MachineStats
    provenance: dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.request.name

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        """Committed IPC."""
        return self.stats.commit_ipc

    def to_dict(self) -> dict[str, Any]:
        stats = dataclasses.asdict(self.stats)
        return {
            "schema": SCHEMA_VERSION,
            "request": self.request.to_dict(),
            "stats": stats,
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict`; ValueError on any malformed payload."""
        try:
            return cls(
                request=RunRequest.from_dict(d["request"]),
                stats=_stats_from_dict(d["stats"]),
                provenance=dict(d.get("provenance", {})),
            )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed run result: {exc!r}") from None


def _require_fields(cls, d: Any, what: str) -> Mapping[str, Any]:
    """``d`` itself, once it is an object holding every field of ``cls``."""
    if not isinstance(d, Mapping):
        raise ValueError(f"{what} must be an object: {d!r}")
    missing = [f.name for f in fields(cls) if f.name not in d]
    if missing:
        raise ValueError(f"{what} lacks field(s) {missing}")
    return d


def _stats_from_dict(d: Any) -> MachineStats:
    """Rebuild MachineStats (and its nested stat objects) from a dict.

    Raises ValueError unless every stat object is present and complete:
    a damaged entry must never decode to zeroed counters.
    """
    d = dict(_require_fields(MachineStats, d, "stats"))
    icache = CacheStats(**_require_fields(CacheStats, d.pop("icache"), "icache"))
    dcache = CacheStats(**_require_fields(CacheStats, d.pop("dcache"), "dcache"))
    translation = TranslationStats(
        **_require_fields(TranslationStats, d.pop("translation"), "translation")
    )
    histogram = d.pop("translation_demand")
    if not isinstance(histogram, Mapping):
        raise ValueError(f"translation_demand must be an object: {histogram!r}")
    # JSON round-trips turn the demand histogram's int keys into strings.
    demand = {int(k): v for k, v in histogram.items()}
    known = {f.name for f in fields(MachineStats)}
    return MachineStats(
        icache=icache,
        dcache=dcache,
        translation=translation,
        translation_demand=demand,
        **{k: v for k, v in d.items() if k in known},
    )


@dataclass
class _BuildCache:
    """Bounded per-process LRU of what replay reads: programs, dynamic
    traces and fetch plans.

    A trace and the program it runs are kept together, keyed on the
    trace axes (workload, register budgets, scale, instruction budget),
    and leave the cache together.  The workload's initialized memory
    image is *not* kept: capture needs it once and replay never reads
    it (an image is up to 2.1 MB, doduc's; a trace is under 1 MB per
    5,000 instructions).
    Grid drivers order their runs workload-major (see
    :func:`repro.eval.parallel.run_many`), so a small bound still gives
    every design of a workload a warm trace.

    When an on-disk :class:`~repro.eval.artifacts.ArtifactStore` is
    attached (:func:`configure_artifacts`), trace and fetch-plan misses
    first try to *hydrate* from it — a cheap deserialize instead of a
    full functional re-execution — and anything built fresh is written
    back, so worker processes of a parallel grid capture each workload
    once and replay it everywhere.
    """

    max_traces: int = 4
    max_plans: int = 4
    traces: OrderedDict = field(default_factory=OrderedDict)
    #: The program behind each cached trace, under the same key: a
    #: synthetic workload's static code, or the program synthesized for
    #: an ingested external trace.
    programs: OrderedDict = field(default_factory=OrderedDict)
    plans: OrderedDict = field(default_factory=OrderedDict)
    artifacts: ArtifactStore | None = None

    def get_trace(self, *axes) -> list:
        """Materialized dynamic trace for :attr:`RunRequest.build_axes`
        ``axes``, shared across designs.

        The trace depends only on the program and its inputs — not on
        the translation design, page size, or issue model — so a figure
        grid replays one functional execution under every design.
        """
        trace = self.traces.get(axes)
        if trace is None:
            return self._load(axes)[1]
        self.traces.move_to_end(axes)
        self.programs.move_to_end(axes)
        return trace

    def get_program(self, *axes):
        """The program :meth:`get_trace` replays for the same axes."""
        self.get_trace(*axes)  # loads or refreshes the pair
        return self.programs[axes]

    def _load(self, key: tuple):
        """Hydrate or build ``(program, trace)`` for ``key`` and cache both."""
        hydrated = self.artifacts.load_build(key) if self.artifacts is not None else None
        program, trace = hydrated or self._build(key)
        self.programs[key] = program
        self.traces[key] = trace
        while len(self.traces) > self.max_traces:
            evicted, _ = self.traces.popitem(last=False)
            del self.programs[evicted]
        return program, trace

    def _build(self, key: tuple):
        """Build ``(program, trace)`` and write it through to the store.

        A synthetic workload is built and its freshly built memory image
        captured in place — nothing else holds it — and dropped on
        return.  An ingested workload's token is self-describing (source
        path + content digest + window policy), so it compiles in any
        process that holds it — pool workers, the serve daemon — with no
        registry handshake, and its build is stored with its provenance.
        """
        workload, int_regs, fp_regs, scale, max_instructions = key
        if is_trace_workload(workload):
            compiled = compile_workload(
                workload,
                int_regs=int_regs,
                fp_regs=fp_regs,
                max_instructions=max_instructions,
            )
            if self.artifacts is not None:
                self.artifacts.save_ingested(
                    key, compiled.program, compiled.trace, compiled.meta
                )
            return compiled.program, compiled.trace
        build = make_workload(workload).build(
            int_regs=int_regs, fp_regs=fp_regs, scale=scale
        )
        trace = capture_trace(
            build.program, build.memory, max_instructions=max_instructions
        )
        if self.artifacts is not None:
            self.artifacts.save_build(key, build.program, trace)
        return build.program, trace

    def get_fetch_plan(
        self, req: "RunRequest", config: MachineConfig, trace: list
    ) -> FetchPlan:
        """Precomputed fetch stream, shared across designs.

        Fetch behavior is time-invariant (see
        :class:`repro.engine.frontend.FetchPlan`), so it depends only on
        the trace and the front-end slice of the machine configuration —
        the thirteen designs of a figure grid replay one plan.
        """
        axes = req.build_axes
        fetch_key = fetch_config_key(config)
        key = axes + fetch_key
        plan = self.plans.get(key)
        if plan is not None:
            self.plans.move_to_end(key)
            return plan
        if self.artifacts is not None:
            plan = self.artifacts.load_plan(axes, fetch_key, trace)
        if plan is None:
            plan = build_fetch_plan(trace, config)
            if self.artifacts is not None:
                self.artifacts.save_plan(axes, fetch_key, plan)
        self.plans[key] = plan
        while len(self.plans) > self.max_plans:
            self.plans.popitem(last=False)
        return plan


_CACHE = _BuildCache()


def clear_build_cache() -> None:
    """Drop cached programs, traces and fetch plans (frees their memory)."""
    _CACHE.traces.clear()
    _CACHE.programs.clear()
    _CACHE.plans.clear()


def configure_artifacts(store) -> Any:
    """Attach an on-disk artifact store to this process's build cache.

    ``store`` is a :class:`repro.eval.artifacts.ArtifactStore` (or any
    object with ``load_build``/``save_build``/``load_plan``/``save_plan``),
    or ``None`` to detach.  Returns the previously attached store so
    callers can scope the attachment (``prev = configure_artifacts(s)``
    ... ``configure_artifacts(prev)``).  Worker processes of
    :func:`repro.eval.parallel.run_many` call this on startup so every
    trace/plan miss hydrates from disk before falling back to building.
    """
    previous = _CACHE.artifacts
    _CACHE.artifacts = store
    return previous


def simulate(req: RunRequest, profiler=None) -> RunResult:
    """Execute one timing run unconditionally (no result store).

    The mechanism is the one ``req`` names (design mnemonic or
    declarative spec), so every run is content-addressable.
    ``profiler`` (a :class:`repro.perf.SimProfiler`) collects host-side
    phase timings without affecting the simulated outcome.
    """
    trace = _CACHE.get_trace(*req.build_axes)
    config = req.machine_config()
    mech = req.make_mech(config.page_shift)
    plan = _CACHE.get_fetch_plan(req, config, trace)
    machine = Machine(
        config, mech, trace, name=req.name, profiler=profiler, fetch_plan=plan
    )
    sim = machine.run()
    import repro

    return RunResult(
        request=req,
        stats=sim.stats,
        provenance={"schema": SCHEMA_VERSION, "version": repro.__version__},
    )


def run_one(req: RunRequest, store=None, profiler=None) -> RunResult:
    """Execute one timing run, memoized through ``store`` when given.

    ``store`` is a :class:`repro.eval.resultstore.ResultStore` (or any
    object with ``get(req)``/``put(result)``); ``None`` always simulates.
    A ``profiler`` forces a fresh simulation — a store hit would have no
    host time to measure — but the result is still stored.
    """
    if store is not None and profiler is None:
        cached = store.get(req)
        if cached is not None:
            return cached
    result = simulate(req, profiler=profiler)
    if store is not None:
        store.put(result)
    return result
