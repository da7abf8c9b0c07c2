"""Content-addressed on-disk cache of workload *build* artifacts.

The result store (:mod:`repro.eval.resultstore`) memoizes finished
runs; this module memoizes the expensive *design-independent* half of a
run so it can be captured once and replayed by any number of worker
processes — the trace capture/replay pattern of simulation-acceleration
work.  Two artifact kinds are stored, as version-2
:mod:`repro.func.tracefile` containers:

* **build** — the generated :class:`~repro.isa.program.Program` plus its
  dynamic instruction trace, keyed on the build axes
  ``(workload, int_regs, fp_regs, scale, max_instructions)``;
* **plan** — a per-frontend-configuration
  :class:`~repro.engine.frontend.FetchPlan`, keyed on the build axes
  plus :func:`~repro.engine.frontend.fetch_config_key`.

Keys follow the result store's invalidation rule: the content hash
mixes in the :func:`~repro.eval.resultstore.code_fingerprint`, so *any*
source change invalidates every artifact (stale entries are simply
never looked up again; prune with :meth:`ArtifactStore.clear`).

Layout (one container per artifact, two-hex-char shard directories)::

    <root>/ab/abcdef....rpta

``<root>`` defaults to ``$REPRO_ARTIFACT_STORE`` or
``~/.cache/repro/artifacts``.  Writes are atomic (temp file + rename)
so concurrent build workers and concurrent invocations can share a
store; corrupt or wrong-version entries read as misses and are rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.profile import (
    AnalysisProfile,
    ProfileParams,
    decode_profile_section,
    encode_profile_section,
)
from repro.engine.frontend import FetchPlan, decode_fetch_plan, encode_fetch_plan
from repro.eval.resultstore import code_fingerprint
from repro.func.dyninst import DynInst
from repro.func.tracefile import (
    SECTION_EXTERN,
    SECTION_PLAN,
    SECTION_PROFILE,
    SECTION_PROGRAM,
    SECTION_TRACE,
    TraceFileError,
    decode_extern_meta,
    decode_program,
    decode_trace,
    encode_extern_meta,
    encode_program,
    encode_trace,
    read_container,
    write_container,
)
from repro.isa.program import Program

#: Build axes: (workload, int_regs, fp_regs, scale, max_instructions).
BuildAxes = tuple


@dataclass
class ArtifactStats:
    """Per-process counters of artifact traffic (the re-build audit)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    def render(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.puts} stored"


class ArtifactStore:
    """Persistent, content-addressed cache of builds and fetch plans."""

    def __init__(self, root: "str | Path | None" = None, fingerprint: str | None = None):
        if root is None or root == "":
            root = os.environ.get("REPRO_ARTIFACT_STORE") or (
                Path.home() / ".cache" / "repro" / "artifacts"
            )
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = ArtifactStats()

    # -- keys -----------------------------------------------------------------

    def _key(self, kind: str, axes: BuildAxes, fetch_key: tuple | None = None) -> str:
        payload = {"kind": kind, "axes": list(axes), "code": self.fingerprint}
        if fetch_key is not None:
            payload["fetch"] = list(fetch_key)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.rpta"

    def build_path(self, axes: BuildAxes) -> Path:
        return self._path(self._key("build", axes))

    def plan_path(self, axes: BuildAxes, fetch_key: tuple) -> Path:
        return self._path(self._key("plan", axes, fetch_key))

    def has_build(self, axes: BuildAxes) -> bool:
        return self.build_path(axes).exists()

    def has_plan(self, axes: BuildAxes, fetch_key: tuple) -> bool:
        return self.plan_path(axes, fetch_key).exists()

    # -- build artifacts ------------------------------------------------------

    def load_build(self, axes: BuildAxes) -> "tuple[Program, list[DynInst]] | None":
        """Hydrate (program, trace) for ``axes``, or None on a miss."""
        path = self.build_path(axes)
        try:
            sections = read_container(path)
            program = decode_program(sections[SECTION_PROGRAM])
            trace = decode_trace(sections[SECTION_TRACE], program)
        except (OSError, KeyError, TraceFileError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return program, trace

    def save_build(self, axes: BuildAxes, program: Program, trace: list) -> Path:
        """Persist a build artifact atomically; returns the entry's path."""
        return self._write(
            self.build_path(axes),
            {
                SECTION_PROGRAM: encode_program(program),
                SECTION_TRACE: encode_trace(trace, len(program)),
            },
        )

    # -- ingested-trace builds ------------------------------------------------

    def load_ingested(
        self, axes: BuildAxes, digest_prefix: str, window_payload: dict
    ) -> "tuple[Program, list[DynInst], dict] | None":
        """Hydrate an ingested external-trace build, or None on a miss.

        Same container family as :meth:`load_build` plus the ``EXTR``
        provenance section, which is *verified* against the requesting
        workload token: a missing/corrupt section, a different source
        digest, or a different window policy all read as clean misses
        (the caller recompiles from the portable trace and overwrites).
        The key already folds the token in via ``axes``, so a verified
        mismatch means the file on disk is damaged or foreign, never
        that two workloads collided.
        """
        path = self.build_path(axes)
        try:
            sections = read_container(path)
            meta = decode_extern_meta(sections[SECTION_EXTERN])
            program = decode_program(sections[SECTION_PROGRAM])
            trace = decode_trace(sections[SECTION_TRACE], program)
        except (OSError, KeyError, TraceFileError):
            self.stats.misses += 1
            return None
        if (
            not str(meta.get("source_digest", "")).startswith(digest_prefix)
            or not digest_prefix
            or meta.get("window") != window_payload
        ):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return program, trace, meta

    def save_ingested(
        self, axes: BuildAxes, program: Program, trace: list, meta: dict
    ) -> Path:
        """Persist an ingested build (program + trace + provenance)."""
        return self._write(
            self.build_path(axes),
            {
                SECTION_PROGRAM: encode_program(program),
                SECTION_TRACE: encode_trace(trace, len(program)),
                SECTION_EXTERN: encode_extern_meta(meta),
            },
        )

    # -- analysis-profile artifacts -------------------------------------------

    def load_profile(
        self, axes: BuildAxes, params: ProfileParams
    ) -> "AnalysisProfile | None":
        """Hydrate the analysis profile for ``axes``, or None on a miss.

        The ``PROF`` section rides in the build container (a profile is
        a pure function of the trace plus ``params``).  A missing or
        corrupt section, a wrong payload version, or a ``params``
        mismatch all read as clean misses — the caller re-profiles and
        :meth:`save_profile` overwrites the section.
        """
        path = self.build_path(axes)
        try:
            sections = read_container(path)
            profile = decode_profile_section(sections[SECTION_PROFILE])
        except (OSError, KeyError, ValueError, TraceFileError):
            self.stats.misses += 1
            return None
        if profile.params != params:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return profile

    def save_profile(self, axes: BuildAxes, profile: AnalysisProfile) -> "Path | None":
        """Merge the analysis profile into the build container.

        Reads the existing container, sets ``PROF`` while carrying every
        other section forward (including tags this build does not know),
        and rewrites atomically; returns None when no build container
        exists yet (nothing to attach to).
        """
        path = self.build_path(axes)
        try:
            sections = read_container(path)
        except (OSError, TraceFileError):
            return None
        sections[SECTION_PROFILE] = encode_profile_section(profile)
        return self._write(path, sections)

    # -- fetch-plan artifacts -------------------------------------------------

    def load_plan(
        self, axes: BuildAxes, fetch_key: tuple, trace: list
    ) -> "FetchPlan | None":
        """Hydrate the fetch plan for ``axes`` + ``fetch_key`` over ``trace``."""
        path = self.plan_path(axes, fetch_key)
        try:
            sections = read_container(path)
            plan = decode_fetch_plan(sections[SECTION_PLAN], trace)
        except (OSError, KeyError, TraceFileError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return plan

    def save_plan(self, axes: BuildAxes, fetch_key: tuple, plan: FetchPlan) -> Path:
        """Persist a fetch-plan artifact atomically."""
        trace_length = sum(
            len(event[0].insts) for event in plan.events if event.__class__ is not int
        )
        return self._write(
            self.plan_path(axes, fetch_key),
            {SECTION_PLAN: encode_fetch_plan(plan, trace_length)},
        )

    # -- shared plumbing ------------------------------------------------------

    def _write(self, path: Path, sections: dict[bytes, bytes]) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.stem}.{os.getpid()}.tmp"
        write_container(tmp, sections)
        os.replace(tmp, path)
        self.stats.puts += 1
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.rpta")) if self.root.exists() else 0

    def clear(self) -> int:
        """Delete every stored artifact; returns the number removed."""
        removed = 0
        if self.root.exists():
            for path in self.root.glob("??/*.rpta"):
                path.unlink()
                removed += 1
        return removed
