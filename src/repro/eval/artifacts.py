"""Content-addressed on-disk cache of workload *build* artifacts.

The result store (:mod:`repro.eval.resultstore`) memoizes finished
runs; this module memoizes the expensive *design-independent* half of a
run so it can be captured once and replayed by any number of worker
processes — the trace capture/replay pattern of simulation-acceleration
work.  Two artifact kinds are stored, as version-2
:mod:`repro.func.tracefile` containers:

* **build** — the generated :class:`~repro.isa.program.Program` plus its
  dynamic instruction trace, keyed on the build axes
  ``(workload, int_regs, fp_regs, scale, max_instructions)`` (see
  :attr:`~repro.eval.runner.RunRequest.build_axes`);
* **plan** — a per-frontend-configuration
  :class:`~repro.engine.frontend.FetchPlan`, keyed on the build axes
  plus :func:`~repro.engine.frontend.fetch_config_key`.

Each container is written whole, once, by the build cache's
write-through (:class:`~repro.eval.runner._BuildCache`); nothing
rewrites one.  Derived summaries of a build, such as the analysis
profile, memoize in the result store instead.

Keys follow the result store's invalidation rule: the content hash
mixes in the :func:`~repro.eval.resultstore.code_fingerprint`, so *any*
source change invalidates every artifact (stale entries are simply
never looked up again; prune with :meth:`ArtifactStore.clear`).

Layout (one container per artifact, two-hex-char shard directories)::

    <root>/ab/abcdef....rpta

``<root>`` defaults to ``$REPRO_ARTIFACT_STORE`` or
``~/.cache/repro/artifacts``.  Keys, writes and reads all go through
:class:`~repro.eval.resultstore.Store`: writes are atomic (temp file +
rename) so concurrent build workers and concurrent invocations can share
a store, and corrupt or wrong-version entries read as misses and are
rebuilt.
"""

from __future__ import annotations

from pathlib import Path

from repro.engine.frontend import FetchPlan, decode_fetch_plan, encode_fetch_plan
from repro.eval.resultstore import Store
from repro.func.dyninst import DynInst
from repro.func.tracefile import (
    SECTION_EXTERN,
    SECTION_PLAN,
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
from repro.ingest.build import is_trace_workload, parse_workload
from repro.isa.program import Program

#: Build axes: (workload, int_regs, fp_regs, scale, max_instructions).
BuildAxes = tuple


def _section(sections: dict[bytes, bytes], tag: bytes) -> bytes:
    """``sections[tag]``; a container without it is malformed."""
    if tag not in sections:
        raise TraceFileError(f"container has no {tag.decode()} section")
    return sections[tag]


def _build_sections(program: Program, trace: list) -> dict[bytes, bytes]:
    return {
        SECTION_PROGRAM: encode_program(program),
        SECTION_TRACE: encode_trace(trace, len(program)),
    }


def _provenance_matches(sections: dict[bytes, bytes], token: str) -> bool:
    """Whether the ``EXTR`` section describes the ingested ``token``.

    The key already folds the token in, so a mismatch means the file on
    disk is damaged or foreign, never that two workloads collided.
    """
    spec = parse_workload(token)
    meta = decode_extern_meta(_section(sections, SECTION_EXTERN))
    return (
        str(meta.get("source_digest", "")).startswith(spec.digest12)
        and meta.get("window") == spec.window.to_payload()
    )


class ArtifactStore(Store):
    """Persistent, content-addressed cache of builds and fetch plans."""

    env_var = "REPRO_ARTIFACT_STORE"
    leaf = "artifacts"
    suffix = ".rpta"

    def build_path(self, axes: BuildAxes) -> Path:
        return self._path({"kind": "build", "axes": list(axes)})

    def plan_path(self, axes: BuildAxes, fetch_key: tuple) -> Path:
        return self._path({"kind": "plan", "axes": list(axes), "fetch": list(fetch_key)})

    def has_build(self, axes: BuildAxes) -> bool:
        return self.build_path(axes).exists()

    def has_plan(self, axes: BuildAxes, fetch_key: tuple) -> bool:
        return self.plan_path(axes, fetch_key).exists()

    # -- build artifacts ------------------------------------------------------

    def load_build(self, axes: BuildAxes) -> "tuple[Program, list[DynInst]] | None":
        """Hydrate (program, trace) for ``axes``, or None on a miss.

        When ``axes`` names an ingested ``trace:`` token, the ``EXTR``
        provenance section is verified against it: a missing or corrupt
        section, another source digest or another window policy all
        read as misses (the caller recompiles and overwrites).
        """

        def decode(path: Path):
            sections = read_container(path)
            if is_trace_workload(axes[0]) and not _provenance_matches(sections, axes[0]):
                return None
            program = decode_program(_section(sections, SECTION_PROGRAM))
            return program, decode_trace(_section(sections, SECTION_TRACE), program)

        return self._read(self.build_path(axes), decode)

    def save_build(self, axes: BuildAxes, program: Program, trace: list) -> Path:
        """Persist a build artifact atomically; returns the entry's path."""
        return self._write(
            self.build_path(axes), write_container, _build_sections(program, trace)
        )

    def save_ingested(
        self, axes: BuildAxes, program: Program, trace: list, meta: dict
    ) -> Path:
        """Persist an ingested build (program + trace + provenance)."""
        sections = _build_sections(program, trace)
        sections[SECTION_EXTERN] = encode_extern_meta(meta)
        return self._write(self.build_path(axes), write_container, sections)

    # -- fetch-plan artifacts -------------------------------------------------

    def load_plan(
        self, axes: BuildAxes, fetch_key: tuple, trace: list
    ) -> "FetchPlan | None":
        """Hydrate the fetch plan for ``axes`` + ``fetch_key`` over ``trace``."""
        return self._read(
            self.plan_path(axes, fetch_key),
            lambda path: decode_fetch_plan(
                _section(read_container(path), SECTION_PLAN), trace
            ),
        )

    def save_plan(self, axes: BuildAxes, fetch_key: tuple, plan: FetchPlan) -> Path:
        """Persist a fetch-plan artifact atomically."""
        trace_length = sum(
            len(event[0].insts) for event in plan.events if event.__class__ is not int
        )
        return self._write(
            self.plan_path(axes, fetch_key),
            write_container,
            {SECTION_PLAN: encode_fetch_plan(plan, trace_length)},
        )

