"""Content-addressed on-disk store of finished timing runs.

Every figure and table in the paper is a grid of independent
(workload x design x config) runs; a run's outcome is fully determined
by its :class:`~repro.eval.runner.RunRequest` and the simulator source.
The store therefore keys each :class:`~repro.eval.runner.RunResult` by

    sha256(canonical-JSON(request)  +  code fingerprint)

where the fingerprint hashes every ``.py`` file under the installed
``repro`` package.  Invalidation rule: change *any* request field or
*any* source file and the key changes — stale entries are simply never
looked up again (prune them with :meth:`ResultStore.clear`).

Layout (JSON, one file per run, two-hex-char shard directories)::

    <root>/ab/abcdef....json

``<root>`` defaults to ``$REPRO_RESULT_STORE`` or
``~/.cache/repro/runstore``.  Writes are atomic (temp file + rename) so
concurrent workers and concurrent CLI invocations can share a store.

The sibling :mod:`repro.eval.artifacts` store applies the same keying
discipline (content hash + :func:`code_fingerprint`) one layer down: it
memoizes the design-independent *inputs* of a run (program, trace,
fetch plan) rather than its outcome, so even store misses skip the
functional re-execution.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # the runner imports the whole simulator
    from repro.eval.runner import RunRequest, RunResult

_FINGERPRINT: str | None = None


def _iter_source_files():
    """Yield ``(key, path)`` for every source file the fingerprint covers.

    Two sweeps, deduplicated by resolved path:

    1. every file under the installed ``repro`` package root (not just
       ``*.py`` — compiled extensions or data files shipped alongside
       the sources also shape results);
    2. the resolved ``__file__`` of every imported ``repro.*`` module in
       ``sys.modules``, which catches sources loaded from *other*
       locations — editable installs, namespace-package layouts, or
       test-injected modules — that the directory sweep cannot see.

    The second sweep is empty in the standard layout (every module file
    already lives under the package root), so the fingerprint stays
    stable across processes that import different module subsets.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    seen: set[Path] = set()
    if root.is_dir():
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if path.name.endswith((".pyc", ".pyo")) or "__pycache__" in path.parts:
                continue
            seen.add(path)
            yield str(path.relative_to(root)), path
    for name in sorted(sys.modules):
        if name != "repro" and not name.startswith("repro."):
            continue
        module = sys.modules[name]
        file = getattr(module, "__file__", None)
        if not file:
            continue
        try:
            path = Path(file).resolve()
        except OSError:
            continue
        if path in seen or not path.is_file():
            continue
        seen.add(path)
        yield f"module:{name}", path


def code_fingerprint(refresh: bool = False) -> str:
    """Hash of the repro package's source (cached per process).

    Covers names and contents of every file under the package root
    *and* of every imported ``repro.*`` module resolved via
    ``sys.modules`` — so edits picked up through editable installs or
    namespace layouts, and changes to non-``.py`` package data, also
    invalidate every stored run.  ``refresh=True`` recomputes the
    cached value (tests use it after mutating a module on disk).
    """
    global _FINGERPRINT
    if _FINGERPRINT is None or refresh:
        digest = hashlib.sha256()
        for key, path in _iter_source_files():
            digest.update(key.encode())
            digest.update(b"\0")
            try:
                digest.update(path.read_bytes())
            except OSError:
                digest.update(b"<unreadable>")
            digest.update(b"\0")
        _FINGERPRINT = digest.hexdigest()[:16]
    return _FINGERPRINT


@dataclass
class StoreStats:
    """Per-process counters of store traffic (the re-simulation audit)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0

    def render(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.puts} stored"


class ResultStore:
    """Persistent, content-addressed map RunRequest -> RunResult."""

    def __init__(self, root: str | Path | None = None, fingerprint: str | None = None):
        if root is None:
            root = os.environ.get("REPRO_RESULT_STORE") or (
                Path.home() / ".cache" / "repro" / "runstore"
            )
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = StoreStats()

    def key(self, req: RunRequest) -> str:
        """The on-disk key: request content hash + code fingerprint."""
        payload = json.dumps(
            {"request": req.to_dict(), "code": self.fingerprint},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def path_for(self, req: RunRequest) -> Path:
        key = self.key(req)
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, req: RunRequest) -> bool:
        return self.path_for(req).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json")) if self.root.exists() else 0

    def get(self, req: RunRequest) -> RunResult | None:
        """The stored result for ``req``, or None (counts a hit/miss)."""
        from repro.eval.runner import RunResult

        path = self.path_for(req)
        try:
            text = path.read_text()
            result = RunResult.from_dict(json.loads(text))
        except (OSError, ValueError, KeyError, TypeError):
            result = None
        if result is None or result.request != req:
            # Missing, corrupt or foreign entry: treat as a miss (it
            # will be recomputed and overwritten).
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, result: RunResult) -> Path:
        """Persist ``result`` atomically; returns the entry's path."""
        key = self.key(result.request)
        path = self.root / key[:2] / f"{key}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = result.to_dict()
        provenance = dict(payload.get("provenance") or {})
        provenance["code_fingerprint"] = self.fingerprint
        payload["provenance"] = provenance
        tmp = path.parent / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
        self.stats.puts += 1
        return path

    def clear(self) -> int:
        """Delete every stored entry; returns the number removed."""
        removed = 0
        if self.root.exists():
            for path in self.root.glob("??/*.json"):
                path.unlink()
                removed += 1
            for path in self.root.glob("aux/*.json"):
                path.unlink()
                removed += 1
        return removed

    # -- auxiliary derived results -------------------------------------------

    def aux_key(self, kind: str, spec: dict) -> str:
        """Key for a derived (non-RunResult) entry, e.g. a screen summary.

        Same discipline as :meth:`key`: the canonical JSON of the
        describing ``spec`` plus the code fingerprint, so any source
        change or spec change invalidates the entry.
        """
        payload = json.dumps(
            {"kind": kind, "spec": spec, "code": self.fingerprint},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def aux_path(self, kind: str, spec: dict) -> Path:
        return self.root / "aux" / f"{self.aux_key(kind, spec)}.json"

    def get_aux(self, kind: str, spec: dict) -> "dict | None":
        """The stored derived entry for (kind, spec), or None on a miss."""
        try:
            value = json.loads(self.aux_path(kind, spec).read_text())
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put_aux(self, kind: str, spec: dict, value: dict) -> Path:
        """Persist a derived entry atomically (same layout rules as put)."""
        path = self.aux_path(kind, spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.stem}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(value, sort_keys=True))
        os.replace(tmp, path)
        self.stats.puts += 1
        return path
