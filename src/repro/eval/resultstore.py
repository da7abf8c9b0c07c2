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

Layout (JSON, one file per run or derived summary, two-hex-char shard
directories)::

    <root>/ab/abcdef....json

``<root>`` defaults to ``$REPRO_RESULT_STORE`` or
``~/.cache/repro/runstore``.  Writes are atomic (temp file + rename) so
concurrent workers and concurrent CLI invocations can share a store.

The sibling :mod:`repro.eval.artifacts` store applies the same keying
discipline one layer down: it memoizes the design-independent *inputs*
of a run (program, trace, fetch plan) rather than its outcome, so even
store misses skip the functional re-execution.  Both subclass
:class:`Store` (here, so fingerprinting imports nothing else), which
owns the root default, the key path, the atomic write and the one read
path with its one miss rule.
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


class Store:
    """The on-disk layer both stores share.

    A subclass names its default root (``$<env_var>``, else
    ``~/.cache/repro/<leaf>``) and entry suffix, and writes each public
    read and write over :meth:`_path`, :meth:`_read` and :meth:`_write`.
    """

    env_var = ""
    leaf = ""
    suffix = ""

    def __init__(self, root: str | Path | None = None, fingerprint: str | None = None):
        if not root:
            root = os.environ.get(self.env_var) or (
                Path.home() / ".cache" / "repro" / self.leaf
            )
        self.root = Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.stats = StoreStats()

    def _path(self, content: dict) -> Path:
        """Where the entry described by ``content`` lives: the sha256 of
        its canonical JSON plus the code fingerprint, sharded."""
        text = json.dumps(
            {**content, "code": self.fingerprint}, sort_keys=True, separators=(",", ":")
        )
        key = hashlib.sha256(text.encode()).hexdigest()
        return self.root / key[:2] / f"{key}{self.suffix}"

    def _read(self, path: Path, decode):
        """``decode(path)``, counted as a hit, or None, counted as a miss.

        The stores' only error rule: an absent or unreadable file
        (``OSError``) or bytes the decoder rejects (``ValueError``, as
        :class:`~repro.func.tracefile.TraceFileError` is) is a miss, as
        is a decoder's None for an entry that answers another question.
        Any other exception is a bug and propagates.
        """
        try:
            value = decode(path)
        except (OSError, ValueError):
            value = None
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def _write(self, path: Path, write, data) -> Path:
        """``write(tmp, data)``, then rename over ``path`` (atomic)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.stem}.{os.getpid()}.tmp"
        write(tmp, data)
        os.replace(tmp, path)
        self.stats.puts += 1
        return path

    def _entries(self):
        return self.root.glob(f"??/*{self.suffix}")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every stored entry; returns the number removed."""
        paths = list(self._entries())
        for path in paths:
            path.unlink()
        return len(paths)


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except RecursionError:  # nested past the decoder's limit: malformed
        raise ValueError(f"{path.name}: JSON nested too deeply") from None


def _write_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, sort_keys=True))


class ResultStore(Store):
    """Persistent, content-addressed map RunRequest -> RunResult."""

    env_var = "REPRO_RESULT_STORE"
    leaf = "runstore"
    suffix = ".json"

    def path_for(self, req: RunRequest) -> Path:
        return self._path({"request": req.to_dict()})

    def __contains__(self, req: RunRequest) -> bool:
        return self.path_for(req).exists()

    def get(self, req: RunRequest) -> RunResult | None:
        """The stored result for ``req``, or None (counts a hit/miss).

        An entry holding another request's result reads as a miss.
        """
        from repro.eval.runner import RunResult

        def decode(path: Path) -> RunResult | None:
            result = RunResult.from_dict(_read_json(path))
            return result if result.request == req else None

        return self._read(self.path_for(req), decode)

    def put(self, result: RunResult) -> Path:
        """Persist ``result`` atomically; returns the entry's path."""
        payload = result.to_dict()
        payload["provenance"] = {
            **payload["provenance"],
            "code_fingerprint": self.fingerprint,
        }
        return self._write(self.path_for(result.request), _write_json, payload)

    # -- auxiliary derived results -------------------------------------------

    def get_aux(self, kind: str, spec: dict, decode):
        """``decode(payload)`` of a derived (non-RunResult) entry, e.g. a
        workload profile, keyed like a run on ``kind``, ``spec`` and the
        code fingerprint; None on a miss.  ``decode`` raises ValueError
        on any malformed payload."""
        path = self._path({"kind": kind, "spec": spec})
        return self._read(path, lambda path: decode(_read_json(path)))

    def put_aux(self, kind: str, spec: dict, value: dict) -> Path:
        """Persist a derived entry atomically (same layout rules as put)."""
        return self._write(self._path({"kind": kind, "spec": spec}), _write_json, value)
