"""Append-only job journal: what the daemon owes the world.

Durability of the evaluation service is *store-native*: finished runs
live in the content-addressed :class:`~repro.eval.resultstore.ResultStore`
the moment they complete, so a restarted daemon re-serves them as cache
hits without help.  The only state worth journaling is the queue — the
requests accepted but not yet completed.  This module records exactly
that, as JSON lines under the store root::

    {"event": "queued", "key": <req.key()>, "request": <req.to_dict()>}
    {"event": "done",   "key": <req.key()>}

On restart, :meth:`JobJournal.replay` returns the requests with a
``queued`` record but no matching ``done`` — the work that was in
flight when the daemon died — and the scheduler resimulates just those.
Each append is flushed and fsynced (submission rates are tiny next to
simulation times); a line truncated by a crash is skipped on replay.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.eval.runner import RunRequest


class JobJournal:
    """Append-only JSONL record of accepted-but-unfinished requests."""

    def __init__(self, path: "str | Path"):
        self.path = Path(path)

    def _append(self, record: dict) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def record_queued(self, req: RunRequest) -> None:
        self._append({"event": "queued", "key": req.key(), "request": req.to_dict()})

    def record_done(self, req: RunRequest) -> None:
        self._append({"event": "done", "key": req.key()})

    def replay(self) -> list[RunRequest]:
        """Requests queued but never marked done, in submission order.

        Unreadable lines (a crash can truncate the final one), lines
        that are not a record object with a string ``key``, and records
        that no longer decode into a request are skipped — a lost
        journal line only costs a recomputation, never correctness.
        """
        outstanding: dict[str, RunRequest] = {}
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except OSError:
            return []
        for line in lines:
            try:
                record = json.loads(line)
            except (ValueError, RecursionError):
                continue
            if not isinstance(record, dict) or not isinstance(record.get("key"), str):
                continue
            event, key = record.get("event"), record["key"]
            if event == "queued" and key not in outstanding:
                try:
                    outstanding[key] = RunRequest.from_dict(record["request"])
                except (KeyError, TypeError, ValueError):
                    continue
            elif event == "done":
                outstanding.pop(key, None)
        return list(outstanding.values())

    def compact(self, outstanding: "list[RunRequest]") -> None:
        """Atomically rewrite the journal to just ``outstanding``.

        Run at startup after :meth:`replay`, so the file stays
        proportional to the in-flight set instead of growing with every
        request ever served.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.parent / f".{self.path.name}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for req in outstanding:
                fh.write(
                    json.dumps(
                        {"event": "queued", "key": req.key(), "request": req.to_dict()},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
