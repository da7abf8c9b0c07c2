"""Simulation-as-a-service: an async evaluation daemon over the stores.

Every grid in the library used to start from a cold CLI process even
though :class:`~repro.eval.runner.RunRequest` is frozen/hashable/
serializable and both on-disk stores are content-addressed with atomic
writes.  This package keeps one long-running process warm and lets any
number of clients evaluate through it:

* :mod:`repro.serve.protocol` — the line-delimited JSON wire format
  (one message per line over a unix or TCP socket);
* :mod:`repro.serve.journal` — the append-only job journal that makes a
  killed daemon recoverable (completed work re-serves from the result
  store; only what was in flight is recomputed);
* :mod:`repro.serve.scheduler` — the asyncio scheduler: holds an
  exclusive lock on its store (one daemon per store), answers what it
  can from the stores, dedupes identical in-flight requests across all
  connected clients (one simulation, many subscribers), and dispatches
  the rest to a worker pool in the longest-estimated-first single-build
  chunks of :mod:`repro.eval.parallel`;
* :mod:`repro.serve.daemon` — the socket server; ``python -m
  repro.serve`` runs it;
* :mod:`repro.serve.client` — :class:`ServeClient` (async ``submit`` /
  ``stream``) plus the sync wrappers :func:`run_remote`,
  :func:`server_info` and :func:`shutdown_server`.

Quick start::

    $ python -m repro.serve --listen unix:/tmp/repro.sock --jobs 4 &
    $ python -m repro.eval figure5 --server unix:/tmp/repro.sock

    from repro.eval import EvalOptions, RunRequest, run_many
    results = run_many(grid, EvalOptions(server="unix:/tmp/repro.sock"))

Results are bit-identical to local :func:`repro.eval.runner.run_one`
(the simulator is fully deterministic; the service only moves *where*
it runs).  See ``docs/serving.md`` for the protocol and the durability
model.
"""

from repro.serve.client import ServeClient, run_remote, server_info, shutdown_server

__all__ = ["ServeClient", "run_remote", "server_info", "shutdown_server"]
