"""CLI: run the evaluation daemon.

Usage::

    python -m repro.serve [--listen ADDR] [--jobs N] [--store DIR]
                          [--no-cache] [--artifacts [DIR]]

``ADDR`` is ``unix:<path>`` or ``[tcp:]host:port``; the default is
``$REPRO_SERVE_ADDR`` or a unix socket next to the default stores
(``~/.cache/repro/serve.sock``).  The daemon owns the result store
(default on — durability is store-native), an artifact store (default
on: workers hydrate builds from disk) and a job journal under the store
root (killed daemons recover: completed work re-serves as cache hits,
only in-flight requests are recomputed).  One daemon serves a store at
a time: a second one started on a store that is already served exits
with status 1 and a ``store ... is already served by another daemon``
error.

Stop it with SIGINT/SIGTERM or a client ``shutdown`` op
(:func:`repro.serve.client.shutdown_server`); both drain cleanly.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import signal
import sys

from repro.eval.options import EvalOptions, add_eval_args, default_server_address
from repro.serve.daemon import EvalServer
from repro.serve.journal import JobJournal
from repro.serve.scheduler import Scheduler, StoreLockedError


def build_server(address: str, opts: EvalOptions) -> EvalServer:
    """Assemble a daemon from resolved options (shared with tests).

    A daemon with a store always journals its queue under the store root.
    """
    store = opts.store
    journal = JobJournal(store.root / "journal.jsonl") if store is not None else None
    scheduler = Scheduler(
        store=store, artifacts=opts.artifacts, jobs=opts.jobs, journal=journal
    )
    return EvalServer(scheduler, address)


async def amain(args: argparse.Namespace) -> int:
    opts = EvalOptions.from_args(args)
    if opts.artifacts is None and not args.no_artifacts:
        # Long-running daemons always want the build cache warm.
        from repro.eval.artifacts import ArtifactStore

        opts = dataclasses.replace(opts, artifacts=ArtifactStore(None))
    if args.trace is not None:
        # Pre-warm an ingested workload: mint its token (validating the
        # file and hashing its content), compile the default-budget
        # build into the artifact store so the first client requests
        # hydrate instead of compiling, and print the token clients
        # should put in their requests' workload field.
        from repro.eval.runner import RunRequest, _CACHE, configure_artifacts
        from repro.ingest.build import trace_workload_from_args

        token = trace_workload_from_args(args)
        previous = configure_artifacts(opts.artifacts)
        try:
            trace = _CACHE.get_trace(*RunRequest(token, "T4").build_axes)
        finally:
            configure_artifacts(previous)
        print(
            f"repro.serve: ingested {args.trace} ({len(trace)} records at the "
            f"default budget); request it as workload:\n  {token}",
            file=sys.stderr,
            flush=True,
        )
    address = args.listen or default_server_address()
    server = build_server(address, opts)
    try:
        recovered = await server.start()
    except StoreLockedError as exc:
        print(f"repro.serve: error: {exc}", file=sys.stderr, flush=True)
        return 1
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(sig, server.request_stop)
    store_root = opts.store.root if opts.store is not None else "(no store)"
    print(
        f"repro.serve: listening on {address} "
        f"(jobs={server.scheduler.jobs}, store={store_root})",
        file=sys.stderr,
        flush=True,
    )
    if recovered:
        print(
            f"repro.serve: recovered {recovered} in-flight request(s) from the journal",
            file=sys.stderr,
            flush=True,
        )
    await server.serve_until_stopped()
    print("repro.serve: stopped", file=sys.stderr)
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Long-running evaluation daemon over the on-disk stores.",
    )
    parser.add_argument(
        "--listen",
        default=None,
        metavar="ADDR",
        help="unix:<path> or [tcp:]host:port (default: $REPRO_SERVE_ADDR "
        "or ~/.cache/repro/serve.sock)",
    )
    add_eval_args(parser, jobs=True, cache=True, artifacts=True)
    from repro.ingest.build import add_trace_args

    add_trace_args(parser)
    parser.add_argument(
        "--no-artifacts",
        action="store_true",
        help="disable the artifact store the daemon otherwise enables by default",
    )
    args = parser.parse_args(argv)
    try:
        return asyncio.run(amain(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
