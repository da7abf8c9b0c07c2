"""CLI: run the evaluation daemon.

Usage::

    python -m repro.serve [--listen ADDR] [--jobs N] [--store DIR]
                          [--no-cache] [--artifacts [DIR]]
                          [--claim-ttl SECONDS] [--no-claims] [--no-journal]

``ADDR`` is ``unix:<path>`` or ``[tcp:]host:port``; the default is
``$REPRO_SERVE_ADDR`` or a unix socket next to the default stores
(``~/.cache/repro/serve.sock``).  The daemon owns the result store
(default on — durability is store-native), an artifact store (default
on: workers hydrate builds from disk), a job journal under the store
root (killed daemons recover: completed work re-serves as cache hits,
only in-flight requests are recomputed), and a claim-file board so a
second daemon on another host sharing the store directory never
duplicates work.

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
from repro.serve.claimfile import DEFAULT_TTL, ClaimBoard
from repro.serve.daemon import EvalServer
from repro.serve.journal import JobJournal
from repro.serve.scheduler import Scheduler


def build_server(
    address: str,
    opts: EvalOptions,
    claim_ttl: float = DEFAULT_TTL,
    journal: bool = True,
    claims: bool = True,
    poll_interval: "float | None" = None,
) -> EvalServer:
    """Assemble a daemon from resolved options (shared with tests)."""
    store = opts.store
    board = journal_obj = None
    if store is not None:
        if journal:
            journal_obj = JobJournal(store.root / "journal.jsonl")
        if claims:
            board = ClaimBoard(store.root / "claims", ttl=claim_ttl)
    kwargs = {} if poll_interval is None else {"poll_interval": poll_interval}
    scheduler = Scheduler(
        store=store,
        artifacts=opts.artifacts,
        jobs=opts.jobs,
        journal=journal_obj,
        claims=board,
        **kwargs,
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
        default_budget = RunRequest.__dataclass_fields__["max_instructions"].default
        previous = configure_artifacts(opts.artifacts)
        try:
            trace = _CACHE.get_trace(token, 32, 32, 1.0, default_budget)
        finally:
            configure_artifacts(previous)
        print(
            f"repro.serve: ingested {args.trace} ({len(trace)} records at the "
            f"default budget); request it as workload:\n  {token}",
            file=sys.stderr,
            flush=True,
        )
    address = args.listen or default_server_address()
    server = build_server(
        address,
        opts,
        claim_ttl=args.claim_ttl,
        journal=not args.no_journal,
        claims=not args.no_claims,
    )
    recovered = await server.start()
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
    parser.add_argument(
        "--claim-ttl",
        type=float,
        default=DEFAULT_TTL,
        metavar="SECONDS",
        help=f"stale-claim expiry for multi-daemon stores (default {DEFAULT_TTL:.0f}s)",
    )
    parser.add_argument(
        "--no-claims",
        action="store_true",
        help="skip claim files (single-daemon store directories)",
    )
    parser.add_argument(
        "--no-journal",
        action="store_true",
        help="skip the job journal (no restart recovery)",
    )
    args = parser.parse_args(argv)
    try:
        return asyncio.run(amain(args))
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
