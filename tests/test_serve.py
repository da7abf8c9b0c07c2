"""Tests of the evaluation service (repro.serve) and the options API.

Covers in-flight dedup across concurrent clients, SIGKILL + restart
recovery (completed work re-served from the store, only in-flight work
recomputed), the one-daemon-per-store lock, rejection of malformed
requests before scheduling, and bit-identity of served results against
the local engine.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.options import (
    DEFAULT_SERVER_ADDRESS,
    SERVER_ENV,
    EvalOptions,
    add_eval_args,
    default_server_address,
)
from repro.eval.parallel import ProgressError, run_many
from repro.eval.resultstore import ResultStore
from repro.eval.runner import RunRequest, run_one
from repro.serve import protocol
from repro.serve.client import ServeClient, ServeError, run_remote, server_info, shutdown_server
from repro.serve.journal import JobJournal
from repro.serve.scheduler import Scheduler, StoreLockedError
from repro.serve.__main__ import build_server

FAST = dict(max_instructions=2_000)
SRC = Path(__file__).resolve().parents[1] / "src"


def _req(design: str, workload: str = "espresso") -> RunRequest:
    return RunRequest(workload=workload, design=design, **FAST)


def _payload(result) -> dict:
    """Everything the simulation produced: request + stats.

    Provenance is bookkeeping, not simulation output — a store-loaded
    result additionally records the code fingerprint that cached it —
    so bit-identity is asserted on the simulated payload.
    """
    d = result.to_dict()
    d.pop("provenance", None)
    return d


# -- protocol -----------------------------------------------------------------


class TestParseAddress:
    def test_unix_prefix(self):
        assert protocol.parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")

    def test_bare_path(self):
        assert protocol.parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")

    def test_tcp(self):
        assert protocol.parse_address("127.0.0.1:9100") == ("tcp", "127.0.0.1", 9100)
        assert protocol.parse_address("tcp:myhost:9100") == ("tcp", "myhost", 9100)

    def test_port_only_defaults_host(self):
        assert protocol.parse_address(":9100") == ("tcp", "127.0.0.1", 9100)

    def test_garbage_port_raises(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_address("host:not-a-port")


def _read_lines(data: bytes, limit: int = 64) -> list:
    """Feed ``data`` then EOF to a ``StreamReader(limit=limit)`` and read
    messages until ``None`` or the first error; return what was read
    (the error, if any, last)."""

    async def main():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        out = []
        while True:
            try:
                message = await protocol.read_message(reader)
            except protocol.ProtocolError as exc:
                out.append(exc)
                return out
            out.append(message)
            if message is None:
                return out

    return asyncio.run(main())


class TestReadMessage:
    def test_message_then_eof(self):
        assert _read_lines(b'{"op":"ping"}\n') == [{"op": "ping"}, None]

    def test_truncated_final_line_reads_as_eof(self):
        assert _read_lines(b'{"op":"ping"}\n{"op":') == [{"op": "ping"}, None]

    @pytest.mark.parametrize("tail", [b"\n", b""])
    def test_line_over_the_stream_limit(self, tail):
        got = _read_lines(b'{"op":"' + b"x" * 100 + b'"}' + tail)
        assert len(got) == 1 and isinstance(got[0], protocol.ProtocolError)
        assert "stream limit" in str(got[0])

    def test_nested_past_the_recursion_limit(self):
        got = _read_lines(b"[" * 100_000 + b"\n", limit=protocol.STREAM_LIMIT)
        assert len(got) == 1 and isinstance(got[0], protocol.ProtocolError)
        assert "nested too deeply" in str(got[0])

    @pytest.mark.parametrize(
        "line", [b"not json\n", b"[1,2]\n", b'{"id":1}\n', b"\xff\xfe\x00\n"]
    )
    def test_other_bad_lines(self, line):
        got = _read_lines(line)
        assert len(got) == 1 and isinstance(got[0], protocol.ProtocolError)

    @given(
        line=st.one_of(
            st.binary(max_size=200),
            st.recursive(
                st.one_of(st.none(), st.integers(), st.text(max_size=5)),
                lambda inner: st.one_of(
                    st.lists(inner, max_size=3),
                    st.dictionaries(st.sampled_from(["op", "id", "x"]), inner, max_size=3),
                ),
                max_leaves=12,
            ).map(lambda v: json.dumps(v).encode()),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_any_line_is_a_message_eof_or_protocol_error(self, line):
        got = _read_lines(line + b"\n")
        first = got[0]
        assert (
            first is None
            or isinstance(first, protocol.ProtocolError)
            or (isinstance(first, dict) and "op" in first)
        )


# -- journal ------------------------------------------------------------------


class TestJobJournal:
    def test_replay_is_queued_minus_done(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        a, b, c = _req("T4"), _req("T1"), _req("M8")
        for req in (a, b, c):
            journal.record_queued(req)
        journal.record_done(b)
        outstanding = journal.replay()
        assert [r.key() for r in outstanding] == [a.key(), c.key()]

    def test_truncated_tail_line_is_skipped(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.record_queued(_req("T4"))
        with open(journal.path, "a", encoding="utf-8") as fh:
            fh.write('{"event": "queued", "key": "trunc')  # crash mid-write
        assert [r.key() for r in journal.replay()] == [_req("T4").key()]

    def test_compact_rewrites_to_outstanding(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        a, b = _req("T4"), _req("T1")
        journal.record_queued(a)
        journal.record_queued(b)
        journal.record_done(a)
        journal.compact(journal.replay())
        assert len(journal.path.read_text().splitlines()) == 1
        assert [r.key() for r in journal.replay()] == [b.key()]

    def test_unknown_config_name_is_dropped(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        stale = _req("T1").to_dict()
        stale["config"] = [["kernel", True]]
        with open(journal.path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"event": "queued", "key": "k", "request": stale}))
            fh.write("\n")
        journal.record_queued(_req("T4"))
        assert [r.key() for r in journal.replay()] == [_req("T4").key()]

    def test_missing_file_replays_empty(self, tmp_path):
        assert JobJournal(tmp_path / "absent.jsonl").replay() == []

    @pytest.mark.parametrize(
        "line",
        [
            "5",
            "[]",
            '"x"',
            "null",
            '{"event": "queued", "key": ["k"], "request": {}}',
            '{"event": "done", "key": 5}',
            '{"event": "queued", "request": {}}',
            pytest.param("[" * 100_000, id="nested"),
        ],
    )
    def test_non_record_line_is_skipped(self, tmp_path, line):
        journal = JobJournal(tmp_path / "store" / "journal.jsonl")
        journal.path.parent.mkdir()
        journal.path.write_text(line + "\n", encoding="utf-8")
        req = _req("T4")
        journal.record_queued(req)
        assert journal.replay() == [req]

        async def main():
            sched = Scheduler(store=ResultStore(tmp_path / "store"), journal=journal, jobs=1)
            assert await sched.start() == 1
            await sched.submit_one(req).future  # joins the recovered job
            await sched.stop()
            assert sched.stats.simulated == 1

        asyncio.run(main())
        assert ResultStore(tmp_path / "store").get(req) is not None


# -- shared options -----------------------------------------------------------


def _parse(argv, **flags):
    import argparse

    parser = argparse.ArgumentParser()
    add_eval_args(parser, **flags)
    return parser.parse_args(argv)


class TestEvalOptions:
    def test_defaults(self):
        opts = EvalOptions.from_args(_parse([]))
        assert opts.jobs == 1 and opts.server is None and opts.artifacts is None
        assert opts.store is not None  # caching is on by default

    def test_jobs_zero_means_per_cpu(self):
        assert EvalOptions.from_args(_parse(["--jobs", "0"])).jobs is None

    def test_no_cache_disables_store(self):
        assert EvalOptions.from_args(_parse(["--no-cache"])).store is None

    def test_store_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env"))
        opts = EvalOptions.from_args(_parse(["--store", str(tmp_path / "flag")]))
        assert opts.store.root == tmp_path / "flag"

    def test_store_env_beats_builtin(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env"))
        opts = EvalOptions.from_args(_parse([]))
        assert opts.store.root == tmp_path / "env"

    def test_server_flag_value_beats_env(self, monkeypatch):
        monkeypatch.setenv(SERVER_ENV, "unix:/tmp/env.sock")
        opts = EvalOptions.from_args(_parse(["--server", "unix:/tmp/flag.sock"], server=True))
        assert opts.server == "unix:/tmp/flag.sock"

    def test_bare_server_flag_falls_back_to_env_then_default(self, monkeypatch):
        monkeypatch.setenv(SERVER_ENV, "unix:/tmp/env.sock")
        assert EvalOptions.from_args(_parse(["--server"], server=True)).server == "unix:/tmp/env.sock"
        monkeypatch.delenv(SERVER_ENV)
        assert default_server_address() == DEFAULT_SERVER_ADDRESS
        opts = EvalOptions.from_args(_parse(["--server"], server=True))
        assert opts.server == DEFAULT_SERVER_ADDRESS

    def test_server_mode_detaches_local_stores(self, tmp_path):
        opts = EvalOptions.from_args(
            _parse(["--server", "unix:/tmp/s.sock", "--store", str(tmp_path)], server=True)
        )
        assert opts.store is None and opts.artifacts is None


# -- run_many API redesign ----------------------------------------------------


class TestRunManyOptions:
    def test_non_options_argument_rejected(self):
        with pytest.raises(TypeError, match="EvalOptions"):
            run_many([_req("T4")], 1)

    def test_profiler_cannot_cross_server(self):
        with pytest.raises(ValueError):
            run_many([_req("T4")], EvalOptions(server="unix:/tmp/x.sock", profiler=object()))


class TestProgressError:
    def test_raising_callback_does_not_abandon_the_batch(self, tmp_path):
        store = ResultStore(tmp_path)
        grid = [_req("T4"), _req("T1")]

        def bomb(msg):
            raise RuntimeError("progress exploded")

        with pytest.raises(ProgressError) as info:
            run_many(grid, EvalOptions(jobs=1, store=store, progress=bomb))
        # Every queued request still ran and was persisted.
        assert all(r is not None for r in info.value.results)
        assert store.stats.puts == len(grid)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_parallel_path_also_survives(self):
        grid = [_req("T4"), _req("T1"), _req("M8")]
        calls = []

        def bomb(msg):
            calls.append(msg)
            raise RuntimeError("boom")

        with pytest.raises(ProgressError) as info:
            run_many(grid, EvalOptions(jobs=2, progress=bomb))
        assert [r.request for r in info.value.results] == grid
        assert len(calls) == 1  # disabled after the first raise


# -- scheduler + daemon -------------------------------------------------------


class TestScheduler:
    def test_journal_recovery_resimulates_inflight(self, tmp_path):
        req = _req("T4")
        JobJournal(tmp_path / "journal.jsonl").record_queued(req)

        async def main():
            sched = Scheduler(
                store=ResultStore(tmp_path / "store"),
                journal=JobJournal(tmp_path / "journal.jsonl"),
                jobs=1,
            )
            recovered = await sched.start()
            assert recovered == 1 and sched.stats.recovered == 1
            # Resubmitting joins the recovered in-flight job.
            _, source = await sched.submit_one(req).future
            await sched.stop()
            assert source == "simulated" and sched.stats.simulated == 1

        asyncio.run(main())
        assert ResultStore(tmp_path / "store").get(req) is not None


class TestEvalServer:
    def test_inflight_dedup_across_two_clients(self, tmp_path):
        grid = [_req(d) for d in ("T4", "T1", "M8")]

        async def main():
            addr = f"unix:{tmp_path}/s.sock"
            server = build_server(
                addr, EvalOptions(jobs=2, store=ResultStore(tmp_path / "store"))
            )
            await server.start()
            try:
                one = await ServeClient.connect(addr, retry_for=5)
                two = await ServeClient.connect(addr, retry_for=5)
                res1, res2 = await asyncio.gather(
                    one.results(grid), two.results(grid)
                )
                info = await one.info()
                await one.close()
                await two.close()
            finally:
                await server.stop()
            return res1, res2, info

        res1, res2, info = asyncio.run(main())
        stats = info["scheduler"]
        # One simulation per distinct request, no matter how many
        # clients asked; the second client's submissions were answered
        # in-flight (dedup) or from the store, never by a new run.
        assert stats["simulated"] == len(grid)
        assert stats["deduped"] + stats["store_hits"] == len(grid)
        d1 = [_payload(r) for r in res1]
        d2 = [_payload(r) for r in res2]
        assert d1 == d2
        assert d1 == [_payload(run_one(r)) for r in grid]

    def test_duplicate_requests_within_one_batch(self, tmp_path):
        req = _req("T4")

        async def main():
            addr = f"unix:{tmp_path}/s.sock"
            server = build_server(addr, EvalOptions(jobs=1, store=None))
            await server.start()
            try:
                client = await ServeClient.connect(addr, retry_for=5)
                results = await client.results([req, req, req])
                await client.close()
            finally:
                await server.stop()
            return results, server.scheduler.stats

        results, stats = asyncio.run(main())
        assert stats.simulated == 1 and stats.deduped == 2
        assert len({id(r) for r in results}) >= 1
        assert results[0].to_dict() == results[2].to_dict()

    def test_bad_batch_reports_error_not_disconnect(self, tmp_path):
        async def main():
            addr = f"unix:{tmp_path}/s.sock"
            server = build_server(addr, EvalOptions(jobs=1, store=None))
            await server.start()
            try:
                client = await ServeClient.connect(addr, retry_for=5)
                await protocol.write_message(
                    client._writer, client._lock,
                    op="submit", id="bad-batch", requests=[{"nonsense": True}],
                )
                # The connection survives; a well-formed batch still works.
                results = await client.results([_req("T4")])
                await client.close()
            finally:
                await server.stop()
            return results

        results = asyncio.run(main())
        assert results[0].request == _req("T4")

    def test_deeply_nested_line_gets_error_and_daemon_keeps_serving(self, tmp_path):
        async def main():
            addr = f"unix:{tmp_path}/s.sock"
            server = build_server(addr, EvalOptions(jobs=1, store=None))
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    f"{tmp_path}/s.sock", limit=protocol.STREAM_LIMIT
                )
                writer.write(b"[" * 100_000 + b"\n")
                await writer.drain()
                reply = await asyncio.wait_for(protocol.read_message(reader), 30)
                writer.close()
                other = await ServeClient.connect(addr, retry_for=5)
                pong = await asyncio.wait_for(other._request("ping", ("pong",)), 30)
                await other.close()
            finally:
                await server.stop()
            return reply, pong

        reply, pong = asyncio.run(main())
        assert reply["op"] == "error" and "nested too deeply" in reply["message"]
        assert pong == {"op": "pong"}

    @staticmethod
    def _submit_raw(tmp_path, batch_id: str, requests: list[dict], **fields):
        """Submit raw request dicts (plus any extra message ``fields``);
        return the first reply and stats."""

        async def main():
            addr = f"unix:{tmp_path}/s.sock"
            server = build_server(addr, EvalOptions(jobs=1, store=None))
            await server.start()
            try:
                client = await ServeClient.connect(addr, retry_for=5)
                await protocol.write_message(
                    client._writer, client._lock,
                    op="submit", id=batch_id, requests=requests, **fields,
                )
                reply = await asyncio.wait_for(client._replies.get(), 30)
                await client.close()
            finally:
                await server.stop()
            return reply, server.scheduler.stats

        return asyncio.run(main())

    def test_unknown_config_name_rejected_before_scheduling(self, tmp_path):
        stale = _req("T1").to_dict()
        stale["config"] = [["kernel", True]]
        reply, stats = self._submit_raw(tmp_path, "stale", [_req("T4").to_dict(), stale])
        assert reply["op"] == "error" and reply["id"] == "stale"
        assert reply["message"].startswith("bad batch:")
        assert "kernel" in reply["message"]
        # The whole batch was refused: nothing scheduled, nothing run.
        assert stats.submitted == 0 and stats.simulated == 0

    @pytest.mark.parametrize(
        "field, value, name",
        [
            ("design", "NOPE", "NOPE"),
            ("mechanism", ["NoSuchTLB", []], "NoSuchTLB"),
            ("mechanism", [], "mechanism"),
            ("mechanism", ["T4"], "mechanism"),
            ("mechanism", "x", "mechanism"),
            ("max_instructions", -5, "max_instructions"),
            ("max_instructions", 1.5, "max_instructions"),
            ("max_instructions", True, "max_instructions"),
            ("workload", 5, "workload"),
            ("page_size", 3, "page size"),
            ("issue_model", "bogus", "bogus"),
            ("config", [["tlb_miss_latency", [30]]], "hashable"),
        ],
    )
    def test_unknown_design_rejected_before_scheduling(self, tmp_path, field, value, name):
        bad = _req("T1").to_dict()
        bad[field] = value
        reply, stats = self._submit_raw(tmp_path, "bad", [_req("T4").to_dict(), bad])
        assert reply["op"] == "error" and reply["id"] == "bad"
        assert reply["message"].startswith("bad batch:")
        assert name in reply["message"]
        assert stats.submitted == 0 and stats.simulated == 0

    @pytest.mark.parametrize("version", [0, 2, "1", None, True, 1.5])
    def test_unsupported_protocol_version_refused(self, tmp_path, version):
        reply, stats = self._submit_raw(
            tmp_path, "future", [_req("T4").to_dict()], version=version
        )
        assert reply == {
            "op": "error",
            "id": "future",
            "message": "bad batch: unsupported protocol version",
        }
        assert stats.submitted == 0 and stats.simulated == 0


class TestShutdown:
    def test_shutdown_cancels_inflight_work_and_the_journal_resubmits_it(self, tmp_path):
        """``shutdown`` does not drain: the request in flight fails at
        once on its client, stays in the journal, and is simulated when
        a daemon next starts on the store."""
        req = RunRequest(workload="espresso", design="T4", max_instructions=40_000)
        addr = f"unix:{tmp_path}/s.sock"
        store_dir = tmp_path / "store"

        async def main():
            server = build_server(addr, EvalOptions(jobs=1, store=ResultStore(store_dir)))
            await server.start()
            serving = asyncio.create_task(server.serve_until_stopped())
            client = await ServeClient.connect(addr, retry_for=5)
            batch = await client.submit([req])
            with pytest.raises(ServeError, match="connection closed before the batch finished"):
                async for message in client.stream(batch):
                    if message["op"] == "ack":
                        control = await ServeClient.connect(addr, retry_for=5)
                        await control.shutdown()
                        await control.close()
            await client.close()
            await asyncio.wait_for(serving, 30)
            return server.scheduler.stats

        stats = asyncio.run(main())
        assert stats.simulated == 0
        assert ResultStore(store_dir).get(req) is None
        assert JobJournal(store_dir / "journal.jsonl").replay() == [req]

        async def restart():
            server = build_server(addr, EvalOptions(jobs=1, store=ResultStore(store_dir)))
            recovered = await server.start()
            try:
                _, source = await server.scheduler.submit_one(req).future
            finally:
                await server.stop()
            return recovered, source

        assert asyncio.run(restart()) == (1, "simulated")
        assert ResultStore(store_dir).get(req) is not None


class TestScreenThroughServer:
    """A screen has one driver: ``screen(spec, options)``.  With
    ``options.server`` set its anchor and frontier batches go to the
    daemon through ``run_many``; profiles and the model run locally."""

    SPEC = dict(
        workloads=("xlisp",),
        max_instructions=500,
        entries=(64,),
        multi_ports=(1,),
        piggy_ports=(1,),
        piggy_riders=(1,),
        banks=(4,),
        bank_selects=("bit",),
        bank_riders=(0,),
        ml_l1=(8,),
        pret_sizes=(8,),
        simulate=1,
    )

    def test_served_screen_matches_local_then_hits_the_store(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.eval.screen import ScreenSpec, screen

        spec = ScreenSpec(**self.SPEC)

        async def main():
            addr = f"unix:{tmp_path}/s.sock"
            server = build_server(
                addr, EvalOptions(jobs=1, store=ResultStore(tmp_path / "store"))
            )
            await server.start()
            loop = asyncio.get_running_loop()
            remote = EvalOptions(server=addr)
            try:
                first = await loop.run_in_executor(None, screen, spec, remote)
                simulated = server.scheduler.stats.simulated
                second = await loop.run_in_executor(None, screen, spec, remote)
            finally:
                await server.stop()
            return first, second, simulated, server.scheduler.stats.simulated

        first, second, simulated, simulated_after = asyncio.run(main())
        assert simulated > 0
        assert simulated_after == simulated

        local = screen(spec, EvalOptions(jobs=1))
        # Host timings of the model pass are measurements, not results.
        untimed = [
            dataclasses.replace(r, model_seconds=0.0, scores_per_sec=0.0)
            for r in (first, second, local)
        ]
        assert untimed[0] == untimed[2]
        assert untimed[1] == untimed[2]

    def test_screen_op_is_unknown(self, tmp_path):
        async def main():
            addr = f"unix:{tmp_path}/s.sock"
            server = build_server(addr, EvalOptions(jobs=1, store=None))
            await server.start()
            try:
                reader, writer = await asyncio.open_unix_connection(
                    f"{tmp_path}/s.sock", limit=protocol.STREAM_LIMIT
                )
                line = {"op": "screen", "id": "s", "spec": {"workloads": ["xlisp"]}}
                writer.write(json.dumps(line).encode() + b"\n")
                await writer.drain()
                reply = await asyncio.wait_for(protocol.read_message(reader), 30)
                writer.close()
            finally:
                await server.stop()
            return reply, server.scheduler.stats.simulated

        reply, simulated = asyncio.run(main())
        assert reply == {"op": "error", "message": "unknown op 'screen'"}
        assert simulated == 0


class TestStoreLock:
    """One daemon per store: a second one fails before touching it."""

    def test_second_scheduler_refused_before_journal_replay(self, tmp_path):
        store_dir = tmp_path / "store"

        def scheduler() -> Scheduler:
            return Scheduler(
                store=ResultStore(store_dir),
                journal=JobJournal(store_dir / "journal.jsonl"),
                jobs=1,
            )

        async def main():
            one = scheduler()
            await one.start()
            # A queued-then-done pair that compaction would erase.
            one.journal.record_queued(_req("T4"))
            one.journal.record_done(_req("T4"))
            before = (store_dir / "journal.jsonl").read_bytes()
            two = scheduler()
            two.journal.replay = lambda: pytest.fail("replayed a held store's journal")
            try:
                with pytest.raises(StoreLockedError, match="already served") as info:
                    await two.start()
                assert str(store_dir) in str(info.value)
                assert (store_dir / "journal.jsonl").read_bytes() == before
            finally:
                await one.stop()
            three = scheduler()
            await three.start()  # the stopped daemon released the store
            await three.stop()

        asyncio.run(main())

    def test_second_server_refused_first_keeps_serving(self, tmp_path):
        opts = EvalOptions(jobs=1, store=ResultStore(tmp_path / "store"))
        journal = tmp_path / "store" / "journal.jsonl"

        async def main():
            addr = f"unix:{tmp_path}/one.sock"
            first = build_server(addr, opts)
            await first.start()
            try:
                client = await ServeClient.connect(addr, retry_for=5)
                await client.results([_req("T4")])
                before = journal.read_bytes()
                second = build_server(f"unix:{tmp_path}/two.sock", opts)
                with pytest.raises(StoreLockedError, match=str(tmp_path / "store")):
                    await second.start()
                assert journal.read_bytes() == before
                assert not (tmp_path / "two.sock").exists()
                results = await client.results([_req("T1")])
                await client.close()
            finally:
                await first.stop()
            again = build_server(f"unix:{tmp_path}/two.sock", opts)
            await again.start()
            await again.stop()
            return results

        results = asyncio.run(main())
        assert results[0].request == _req("T1")


def _spawn_daemon(addr: str, store: Path, artifacts: Path, jobs: int = 2):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--listen", addr,
            "--store", str(store),
            "--artifacts", str(artifacts),
            "--jobs", str(jobs),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestKillRecovery:
    """The acceptance scenario: SIGKILL mid-grid, restart, finish.

    A 13-design Figure-5 slice is submitted through the client API; the
    daemon is killed mid-grid, restarted over the same store, and must
    finish the grid re-serving the completed requests as store hits —
    recomputing only what was in flight.
    """

    def test_sigkill_restart_reserves_completed_work(self, tmp_path):
        from repro.tlb.factory import DESIGN_MNEMONICS

        grid = [_req(d) for d in DESIGN_MNEMONICS]
        addr = f"unix:{tmp_path}/s.sock"
        store_dir = tmp_path / "store"
        art_dir = tmp_path / "artifacts"

        daemon = _spawn_daemon(addr, store_dir, art_dir)
        try:
            async def kill_mid_grid():
                # The kill lands mid-grid by construction: the first
                # request completes (and is stored) on its own, and the
                # daemon dies as soon as it acknowledges the whole grid,
                # while the other twelve simulations are still queued or
                # running.
                client = await ServeClient.connect(addr, retry_for=30)
                await client.results(grid[:1])
                batch = await client.submit(grid)
                try:
                    async for message in client.stream(batch):
                        if message["op"] == "ack":
                            os.kill(daemon.pid, signal.SIGKILL)
                except ServeError:
                    pass  # connection died with the daemon — expected
                await client.close()

            asyncio.run(kill_mid_grid())
            daemon.wait(timeout=15)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

        persisted = len(ResultStore(store_dir))
        assert 1 <= persisted < len(grid), "the kill must land mid-grid"

        restarted = _spawn_daemon(addr, store_dir, art_dir)
        try:
            # The resubmitted grid goes through the public client API
            # (run_many with a server address — the facade route).
            results = run_many(grid, EvalOptions(server=addr))
            info = server_info(addr)
            shutdown_server(addr)
            restarted.wait(timeout=15)
        finally:
            if restarted.poll() is None:
                restarted.kill()
                restarted.wait()

        stats = info["scheduler"]
        # Only the work in flight at the kill was recomputed ...
        assert stats["simulated"] == len(grid) - persisted
        # ... and everything completed before it was a store hit.
        assert stats["store_hits"] >= persisted
        # Served results are bit-identical to the local engine.
        reference = run_many(grid, EvalOptions(jobs=1))
        assert [_payload(r) for r in results] == [_payload(r) for r in reference]

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
    def test_sigkill_takes_the_worker_pool_down(self, tmp_path):
        addr = f"unix:{tmp_path}/s.sock"
        daemon = _spawn_daemon(addr, tmp_path / "store", tmp_path / "artifacts")
        try:
            # Two requests put both spawn workers to work.
            run_many([_req("T4"), _req("T1")], EvalOptions(server=addr))
            children = _children(daemon.pid)
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.wait(timeout=15)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

        assert len(children) >= 2, "the daemon's pool workers were not found"
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in children) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in children if _alive(pid)]


def _proc_stat(pid) -> list[str]:
    """``/proc/<pid>/stat`` fields after the command name (state, ppid, ...)."""
    return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()


def _children(pid: int) -> set[int]:
    """Pids whose parent is ``pid``."""
    found = set()
    for entry in Path("/proc").iterdir():
        try:
            if entry.name.isdigit() and int(_proc_stat(entry.name)[1]) == pid:
                found.add(int(entry.name))
        except OSError:
            pass  # exited while we looked
    return found


def _alive(pid: int) -> bool:
    """Running, not exited (an unreaped zombie has exited)."""
    try:
        return _proc_stat(pid)[0] != "Z"
    except OSError:
        return False
