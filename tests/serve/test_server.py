"""End-to-end serve stack: asyncio front end, worker pool, sessions.

Boots a real server (worker processes included) on a Unix socket in a
tmpdir and drives it exactly like a client would. Small workload and
boot point keep this in CI-smoke territory. The cross-tier scenario
(16 sessions over all four interpreter tiers, interleaved slices) is
the serve determinism gate; bench/run.py times the service.
"""

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import config
from repro.serve import protocol
from repro.serve.server import ServeFrontEnd, serve
from repro.serve.worker import Worker

BASE = {"profile": "processor+kernel", "workload": "429.mcf",
        "scale": 0.02, "variant": "vcall", "boot": 2000}
# A program that runs well past one 50,000-instruction slice, which the
# slow path takes a few tenths of a second over: a step the tests can
# catch in flight.
LONG = dict(BASE, scale=0.5)


def _drive(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=120))


async def _with_server(scenario, workers=2):
    """Run ``scenario(request)`` against a live server."""
    import tempfile, os
    bound = asyncio.Event()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "serve.sock")
        task = asyncio.create_task(
            serve(path=path, workers=workers, ready=lambda _: bound.set()))
        await asyncio.wait_for(bound.wait(), timeout=30)
        reader, writer = await asyncio.open_unix_connection(path)

        async def request(**fields):
            writer.write(protocol.encode(fields))
            await writer.drain()
            return json.loads(await reader.readline())

        try:
            return await scenario(request)
        finally:
            writer.close()
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass


class TestServerEndToEnd:
    def test_full_session_lifecycle_over_the_socket(self):
        async def scenario(request):
            reply = await request(op="ping")
            assert reply["ok"] and reply["workers"] == 2

            reply = await request(op="warm", **BASE)
            assert reply["ok"] and reply["workers"] == 2

            # Two sessions land on different workers (sid % 2).
            sids = []
            for tier in ("tier1", "tier4"):
                reply = await request(op="create", tier=tier, **BASE)
                assert reply["ok"], reply
                assert reply["source"] == "fork"
                sids.append(reply["session"])
            assert sids == [0, 1]

            for sid in sids:
                reply = await request(op="step", session=sid, n=1500)
                assert reply["ok"] and reply["executed"] == 1500

            # Same workload, same plan, different tiers and workers:
            # identical outside-visible state.
            hashes, heads = set(), set()
            for sid in sids:
                reply = await request(op="query", session=sid,
                                      hash=True)
                assert reply["ok"] and reply["state"] == "running"
                hashes.add(reply["state_hash"])
                heads.add(reply["audit"]["head"])
            assert len(hashes) == 1 and len(heads) == 1

            reply = await request(op="detach", session=sids[0])
            assert reply["ok"] and reply["state"] == "detached"
            reply = await request(op="step", session=sids[0], n=10)
            assert not reply["ok"] and "detached" in reply["error"]
            reply = await request(op="reattach", session=sids[0])
            assert reply["ok"] and reply["state"] == "running"

            reply = await request(op="stats")
            assert reply["ok"]
            assert sum(w["sessions"] for w in reply["workers"]) == 2

            for sid in sids:
                reply = await request(op="destroy", session=sid)
                assert reply["ok"]
                from repro.obs.audit import verify_chain
                assert verify_chain(reply["audit"]) == []

        _drive(_with_server(scenario))

    def test_sessions_across_all_tiers_agree_after_interleaved_slices(self):
        """16 sessions cycle over the slow path and the two fast
        tiers, split across two workers, and are stepped round-robin in
        twelve 500-instruction slices, so every slice after the first
        resumes a session the worker descheduled for another one.
        Same workload and step plan: one state hash and one audit head
        across all of them, and every destroyed session's sealed audit
        chain verifies."""
        from repro.obs.audit import verify_chain
        tiers = config.TIERS

        async def scenario(request):
            reply = await request(op="warm", **BASE)
            assert reply["ok"], reply
            sids = []
            for index in range(16):
                reply = await request(op="create",
                                      tier=tiers[index % len(tiers)],
                                      **BASE)
                assert reply["ok"], reply
                sids.append(reply["session"])
            for __ in range(12):
                for sid in sids:
                    reply = await request(op="step", session=sid, n=500)
                    assert reply["ok"], reply
                    assert reply["executed"] == 500
                    assert reply["state"] == "running"
            hashes, heads = set(), set()
            for sid in sids:
                reply = await request(op="query", session=sid,
                                      hash=True)
                assert reply["ok"], reply
                hashes.add(reply["state_hash"])
                heads.add(reply["audit"]["head"])
            assert len(hashes) == 1, hashes
            assert len(heads) == 1, heads
            for sid in sids:
                reply = await request(op="destroy", session=sid)
                assert reply["ok"], reply
                assert verify_chain(reply["audit"]) == []

        _drive(_with_server(scenario))

    def test_protocol_violations_answered_not_fatal(self):
        async def scenario(request):
            reply = await request(op="conquer")
            assert not reply["ok"] and "unknown op" in reply["error"]
            reply = await request(op="step", session=999, n=10)
            assert not reply["ok"] and "unknown session" in reply["error"]
            reply = await request(op="create", profile="quantum",
                                  workload="429.mcf")
            assert not reply["ok"]
            # The server survived all of it.
            reply = await request(op="ping")
            assert reply["ok"]

        _drive(_with_server(scenario, workers=1))

    def test_cap_request_above_maximum_denied_at_create(self):
        async def scenario(request):
            reply = await request(op="create",
                                  caps={"instret": 10**12}, **BASE)
            assert not reply["ok"]
            assert "exceeds the server maximum" in reply["error"]

        _drive(_with_server(scenario, workers=1))


class TestFrontEndPipes:
    """The front end reads worker pipes on its event loop: replies stay
    paired with their requests, a dead worker is answered, and no
    thread or environment read rides on a request."""

    def test_worker_killed_mid_request_is_answered(self):
        async def scenario(request):
            reply = await request(op="warm", **LONG)
            assert reply["ok"], reply
            sids = []
            for __ in range(2):
                reply = await request(op="create", tier="slow", **LONG)
                assert reply["ok"], reply
                sids.append(reply["session"])
            assert sids == [0, 1]
            victim, = [process for process
                       in multiprocessing.active_children()
                       if process.name == "roload-serve-worker-1"]
            # Stopped, the worker cannot answer the step before it dies.
            os.kill(victim.pid, signal.SIGSTOP)
            step = asyncio.create_task(
                request(op="step", session=1, n=50_000))
            await asyncio.sleep(0.05)
            os.kill(victim.pid, signal.SIGKILL)
            reply = await asyncio.wait_for(step, timeout=10)
            assert not reply["ok"] and "worker 1" in reply["error"], reply
            reply = await request(op="step", session=1, n=10)
            assert not reply["ok"] and "worker 1" in reply["error"], reply
            # The other shard and the front end carry on.
            reply = await request(op="step", session=0, n=10)
            assert reply["ok"] and reply["executed"] == 10, reply
            assert (await request(op="ping"))["ok"]

        _drive(_with_server(scenario))

    def test_cancelled_calls_keep_replies_paired(self):
        async def call(front, **fields):
            return json.loads(await front.handle_line(json.dumps(fields)))

        async def scenario():
            front = ServeFrontEnd(workers=1)
            try:
                assert (await call(front, op="warm", **LONG))["ok"]
                reply = await call(front, op="create", tier="slow", **LONG)
                assert reply["ok"], reply
                sid = reply["session"]
                # One step on the pipe, one queued behind it; both
                # callers give up before the loop reads the first reply.
                running = asyncio.create_task(
                    call(front, op="step", session=sid, n=50_000))
                queued = asyncio.create_task(
                    call(front, op="step", session=sid, n=7))
                while len(front.workers[0].pending) < 2:
                    await asyncio.sleep(0)
                running.cancel()
                queued.cancel()
                reply = await call(front, op="query", session=sid)
                assert reply["ok"] and "residency" in reply, reply
                # The worker finished the step on the pipe; the queued
                # one was never sent.
                assert reply["retired"] == 50_000, reply
                reply = await call(front, op="step", session=sid, n=100)
                assert reply["ok"] and reply["executed"] == 100, reply
                reply = await call(front, op="query", session=sid)
                assert reply["ok"] and reply["retired"] == 50_100, reply
            finally:
                front.shutdown()

        _drive(scenario())

    def test_workers_run_on_the_front_ends_config(self):
        """Workers forked under an override run on it: with one session
        per worker, the second create on the one worker is refused."""
        async def call(front, **fields):
            return json.loads(await front.handle_line(json.dumps(fields)))

        async def scenario():
            front = ServeFrontEnd(workers=1)
            try:
                assert front.config.serve_sessions == 1
                reply = await call(front, op="create", **BASE)
                assert reply["ok"], reply
                reply = await call(front, op="create", **BASE)
                assert not reply["ok"]
                assert "session limit (1" in reply["error"], reply
            finally:
                front.shutdown()

        with config.overrides(serve_sessions=1):
            _drive(scenario())

    def test_no_thread_and_no_env_read_per_request(self, monkeypatch):
        from_env = config.Config.from_env.__func__
        reads = []

        def counting(cls, env=None):
            reads.append(env)
            return from_env(cls, env)

        async def scenario(request):
            threads = threading.active_count()
            reply = await request(op="create", **BASE)
            assert reply["ok"], reply
            sid = reply["session"]
            monkeypatch.setattr(config.Config, "from_env",
                                classmethod(counting))
            for __ in range(20):
                reply = await request(op="step", session=sid, n=200)
                assert reply["ok"] and reply["executed"] == 200, reply
            monkeypatch.undo()
            assert reads == []
            reply = await request(op="query", session=sid)
            assert reply["ok"] and reply["retired"] == 4000, reply
            limit = config.current().serve_slice
            reply = await request(op="step", session=sid, n=limit + 1)
            assert not reply["ok"]
            assert "per-slice limit" in reply["error"], reply
            assert (await request(op="destroy", session=sid))["ok"]
            assert threading.active_count() <= threads

        _drive(_with_server(scenario, workers=1))


def _children(pid):
    """Pids whose parent is ``pid`` (Linux /proc)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The ppid follows the parenthesised command name.
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            out.append(int(entry))
    return out


def _gone(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs Linux /proc")
def test_sigterm_stops_the_server_and_its_workers(tmp_path):
    # The child imports the same repro package as this test.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--socket",
         str(tmp_path / "serve.sock"), "--workers", "2"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        line = server.stdout.readline()
        assert "listening" in line, line
        workers = _children(server.pid)
        assert len(workers) == 2, workers
        server.send_signal(signal.SIGTERM)
        server.wait(timeout=10)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline \
                and not all(_gone(pid) for pid in workers):
            time.sleep(0.05)
        assert all(_gone(pid) for pid in workers), workers
        assert server.returncode == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        server.stdout.close()


class TestWorkerInline:
    """Worker dispatch details that don't need real processes."""

    def test_session_limit_fails_closed(self):
        from repro import config
        with config.overrides(serve_sessions=1):
            worker = Worker(0, config.current())
            reply = worker.handle({"op": "create", "session": 0, **BASE})
            assert reply["ok"]
            reply = worker.handle({"op": "create", "session": 1, **BASE})
            assert not reply["ok"]
            assert "session limit" in reply["error"]
            worker.handle({"op": "destroy", "session": 0})
            reply = worker.handle({"op": "create", "session": 1, **BASE})
            assert reply["ok"]

    def test_duplicate_session_id_denied(self):
        worker = Worker(0)
        assert worker.handle({"op": "create", "session": 5, **BASE})["ok"]
        reply = worker.handle({"op": "create", "session": 5, **BASE})
        assert not reply["ok"] and "already exists" in reply["error"]

    def test_worker_never_raises(self):
        worker = Worker(0)
        reply = worker.handle({"op": "query", "session": 404})
        assert reply == {"ok": False, "error": "unknown session 404"}
        reply = worker.handle({"op": "shutdown"})
        assert not reply["ok"]
