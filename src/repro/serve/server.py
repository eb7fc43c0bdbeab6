"""roload-serve: the asyncio front end over the worker-process pool.

The server listens on a local socket (Unix-domain by default, TCP with
``--host``) and speaks the line-JSON protocol of :mod:`repro.serve.
protocol`. It owns no simulator state itself: sessions live in a pool
of share-nothing worker processes (:mod:`repro.serve.worker`), sharded
by session id (``sid % workers``), so two sessions on different
workers advance in true parallel while sessions on one worker share it
cooperatively via bounded step slices.

Requests that fail validation are answered ``{"ok": false}`` and
change nothing; a client protocol error never reaches a worker. The
front end allocates session ids itself — clients name sessions only by
the ids the server handed out, so one client cannot address another's
worker state by guessing.

All of it runs on one event-loop thread: worker pipes are read there,
one request at a time per worker, and each reply reaches its client as
the bytes the worker encoded (DESIGN.md §15).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import signal
from collections import deque
from time import perf_counter
from typing import Optional

from repro import config as _config
from repro.errors import ServeError
from repro.serve import protocol
from repro.serve.worker import worker_main

class WorkerHandle:
    """One worker process and its pipe; build it inside the event loop
    that reads the pipe."""

    def __init__(self, worker_id: int):
        context = multiprocessing.get_context("fork")
        self.worker_id = worker_id
        self.conn, child = context.Pipe()
        self.process = context.Process(
            target=worker_main, args=(child, worker_id),
            name=f"roload-serve-worker-{worker_id}", daemon=True)
        self.process.start()
        child.close()
        self.pending: "deque[tuple[dict, asyncio.Future]]" = deque()
        self.dead: "Optional[bytes]" = None
        self.loop = asyncio.get_running_loop()
        self.loop.add_reader(self.conn.fileno(), self._on_reply)

    async def call(self, request: dict) -> bytes:
        """Queue one request; returns the worker's encoded reply."""
        if self.dead is not None:
            return self.dead
        reply = self.loop.create_future()
        self.pending.append((request, reply))
        if len(self.pending) == 1:
            self._send_head()
        return await reply

    def _send_head(self) -> None:
        """Put the first request whose caller still waits on the pipe."""
        while self.pending and self.pending[0][1].cancelled():
            self.pending.popleft()
        if self.pending:
            try:
                self.conn.send(self.pending[0][0])
            except OSError as error:
                self._fail(f"is dead ({error!r})")

    def _on_reply(self) -> None:
        try:
            data = self.conn.recv_bytes()
        except (EOFError, OSError) as error:
            self._fail(f"is dead ({error!r})")
            return
        _, reply = self.pending.popleft()
        if not reply.done():
            reply.set_result(data)
        self._send_head()

    def _fail(self, why: str) -> None:
        """Stop reading the pipe; answer every caller, now and later."""
        self.dead = protocol.encode(protocol.error(
            f"worker {self.worker_id} {why}"))
        self.loop.remove_reader(self.conn.fileno())
        for _, reply in self.pending:
            if not reply.done():
                reply.set_result(self.dead)
        self.pending.clear()

    def shutdown(self) -> None:
        self._fail("is shut down")
        try:
            self.conn.send({"op": "shutdown"})
        except OSError:
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.terminate()
        self.conn.close()


class ServeFrontEnd:
    """Session-id allocation, sharding, and protocol dispatch; build it
    inside the event loop that serves it. It runs on the active
    :func:`repro.config.current`, and so do the workers it forks."""

    def __init__(self, workers: "Optional[int]" = None):
        self.config = _config.current()
        count = self.config.resolve_serve_workers(workers)
        self.workers = [WorkerHandle(i) for i in range(count)]
        self.next_sid = 0
        self.started = perf_counter()
        self.requests = 0

    def _shard(self, sid: int) -> WorkerHandle:
        return self.workers[sid % len(self.workers)]

    async def handle(self, request: dict) -> bytes:
        """Dispatch one *validated* request; returns the encoded reply."""
        self.requests += 1
        op = request["op"]
        if op == "ping":
            return protocol.encode(protocol.ok(
                server="roload-serve", workers=len(self.workers),
                requests=self.requests,
                uptime_s=perf_counter() - self.started))
        if op in ("stats", "warm"):
            # Both broadcast. Warm so a later create lands on a shard
            # that already holds the snapshot, for forking to be cheap.
            replies = [json.loads(reply) for reply in await asyncio.gather(
                *(worker.call(request) for worker in self.workers))]
            if op == "stats":
                return protocol.encode(protocol.ok(
                    workers=replies, requests=self.requests))
            bad = next((r for r in replies if not r.get("ok")), None)
            if bad is not None:
                return protocol.encode(bad)
            return protocol.encode(protocol.ok(
                built=sum(1 for r in replies if r.get("built")),
                workers=len(replies),
                boot_us=[r["boot_us"] for r in replies
                         if r.get("built")]))
        if op == "create":
            sid = self.next_sid
            self.next_sid += 1
            return await self._shard(sid).call({**request, "session": sid})
        sid = protocol.session_of(request)
        if sid is None:
            raise ServeError(f"op {op!r} is not routable")
        if sid >= self.next_sid:
            raise ServeError(f"unknown session {sid}")
        return await self._shard(sid).call(request)

    async def handle_line(self, line: str) -> bytes:
        try:
            return await self.handle(protocol.parse_request(
                line, slice_limit=self.config.serve_slice))
        except ServeError as error:
            return protocol.encode(protocol.error(str(error)))

    def shutdown(self) -> None:
        for worker in self.workers:
            worker.shutdown()


async def _client_loop(front: ServeFrontEnd, reader, writer) -> None:
    try:
        while True:
            line = await reader.readline()
            if not line:
                break
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            writer.write(await front.handle_line(text))
            await writer.drain()
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()


async def serve(path: "Optional[str]" = None,
                host: "Optional[str]" = None, port: int = 0,
                workers: "Optional[int]" = None,
                ready=None) -> None:
    """Run the server until cancelled or sent SIGTERM.

    ``ready``, if given, is called with the listening address once the
    socket is bound — the load generator and tests use it to connect
    without racing the bind.
    """
    front = ServeFrontEnd(workers)

    async def on_client(reader, writer):
        await _client_loop(front, reader, writer)

    if host is not None:
        server = await asyncio.start_server(on_client, host, port)
        address = server.sockets[0].getsockname()[:2]
    else:
        if path is None:
            raise ServeError("serve() needs a socket path or a host")
        server = await asyncio.start_unix_server(on_client, path)
        address = path
    loop = asyncio.get_running_loop()
    try:
        async with server:      # start_*_server is already accepting
            # SIGTERM's default action would end this process and orphan
            # the workers; stop serving instead, so the shutdown below
            # joins them. Not available off the main thread.
            terminated = asyncio.Event()
            try:
                loop.add_signal_handler(signal.SIGTERM, terminated.set)
                handling = True
            except (NotImplementedError, RuntimeError):
                handling = False
            try:
                if ready is not None:
                    ready(address)
                await terminated.wait()
            finally:
                if handling:
                    loop.remove_signal_handler(signal.SIGTERM)
    finally:
        front.shutdown()
        if host is None and path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roload-serve",
        description="Snapshot-forked multi-session simulation service "
                    "speaking line-JSON over a local socket.")
    parser.add_argument("--socket", metavar="PATH",
                        default="roload-serve.sock",
                        help="Unix socket path (default: "
                             "./roload-serve.sock)")
    parser.add_argument("--host", default=None,
                        help="serve TCP on this host instead of a "
                             "Unix socket")
    parser.add_argument("--port", type=int, default=7333,
                        help="TCP port with --host (default: 7333)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: "
                             "REPRO_SERVE_WORKERS; 0 = one per CPU)")
    args = parser.parse_args(argv)

    def announce(address):
        print(f"roload-serve: listening on {address} "
              f"({_config.current().resolve_serve_workers(args.workers)}"
              f" workers)", flush=True)

    try:
        asyncio.run(serve(path=None if args.host else args.socket,
                          host=args.host, port=args.port,
                          workers=args.workers, ready=announce))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
