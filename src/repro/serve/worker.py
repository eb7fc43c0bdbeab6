"""One serve worker: a share-nothing process hosting many sessions.

A worker owns its own :class:`~repro.serve.pool.SnapshotPool` and a
dict of live :class:`~repro.serve.session.Session` objects, and serves
requests one at a time over a ``multiprocessing.Pipe`` from the front
end — sessions inside a worker advance cooperatively, never
concurrently, which is what makes the per-slice ``OBS.audit`` swap in
:meth:`Session.step` safe. Workers share nothing with each other: the
front end shards sessions across them by id.

Every request is answered; a :class:`~repro.errors.ServeError` (bad
request, unknown session, cap breach) becomes an ``{"ok": false}``
response and never kills the worker. Anything else propagating out of
the simulator is reported with its type and message, and the offending
session — if one was targeted — is killed fail-closed rather than left
in a half-stepped state.
"""

from __future__ import annotations

from typing import Dict

from repro import config as _config
from repro import obs as _obs
from repro.errors import ReproError, ServeError
from repro.serve import protocol
from repro.serve.pool import SnapshotPool
from repro.serve.session import DETACHED, RUNNING, Session, SessionCaps


class Worker:
    """Request dispatcher for one worker process (also usable inline,
    which is how the unit tests drive it without forking)."""

    def __init__(self, worker_id: int = 0, config=None):
        self.worker_id = worker_id
        self.config = config or _config.current()
        self.pool = SnapshotPool()
        self.sessions: "Dict[int, Session]" = {}
        self.served = 0

    # -- operations ----------------------------------------------------------

    def _session(self, sid: int) -> Session:
        session = self.sessions.get(sid)
        if session is None:
            raise ServeError(f"unknown session {sid}")
        return session

    def _create(self, request: dict) -> dict:
        if len(self.sessions) >= self.config.serve_sessions:
            raise ServeError(
                f"worker {self.worker_id} is at its session limit "
                f"({self.config.serve_sessions}, REPRO_SERVE_SESSIONS); "
                f"destroy a session first")
        sid = request["session"]
        if sid in self.sessions:
            raise ServeError(f"session {sid} already exists")
        caps = SessionCaps.from_request(request.get("caps"), self.config)
        key = protocol.pool_key(request)
        tier = request.get("tier")
        entry, built = self.pool.warm(key)
        kernel, process, fork_seconds = self.pool.fork(key, tier=tier)
        session = Session(sid, kernel, process, caps, tier=tier,
                          workload=key.workload,
                          source="boot" if built else "fork",
                          fork_seconds=fork_seconds, origin=entry)
        self.sessions[sid] = session
        return protocol.ok(session=sid, state=session.state,
                           source=session.source,
                           fork_us=fork_seconds * 1e6,
                           caps=caps.as_dict(), worker=self.worker_id)

    def _step(self, request: dict) -> dict:
        session = self._session(request["session"])
        n = request.get("n", self.config.serve_slice)
        try:
            result = session.step(n)
        except ServeError:
            raise
        except ReproError as error:
            # A simulator fault escaping the slice leaves the machine
            # in an unknown state: kill the session, keep the worker.
            session._kill("killed", f"{type(error).__name__}: {error}")
            raise ServeError(f"session {session.sid} killed: "
                             f"{type(error).__name__}: {error}")
        return protocol.ok(session=session.sid, **result)

    def _query(self, request: dict) -> dict:
        session = self._session(request["session"])
        return protocol.ok(**session.query(
            with_hash=bool(request.get("hash")),
            with_audit=bool(request.get("audit"))))

    def _detach(self, request: dict) -> dict:
        session = self._session(request["session"])
        if session.state != RUNNING:
            raise ServeError(f"session {session.sid} is "
                             f"{session.state}, not running")
        session.state = DETACHED
        return protocol.ok(session=session.sid, state=session.state)

    def _reattach(self, request: dict) -> dict:
        session = self._session(request["session"])
        if session.state != DETACHED:
            raise ServeError(f"session {session.sid} is "
                             f"{session.state}, not detached")
        session.state = RUNNING
        return protocol.ok(session=session.sid, state=session.state)

    def _destroy(self, request: dict) -> dict:
        session = self.sessions.pop(request["session"], None)
        if session is None:
            raise ServeError(f"unknown session {request['session']}")
        return protocol.ok(**session.destroy())

    def _warm(self, request: dict) -> dict:
        key = protocol.pool_key(request)
        entry, built = self.pool.warm(key)
        return protocol.ok(built=built, worker=self.worker_id,
                           boot_us=entry.boot_seconds * 1e6,
                           frames=len(entry.snapshot.state["memory"]))

    def _stats(self, request: dict) -> dict:
        by_state: "Dict[str, int]" = {}
        for session in self.sessions.values():
            by_state[session.state] = by_state.get(session.state, 0) + 1
        return protocol.ok(worker=self.worker_id, served=self.served,
                           sessions=len(self.sessions), states=by_state,
                           pool=self.pool.stats())

    _OPS = {"create": _create, "step": _step, "query": _query,
            "detach": _detach, "reattach": _reattach,
            "destroy": _destroy, "warm": _warm, "stats": _stats}

    def handle(self, request: dict) -> dict:
        """Serve one validated request; never raises."""
        self.served += 1
        handler = self._OPS.get(request.get("op"))
        try:
            if handler is None:
                raise ServeError(f"op {request.get('op')!r} is not a "
                                 f"worker operation")
            return handler(self, request)
        except ServeError as error:
            return protocol.error(str(error))
        except Exception as error:  # noqa: BLE001 — the worker must live
            return protocol.error(f"internal: {type(error).__name__}: "
                                  f"{error}")


def worker_main(conn, worker_id: int) -> None:
    """Entry point of a forked worker process, which runs on the
    configuration it inherits from the front end.

    Speaks dict-in, encoded-line-out over ``conn`` until a ``shutdown``
    request (or EOF) arrives. Observability is enabled once here so the
    per-session audit instrumentation sites are live; the per-slice
    trail swap happens inside :meth:`Session.step`.
    """
    _obs.enable(audit=True)
    worker = Worker(worker_id)
    try:
        while True:
            try:
                request = conn.recv()
            except (EOFError, OSError):
                break
            if not isinstance(request, dict) or \
                    request.get("op") == "shutdown":
                conn.send_bytes(protocol.encode(protocol.ok(
                    worker=worker_id, served=worker.served)))
                break
            conn.send_bytes(protocol.encode(worker.handle(request)))
    finally:
        conn.close()
