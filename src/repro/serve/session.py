"""One guest session: a forked machine with fail-closed resource caps.

A :class:`Session` owns a full simulated machine (kernel + process),
normally forked copy-on-write from a warm :class:`~repro.serve.pool.
SnapshotPool` snapshot, and advances it cooperatively in bounded slices
(``Kernel.run(stop_after=N)``) so one worker process can host many
sessions without any of them monopolizing the loop.

The monitor stays trustworthy against a hostile guest by construction:

* **Instruction budget** — a session may retire at most ``caps.instret``
  instructions over its lifetime; reaching the budget kills the session
  (state ``capped``), it is never silently truncated or extended.
* **Frame cap** — a session may materialize at most ``caps.frames``
  private page frames (copy-on-write copies plus pages it allocates);
  exceeding the cap kills the session after the offending slice.
* **Security-event ring** — the per-session kernel security log is a
  bounded ring of ``caps.seclog`` events with a dropped counter, so a
  fault-storm guest cannot grow the monitor without limit.

Every session carries its own SHA-256 hash-chained audit trail
(:class:`~repro.obs.audit.AuditTrail`): ROLoad violations and guest
cache invalidations recorded by the existing instrumentation sites,
plus ``serve.*`` lifecycle records appended here. Chain content is
keyed to guest ``instret`` only, so two sessions forked from the same
snapshot and stepped through the same workload produce bit-identical
chains — on *different* interpreter tiers included (the fork-
determinism test asserts exactly that).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro import config as _config
from repro import obs as _obs
from repro.errors import ServeError
from repro.kernel.fault import SecurityLog
from repro.obs.audit import AuditTrail, sealed_view

# Session lifecycle states. "capped" and "killed" are terminal fail-
# closed states; "exited" is the guest's own clean or signalled end.
RUNNING = "running"
DETACHED = "detached"
EXITED = "exited"
CAPPED = "capped"
DESTROYED = "destroyed"


class SessionCaps:
    """Per-session resource limits, clamped to the server's maxima.

    A create request may *lower* any cap below the configured default
    but never raise it — asking for more than the server allows is an
    unverifiable configuration and is denied outright.
    """

    __slots__ = ("instret", "frames", "seclog")

    def __init__(self, instret: int, frames: int, seclog: int):
        self.instret = instret
        self.frames = frames
        self.seclog = seclog

    @classmethod
    def from_request(cls, requested: "Optional[dict]" = None,
                     config: "Optional[_config.Config]" = None) \
            -> "SessionCaps":
        cfg = config or _config.current()
        maxima = {"instret": cfg.serve_instret, "frames": cfg.serve_frames,
                  "seclog": cfg.seclog_cap}
        values = dict(maxima)
        for name, value in (requested or {}).items():
            if name not in maxima:
                raise ServeError(f"unknown session cap {name!r} "
                                 f"(one of: {', '.join(sorted(maxima))})")
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value <= 0:
                raise ServeError(f"session cap {name}={value!r} is not a "
                                 f"positive integer")
            if value > maxima[name]:
                raise ServeError(
                    f"session cap {name}={value} exceeds the server "
                    f"maximum {maxima[name]} (denied, fail closed)")
            values[name] = value
        return cls(**values)

    def as_dict(self) -> dict:
        return {"instret": self.instret, "frames": self.frames,
                "seclog": self.seclog}


class Session:
    """A live guest machine hosted by one serve worker."""

    def __init__(self, sid: int, kernel, process, caps: SessionCaps, *,
                 tier: "Optional[str]" = None, workload: str = "",
                 source: str = "fork", fork_seconds: float = 0.0,
                 origin=None):
        self.sid = sid
        self.kernel = kernel
        self.process = process
        self.caps = caps
        self.tier = tier
        self.workload = workload
        self.source = source
        self.fork_seconds = fork_seconds
        # The pool entry (WarmSnapshot) this session was forked from;
        # destroy publishes the session's translations onto it.
        self.origin = origin
        self.state = RUNNING
        self.detail = ""
        self.retired = 0            # instructions retired in this session
        self.steps = 0              # step slices served
        # The session's own bounded security-event ring (the snapshot's
        # events, if any, carry over) and its own audit chain.
        log = SecurityLog(caps.seclog)
        for event in kernel.security_log:
            log.append(event)
        kernel.faults.security_log = log
        # Chain records never carry session identity, tier, or host
        # time: the chain is a pure function of (snapshot, workload,
        # steps), which is what lets identical-workload sessions be
        # compared head-for-head across interpreter tiers.
        self.audit = AuditTrail()
        self.audit.append("serve.create", workload=workload,
                          instret=self._instret(),
                          caps=self.caps.as_dict())

    # -- helpers -------------------------------------------------------------

    def _instret(self) -> int:
        return self.kernel.system.timing.stats.instructions

    @property
    def alive(self) -> bool:
        return self.state in (RUNNING, DETACHED)

    def _kill(self, state: str, detail: str) -> None:
        self.state = state
        self.detail = detail

    # -- the time slice ------------------------------------------------------

    def step(self, n: int) -> dict:
        """Advance the guest by up to ``n`` instructions, fail closed.

        The worker swaps the process-wide audit hook to this session's
        chain for the duration of the slice, so instrumentation sites
        (ROLoad faults, guest ``fence.i``/SMC flushes) append to the
        right chain; sessions never run concurrently inside a worker.
        """
        if self.state == DETACHED:
            raise ServeError(f"session {self.sid} is detached; "
                             f"reattach before stepping")
        if not self.alive:
            raise ServeError(f"session {self.sid} is {self.state}"
                             f"{' (' + self.detail + ')' if self.detail else ''}")
        if n <= 0:
            raise ServeError(f"step count {n} is not positive")
        left = self.caps.instret - self.retired
        if left <= 0:                      # can't happen: capped below
            self._kill(CAPPED, "instret budget exhausted")
            raise ServeError(f"session {self.sid} is {CAPPED}")
        slice_n = min(n, left)
        began = perf_counter()
        core = self.kernel.system.core
        before = core.instret
        saved_audit = _obs.OBS.audit
        _obs.OBS.audit = self.audit
        try:
            self.kernel.run(self.process, max_instructions=left,
                            stop_after=slice_n)
        finally:
            _obs.OBS.audit = saved_audit
        executed = core.instret - before
        self.retired += executed
        self.steps += 1
        if not self.process.alive:
            self.state = EXITED
            self.detail = self.process.status()
            self.audit.append("serve.exit", status=self.detail,
                              instret=self._instret())
        elif self.retired >= self.caps.instret:
            self._kill(CAPPED, f"instret budget ({self.caps.instret}) "
                               f"exhausted")
            self.audit.append("serve.cap", what="instret",
                              cap=self.caps.instret,
                              instret=self._instret())
        else:
            frames = self.kernel.system.memory.private_frame_count()
            if frames > self.caps.frames:
                self._kill(CAPPED, f"frame cap ({self.caps.frames}) "
                                   f"exceeded: {frames} private frames")
                self.audit.append("serve.cap", what="frames",
                                  cap=self.caps.frames, frames=frames,
                                  instret=self._instret())
        return {"executed": executed, "retired": self.retired,
                "state": self.state, "detail": self.detail,
                "wall_us": (perf_counter() - began) * 1e6}

    # -- introspection -------------------------------------------------------

    def query(self, *, with_hash: bool = False,
              with_audit: bool = False) -> dict:
        """Metrics, tier residency, caps, and the audit head.

        ``with_hash`` computes the architectural state hash — which
        *quiesces* the machine (a deterministic barrier: compare hashes
        only between sessions queried at the same point). ``with_audit``
        attaches a sealed, verifiable copy of the full chain.
        """
        system = self.kernel.system
        core = system.core
        stats = system.timing.stats
        memory = system.memory
        seclog = self.kernel.security_log
        out = {
            "session": self.sid,
            "state": self.state,
            "detail": self.detail,
            "workload": self.workload,
            "tier": self.tier or "ambient",
            "source": self.source,
            "steps": self.steps,
            "retired": self.retired,
            "caps": self.caps.as_dict(),
            "metrics": {
                "instructions": stats.instructions,
                "cycles": stats.cycles,
                "icache_misses": stats.icache_misses,
                "dcache_misses": stats.dcache_misses,
                "frames": memory.frame_count(),
                "private_frames": memory.private_frame_count(),
            },
            # No tier 3; its key is still read by bench/suite.py.
            "residency": dict(core.retired_by_tier(), tier3=0),
            "seclog": {"total": seclog.total, "dropped": seclog.dropped,
                       "capacity": seclog.capacity},
            "audit": {"head": self.audit.head,
                      "events": self.audit.events},
        }
        if with_hash:
            from repro.replay.snapshot import state_hash
            out["state_hash"] = state_hash(self.kernel)
        if with_audit:
            out["audit"]["records"] = sealed_view(self.audit)
        return out

    def destroy(self) -> dict:
        """Tear the session down; returns the sealed audit chain.

        The session first publishes its translations onto the pool
        entry it was forked from (:meth:`WarmSnapshot.publish
        <repro.serve.pool.WarmSnapshot.publish>`), so later forks start
        on its decoded and lowered code.
        """
        if self.state != DESTROYED:
            self.audit.append("serve.destroy", state=self.state,
                              instret=self._instret())
            self.audit.seal()
            self.state = DESTROYED
            if self.origin is not None:
                self.origin.publish(self.kernel)
        return {"session": self.sid, "state": self.state,
                "audit": list(self.audit.records)}
