"""Session lifecycle and fail-closed resource caps (repro.serve).

A session must die — never degrade — when it hits its instruction
budget or frame cap; cap requests above the server maxima must be
denied at create; detached sessions must refuse to step.
"""

import gc
import weakref

import pytest

from repro import config
from repro.cpu import regions
from repro.errors import ServeError
from repro.serve.session import (CAPPED, DESTROYED, DETACHED, EXITED,
                                 RUNNING, Session, SessionCaps)

from tests.conftest import needs_native


def _fork_session(pool, key, caps=None, tier=None, sid=0):
    kernel, process, _ = pool.fork(key, tier=tier)
    return Session(sid, kernel, process,
                   caps or SessionCaps.from_request(),
                   tier=tier, workload=key.workload)


class TestCapsRequest:
    def test_defaults_are_the_server_maxima(self):
        cfg = config.current()
        caps = SessionCaps.from_request()
        assert caps.instret == cfg.serve_instret
        assert caps.frames == cfg.serve_frames
        assert caps.seclog == cfg.seclog_cap

    def test_caps_may_be_lowered(self):
        caps = SessionCaps.from_request({"instret": 5000, "frames": 16})
        assert caps.instret == 5000
        assert caps.frames == 16

    def test_raising_above_the_maximum_is_denied(self):
        too_many = config.current().serve_instret + 1
        with pytest.raises(ServeError, match="exceeds the server"):
            SessionCaps.from_request({"instret": too_many})

    def test_unknown_cap_is_denied(self):
        with pytest.raises(ServeError, match="unknown session cap"):
            SessionCaps.from_request({"instrets": 100})

    def test_non_positive_and_non_int_denied(self):
        for bad in (0, -5, "100", 1.5, True):
            with pytest.raises(ServeError):
                SessionCaps.from_request({"instret": bad})


class TestSessionLifecycle:
    def test_step_advances_and_reports(self, pool, warm_key):
        session = _fork_session(pool, warm_key)
        result = session.step(500)
        assert result["executed"] == 500
        assert result["state"] == RUNNING
        assert session.retired == 500

    def test_step_zero_denied(self, pool, warm_key):
        session = _fork_session(pool, warm_key)
        with pytest.raises(ServeError, match="not positive"):
            session.step(0)

    def test_detach_blocks_stepping_until_reattach(self, pool, warm_key):
        session = _fork_session(pool, warm_key)
        session.state = DETACHED
        with pytest.raises(ServeError, match="detached"):
            session.step(10)
        session.state = RUNNING
        assert session.step(10)["executed"] == 10

    def test_exit_is_terminal(self, pool, warm_key):
        session = _fork_session(pool, warm_key)
        while session.state == RUNNING:
            session.step(50_000)
        assert session.state == EXITED
        assert "exited" in session.detail
        with pytest.raises(ServeError):
            session.step(1)

    def test_destroy_seals_the_chain(self, pool, warm_key):
        from repro.obs.audit import verify_chain
        session = _fork_session(pool, warm_key)
        session.step(100)
        out = session.destroy()
        assert session.state == DESTROYED
        assert verify_chain(out["audit"]) == []
        assert out["audit"][-1]["type"] == "audit.seal"

    @needs_native
    def test_destroy_releases_lowered_code_without_a_gc(
            self, pool, warm_key, monkeypatch):
        # Bound native units hold the core that holds them; dropping a
        # destroyed session must break that cycle so reference counting
        # alone frees them.
        monkeypatch.setattr(regions, "REGION_THRESHOLD", 2)
        session = _fork_session(pool, warm_key, tier="tier4")
        for _ in range(8):
            session.step(1000)
        core = session.kernel.system.core
        units = list(core._jit_blocks.values()) \
            + list(core._regions.values())
        assert units
        refs = [weakref.ref(unit.fn) for unit in units]
        del core, units
        gc.disable()
        try:
            session.destroy()
            del session
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


class TestFailClosed:
    def test_instret_budget_caps_the_session(self, pool, warm_key):
        caps = SessionCaps.from_request({"instret": 1000})
        session = _fork_session(pool, warm_key, caps=caps)
        result = session.step(5000)       # asks for more than the budget
        assert result["executed"] == 1000  # clamped, never exceeded
        assert session.state == CAPPED
        assert "budget" in session.detail
        with pytest.raises(ServeError, match="capped"):
            session.step(1)
        records = [r["type"] for r in session.audit.records]
        assert "serve.cap" in records

    def test_frame_cap_kills_after_the_offending_slice(self, pool,
                                                       warm_key):
        caps = SessionCaps.from_request({"frames": 1})
        session = _fork_session(pool, warm_key, caps=caps)
        while session.state == RUNNING:
            session.step(500)
        assert session.state == CAPPED
        assert "frame cap" in session.detail

    def test_seclog_cap_bounds_the_event_ring(self, pool, warm_key):
        caps = SessionCaps.from_request({"seclog": 2})
        session = _fork_session(pool, warm_key, caps=caps)
        assert session.kernel.security_log.capacity == 2

    def test_query_reports_caps_and_residency(self, pool, warm_key):
        """A tier-1 session keeps the tier its fork built it at: under
        an ambient tier 4, it retires nothing at tier 2 or tier 4,
        across several steps and a hashed query. (Residency counts the
        boot before the warm snapshot too, so compare against the
        fork's.)"""
        with config.overrides(tier="tier4"):
            session = _fork_session(pool, warm_key, tier="tier1")
            forked = session.query()["residency"]
            for __ in range(4):
                session.step(500)
            out = session.query(with_hash=True)
            session.step(500)
            after = session.query()
        assert out["caps"]["instret"] == config.current().serve_instret
        assert out["retired"] == 2000
        assert out["tier"] == "tier1"
        assert out["state_hash"]
        assert sum(out["residency"].values()) == \
            out["metrics"]["instructions"]
        assert out["audit"]["head"]
        assert after["retired"] == 2500
        for reply in (out, after):
            residency = reply["residency"]
            assert residency["tier1"] - forked["tier1"] == reply["retired"]
            assert residency["tier2"] == forked["tier2"]
            assert residency["tier4"] == forked["tier4"]
