"""Serve protocol validation (repro.serve.protocol): deny, don't guess.

Every malformed request must be rejected *before* touching simulator
state — unknown ops, unknown fields, wrong-shaped values, and caps or
pool keys the server can't verify.
"""

import json

import pytest

from repro import config
from repro.errors import ServeError
from repro.serve import protocol


def _parse(**fields):
    return protocol.parse_request(json.dumps(fields),
                                  config.current().serve_slice)


class TestParsing:
    def test_not_json(self):
        with pytest.raises(ServeError, match="not valid JSON"):
            protocol.parse_request("{nope", 1)

    def test_not_an_object(self):
        with pytest.raises(ServeError, match="not a JSON object"):
            protocol.parse_request("[1,2]", 1)

    def test_missing_op(self):
        with pytest.raises(ServeError, match="no 'op'"):
            _parse(session=0)

    def test_unknown_op_denied(self):
        with pytest.raises(ServeError, match="unknown op"):
            _parse(op="teleport")

    def test_unknown_field_denied_not_ignored(self):
        # A typo ("cap" for "caps") must never silently weaken limits.
        with pytest.raises(ServeError, match="does not accept"):
            _parse(op="step", session=0, cap=10)

    def test_ping_and_stats_take_no_fields(self):
        assert _parse(op="ping") == {"op": "ping"}
        with pytest.raises(ServeError, match="does not accept"):
            _parse(op="ping", loud=True)


class TestSessionOps:
    def test_session_must_be_a_nonneg_int(self):
        for bad in (-1, "0", 1.5, True, None):
            with pytest.raises(ServeError, match="session"):
                _parse(op="step", session=bad, n=10)

    def test_step_n_validated(self):
        for bad in (0, -5, "10", 1.5):
            with pytest.raises(ServeError, match="'n'"):
                _parse(op="step", session=0, n=bad)

    def test_step_n_capped_by_slice_limit(self):
        too_big = config.current().serve_slice + 1
        with pytest.raises(ServeError, match="per-slice limit"):
            _parse(op="step", session=0, n=too_big)

    def test_query_flags_must_be_booleans(self):
        with pytest.raises(ServeError, match="'hash'"):
            _parse(op="query", session=0, hash=1)

    def test_session_of_routing(self):
        assert protocol.session_of(_parse(op="query", session=7)) == 7
        assert protocol.session_of(_parse(op="ping")) is None


class TestCreateValidation:
    BASE = dict(op="create", profile="processor+kernel",
                workload="429.mcf", scale=0.02, boot=100)

    def test_valid_create_passes(self):
        request = _parse(**self.BASE)
        key = protocol.pool_key(request)
        assert key.workload == "429.mcf"
        assert key.variant == "vcall"          # the hardened default

    def test_unknown_profile_denied(self):
        with pytest.raises(ServeError, match="unknown SoC profile"):
            _parse(**{**self.BASE, "profile": "quantum"})

    def test_unknown_workload_denied(self):
        with pytest.raises(ServeError, match="unknown workload"):
            _parse(**{**self.BASE, "workload": "999.doom"})

    def test_unknown_variant_denied(self):
        with pytest.raises(ServeError, match="unknown hardening"):
            _parse(**{**self.BASE, "variant": "extreme"})

    def test_unknown_tier_denied(self):
        for tier in ("tier9", "tier2"):
            with pytest.raises(ServeError, match=f"unknown tier '{tier}'"):
                _parse(**{**self.BASE, "tier": tier})

    def test_bad_scale_denied(self):
        with pytest.raises(ServeError, match="scale"):
            _parse(**{**self.BASE, "scale": -1})
        with pytest.raises(ServeError, match="scale"):
            _parse(**{**self.BASE, "scale": "big"})

    def test_bad_boot_denied(self):
        with pytest.raises(ServeError, match="boot"):
            _parse(**{**self.BASE, "boot": 0})

    def test_caps_must_be_an_object(self):
        with pytest.raises(ServeError, match="caps"):
            _parse(**{**self.BASE, "caps": [1, 2]})


class TestEncoding:
    def test_responses_are_single_lines(self):
        blob = protocol.encode(protocol.ok(value={"a": 1}))
        assert blob.endswith(b"\n")
        assert blob.count(b"\n") == 1
        assert json.loads(blob)["ok"] is True

    def test_error_shape(self):
        assert protocol.error("nope") == {"ok": False, "error": "nope"}
