"""Line-JSON serve protocol: one request object per line, fail closed.

Every request is a single JSON object terminated by ``\\n`` with an
``op`` field; every response is a single JSON object with ``ok`` (and
``error`` when ``ok`` is false). Validation is allow-list based and
denies rather than ignores: an unknown ``op``, an unknown field on a
known ``op``, or a value of the wrong shape is a :class:`~repro.errors.
ServeError` before any simulator state is touched. A server must never
guess what a half-understood request meant.

The operations:

======== ================================================== ==========
op       fields                                             routing
======== ================================================== ==========
create   profile, workload, [scale, variant, tier, boot,    one worker
         caps{instret,frames,seclog}]
step     session, [n]                                       by session
query    session, [hash, audit]                             by session
detach   session                                            by session
reattach session                                            by session
destroy  session                                            by session
warm     profile, workload, [scale, variant, boot]          one worker
stats    (none)                                             all workers
ping     (none)                                             front end
======== ================================================== ==========
"""

from __future__ import annotations

import json
from typing import Optional

from repro import config as _config
from repro.errors import ServeError
from repro.serve.pool import PoolKey

# Allowed fields per operation, beyond "op" itself. A request carrying
# anything else is denied — silently dropping fields would let a typo
# (say "cap" for "caps") weaken a session's limits without a trace.
_FIELDS = {
    "create": {"profile", "workload", "scale", "variant", "tier",
               "boot", "caps"},
    "step": {"session", "n"},
    "query": {"session", "hash", "audit"},
    "detach": {"session"},
    "reattach": {"session"},
    "destroy": {"session"},
    "warm": {"profile", "workload", "scale", "variant", "boot"},
    "stats": set(),
    "ping": set(),
}

_SESSION_OPS = frozenset({"step", "query", "detach", "reattach",
                          "destroy"})

# Default warm-snapshot boot point of create and warm: instructions
# retired before the pool captures the snapshot.
BOOT = 4096


def parse_request(line: str, slice_limit: int) -> dict:
    """Parse and validate one protocol line; raises ServeError. A step's
    ``n`` may not exceed ``slice_limit``."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as error:
        raise ServeError(f"request is not valid JSON: {error}")
    if not isinstance(request, dict):
        raise ServeError("request is not a JSON object")
    op = request.get("op")
    if not isinstance(op, str):
        raise ServeError("request has no 'op' string")
    allowed = _FIELDS.get(op)
    if allowed is None:
        raise ServeError(f"unknown op {op!r} (one of: "
                         f"{', '.join(sorted(_FIELDS))})")
    extra = set(request) - allowed - {"op"}
    if extra:
        raise ServeError(f"op {op!r} does not accept field(s) "
                         f"{', '.join(sorted(extra))} (denied, fail "
                         f"closed)")
    if op == "step":
        _validate_step(request, slice_limit)
    elif op in _VALIDATORS:
        _VALIDATORS[op](request)
    return request


def _require_session(request: dict) -> None:
    sid = request.get("session")
    if not isinstance(sid, int) or isinstance(sid, bool) or sid < 0:
        raise ServeError(f"'session' must be a non-negative integer, "
                         f"got {sid!r}")


def _require_flag(request: dict, name: str) -> None:
    value = request.get(name, False)
    if not isinstance(value, bool):
        raise ServeError(f"{name!r} must be a boolean, got {value!r}")


def pool_key(request: dict) -> PoolKey:
    """Build (and validate) the snapshot-pool key a request names."""
    scale = request.get("scale", 1.0)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool):
        raise ServeError(f"'scale' must be a number, got {scale!r}")
    variant = request.get("variant", "vcall")
    if not isinstance(variant, str):
        raise ServeError(f"'variant' must be a string, got {variant!r}")
    boot = request.get("boot", BOOT)
    if not isinstance(boot, int) or isinstance(boot, bool):
        raise ServeError(f"'boot' must be an integer, got {boot!r}")
    return PoolKey(profile=str(request.get("profile", "")),
                   workload=str(request.get("workload", "")),
                   scale=float(scale), variant=variant,
                   boot=boot).validate()


def _validate_create(request: dict) -> None:
    for field in ("profile", "workload"):
        if not isinstance(request.get(field), str):
            raise ServeError(f"create requires a {field!r} string")
    tier = request.get("tier")
    if tier is not None and tier not in _config.TIERS:
        raise ServeError(f"unknown tier {tier!r} (one of: "
                         f"{', '.join(_config.TIERS)})")
    caps = request.get("caps")
    if caps is not None and not isinstance(caps, dict):
        raise ServeError(f"'caps' must be an object, got {caps!r}")
    pool_key(request)


def _validate_step(request: dict, limit: int) -> None:
    _require_session(request)
    n = request.get("n", limit)
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ServeError(f"'n' must be a positive integer, got {n!r}")
    if n > limit:
        raise ServeError(f"step n={n} exceeds the per-slice limit "
                         f"{limit} (REPRO_SERVE_SLICE); issue more "
                         f"steps instead")


def _validate_query(request: dict) -> None:
    _require_session(request)
    _require_flag(request, "hash")
    _require_flag(request, "audit")


def _validate_warm(request: dict) -> None:
    for field in ("profile", "workload"):
        if not isinstance(request.get(field), str):
            raise ServeError(f"warm requires a {field!r} string")
    pool_key(request)


_VALIDATORS = {
    "create": _validate_create,
    "query": _validate_query,
    "detach": _require_session,
    "reattach": _require_session,
    "destroy": _require_session,
    "warm": _validate_warm,
}


def session_of(request: dict) -> "Optional[int]":
    """The session a validated request targets, if any."""
    if request.get("op") in _SESSION_OPS:
        return request["session"]
    return None


def encode(response: dict) -> bytes:
    return (json.dumps(response, separators=(",", ":"))
            + "\n").encode("utf-8")


def ok(**fields) -> dict:
    response = {"ok": True}
    response.update(fields)
    return response


def error(message: str) -> dict:
    return {"ok": False, "error": message}
