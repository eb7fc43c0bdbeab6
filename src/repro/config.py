"""Typed configuration surface for every ``REPRO_*`` knob.

One :class:`Config` dataclass replaces the ad-hoc ``os.environ`` reads
that used to be scattered through ``cpu/core.py``, the compiled tiers,
``obs``, ``kernel/fault.py`` and the tools. Environment variables remain
the *default source* — :meth:`Config.from_env` is the single reader —
but every consumer now goes through :func:`current`, which also honours
programmatic overrides (:func:`overrides`) so tests and the replay
machinery can pin a tier without mutating the process environment.

Knob table (also printed by ``python -m repro.config``):

======================  ==================  =======  =========================
environment variable    Config field        default  meaning
======================  ==================  =======  =========================
REPRO_TIER              tier                tier4    interpreter tier: slow
                                                     (per-instruction seed
                                                     path), tier1 (block
                                                     replay), tier2 (blocks
                                                     lowered to the flat
                                                     core) or tier4 (tier 2
                                                     plus hot regions)
REPRO_OBS               obs                 0        observability layer on
                                                     at import
REPRO_OBS_EVENTS        obs_events          65536    event-ring capacity
REPRO_OBS_SAMPLE        obs_sample          0        flight-recorder sample
                                                     interval in retired
                                                     instructions (0 = off)
REPRO_AUDIT             audit               0        hash-chained security
                                                     audit trail
REPRO_SECLOG_CAP        seclog_cap          4096     kernel security-log ring
                                                     capacity
REPRO_JOBS              jobs                1        benchmark worker
                                                     processes (0/"auto" =
                                                     one per CPU)
REPRO_BENCH_SCALE       bench_scale         0.1      pytest-benchmark workload
                                                     scale
REPRO_SERVE_WORKERS     serve_workers       2        roload-serve worker
                                                     processes (0/"auto" =
                                                     one per CPU)
REPRO_SERVE_SESSIONS    serve_sessions      64       max live sessions per
                                                     serve worker (fail
                                                     closed)
REPRO_SERVE_SLICE       serve_slice         50000    max instructions one
                                                     serve step request may
                                                     run (time-slice quantum)
REPRO_SERVE_INSTRET     serve_instret       10000000 default per-session
                                                     retired-instruction
                                                     budget (fail closed)
REPRO_SERVE_FRAMES      serve_frames        8192     default per-session
                                                     private-frame cap
                                                     (fail closed)
======================  ==================  =======  =========================

The four interpreter tiers (:data:`TIERS`) are the values of
``REPRO_TIER``; the CI test matrix pins the suite to each and the
replay determinism checker restores the same snapshot under each. Tier
4 keeps its historical number: it is the only region tier since the
generated-source tier 3 was removed. Tiers 2 and 4 both run on the flat
core: tier 2 lowers single blocks, tier 4 multi-block regions.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Optional

from repro.errors import ConfigError

_FALSE_WORDS = ("0", "off", "no", "false")

# The four interpreter tiers of DESIGN.md §9/§12/§13, slowest first: the
# values of REPRO_TIER.
TIERS = ("slow", "tier1", "tier2", "tier4")


def _parse_flag_default_off(raw: str) -> bool:
    """Historical REPRO_OBS semantics: empty stays off."""
    return raw.strip().lower() not in ("",) + _FALSE_WORDS


def _parse_positive_int(default: int) -> "Callable[[str], int]":
    def parse(raw: str) -> int:
        try:
            return max(1, int(raw))
        except ValueError:
            return default
    return parse


def _parse_nonneg_int(default: int) -> "Callable[[str], int]":
    """For knobs where 0 is meaningful (= off), unlike the >=1 caps."""
    def parse(raw: str) -> int:
        try:
            return max(0, int(raw))
        except ValueError:
            return default
    return parse


def _parse_worker_count(env: str) -> "Callable[[str], int]":
    """0/'auto' means one worker per CPU; invalid values are a usage
    error (matching the old ``resolve_jobs`` behaviour)."""
    def parse(raw: str) -> int:
        raw = raw.strip().lower()
        if raw in ("0", "auto"):
            return 0
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"{env}={raw!r} is not an integer (or 'auto')") from None
    return parse


_parse_jobs = _parse_worker_count("REPRO_JOBS")


def _parse_scale(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        return 0.1


def _flag_to_env(value: bool) -> str:
    return "1" if value else "0"


@dataclass(frozen=True)
class Knob:
    """One documented configuration knob."""

    field: str
    env: str
    parse: "Callable[[str], object]"
    to_env: "Callable[[object], str]"
    help: str


@dataclass(frozen=True)
class Config:
    """Typed snapshot of every ``REPRO_*`` knob.

    Frozen: derive variants with :meth:`replace` (or
    ``dataclasses.replace``) and install them with :func:`overrides`.
    """

    tier: str = "tier4"     # one of TIERS
    obs: bool = False
    obs_events: int = 65536
    obs_sample: int = 0     # flight-recorder interval in retired
                            # instructions; 0 = sampler off
    audit: bool = False
    seclog_cap: int = 4096
    jobs: int = 1           # 0 = one worker per CPU ("auto")
    bench_scale: float = 0.1
    serve_workers: int = 2  # 0 = one worker per CPU ("auto")
    serve_sessions: int = 64
    serve_slice: int = 50_000
    serve_instret: int = 10_000_000
    serve_frames: int = 8192

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ConfigError(f"unknown tier {self.tier!r} (one of: "
                              f"{', '.join(TIERS)})")

    @classmethod
    def from_env(cls, env: "Optional[Dict[str, str]]" = None) -> "Config":
        """The single environment reader: one ``Config`` from ``env``
        (default ``os.environ``); unset/invalid knobs keep defaults, and
        a ``REPRO_*`` variable that is no knob raises ``ConfigError``."""
        if env is None:
            env = os.environ
        unknown = sorted(name for name in env if name.startswith("REPRO_")
                         and name not in _KNOB_BY_NAME)
        if unknown:
            raise ConfigError(f"unknown config knob {', '.join(unknown)} "
                              f"in the environment (one of: "
                              f"{', '.join(k.env for k in KNOBS)})")
        values = {}
        for knob in KNOBS:
            raw = env.get(knob.env)
            if raw is not None:
                values[knob.field] = knob.parse(raw)
        return cls(**values)

    def replace(self, **changes) -> "Config":
        return replace(self, **changes)

    def to_env(self) -> "Dict[str, str]":
        """The environment-variable encoding of this configuration."""
        return {knob.env: knob.to_env(getattr(self, knob.field))
                for knob in KNOBS}

    def resolve_jobs(self, jobs: "Optional[int]" = None) -> int:
        """Worker-process count: explicit argument beats the knob;
        0 means one worker per CPU; always at least 1."""
        if jobs is None:
            jobs = self.jobs
        if jobs == 0:
            jobs = os.cpu_count() or 1
        return max(1, jobs)

    def resolve_serve_workers(self, workers: "Optional[int]" = None) -> int:
        """Serve worker-process count, with the same 0 = auto rule."""
        if workers is None:
            workers = self.serve_workers
        if workers == 0:
            workers = os.cpu_count() or 1
        return max(1, workers)


KNOBS: "tuple[Knob, ...]" = (
    Knob("tier", "REPRO_TIER", str.strip, str,
         "interpreter tier: " + ", ".join(TIERS)),
    Knob("obs", "REPRO_OBS", _parse_flag_default_off, _flag_to_env,
         "observability layer on at import"),
    Knob("obs_events", "REPRO_OBS_EVENTS", _parse_positive_int(65536),
         str, "event-ring capacity"),
    Knob("obs_sample", "REPRO_OBS_SAMPLE", _parse_nonneg_int(0), str,
         "flight-recorder sample interval in retired instructions "
         "(0 = off)"),
    Knob("audit", "REPRO_AUDIT", _parse_flag_default_off, _flag_to_env,
         "hash-chained security audit trail"),
    Knob("seclog_cap", "REPRO_SECLOG_CAP", _parse_positive_int(4096),
         str, "kernel security-log ring capacity"),
    Knob("jobs", "REPRO_JOBS", _parse_jobs, str,
         "benchmark worker processes (0/'auto' = one per CPU)"),
    Knob("bench_scale", "REPRO_BENCH_SCALE", _parse_scale, str,
         "pytest-benchmark workload scale"),
    Knob("serve_workers", "REPRO_SERVE_WORKERS",
         _parse_worker_count("REPRO_SERVE_WORKERS"), str,
         "roload-serve worker processes (0/'auto' = one per CPU)"),
    Knob("serve_sessions", "REPRO_SERVE_SESSIONS", _parse_positive_int(64),
         str, "max live sessions per serve worker (fail closed)"),
    Knob("serve_slice", "REPRO_SERVE_SLICE", _parse_positive_int(50_000),
         str, "max instructions one serve step request may run"),
    Knob("serve_instret", "REPRO_SERVE_INSTRET",
         _parse_positive_int(10_000_000), str,
         "default per-session retired-instruction budget (fail closed)"),
    Knob("serve_frames", "REPRO_SERVE_FRAMES", _parse_positive_int(8192),
         str, "default per-session private-frame cap (fail closed)"),
)

_KNOB_BY_NAME: "Dict[str, Knob]" = {}
for _knob in KNOBS:
    _KNOB_BY_NAME[_knob.field] = _knob
    _KNOB_BY_NAME[_knob.env] = _knob
    _KNOB_BY_NAME[_knob.env.lower()] = _knob

# Programmatic override stack (innermost wins). Empty = read the
# environment fresh on every current() call, so monkeypatched env vars
# keep working exactly as before this module existed.
_OVERRIDES: "list[Config]" = []


def current() -> Config:
    """The active configuration: innermost override, else the env."""
    if _OVERRIDES:
        return _OVERRIDES[-1]
    return Config.from_env()


def set_override(config: "Optional[Config]") -> None:
    """Install (or, with None, clear) a process-wide override."""
    _OVERRIDES.clear()
    if config is not None:
        _OVERRIDES.append(config)


@contextmanager
def overrides(**changes):
    """Scoped override: ``with config.overrides(tier="tier1"): ...``.

    Field values start from :func:`current`, so nested overrides
    compose. Does not touch the process environment (worker processes
    spawned inside the block keep reading their inherited env — use
    :func:`env_knobs` when children must see the change).
    """
    cfg = current().replace(**changes)
    _OVERRIDES.append(cfg)
    try:
        yield cfg
    finally:
        _OVERRIDES.pop()


@contextmanager
def env_knobs(**changes):
    """Scoped *environment* override: sets the corresponding ``REPRO_*``
    variables and restores them on exit. Needed when the change must be
    inherited by worker processes (benchmark sweeps)."""
    saved = {}
    for name, value in changes.items():
        knob = _KNOB_BY_NAME.get(name)
        if knob is None:
            raise ConfigError(f"unknown config knob {name!r}")
        saved[knob.env] = os.environ.get(knob.env)
        os.environ[knob.env] = knob.to_env(value) \
            if not isinstance(value, str) else value
    try:
        yield
    finally:
        for env_name, value in saved.items():
            if value is None:
                os.environ.pop(env_name, None)
            else:
                os.environ[env_name] = value


def parse_kv(pairs: "Iterable[str]") -> "Dict[str, object]":
    """Parse ``--config KEY=VAL`` pairs into Config field values.

    KEY may be a field name (``serve_slice``) or the environment
    spelling (``REPRO_SERVE_SLICE``), case-insensitive.
    """
    out: "Dict[str, object]" = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ConfigError(f"--config expects KEY=VAL, got {pair!r}")
        knob = _KNOB_BY_NAME.get(key) or _KNOB_BY_NAME.get(key.lower())
        if knob is None:
            known = ", ".join(k.field for k in KNOBS)
            raise ConfigError(f"unknown config knob {key!r} (one of: "
                              f"{known})")
        out[knob.field] = knob.parse(raw)
    return out


def knob_table() -> str:
    """The documented knob table, one line per knob."""
    lines = [f"{'env variable':22s} {'field':14s} {'default':>8s}  meaning"]
    defaults = Config()
    for knob in KNOBS:
        default = knob.to_env(getattr(defaults, knob.field))
        lines.append(f"{knob.env:22s} {knob.field:14s} {default:>8s}  "
                     f"{knob.help}")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(knob_table())
