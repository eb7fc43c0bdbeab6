"""Typed configuration surface for every ``REPRO_*`` knob.

One frozen :class:`Config` holds every knob, and every consumer reads
it through :func:`current`. The environment is the default source,
parsed once per process: :meth:`Config.from_env` runs at the first
:func:`current` call and its result is kept for the life of the
process, so setting a ``REPRO_*`` variable later changes nothing. A
failed parse is not kept: a ``REPRO_*`` variable that is no knob, or an
unknown tier, raises :class:`~repro.errors.ConfigError` at the first
read and at every later one.

:func:`overrides` is the one way to change a knob inside a process
(tests, the tools' ``--config`` flag, a tier pinned for one run). Worker
processes forked inside an override run on it too, because they inherit
the parent's memory; a pool that starts its workers with spawn passes
the parent's :func:`current` to :func:`inherit` as its initializer.

Knob table (also printed by ``python -m repro.config``):

======================  ==================  =======  =========================
environment variable    Config field        default  meaning
======================  ==================  =======  =========================
REPRO_TIER              tier                tier4    interpreter tier: slow
                                                     (per-instruction seed
                                                     path), tier1 (block
                                                     replay) or tier4
                                                     (blocks and hot regions
                                                     lowered to the flat
                                                     core)
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

The three interpreter tiers (:data:`TIERS`) are the values of
``REPRO_TIER``; the CI test matrix pins the suite to each and the
replay determinism checker restores the same snapshot under each. Tier
4 keeps its historical number: it runs on the flat core, every block
lowered on its first dispatch as a single tier-2 block and hot loops as
multi-block regions. There is no tier 3, and tier 2 is not selectable:
its blocks are tier 4's first step.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, Optional

from repro.errors import ConfigError

_FALSE_WORDS = ("0", "off", "no", "false")

# The three interpreter tiers of DESIGN.md §9/§12/§13, slowest first: the
# values of REPRO_TIER.
TIERS = ("slow", "tier1", "tier4")


def check_tier(tier: str, error: type = ConfigError) -> None:
    """Raise ``error`` unless ``tier`` is one of :data:`TIERS`."""
    if tier not in TIERS:
        raise error(f"unknown tier {tier!r} (one of: {', '.join(TIERS)})")


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
        check_tier(self.tier)

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

# The environment's Config, parsed at the first current() call and kept
# for the life of the process (None until a parse succeeds).
_FROM_ENV: "Optional[Config]" = None

# The overrides() stack, innermost last; it shadows _FROM_ENV.
_OVERRIDES: "list[Config]" = []


def current() -> Config:
    """The active configuration: the innermost override, else the
    environment's, parsed once per process."""
    global _FROM_ENV
    if _OVERRIDES:
        return _OVERRIDES[-1]
    if _FROM_ENV is None:
        _FROM_ENV = Config.from_env()
    return _FROM_ENV


def inherit(config: Config) -> None:
    """Run this process on ``config`` instead of its environment: the
    initializer of a worker pool, handed the parent's :func:`current`,
    so a worker started with spawn (a fresh interpreter) runs on the
    parent's configuration as a forked one does."""
    global _FROM_ENV
    _FROM_ENV = config


@contextmanager
def overrides(**changes):
    """Scoped override: ``with config.overrides(tier="tier1"): ...``.

    Field values start from :func:`current`, so nested overrides
    compose; a ``None`` value leaves its field as it is. The process
    environment is never touched.
    """
    cfg = current()
    changes = {name: value for name, value in changes.items()
               if value is not None}
    if changes:
        cfg = cfg.replace(**changes)
    _OVERRIDES.append(cfg)
    try:
        yield cfg
    finally:
        _OVERRIDES.pop()


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
