"""Shared CLI surface for the roload-* tools.

Every tool gets the same spelling for the same concept:

* ``--config KEY=VAL`` (repeatable) — set any :mod:`repro.config` knob
  for this invocation, by field name (``tier=tier1``) or environment
  name (``REPRO_TIER=tier1``). Applied through
  :func:`repro.config.overrides` for the body of the run; the worker
  processes a campaign or sweep starts inside it run on it as well, and
  the process environment is not touched.
* ``--trace-out TRACE.json`` / ``--metrics-out METRICS.json`` — enable
  the observability layer and export a Chrome trace-event JSON and/or a
  live-counter metrics snapshot after the run.
* ``--sample-interval N`` — arm the flight recorder (counter
  time-series every N retired instructions; ``timeseries`` metrics
  section + Perfetto counter tracks in the trace).
* ``--audit-out AUDIT.jsonl`` — record the hash-chained security audit
  trail and save it sealed; verify with ``roload-stats audit verify``.
"""

from __future__ import annotations

import argparse
import json
from contextlib import contextmanager
from pathlib import Path

from repro import config as _config


def add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", action="append", default=[], metavar="KEY=VAL",
        help="override a REPRO_* knob for this invocation (repeatable); "
             "KEY is a config field (tier=tier1) or env name "
             "(REPRO_TIER=tier1) — "
             "see `python -m repro.config` for the knob table")


@contextmanager
def config_scope(args):
    """Apply ``--config`` overrides for the body of a tool run."""
    changes = _config.parse_kv(getattr(args, "config", None) or [])
    with _config.overrides(**changes) as cfg:
        yield cfg


def add_obs_flags(parser: argparse.ArgumentParser,
                  what: str = "the run") -> None:
    parser.add_argument("--trace-out", type=Path, default=None,
                        metavar="TRACE.json",
                        help=f"write a Chrome trace-event JSON of {what} "
                             f"(enables observability)")
    parser.add_argument("--metrics-out", type=Path, default=None,
                        metavar="METRICS.json",
                        help=f"write a metrics snapshot (live architectural "
                             f"counters) of {what} (enables observability)")
    parser.add_argument("--sample-interval", type=int, default=0,
                        metavar="N",
                        help="flight recorder: sample the live counters "
                             "every N retired instructions (enables "
                             "observability; exported as the 'timeseries' "
                             "metrics section and as trace counter tracks)")
    parser.add_argument("--audit-out", type=Path, default=None,
                        metavar="AUDIT.jsonl",
                        help=f"write the hash-chained security audit trail "
                             f"of {what}, sealed (enables observability; "
                             f"check with `roload-stats audit verify`)")


def obs_requested(args) -> bool:
    return (getattr(args, "trace_out", None) is not None
            or getattr(args, "metrics_out", None) is not None
            or getattr(args, "sample_interval", 0) > 0
            or getattr(args, "audit_out", None) is not None)


def enable_obs(args):
    """Enable observability per the tool's flags (plus the REPRO_* env
    defaults, which :func:`repro.obs.enable` applies on its own)."""
    from repro import obs
    sample = getattr(args, "sample_interval", 0) or None
    audit = True if getattr(args, "audit_out", None) is not None else None
    return obs.enable(sample=sample, audit=audit)


def write_obs_outputs(args) -> None:
    """Export the captured event ring / metrics registry to files."""
    from repro import obs
    if args.trace_out is not None:
        events = list(obs.OBS.events)
        sampler = obs.OBS.sampler
        if sampler is not None and sampler.samples:
            events.extend(sampler.counter_events(obs.OBS.events.epoch))
            events.sort(key=lambda event: event["ts"])
        trace = obs.write_chrome_trace(events, args.trace_out)
        print(f"[trace: {len(trace['traceEvents'])} events in "
              f"{args.trace_out}]")
    if args.metrics_out is not None:
        snapshot = obs.OBS.registry.collect()
        args.metrics_out.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        print(f"[metrics: {len(snapshot)} series in {args.metrics_out}]")
    audit_out = getattr(args, "audit_out", None)
    if audit_out is not None and obs.OBS.audit is not None:
        obs.OBS.audit.seal()
        count = obs.OBS.audit.save(audit_out)
        print(f"[audit: {count} records in {audit_out}]")
