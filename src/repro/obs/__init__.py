"""Unified observability layer: metrics, events, traces (DESIGN.md §10),
plus the flight recorder, tamper-evident audit trail, and guest perf
attribution (§14).

One process-wide :data:`OBS` state object gates everything. Default-off
(``REPRO_OBS=1`` in the environment, or :func:`enable`, turns it on);
while off, every instrumentation site in the simulator reduces to one
attribute test on a cold path and to *nothing at all* on the per-
instruction hot paths — the tier-2/3 code generators and the tier-4
flat-core lowering never reference this module, which the overhead
suite asserts literally.

Usage (the tools do exactly this):

    from repro import obs
    obs.enable(sample=100_000, audit=True)
    obs.register_system(system)       # live counter sources + taps
    obs.register_kernel(kernel)       # security-log counters
    ... run ...
    obs.OBS.registry.collect()        # metrics snapshot (bit-exact)
    obs.OBS.events.events()           # structured event log
    obs.OBS.sampler.export()          # flight-recorder time-series
    obs.OBS.audit.seal(); obs.OBS.audit.save("audit.jsonl")
    chrome = obs.write_chrome_trace(obs.OBS.events, "trace.json")
"""

from __future__ import annotations

from repro import config as _config
from repro.obs.attribution import Attribution, SlowPathTap
from repro.obs.audit import (AuditTrail, record_hash, sealed_view,
                             verify_chain, verify_file)
from repro.obs.events import (
    DEFAULT_CAPACITY,
    EventStream,
    arch_sequence,
    load_jsonl,
)
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.sampler import Sampler
from repro.obs.trace import chrome_trace, validate_trace, write_chrome_trace

__all__ = [
    "OBS", "enable", "disable", "obs_enabled", "register_system",
    "register_kernel",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "EventStream",
    "arch_sequence", "load_jsonl",
    "Sampler", "AuditTrail", "Attribution",
    "record_hash", "sealed_view", "verify_chain", "verify_file",
    "chrome_trace", "write_chrome_trace", "validate_trace",
]


class ObservabilityState:
    """The process-wide switchboard.

    ``enabled`` is the single flag every instrumentation site tests;
    the buffers (``registry``, ``events``) and the §14 subsystems
    (``sampler``, ``audit``, ``attribution``) exist only while enabled,
    so a disabled process carries no observability state at all.
    """

    __slots__ = ("enabled", "registry", "events", "sampler", "audit",
                 "attribution")

    def __init__(self):
        self.enabled = False
        self.registry: "MetricsRegistry | None" = None
        self.events: "EventStream | None" = None
        self.sampler: "Sampler | None" = None
        self.audit: "AuditTrail | None" = None
        self.attribution: "Attribution | None" = None


OBS = ObservabilityState()


def obs_enabled() -> bool:
    return OBS.enabled


def enable(capacity: "int | None" = None, *,
           sample: "int | None" = None,
           audit: "bool | None" = None) -> ObservabilityState:
    """Turn observability on (idempotent; keeps existing buffers).

    ``sample`` arms the flight recorder at that interval of retired
    instructions (default: the ``REPRO_OBS_SAMPLE`` knob; 0 = off);
    ``audit`` opens the hash-chained audit trail (default: the
    ``REPRO_AUDIT`` knob). Attribution always rides along with the
    switchboard — it only records where :func:`register_system` has
    installed the tap.
    """
    cfg = _config.current()
    if OBS.registry is None:
        OBS.registry = MetricsRegistry()
    if OBS.events is None:
        OBS.events = EventStream(capacity or cfg.obs_events)
        # Ring overflow must be visible in the metrics export, not only
        # on the Python object (DESIGN.md §14 satellite).
        OBS.registry.register_source(
            "events.emitted",
            lambda: OBS.events.emitted if OBS.events is not None else 0)
        OBS.registry.register_source(
            "events.dropped",
            lambda: OBS.events.dropped if OBS.events is not None else 0)
    if sample is None:
        sample = cfg.obs_sample
    if sample and OBS.sampler is None:
        OBS.sampler = Sampler(sample)
        OBS.registry.register_source("timeseries", OBS.sampler.export)
    if audit is None:
        audit = cfg.audit
    if audit and OBS.audit is None:
        OBS.audit = AuditTrail()
    if OBS.attribution is None:
        OBS.attribution = Attribution()
        OBS.registry.register_source("attribution", OBS.attribution.export)
    OBS.enabled = True
    return OBS


def disable() -> None:
    """Turn observability off and drop its buffers."""
    OBS.enabled = False
    if OBS.events is not None:
        OBS.events.close_sink()
    OBS.registry = None
    OBS.events = None
    OBS.sampler = None
    OBS.audit = None
    OBS.attribution = None


def register_system(system, registry: "MetricsRegistry | None" = None,
                    prefix: str = "sys") -> None:
    """Register a simulated System's live counters as metric sources.

    Nothing is wrapped or replaced: each source is a closure reading the
    same plain attribute the interpreter mutates, so a collect() is
    bit-for-bit the architectural counters. Re-registering (a fresh
    system in the same process) replaces the previous namespace.

    Also installs the flight-recorder and attribution taps on the core
    (plain attributes the batch observation points test for ``None``);
    a core without the fast path also gets the tier-0 retire hook
    (:class:`~repro.obs.attribution.SlowPathTap`).
    """
    if registry is None:
        if OBS.registry is None:
            return
        registry = OBS.registry
    registry.unregister_prefix(prefix)
    mmu = system.mmu
    for name, tlb in (("itlb", getattr(mmu, "itlb", None)),
                      ("dtlb", getattr(mmu, "dtlb", None))):
        if tlb is not None:
            registry.register_attrs(f"{prefix}.{name}", tlb,
                                    "hits", "misses", "flushes")
    stats = getattr(mmu, "stats", None)
    if stats is not None:
        registry.register_attrs(f"{prefix}.mmu", stats, "roload_checks",
                                "roload_faults", "walks", "translations")
    for name, cache in (("l1i", system.icache), ("l1d", system.dcache)):
        if cache is not None:
            registry.register_attrs(f"{prefix}.{name}", cache,
                                    "hits", "misses")
    tstats = system.timing.stats
    registry.register_attrs(
        f"{prefix}.timing", tstats, "instructions", "cycles",
        "icache_misses", "dcache_misses", "itlb_walk_cycles",
        "dtlb_walk_cycles", "branch_penalty_cycles", "muldiv_cycles")
    core = system.core
    registry.register_attrs(f"{prefix}.jit", core, "jit_compiled",
                            "jit_flushes", "jit_compile_seconds")
    registry.register_attrs(f"{prefix}.region", core, "regions_compiled",
                            "region_side_exits", "region_compile_seconds")
    registry.register_source(f"{prefix}.jit.flush_causes",
                             lambda c=core: dict(c.flush_causes))
    registry.register_source(f"{prefix}.tier.residency",
                             lambda c=core: c.tier_residency())
    if OBS.sampler is not None:
        core._sampler = OBS.sampler
    if OBS.attribution is not None:
        if core._attrib is None and not core.fast_path_enabled:
            core.add_retire_hook(SlowPathTap(core))
        core._attrib = OBS.attribution


def register_kernel(kernel, registry: "MetricsRegistry | None" = None,
                    prefix: str = "kernel") -> None:
    """Register kernel-side counters: the bounded security-log ring's
    total/dropped, so a fault storm's overflow shows in the metrics
    export instead of only on the Python object."""
    if registry is None:
        if OBS.registry is None:
            return
        registry = OBS.registry
    registry.unregister_prefix(prefix)
    log = kernel.faults.security_log
    registry.register_attrs(f"{prefix}.seclog", log, "total", "dropped")
    registry.register_source(f"{prefix}.seclog.capacity",
                             lambda l=log: l.capacity)


if _config.current().obs:
    enable()
