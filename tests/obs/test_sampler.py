"""The flight recorder: bounded, decimating counter time-series.

Unit layer exercises the ring/decimation policy on a stub core; the
integration layer arms the sampler through ``obs.enable(sample=N)`` on
a real kernel run and checks the ``timeseries`` metrics section and the
Perfetto counter-track export.
"""

import json

from repro import obs
from repro.asm import assemble, link
from repro.cpu import Core
from repro.kernel import Kernel
from repro.obs import Sampler, chrome_trace, validate_trace
from repro.soc import build_system

import pytest


class _Stats:
    def __init__(self):
        self.instructions = 0
        self.cycles = 0


class _Timing:
    def __init__(self):
        self.stats = _Stats()


class _StubCore:
    """Just enough surface for Sampler.sample (no MMU, no TLBs)."""

    def __init__(self):
        self.timing = _Timing()
        self.mmu = object()
        self.tier0_retired = 0
        self.tier1_retired = 0
        self.tier4_retired = 0
        self.jit_compiled = 0
        self.regions_compiled = 0

    instret = Core.instret
    retired_by_tier = Core.retired_by_tier


def test_interval_must_be_positive():
    with pytest.raises(ValueError):
        Sampler(0)
    with pytest.raises(ValueError):
        Sampler(-5)
    with pytest.raises(ValueError):
        Sampler(10, capacity=1)


def test_sampling_rearms_and_derives_tier2():
    sampler = Sampler(100)
    core = _StubCore()
    core.timing.stats.instructions = 100
    core.tier1_retired = 40
    sampler.sample(core)
    assert sampler.next_at == 200
    assert sampler.taken == 1
    row = sampler.samples[0]
    assert row["instret"] == 100
    assert row["tier1"] == 40
    assert row["tier2"] == 60      # derived, like tier_residency()
    assert "walks" not in row      # stub has no MMU stats


def test_decimation_keeps_full_span_at_half_resolution():
    sampler = Sampler(10, capacity=8)
    core = _StubCore()
    for step in range(1, 9):
        core.timing.stats.instructions = step * 10
        sampler.sample(core)
    # The 8th sample hit capacity: every other row was dropped and the
    # interval doubled.
    assert sampler.decimations == 1
    assert sampler.interval == 20
    assert sampler.initial_interval == 10
    assert len(sampler.samples) == 4
    assert sampler.taken == 8
    instrets = [row["instret"] for row in sampler.samples]
    assert instrets == [20, 40, 60, 80]   # span kept, resolution halved
    assert sampler.next_at == 80 + 20


def test_export_is_json_serializable():
    sampler = Sampler(10)
    core = _StubCore()
    core.timing.stats.instructions = 10
    sampler.sample(core)
    out = json.loads(json.dumps(sampler.export()))
    assert out["taken"] == 1
    assert out["samples"][0]["instret"] == 10


WORKLOAD = r"""
.globl _start
_start:
    li t0, 2000
loop:
    la a0, table
    ld.ro a1, (a0), 12
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
.section .rodata.key.12
table: .quad 1
"""


def _observed_run(sample):
    obs.enable(sample=sample)
    system = build_system(memory_size=64 << 20)
    obs.register_system(system)
    kernel = Kernel(system)
    process = kernel.create_process(link([assemble(WORKLOAD)]))
    kernel.run(process)
    assert process.exit_code == 0
    return kernel


def test_kernel_run_feeds_the_sampler():
    _observed_run(sample=500)
    sampler = obs.OBS.sampler
    assert sampler is not None and sampler.taken >= 3
    instrets = [row["instret"] for row in sampler.samples]
    assert instrets == sorted(instrets)
    # The run's mmu counters rode along.
    assert sampler.samples[-1]["roload_checks"] >= 2000
    # And the registry exports the series as the 'timeseries' section.
    snapshot = obs.OBS.registry.collect()
    assert snapshot["timeseries"]["taken"] == sampler.taken


def test_counter_events_render_as_valid_counter_tracks():
    _observed_run(sample=500)
    events = obs.OBS.sampler.counter_events(obs.OBS.events.epoch)
    assert events
    types = {event["type"] for event in events}
    assert "counter.sampled.tiers" in types
    assert "counter.sampled.progress" in types
    trace = chrome_trace(list(obs.OBS.events) + events)
    assert validate_trace(trace) == []
    sampled = [e for e in trace["traceEvents"]
               if e.get("ph") == "C" and e["name"].startswith("sampled.")]
    assert sampled
    assert all(e["tid"] == 7 for e in sampled)   # the flight-recorder row
    track_names = {e["args"]["name"] for e in trace["traceEvents"]
                   if e.get("ph") == "M" and e["name"] == "thread_name"}
    assert "flight recorder" in track_names


def test_sampler_off_by_default():
    obs.enable()
    assert obs.OBS.sampler is None
