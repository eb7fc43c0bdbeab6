"""The overhead contract: observability off costs (near) nothing.

Three layers of proof:

* behavioural — a full kernel run with the switchboard off allocates no
  buffers and emits no events;
* structural — the per-instruction slow path, the flat core that
  lowers both compiled tiers and its native runner's C source and
  bound units contain no reference to the obs layer at all (the only
  hot-path cost anywhere is one ``enabled`` attribute test at cold
  sites, plus one ``is not None`` test at the batch observation
  points);
* end-to-end — a mini-sweep on tier-2 blocks alone with REPRO_OBS=0
  stays within 15% of the throughput of an identical sweep, and a
  tier-4 sweep with the flight recorder ON stays within 15% of an
  obs-off reference. Every unit both sweeps lower runs on the native
  runner.
"""

import dataclasses
import inspect
import re

import pytest

from repro import config, obs
from repro.asm import assemble, link
from repro.cpu import TimingModel, flatcore, native
from repro.cpu.core import Core
from repro.eval.measure import run_benchmarks
from repro.kernel import Kernel
from repro.mem import PhysicalMemory
from repro.soc import build_system

from tests.conftest import BLOCKS_ONLY, set_tier
from tests.cpu.conftest import CODE_BASE, tier_core
from tests.cpu.test_jit import countdown_loop, run_to_ebreak

WORKLOAD = r"""
.globl _start
_start:
    li t0, 200
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


def _run(monkeypatch):
    monkeypatch.setenv("REPRO_TIER", "tier4")
    kernel = Kernel(build_system(memory_size=64 << 20))
    process = kernel.create_process(link([assemble(WORKLOAD)]))
    kernel.run(process)
    core = kernel.system.core
    return (core.cycles, core.instret, process.exit_code,
            kernel.system.mmu.stats.roload_checks)


def test_disabled_run_allocates_and_emits_nothing(monkeypatch):
    obs.disable()
    result = _run(monkeypatch)
    assert result[2] == 0
    assert obs.OBS.enabled is False
    assert obs.OBS.events is None      # no ring was ever created
    assert obs.OBS.registry is None


def test_enabling_does_not_change_architecture(monkeypatch):
    obs.disable()
    baseline = _run(monkeypatch)
    obs.enable()
    observed = _run(monkeypatch)
    assert observed == baseline
    assert len(obs.OBS.events) > 0     # and the run really was observed


def test_slow_path_step_has_no_obs_reference():
    """step() retires one instruction per call — the obs layer must not
    appear in it (tier-residency costs one plain int add, nothing else).
    step_block's only reference sits on the cold compile/flush paths."""
    assert "_OBS" not in inspect.getsource(Core.step)
    assert "OBS.events" not in inspect.getsource(Core.step)


def _compiled_core(tier="tier4"):
    core = tier_core(PhysicalMemory(1 << 20), tier=tier,
                     region_threshold=2, timing=TimingModel())
    core.pc = CODE_BASE
    return core


def _require_native():
    if flatcore.runner() != "native":
        pytest.skip(f"no native flat-core runner: {native.failure}")


def _unit_names(fn):
    """The names a bound unit carries; it is a native runner unit."""
    assert type(fn).__module__ == "repro.cpu._flatcore_native"
    return dir(fn)


def test_tier2_generated_source_has_no_obs_reference():
    """Tier 2 generates no source any more: a hot block is lowered by the
    flat core and bound as one native unit. That unit is all the
    compiled tier runs, so if the word 'obs' ever shows up among its
    names, instrumentation leaked into the hot loop."""
    _require_native()
    core = _compiled_core(BLOCKS_ONLY)
    loop_pc = countdown_loop(core, 10)
    run_to_ebreak(core)
    block = core._jit_blocks[loop_pc]  # the loop really lowered
    assert not any("obs" in name.lower() for name in _unit_names(block.fn))


def test_tier4_flat_core_has_no_obs_reference():
    """The flat-core backend (module source AND a real lowered region's
    bound unit) carries no observability reference: tier-4 dispatch
    runs past the obs layer entirely."""
    source = inspect.getsource(flatcore)
    assert "_OBS" not in source
    assert "repro.obs" not in source

    _require_native()
    core = _compiled_core()
    countdown_loop(core, 50)
    run_to_ebreak(core)
    assert core.regions_compiled >= 1
    region = next(iter(core._regions.values()))
    assert not any("obs" in name.lower() for name in _unit_names(region.fn))


def _c_names(text):
    """The identifiers and string literals of C source, comments
    stripped."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return set(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text)) \
        | set(re.findall(r'"([^"\n]*)"', text))


def test_native_runner_has_no_obs_reference():
    """The native runner's C source carries no observability reference
    either: the same 'no obs name' contract as its bound units."""
    names = _c_names(native.SOURCE.read_text())
    assert "instructions" in names      # non-vacuity: names were found
    assert not any("obs" in name.lower() for name in names)


# The timed sweep: one SPEC-style workload, unhardened. Its scale keeps
# Kernel.run near 0.8 s on the native runner, so host noise stays a
# small share of each measurement.
BENCHMARKS, VARIANTS, SCALE = ("429.mcf",), ("base",), 6

# Largest fractional sim-MIPS drop of the current sweep below the
# reference sweep that still passes.
TOLERANCE = 0.15

# Each side of a timed comparison is the best of this many sweeps, run
# alternately, so a burst of load on a shared host does not land on one
# side only. One sweep's sim-MIPS spreads with a coefficient of
# variation near 11% on a loaded shared 2-CPU host; the best of five is
# steadier than the best of three. The tolerance is unchanged.
REPEATS = 5

def _sweep(tier):
    """One serial sweep under a named tier configuration: its sim-MIPS
    over ``Kernel.run`` time only (generation and compilation cost the
    same on both sides) and every measurement's architectural fields.
    Every unit the sweep binds, observed or not, is a native runner
    unit."""
    bind = flatcore._bind
    modules = set()

    def recording_bind(core, lowered):
        unit = bind(core, lowered)
        modules.add(type(unit).__module__)
        return unit

    flatcore._bind = recording_bind
    try:
        with config.env_knobs(tier=tier):
            runs = run_benchmarks(BENCHMARKS, VARIANTS, scale=SCALE,
                                  jobs=1)
    finally:
        flatcore._bind = bind
    assert modules <= {"repro.cpu._flatcore_native"}
    measurements = [m for run in runs.values()
                    for m in run.measurements.values()]
    instructions = sum(m.instructions for m in measurements)
    seconds = sum(m.sim_seconds for m in measurements)
    return {"sim_mips": instructions / seconds / 1e6,
            "measurements": {f"{m.benchmark}/{m.variant}":
                             dataclasses.asdict(m) for m in measurements}}


def _best_of_paired_sweeps(run_reference, run_current):
    """Alternate the two sweeps REPEATS times; return the fastest of
    each. Repeats of one side must agree architecturally."""
    references, currents = [], []
    for __ in range(REPEATS):
        references.append(run_reference())
        currents.append(run_current())
    for sweeps in (references, currents):
        assert all(s["measurements"] == sweeps[0]["measurements"]
                   for s in sweeps)

    def fastest(sweeps):
        return max(sweeps, key=lambda s: s["sim_mips"])
    return fastest(references), fastest(currents)


def _assert_within_tolerance(what, reference, current):
    floor = reference["sim_mips"] * (1.0 - TOLERANCE)
    assert current["sim_mips"] >= floor, (
        f"{what} throughput {current['sim_mips']:.4f} sim-MIPS fell "
        f"below the gate floor {floor:.4f} (reference "
        f"{reference['sim_mips']:.4f})")


def test_tier2_sweep_with_obs_off_passes_the_bench_gate(monkeypatch):
    """End to end: two identical REPRO_OBS=0 mini-sweeps on tier-2
    blocks alone (the blocks-only leg) stay inside the 15% regression
    gate — the acceptance bar for shipping the observability layer at
    all."""
    monkeypatch.setenv("REPRO_OBS", "0")
    # _sweep writes REPRO_TIER; setting it via monkeypatch first makes
    # sure the test restores whatever the environment had.
    set_tier(monkeypatch, BLOCKS_ONLY)
    obs.disable()

    def sweep():
        return _sweep("tier4")

    reference, current = _best_of_paired_sweeps(sweep, sweep)
    _assert_within_tolerance("obs-off tier-2", reference, current)
    # The sweeps are architecturally identical, and nothing was observed.
    assert current["measurements"] == reference["measurements"]
    assert obs.OBS.events is None


def test_tier4_sweep_with_sampling_on_passes_the_bench_gate(monkeypatch):
    """The tentpole acceptance bar: an obs-ON tier-4 sweep with the
    flight recorder sampling stays inside the 15% gate against an
    obs-off reference — observability on is cheap, off is free."""
    monkeypatch.setenv("REPRO_OBS", "0")
    monkeypatch.setenv("REPRO_TIER", "tier4")
    obs.disable()

    def reference_sweep():
        return _sweep("tier4")

    def sampled_sweep():
        obs.enable(sample=5_000)
        try:
            sweep = reference_sweep()
            sampler = obs.OBS.sampler
            assert sampler is not None and sampler.taken > 0
            attributed = sum(sum(pcs.values()) for pcs
                             in obs.OBS.attribution.export().values())
            assert attributed > 0
        finally:
            obs.disable()
        return sweep

    reference, current = _best_of_paired_sweeps(reference_sweep,
                                                sampled_sweep)
    _assert_within_tolerance("obs-on (sampled) tier-4", reference,
                             current)
    # Observation never changes the architecture.
    assert current["measurements"] == reference["measurements"]
