"""Measurement core: run one benchmark variant on one system profile.

Execution time is reported in *clock cycles* and memory in KiB — the
paper's units ("Execution time and memory usages are both measured, in
terms of the number of clock cycles and KiB respectively").
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro import config as _config
from repro.compiler import compile_module
from repro.defenses import (
    LabelCFIBaseline,
    TypeBasedCFI,
    VCallProtection,
    VTintBaseline,
)
from repro.errors import ReproError
from repro.kernel import Kernel
from repro.obs import OBS as _OBS, register_kernel, register_system
from repro.soc import build_system
from repro.workloads import WorkloadProgram, build_workload
from repro.workloads import profile as _workload_profile

VARIANTS = ("base", "vcall", "vtint", "icall", "cfi")


def make_hardening(variant: str, program: WorkloadProgram):
    """Defense objects for a variant (fresh per compile)."""
    if variant == "base":
        return None
    if variant == "vcall":
        return [VCallProtection(key_by_hierarchy=program.hierarchies)]
    if variant == "vtint":
        return [VTintBaseline()]
    if variant == "icall":
        return [TypeBasedCFI()]
    if variant == "cfi":
        return [LabelCFIBaseline()]
    raise ReproError(f"unknown variant {variant!r}")


@dataclass
class Measurement:
    benchmark: str
    variant: str
    system_profile: str
    cycles: int
    instructions: int
    memory_kib: float
    exit_code: int
    dcache_miss_rate: float
    dtlb_miss_rate: float
    code_bytes: int

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def profile(self) -> str:
        """Canonical alias for :attr:`system_profile`."""
        return self.system_profile


def run_variant(program: WorkloadProgram, variant: str, *,
                profile: str = "processor+kernel",
                max_instructions: int = 100_000_000) -> Measurement:
    """Compile one variant of a generated workload and run it."""
    image = compile_module(program.module,
                           hardening=make_hardening(variant, program))
    system = build_system(profile)
    kernel = Kernel(system)
    if _OBS.enabled:
        register_system(system)
        register_kernel(kernel)
    process = kernel.create_process(image, name=program.profile.name)
    start = time.perf_counter()
    kernel.run(process, max_instructions=max_instructions)
    sim_seconds = time.perf_counter() - start
    if process.state.value != "exited":
        raise ReproError(
            f"{program.profile.name}/{variant} did not exit cleanly: "
            f"{process.status()}")
    stats = system.timing.stats
    dcache = system.dcache
    dtlb = system.mmu.dtlb
    code_bytes = sum(len(s.data) for s in image.segments if s.executable)
    measurement = Measurement(
        benchmark=program.profile.name, variant=variant,
        system_profile=profile, cycles=stats.cycles,
        instructions=stats.instructions,
        memory_kib=process.memory_kib(), exit_code=process.exit_code,
        dcache_miss_rate=1.0 - dcache.hit_rate,
        dtlb_miss_rate=1.0 - dtlb.hit_rate,
        code_bytes=code_bytes)
    # Wall time of kernel.run alone, as a plain attribute rather than a
    # dataclass field: it is host noise, not an architectural result, so
    # it must stay out of asdict() — the differential tests compare the
    # full field dict across interpreter tiers. Tier residency follows
    # the same rule: which tier retired an instruction is a property of
    # the simulator configuration, not of the simulated program.
    measurement.sim_seconds = sim_seconds
    measurement.tier_residency = system.core.tier_residency()
    return measurement


@dataclass
class BenchmarkRun:
    """All requested variants of one benchmark, plus integrity checks."""

    benchmark: str
    measurements: "Dict[str, Measurement]"

    def overhead(self, variant: str, metric: str = "cycles") -> float:
        """Relative overhead (%) of a variant versus base."""
        base = getattr(self.measurements["base"], metric)
        value = getattr(self.measurements[variant], metric)
        return 100.0 * (value - base) / base


def resolve_jobs(jobs: "int | None" = None) -> int:
    """Worker-process count: explicit argument, else the REPRO_JOBS
    knob (via :func:`repro.config.current`), else serial. ``0``/``auto``
    means one worker per CPU."""
    return _config.current().resolve_jobs(jobs)


def _run_pair(task: tuple) -> "Tuple[str, str, Measurement]":
    """Worker entry: one benchmark x variant pair, fully self-contained.

    Each worker regenerates the workload (generation is deterministic in
    the profile seed) and builds its own system — processes share nothing.
    """
    name, variant, scale, profile, max_instructions = task
    program = build_workload(_workload_profile(name), scale=scale)
    measurement = run_variant(program, variant, profile=profile,
                              max_instructions=max_instructions)
    return name, variant, measurement


def _measure_pairs(tasks: "List[tuple]", jobs: int) \
        -> "Dict[Tuple[str, str], Measurement]":
    """Run (benchmark, variant) tasks, fanning out when jobs > 1."""
    out: "Dict[Tuple[str, str], Measurement]" = {}
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        for task in tasks:
            name, variant, m = _run_pair(task)
            out[(name, variant)] = m
        return out
    # fork (when available) inherits the generated modules' determinism
    # and the active configuration without re-importing the world; a
    # spawned worker is handed the configuration by the initializer.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() \
        else "spawn"
    ctx = multiprocessing.get_context(method)
    with ctx.Pool(jobs, _config.inherit, (_config.current(),)) as pool:
        for name, variant, m in pool.imap_unordered(_run_pair, tasks):
            out[(name, variant)] = m
    return out


def _check_exit_codes(name: str,
                      measurements: "Dict[str, Measurement]") -> None:
    codes = {m.exit_code for m in measurements.values()}
    if len(codes) != 1:
        raise ReproError(f"{name}: variants disagree on output: "
                         f"{ {v: m.exit_code for v, m in measurements.items()} }")


def run_benchmark(name: str, variants=VARIANTS, *, scale: float = 0.2,
                  profile: str = "processor+kernel",
                  jobs: "int | None" = None) -> BenchmarkRun:
    """Generate, compile, and run all variants of one benchmark.

    Raises if any variant's exit code differs from base — a hardened
    binary must be functionally identical. With ``jobs`` (or REPRO_JOBS)
    above 1, variants are measured in parallel worker processes.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(variants) <= 1:
        program = build_workload(_workload_profile(name), scale=scale)
        measurements: "Dict[str, Measurement]" = {}
        for variant in variants:
            measurements[variant] = run_variant(program, variant,
                                                profile=profile)
    else:
        unique = list(dict.fromkeys(variants))
        tasks = [(name, v, scale, profile, 100_000_000) for v in unique]
        by_pair = _measure_pairs(tasks, jobs)
        measurements = {v: by_pair[(name, v)] for v in unique}
    _check_exit_codes(name, measurements)
    return BenchmarkRun(name, measurements)


def run_benchmarks(names: "Iterable[str]", variants=VARIANTS, *,
                   scale: float = 0.2,
                   profile: str = "processor+kernel",
                   jobs: "int | None" = None) -> "Dict[str, BenchmarkRun]":
    """Run a benchmark sweep, fanning benchmark x variant pairs across
    worker processes (REPRO_JOBS or ``jobs``; serial when 1)."""
    names = list(names)
    jobs = resolve_jobs(jobs)
    tasks = [(name, v, scale, profile, 100_000_000)
             for name in names for v in variants]
    by_pair = _measure_pairs(tasks, jobs)
    runs: "Dict[str, BenchmarkRun]" = {}
    for name in names:
        measurements = {v: by_pair[(name, v)] for v in variants}
        _check_exit_codes(name, measurements)
        runs[name] = BenchmarkRun(name, measurements)
    return runs


def run_system_comparison(name: str, *, scale: float = 0.2) \
        -> "Dict[str, Measurement]":
    """§V-B: the same unhardened binary on the three system profiles."""
    program = build_workload(_workload_profile(name), scale=scale)
    out: "Dict[str, Measurement]" = {}
    for profile in ("baseline", "processor", "processor+kernel"):
        out[profile] = run_variant(program, "base", profile=profile)
    return out
