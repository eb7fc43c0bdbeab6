"""roload-bench: wall-clock benchmark of the simulator itself.

    roload-bench [--smoke] [--scale S] [--jobs N] [--benchmarks a,b,...]
                 [--variants base,vcall,...] [--no-compare] [--out PATH]
                 [--check-against BASELINE [--tolerance T] [--report-only]]
                 [--trace-out TRACE.json] [--metrics-out METRICS.json]
                 [--profile]

Times a fixed workload sweep end to end (generate + compile + simulate)
and reports simulator throughput in sim-MIPS (millions of simulated
instructions per wall-clock second). By default it runs the sweep four
times — once per interpreter tier:

    slow   REPRO_FASTPATH=0                   the seed configuration, serial
    tier1  REPRO_FASTPATH=1 REPRO_JIT=0       block replay
    tier2  REPRO_FASTPATH=1 REPRO_JIT=1 REPRO_TIER4=0  trace compiler (§9)
    tier4  REPRO_FASTPATH=1 REPRO_JIT=1 REPRO_TIER4=1  regions on the
                                                       flat core (§12-13)

and records all four, plus the pairwise speedups, in a
``BENCH_interp.json`` record (schema_version 5) so the performance
trajectory of the interpreter is tracked PR over PR. Each sweep carries
a ``residency`` section: which interpreter tier retired the
instructions (``tier4_retired``/``flat_regions_compiled`` for the
region tier), compile time, and invalidation causes (DESIGN.md §10),
plus host metadata with the real ``os.cpu_count()`` and the effective
worker count.

``--profile`` wraps the top-tier sweep in :mod:`cProfile` and writes a
pstats artifact next to the JSON record (``<out>.pstats``) so a perf
regression caught by the gate comes with the profile that explains it.
Profiling captures in-process frames only, so it forces ``--jobs 1``.

``--trace-out``/``--metrics-out`` enable the observability layer for
the sweep and export a Chrome trace-event JSON (opens in Perfetto) and
a metrics snapshot. Event capture is in-process, so these flags force
``--jobs 1``.

The architectural results of all tiers are asserted identical (cycles,
instructions, exit codes, miss rates): a perf record produced by a run
that changed architecture is worthless.

``--check-against`` turns the tool into a regression gate: it re-runs a
tier-4-only sweep with the baseline record's parameters and fails (exit
1) when throughput drops more than ``--tolerance`` (default 15%) below
the recorded ``tiers.tier4`` value. ``--report-only`` prints the
verdict but always exits 0 — for CI legs on shared, noisy runners.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import sys
import time
from pathlib import Path

from repro import config as _config
from repro.errors import ReproError
from repro.eval.measure import resolve_jobs, run_benchmarks
from repro.tools.cli import (add_config_flag, add_obs_flags, config_scope,
                             enable_obs, obs_requested, write_obs_outputs)

SCHEMA_VERSION = 5

# A small, representative slice of the Figure 4/5 sweep: two C integer
# workloads and two C++ (virtual-call-heavy) ones.
DEFAULT_BENCHMARKS = ("429.mcf", "401.bzip2", "473.astar", "471.omnetpp")
DEFAULT_VARIANTS = ("base", "vcall")
SMOKE_BENCHMARKS = ("429.mcf",)

# The standard sweep scale. Large enough to measure steady-state
# throughput — tier-2 compilation amortizes and hot compiled blocks
# dominate (at scale 1.0 cold start still dilutes the tier ratios by
# ~15%); the smoke sweep stays tiny because it only checks that the
# tool runs.
DEFAULT_SCALE = 8.0
SMOKE_SCALE = 0.05

DEFAULT_TOLERANCE = 0.15


@contextlib.contextmanager
def _profiled(profiler):
    """Enable a cProfile.Profile around a sweep (no-op when None)."""
    if profiler is None:
        yield
        return
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()


def profile_path(out: Path) -> Path:
    """The pstats artifact written next to the JSON record."""
    return out.with_suffix(".pstats")

# Tier name -> config field overrides (repro.config.TIERS). The slow
# tier is always serial; it is the seed configuration the whole
# trajectory is measured against.
TIERS = _config.TIERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roload-bench",
        description="Measure simulator wall-clock throughput (sim MIPS).")
    parser.add_argument("--benchmarks", default=",".join(DEFAULT_BENCHMARKS),
                        help="comma-separated benchmark names")
    parser.add_argument("--variants", default=",".join(DEFAULT_VARIANTS),
                        help="comma-separated variants to measure")
    parser.add_argument("--scale", type=float, default=None,
                        help=f"workload scale (default {DEFAULT_SCALE}; "
                             f"gate mode defaults to the baseline's scale)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the fast tiers "
                             "(default: REPRO_JOBS or 4)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sweep for CI sanity: one benchmark, "
                             "base only, tier 4 only (writes a JSON record "
                             "only if --out is given explicitly)")
    parser.add_argument("--no-compare", action="store_true",
                        help="run only the tier-4 configuration (skip the "
                             "tier-2/tier-1/seed references)")
    parser.add_argument("--profile", action="store_true",
                        help="profile the top-tier sweep with cProfile and "
                             "write <out>.pstats (forces --jobs 1)")
    parser.add_argument("--out", type=Path, default=None,
                        help="where to write the JSON record "
                             "(default BENCH_interp.json)")
    parser.add_argument("--check-against", type=Path, default=None,
                        metavar="BASELINE",
                        help="regression-gate mode: compare a fresh tier-4 "
                             "sweep against this recorded BENCH_interp.json")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed fractional sim-MIPS drop in gate mode "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--report-only", action="store_true",
                        help="gate mode: print the verdict but exit 0")
    add_obs_flags(parser, what="the sweep (forces --jobs 1)")
    add_config_flag(parser)
    return parser


def host_info(jobs: "int | None" = None) -> dict:
    """Host metadata embedded in the record — perf numbers are only
    comparable between records from similar hosts.

    Records both the host's CPU count and the *effective* worker count
    the sweep actually used: earlier records carried only ``cpu_count``,
    which on a 1-CPU container read as ``cpu_count: 1`` with no way to
    tell whether the sweep itself ran serial or oversubscribed.
    """
    info = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }
    if jobs is not None:
        info["jobs"] = jobs
    return info


def aggregate_residency(runs) -> dict:
    """Sum the per-measurement tier-residency profiles of a sweep."""
    total = {"retired": 0, "tier0_retired": 0, "tier1_retired": 0,
             "tier2_retired": 0, "tier4_retired": 0,
             "jit_compiled": 0, "jit_flushes": 0,
             "jit_compile_seconds": 0.0, "regions_compiled": 0,
             "flat_regions_compiled": 0, "region_side_exits": 0,
             "region_compile_seconds": 0.0, "flush_causes": {}}
    for run in runs.values():
        for m in run.measurements.values():
            residency = getattr(m, "tier_residency", None)
            if not residency:
                continue
            for key in ("retired", "tier0_retired", "tier1_retired",
                        "tier2_retired", "tier4_retired",
                        "jit_compiled", "jit_flushes", "regions_compiled",
                        "flat_regions_compiled", "region_side_exits"):
                total[key] += residency.get(key, 0)
            for key in ("jit_compile_seconds", "region_compile_seconds"):
                total[key] += residency.get(key, 0.0)
            for cause, count in residency.get("flush_causes", {}).items():
                total["flush_causes"][cause] = \
                    total["flush_causes"].get(cause, 0) + count
    for key in ("jit_compile_seconds", "region_compile_seconds"):
        total[key] = round(total[key], 6)
    if total["retired"]:
        for tier in ("tier0", "tier1", "tier2", "tier4"):
            total[f"{tier}_frac"] = round(
                total[f"{tier}_retired"] / total["retired"], 6)
    return total


def format_residency(residency: dict) -> str:
    retired = residency.get("retired", 0)
    if not retired:
        return "residency: no instructions retired"
    parts = [f"{tier} {100.0 * residency.get(f'{tier}_frac', 0.0):.1f}%"
             for tier in ("tier4", "tier2", "tier1", "tier0")]
    return (f"residency: {' / '.join(parts)} of {retired:,d} retired "
            f"({residency.get('jit_compiled', 0)} blocks compiled in "
            f"{residency.get('jit_compile_seconds', 0.0):.3f}s, "
            f"{residency.get('regions_compiled', 0)} regions in "
            f"{residency.get('region_compile_seconds', 0.0):.3f}s)")


def _run_sweep(benchmarks, variants, scale, *, tier: str, jobs: int):
    """One timed sweep under an explicit tier configuration.

    The tier's knobs are applied through :func:`repro.config.env_knobs`
    so forked worker processes inherit them, and restored on exit.
    """
    with _config.env_knobs(**TIERS[tier]):
        start = time.perf_counter()
        runs = run_benchmarks(benchmarks, variants, scale=scale, jobs=jobs)
        elapsed = time.perf_counter() - start
        tier_config = _config.current()
    instructions = sum(m.instructions for run in runs.values()
                       for m in run.measurements.values())
    cycles = sum(m.cycles for run in runs.values()
                 for m in run.measurements.values())
    # Throughput is computed over simulation time (kernel.run) only:
    # workload generation, IR compilation and system construction cost
    # the same in every tier and would otherwise dilute the comparison.
    sim_seconds = sum(getattr(m, "sim_seconds", 0.0)
                      for run in runs.values()
                      for m in run.measurements.values())
    denominator = sim_seconds or elapsed
    return {
        "tier": tier,
        "fast_path": tier_config.fast_path,
        "jit": tier_config.jit,
        "tier4": tier_config.tier4,
        "jobs": jobs,
        "wall_seconds": round(elapsed, 3),
        "sim_seconds": round(sim_seconds, 3),
        "instructions": instructions,
        "cycles": cycles,
        "sim_mips": round(instructions / denominator / 1e6, 4)
        if denominator else 0,
        "residency": aggregate_residency(runs),
        "measurements": {
            f"{name}/{variant}": {
                "cycles": m.cycles, "instructions": m.instructions,
                "exit_code": m.exit_code,
                "dtlb_miss_rate": m.dtlb_miss_rate,
                "dcache_miss_rate": m.dcache_miss_rate,
            }
            for name, run in runs.items()
            for variant, m in run.measurements.items()
        },
    }


def build_record(benchmarks, variants, scale, tiers: dict,
                 jobs: "int | None" = None) -> dict:
    """Assemble the schema-v5 BENCH_interp.json record from tier sweeps."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "tool": "roload-bench",
        "scale": scale,
        "benchmarks": list(benchmarks),
        "variants": list(variants),
        "host": host_info(jobs),
        "tiers": tiers,
    }
    def seconds(sweep: dict) -> float:
        return sweep.get("sim_seconds") or sweep["wall_seconds"]

    speedup = {}
    for num, den, key in (("tier1", "slow", "tier1_over_slow"),
                          ("tier2", "tier1", "tier2_over_tier1"),
                          ("tier2", "slow", "tier2_over_slow"),
                          ("tier4", "tier2", "tier4_over_tier2"),
                          ("tier4", "slow", "tier4_over_slow")):
        if num in tiers and den in tiers and seconds(tiers[num]):
            speedup[key] = round(seconds(tiers[den]) / seconds(tiers[num]), 2)
    if speedup:
        record["speedup"] = speedup
    return record


def baseline_mips(record: dict) -> float:
    """Reference sim-MIPS of a recorded run: its ``tiers.tier4`` sweep
    (every v5 record, full or smoke, sweeps the top tier)."""
    sweep = record.get("tiers", {}).get("tier4")
    if sweep is None:
        raise ReproError("baseline record has no 'tiers.tier4' sweep "
                         "(not a schema v5 roload-bench record)")
    return float(sweep["sim_mips"])


def evaluate_gate(current_mips: float, baseline: dict,
                  tolerance: float = DEFAULT_TOLERANCE):
    """Gate verdict: (ok, reference_mips, floor_mips). Fails only on a
    drop below ``reference * (1 - tolerance)`` — being faster than the
    record is never an error."""
    reference = baseline_mips(baseline)
    floor = reference * (1.0 - tolerance)
    return current_mips >= floor, reference, floor


def _run_gate(args, benchmarks, variants, jobs, profiler=None) -> int:
    baseline = json.loads(args.check_against.read_text())
    # Compare like with like: reuse the baseline's sweep parameters
    # unless overridden on the command line.
    scale = args.scale if args.scale is not None \
        else float(baseline.get("scale", DEFAULT_SCALE))
    if "benchmarks" in baseline:
        benchmarks = tuple(baseline["benchmarks"])
    if "variants" in baseline:
        variants = tuple(baseline["variants"])
    with _profiled(profiler):
        sweep = _run_sweep(benchmarks, variants, scale, tier="tier4",
                           jobs=jobs)
    ok, reference, floor = evaluate_gate(sweep["sim_mips"], baseline,
                                         args.tolerance)
    verdict = "ok" if ok else "REGRESSION"
    print(f"gate: current {sweep['sim_mips']} sim-MIPS vs recorded "
          f"{reference} (floor {floor:.4f} at tolerance "
          f"{args.tolerance}): {verdict}")
    print(f"gate {format_residency(sweep['residency'])}")
    if args.report_only:
        return 0
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with config_scope(args):
            return _main(args)
    except ReproError as error:
        print(f"roload-bench: {error}", file=sys.stderr)
        return 1


def _main(args) -> int:
    benchmarks = tuple(b for b in args.benchmarks.split(",") if b)
    variants = tuple(v for v in args.variants.split(",") if v)
    scale = args.scale if args.scale is not None else DEFAULT_SCALE
    if args.smoke:
        benchmarks, variants, scale = SMOKE_BENCHMARKS, ("base",), SMOKE_SCALE
    # Worker count: explicit flag, else the REPRO_JOBS knob (via the
    # config layer), else 4 for a timed sweep.
    if args.jobs is not None:
        jobs = args.jobs
    elif "REPRO_JOBS" in os.environ:
        jobs = resolve_jobs(None)
    else:
        jobs = 4
    # Never oversubscribe a timed sweep: extra workers on a busy host
    # only add scheduling noise to the per-pair simulation clocks.
    jobs = max(1, min(jobs, os.cpu_count() or 1))

    observing = obs_requested(args)
    if observing:
        enable_obs(args)
        if jobs != 1:
            print("note: --trace-out/--metrics-out capture events "
                  "in-process; forcing --jobs 1")
            jobs = 1

    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
        if jobs != 1:
            print("note: --profile captures in-process frames; "
                  "forcing --jobs 1")
            jobs = 1

    out = args.out if args.out is not None else Path("BENCH_interp.json")

    if args.check_against is not None:
        code = _run_gate(args, benchmarks, variants, jobs, profiler)
        if profiler is not None:
            profiler.dump_stats(profile_path(out))
            print(f"[profile in {profile_path(out)}]")
        if observing:
            write_obs_outputs(args)
        return code
    tiers = {}
    with _profiled(profiler):
        tiers["tier4"] = _run_sweep(benchmarks, variants, scale,
                                    tier="tier4", jobs=jobs)
    print(f"tier4: {tiers['tier4']['wall_seconds']}s, "
          f"{tiers['tier4']['sim_mips']} sim-MIPS (jobs={jobs})")
    print(f"tier4 {format_residency(tiers['tier4']['residency'])}")
    if not (args.no_compare or args.smoke):
        tiers["tier2"] = _run_sweep(benchmarks, variants, scale,
                                    tier="tier2", jobs=jobs)
        print(f"tier2: {tiers['tier2']['wall_seconds']}s, "
              f"{tiers['tier2']['sim_mips']} sim-MIPS (jobs={jobs})")
        tiers["tier1"] = _run_sweep(benchmarks, variants, scale,
                                    tier="tier1", jobs=jobs)
        print(f"tier1: {tiers['tier1']['wall_seconds']}s, "
              f"{tiers['tier1']['sim_mips']} sim-MIPS (jobs={jobs})")
        tiers["slow"] = _run_sweep(benchmarks, variants, scale,
                                   tier="slow", jobs=1)
        print(f"slow (seed-equivalent, serial): "
              f"{tiers['slow']['wall_seconds']}s, "
              f"{tiers['slow']['sim_mips']} sim-MIPS")
        reference = tiers["tier4"]["measurements"]
        for tier in ("tier2", "tier1", "slow"):
            if tiers[tier]["measurements"] != reference:
                raise ReproError(
                    f"{tier} and tier4 sweeps disagree architecturally "
                    f"— refusing to record a perf number for a broken "
                    f"simulator")
    record = build_record(benchmarks, variants, scale, tiers, jobs)
    if "speedup" in record:
        for key, value in record["speedup"].items():
            print(f"{key}: {value}x")

    if profiler is not None:
        profiler.dump_stats(profile_path(out))
        print(f"[profile in {profile_path(out)}]")
    if observing:
        write_obs_outputs(args)
    if args.smoke:
        # A smoke sweep is not a comparable perf reference; record it
        # only when the caller explicitly asked for an artifact.
        if args.out is not None:
            args.out.write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n")
            print(f"[recorded in {args.out}]")
        print("smoke ok")
        return 0
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"[recorded in {out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
