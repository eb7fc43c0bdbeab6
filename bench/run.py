"""Benchmark of the ROLoad simulator: one command, four workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]
                         [--trace-dir DIR] [--smoke] [--repeat N]
                         [--out RUNS.json] [--write-golden]
    python3 bench/run.py compare PARENT.json CHANGE.json

Each workload runs in a fresh child process (this script with
``child``), which prints one JSON line the parent collects. The amount
of work is fixed: it is sized from ``run_seconds`` in
``BENCHMARK.json`` (or shrunk by ``--smoke``). ``--seconds`` is accepted
only with that same value, so every run does the same work and meets
its golden results.

An untraced run prints every end-to-end metric of ``BENCHMARK.json``
with its unit. ``--trace 1`` runs each workload in two fresh
processes, untraced and traced, prints the per-layer metrics, and
writes a Chrome trace-event file and a per-layer self-time table to
``--trace-dir``. Once any workload has run, the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with
``--trace 1`` the per-layer ones), even when a check failed or a child
errored; the exit code is then 1.

``--repeat N`` runs seeds ``seed .. seed+N-1``; ``--out`` saves every
run, traced and untraced, and ``compare`` judges two such files metric
by metric against the bounds in ``BENCHMARK.json``. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from harness import (highest_supported, percentile,  # noqa: E402
                     tail_supported, verdict)

SPEC = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
SMOKE_SECONDS = 1
# One workload, its untraced and traced children together, must finish
# within 180 s; a child still running at this deadline is stopped
# (SIGTERM first, so it can stop its server) and fails the run.
WORKLOAD_DEADLINE_S = 165
# The traced run fails when spans of the layers leave more than this
# share of its wall time unattributed.
MAX_UNATTRIBUTED = 0.05

# Per-layer share metrics: the span names whose self time each sums.
# The self time of every other span the suite records is the
# benchmark's own loop (bench.*) or the campaign's code outside every
# wrapped call (fuzz.campaign); it counts as unattributed, so the
# shares plus unattributed time add up to the traced wall time.
LAYER_SHARES = {
    "workloads.generate_frac": ("workloads.generate",),
    "compiler.compile_frac": ("compiler.compile",),
    "kernel.load_frac": ("kernel.load",),
    "kernel.run_frac": ("kernel.run", "cpu.translate", "serve.slice"),
    "replay.fork_frac": ("replay.restore", "replay.snapshot",
                         "replay.fork"),
    "serve.overhead_frac": ("serve.create", "serve.step", "serve.query",
                            "serve.destroy"),
    "fuzz.propose_frac": ("fuzz.propose",),
    "fuzz.inject_frac": ("fuzz.inject",),
    "fuzz.classify_frac": ("fuzz.classify", "fuzz.signature"),
    "fuzz.triage_frac": ("fuzz.minimize", "fuzz.replay_verify"),
    "fuzz.engine_frac": ("fuzz.execute", "fuzz.victim"),
}


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def work_seconds(smoke: bool) -> float:
    """The run length every workload's fixed work is sized for."""
    return SMOKE_SECONDS if smoke else load_spec()["run_seconds"]


# -- the child: one workload in a fresh process ------------------------------

def end_to_end(result) -> "tuple[dict, dict, list]":
    """The end-to-end metric values of one untraced run, the sample
    count behind each, and every repetition's wall and slowdown.

    Times are scaled to the reference host speed (divided by the
    slowdown measured around them). ``sim_mips`` is the median over
    repetitions, ``setup_s`` the median over set-ups, and the latency
    percentiles are taken over the operations of all repetitions.
    """
    reps = [{"wall_s": rep["wall_s"], "slowdown": rep["slowdown"],
             "sim_mips": rep["instructions"] * rep["slowdown"]
             / rep["wall_s"] / 1e6} for rep in result.reps]
    ops = [ms / slow for rep in result.reps
           for ms, slow in zip(rep["op_ms"], rep["op_slowdown"])]
    values = {
        "sim_mips": statistics.median(rep["sim_mips"] for rep in reps),
        "op_ms_p50": percentile(ops, 50),
        "op_ms_p90": percentile(ops, 90),
        "peak_rss_mib": result.peak_rss_kib / 1024,
        "setup_s": statistics.median(setup["seconds"] / setup["slowdown"]
                                     for setup in result.setups),
    }
    counts = {"setup_s": len(result.setups), "op_ms_p50": len(ops),
              "op_ms_p90": len(ops)}
    return values, counts, reps


def per_layer(result, tracer) -> "tuple[dict, dict]":
    """The per-layer metrics of one traced run, plus the full self-time
    table and the layer numbers measured outside spans."""
    # Serve clients overlap in time, so their shares are taken of
    # client-seconds; each client's spans tile its own timeline.
    wall = result.layers.get("client_s",
                             sum(rep["wall_s"] for rep in result.reps))
    instructions = sum(rep["instructions"] for rep in result.reps)
    host = statistics.mean(rep["slowdown"] for rep in result.reps)
    table = tracer.self_times()
    metrics = {"image_reuse_ratio": 1 - result.builds / result.machines
               if result.machines else 0.0}
    attributed = 0.0
    for name, spans in LAYER_SHARES.items():
        self_s = sum(table[s]["self_s"] for s in spans if s in table)
        attributed += self_s
        metrics[name] = self_s / wall
    metrics["unattributed_s"] = wall - attributed
    samples = result.samples
    if samples:
        slice_s = sum(samples["slice_ms"]) / 1e3
        metrics["cpu.run_mips"] = instructions * host / slice_s / 1e6
        metrics["cpu.top_tier_frac"] = \
            sum(samples["top_tier"]) / sum(samples["retired"])
    else:
        metrics["cpu.run_mips"] = result.layers["cpu.run_mips"] * host
        metrics["cpu.top_tier_frac"] = result.layers["cpu.top_tier_frac"]
    detail = {"wall_s": wall, "spans": table,
              "measured": dict(result.layers)}
    for name, values in samples.items():
        if values and name.endswith("_ms"):
            detail["measured"][f"{name}_p50"] = percentile(values, 50)
    if samples.get("private_frames"):
        detail["measured"]["private_frames_p50"] = \
            percentile(samples["private_frames"], 50)
    if samples.get("overhead_ms"):
        steps = [ms for rep in result.reps for ms in rep["op_ms"]]
        detail["measured"]["overhead_share_of_step_p50"] = \
            percentile(samples["overhead_ms"], 50) / percentile(steps, 50)
    return metrics, detail


def child_main(args) -> int:
    import suite
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result, tracer = suite.run(args.workload, args.seed,
                               work_seconds(args.smoke), args.smoke,
                               bool(args.trace), args.write_golden)
    out = {"workload": args.workload, "seed": args.seed,
           "trace": args.trace,
           "timed_s": sum(rep["wall_s"] for rep in result.reps),
           "rep_s": statistics.median(rep["wall_s"] / rep["slowdown"]
                                      for rep in result.reps),
           "attempted": result.attempted, "failed": result.failed,
           "problems": result.problems}
    if args.trace:
        out["metrics"], out["detail"] = per_layer(result, tracer)
        wall = out["detail"]["wall_s"]
        if out["metrics"]["unattributed_s"] > MAX_UNATTRIBUTED * wall:
            out["failed"] += 1
            out["problems"].append(
                f"layer spans leave {out['metrics']['unattributed_s']:.3f} "
                f"s of {wall:.3f} s unattributed (limit "
                f"{MAX_UNATTRIBUTED:.0%})")
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{args.workload}.trace.json").write_text(
            json.dumps(tracer.chrome_trace()))
        (trace_dir / f"{args.workload}.layers.json").write_text(
            json.dumps(out["detail"], indent=1, sort_keys=True) + "\n")
    else:
        out["metrics"], out["counts"], out["reps"] = end_to_end(result)
    print(json.dumps(out))
    return 0


# -- the parent --------------------------------------------------------------

def run_child(workload: str, seed: int, trace: int, deadline: float,
              args) -> dict:
    """One workload in a fresh process, stopped at ``deadline``
    (``time.monotonic``); a child that fails to report returns an
    ``error`` entry instead of its results."""
    command = [sys.executable, str(BENCH / "run.py"), "child",
               "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--trace-dir", args.trace_dir]
    if args.smoke:
        command.append("--smoke")
    if args.write_golden:
        command.append("--write-golden")
    failure = {"workload": workload, "seed": seed, "trace": trace}
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True)
    try:
        stdout, _ = child.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.terminate()
        try:
            child.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
        return dict(failure, error=f"stopped at the {WORKLOAD_DEADLINE_S} "
                    f"s deadline of its workload")
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        return dict(failure, error=f"child exited with {child.returncode}")
    return json.loads(lines[-1])


def _format(name: str, value: float, unit: str, count=None) -> str:
    text = f"  {name:<26} {value:>12.6g} {unit}"
    if count is not None:
        text += f"  (n={count})"
        if name.endswith("_p90") and not tail_supported(count, 90):
            best = highest_supported(count)
            text += (f" fewer than 10 samples beyond p90; p{best:g} is the "
                     f"highest supported" if best else
                     " fewer than 10 samples beyond the median")
    return text


def report(run: dict, spec_metrics: list) -> None:
    label = f"{run['workload']} (seed {run['seed']}"
    label += ", traced)" if run.get("trace") else ")"
    print(label)
    if "error" in run:
        print(f"  error: {run['error']}")
        return
    for metric in spec_metrics:
        name = metric["name"]
        if name in run["metrics"]:
            print(_format(name, run["metrics"][name], metric["unit"],
                          run.get("counts", {}).get(name)))
    print(f"  attempted {run['attempted']}, failed {run['failed']}, "
          f"timed phase {run['timed_s']:.2f} s")
    if "reps" in run:
        reps = " ".join(f"{rep['wall_s']:.2f}/{rep['slowdown']:.2f}"
                        for rep in run["reps"])
        print(f"  repetitions, wall s/host slowdown: {reps}")
    for problem in run["problems"]:
        print(f"  FAILED CHECK: {problem}")


def run_workload(workload: str, seed: int, args, spec: dict) -> list:
    """One workload at one seed: the untraced child, and with
    ``--trace 1`` a traced child too, which adds the per-layer metrics
    and the tracing overhead against the untraced one."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    run = run_child(workload, seed, 0, deadline, args)
    report(run, spec["end_to_end"])
    if not args.trace or "error" in run:
        return [run]
    traced = run_child(workload, seed, 1, deadline, args)
    if "error" not in traced:
        traced["metrics"]["trace_overhead_frac"] = \
            traced["rep_s"] / run["rep_s"] - 1
    report(traced, spec["per_layer"])
    if "detail" in traced:
        print_layers(traced["detail"])
    return [run, traced]


def print_layers(detail: dict) -> None:
    wall = detail["wall_s"]
    print(f"  self time by span (of {wall:.3f} s):")
    rows = sorted(detail["spans"].items(), key=lambda kv: -kv[1]["self_s"])
    for name, row in rows:
        print(f"    {name:<22} {row['self_s']:>9.3f} s self "
              f"{100 * row['self_s'] / wall:>6.2f}%  "
              f"{row['total_s']:>9.3f} s total  {row['calls']:>7} calls")
    for name, value in sorted(detail["measured"].items()):
        if isinstance(value, (int, float)):
            print(f"    {name:<34} {value:.6g}")


def main_run(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if args.workload != "all" and args.workload not in names:
        print(f"bench: unknown workload {args.workload!r} (one of: "
              f"{', '.join(names)})", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds != spec["run_seconds"]:
        print(f"bench: the work is fixed, sized for run_seconds = "
              f"{spec['run_seconds']}; --seconds {args.seconds:g} is not "
              f"supported", file=sys.stderr)
        return 2
    runs = [run for i in range(args.repeat) for workload in workloads
            for run in run_workload(workload, args.seed + i, args, spec)]
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    final = summary(runs, workloads, args.trace, spec)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def summary(runs: list, workloads: list, trace: int, spec: dict) -> dict:
    """The final result line. Its metrics are the medians over runs of
    the end-to-end metrics, or with ``trace`` of the per-layer ones;
    a child that errored counts as one failed operation."""
    group = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    metrics = {}
    for workload in workloads:
        done = [r for r in runs if r["workload"] == workload
                and r["trace"] == trace and "error" not in r]
        for name, unit in units.items():
            values = [r["metrics"][name] for r in done
                      if name in r["metrics"]]
            if not values:
                continue
            key = name if len(workloads) == 1 else f"{workload}:{name}"
            metrics[key] = {"value": statistics.median(values),
                            "unit": unit}
    errored = sum(1 for r in runs if "error" in r)
    return {"correct": all("error" not in r and not r["problems"]
                           for r in runs),
            "attempted": sum(r.get("attempted", 0) for r in runs) + errored,
            "failed": sum(r.get("failed", 0) for r in runs) + errored,
            "metrics": metrics}


# -- compare -----------------------------------------------------------------

def main_compare(args) -> int:
    spec = load_spec()
    sides = [json.loads(Path(p).read_text())["runs"]
             for p in (args.parent, args.change)]
    worse = False
    print(f"{'workload':<13} {'metric':<13} {'parent q1/median/q3':>30} "
          f"{'change q1/median/q3':>30} {'won':>7}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            by_seed = [{r["seed"]: r["metrics"][name] for r in side
                        if r["workload"] == workload and "error" not in r
                        and not r.get("trace")} for side in sides]
            seeds = sorted(set(by_seed[0]) & set(by_seed[1]))
            if seeds:
                parent = [by_seed[0][s] for s in seeds]
                change = [by_seed[1][s] for s in seeds]
            else:
                parent, change = (list(side.values()) for side in by_seed)
            if not parent or not change:
                continue
            judged = verdict(parent, change, metric["better"],
                             metric["bound"])
            worse |= judged["verdict"] == "worse"
            a, b = judged["parent"], judged["change"]
            print(f"{workload:<13} {name:<13} "
                  f"{a['q1']:>9.4g} {a['median']:>9.4g} {a['q3']:>9.4g}  "
                  f"{b['q1']:>9.4g} {b['median']:>9.4g} {b['q3']:>9.4g}  "
                  f"{judged['wins']:>3}/{judged['pairs']:<3}  "
                  f"{judged['verdict']} (bound {metric['bound']:g})")
    return 1 if worse else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Run the repository benchmark (see bench/README.md).")
    parser.add_argument("--workload", default="all",
                        help="workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted only as BENCHMARK.json run_seconds, "
                             "which sizes the fixed work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced and print per-layer "
                             "metrics")
    parser.add_argument("--trace-dir", default="bench/out",
                        help="where traced runs write their Chrome trace "
                             "and layer table (default bench/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to a few seconds")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds seed..seed+N-1")
    parser.add_argument("--out", default=None,
                        help="save every run as JSON for compare")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this run's results in bench/golden")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="bench/run.py compare")
        parser.add_argument("parent")
        parser.add_argument("change")
        return main_compare(parser.parse_args(argv[1:]))
    if argv[:1] == ["child"]:
        return child_main(build_parser().parse_args(argv[1:]))
    return main_run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
