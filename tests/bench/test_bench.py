"""Tests for the repository benchmark under bench/: its percentile
rule, span self-time arithmetic, compare verdicts, step plans, and a
smoke run of every workload."""

import asyncio
import json
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.append(str(ROOT / "bench"))

import harness  # noqa: E402
import run as bench_run  # noqa: E402
import suite  # noqa: E402
from harness import (Tracer, highest_supported, percentile,  # noqa: E402
                     quartiles, samples_beyond, tail_supported, verdict)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentiles -------------------------------------------------------------

def test_percentile_interpolates_between_closest_ranks():
    values = [10, 20, 30, 40, 50]
    assert percentile(values, 0) == 10
    assert percentile(values, 50) == 30
    assert percentile(values, 100) == 50
    assert percentile(values, 90) == pytest.approx(46.0)
    assert percentile([4, 1, 3, 2], 50) == pytest.approx(2.5)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert tail_supported(92, 90)
    assert not tail_supported(91, 90)
    assert tail_supported(902, 99)
    assert not tail_supported(901, 99)
    assert tail_supported(20, 50) and not tail_supported(19, 50)


def test_highest_supported_percentile():
    assert highest_supported(1000) == 99
    assert highest_supported(200) == 95
    assert highest_supported(100) == 90
    assert highest_supported(40) == 75
    assert highest_supported(20) == 50
    assert highest_supported(12) is None


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


# -- spans -------------------------------------------------------------------

@pytest.fixture
def clock(monkeypatch):
    """A fake nanosecond clock the test advances explicitly."""
    now = [0]
    monkeypatch.setattr(harness, "perf_counter_ns", lambda: now[0])
    return now


def test_self_time_subtracts_direct_children(clock):
    tracer = Tracer(True)
    with tracer.span("outer", request="r1") as outer:
        clock[0] = 10
        with tracer.span("inner"):
            clock[0] = 20
            with tracer.span("leaf"):
                clock[0] = 25
            clock[0] = 40
        clock[0] = 50
        with tracer.span("inner"):
            clock[0] = 60
        clock[0] = 100
    table = tracer.self_times()
    assert table["leaf"] == {"calls": 1, "total_s": 5e-9, "self_s": 5e-9}
    assert table["inner"]["calls"] == 2
    assert table["inner"]["total_s"] == pytest.approx(40e-9)
    assert table["inner"]["self_s"] == pytest.approx(35e-9)
    assert table["outer"]["self_s"] == pytest.approx(60e-9)
    # Self times tile the root span exactly.
    assert sum(row["self_s"] for row in table.values()) == \
        pytest.approx(outer.duration_ns / 1e9)
    # Children inherit the request id of the span that caused them.
    assert {span.request for span in tracer.spans} == {"r1"}


def test_reported_child_counts_against_its_parent(clock):
    tracer = Tracer(True)
    with tracer.span("serve.step") as step:
        clock[0] = 1_000_000
        tracer.child(step, "serve.slice", 0.0006)
    table = tracer.self_times()
    assert table["serve.slice"]["self_s"] == pytest.approx(0.0006)
    assert table["serve.step"]["self_s"] == pytest.approx(0.0004)
    slice_span = next(s for s in tracer.spans if s.name == "serve.slice")
    assert slice_span.parent is step and slice_span.end == step.end


def test_disabled_tracer_records_and_patches_nothing():
    tracer = Tracer(False)

    class Target:
        def work(self):
            return 7

    original = Target.work
    tracer.patch(Target, "work", "x")
    with tracer.span("a") as span:
        assert span is None
    tracer.child(None, "b", 1.0)
    assert Target.work is original and tracer.spans == []


def test_patch_wraps_numbers_and_restores():
    tracer = Tracer(True)

    class Base:
        def work(self, x):
            return x * 2

    class Derived(Base):
        pass

    tracer.patch(Derived, "work", "derived.work", numbered=True)
    assert Derived().work(3) == 6
    assert Derived().work(4) == 8
    assert [s.request for s in tracer.spans] == [0, 1]
    tracer.unpatch()
    assert "work" not in vars(Derived)


def test_concurrent_tasks_nest_their_own_spans():
    tracer = Tracer(True)

    async def client(name):
        with tracer.span("bench.client", request=name):
            for _ in range(3):
                with tracer.span("serve.step"):
                    await asyncio.sleep(0)

    async def main():
        await asyncio.gather(client("a"), client("b"))

    asyncio.run(main())
    for span in tracer.spans:
        if span.name == "serve.step":
            assert span.parent.name == "bench.client"
            assert span.request == span.parent.request


def test_chrome_trace_uses_complete_events(clock):
    tracer = Tracer(True)
    clock[0] = 5_000
    with tracer.span("outer", track=2):
        clock[0] = 9_000
    event, = tracer.chrome_trace()["traceEvents"]
    assert event["ph"] == "X" and event["tid"] == 2
    assert event["ts"] == 0 and event["dur"] == pytest.approx(4.0)


# -- compare -----------------------------------------------------------------

def test_verdict_better_needs_nine_of_ten_pairs():
    parent = [100.0 + i for i in range(10)]
    assert verdict(parent, [v + 20 for v in parent], "higher",
                   0.1)["verdict"] == "better"
    change = [v + 20 for v in parent[:8]] + [v - 1 for v in parent[8:]]
    judged = verdict(parent, change, "higher", 0.1)
    assert (judged["wins"], judged["losses"]) == (8, 2)
    assert judged["verdict"] == "unchanged"


def test_verdict_better_needs_more_than_the_parent_spread():
    parent = [90.0, 95.0, 100.0, 105.0, 110.0]
    change = [v + 1 for v in parent]
    judged = verdict(parent, change, "higher", 0.2)
    assert judged["wins"] == 5 and judged["verdict"] == "unchanged"


def test_verdict_worse_by_more_than_the_bound():
    parent = [10.0, 10.1, 9.9, 10.0, 10.05]
    change = [v * 1.2 for v in parent]
    assert verdict(parent, change, "lower", 0.1)["verdict"] == "worse"
    assert verdict(parent, change, "lower", 0.25)["verdict"] != "worse"
    assert verdict(parent, change, "higher", 0.1)["verdict"] == "better"


def test_verdict_unresolved_when_spread_exceeds_the_bound():
    parent = [70.0, 100.0, 130.0, 85.0, 115.0]
    change = [72.0, 98.0, 128.0, 88.0, 112.0]
    assert verdict(parent, change, "higher", 0.1)["verdict"] == "unresolved"
    dominating = [131.0, 140.0, 150.0, 135.0, 145.0]
    judged = verdict(parent, dominating, "higher", 0.1)
    assert judged["verdict"] != "unresolved"


def test_verdict_ties_count_for_neither_side():
    judged = verdict([10.0, 10.1, 10.2], [10.0, 10.1, 10.2], "lower", 0.1)
    assert (judged["wins"], judged["losses"]) == (0, 0)
    assert judged["verdict"] == "unchanged"
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], "faster", 0.1)


# -- workload inputs ---------------------------------------------------------

@pytest.mark.parametrize("count,total,low,high", [
    (4, 16_000, 1_000, 4_000), (12, 16_000, 1_000, 4_000),
    (7, 16_000, 1_000, 4_000), (11, 275_000, 10_000, 40_000),
    (1, 3_000, 1_000, 4_000)])
def test_spread_sizes_fixed_total_within_bounds(count, total, low, high):
    sizes = suite.spread_sizes(count, total, low, high)
    assert len(sizes) == count and sum(sizes) == total
    assert all(low <= size <= high for size in sizes)


def test_spread_sizes_rejects_impossible_splits():
    with pytest.raises(ValueError):
        suite.spread_sizes(3, 16_000, 1_000, 4_000)


@pytest.mark.parametrize("workload", ["serve-fork", "serve-steady"])
def test_serve_plans_follow_the_seed_but_keep_the_work(workload):
    first = suite.serve_plans(workload, 1, 15, 5)
    assert first == suite.serve_plans(workload, 1, 15, 5)
    other = suite.serve_plans(workload, 2, 15, 5)
    assert first["plans"] != other["plans"]
    assert sorted(map(sorted, first["plans"])) == \
        sorted(map(sorted, other["plans"]))
    uses = {}
    for rep in first["orders"]:
        for order in rep:
            for plan in order:
                uses[plan] = uses.get(plan, 0) + 1
    assert set(uses) == set(range(len(first["plans"])))
    assert min(uses.values()) >= 2


# -- the whole benchmark -----------------------------------------------------

# Spans whose self time is not any layer's: the benchmark's own loop
# and the campaign's code outside every wrapped call.
UNATTRIBUTED_SPANS = {"bench.rep", "bench.pair", "bench.client",
                      "bench.session", "fuzz.campaign"}


def test_layer_shares_name_each_span_once():
    names = [span for spans in bench_run.LAYER_SHARES.values()
             for span in spans]
    assert len(names) == len(set(names))
    assert not set(names) & UNATTRIBUTED_SPANS
    per_layer = {metric["name"] for metric in SPEC["per_layer"]}
    assert set(bench_run.LAYER_SHARES) <= per_layer


def test_driver_self_time_is_unattributed(clock):
    """Time inside the benchmark's own spans but outside every layer
    span is reported as unattributed, not hidden in a share."""
    tracer = Tracer(True)
    with tracer.span("bench.pair"):
        clock[0] = 30_000_000
        with tracer.span("kernel.run"):
            clock[0] = 90_000_000
        clock[0] = 100_000_000
    result = SimpleNamespace(
        reps=[{"wall_s": 0.1, "instructions": 1000, "slowdown": 1.0}],
        layers={"cpu.run_mips": 1.0, "cpu.top_tier_frac": 0.5},
        samples={}, builds=1, machines=1)
    metrics, _ = bench_run.per_layer(result, tracer)
    assert metrics["unattributed_s"] == pytest.approx(0.04)
    assert metrics["kernel.run_frac"] == pytest.approx(0.6)


def test_missing_golden_fails_the_check(tmp_path, monkeypatch):
    monkeypatch.setattr(suite, "GOLDEN", tmp_path)
    result = suite.Result("sweep")
    suite.golden_check(result, "scale=9", {"a": 1}, write=False)
    assert result.failed == 1 and "no golden" in result.problems[0]
    suite.golden_check(result, "scale=9", {"a": 1}, write=True)
    suite.golden_check(result, "scale=9", {"a": 1}, write=False)
    suite.golden_check(result, "scale=9", {"a": 2}, write=False)
    assert result.failed == 2


def test_errored_child_still_ends_with_the_result_line(monkeypatch, capsys):
    def errored(workload, seed, trace, deadline, args):
        return {"workload": workload, "seed": seed, "trace": trace,
                "error": "child exited with 1"}

    monkeypatch.setattr(bench_run, "run_child", errored)
    assert bench_run.main(["--workload", "fuzz", "--trace", "1"]) == 1
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert final == {"correct": False, "attempted": 1, "failed": 1,
                     "metrics": {}}


def test_seconds_other_than_run_seconds_is_refused(capsys):
    seconds = SPEC["run_seconds"] + 1
    assert bench_run.main(["--workload", "sweep", "--seconds",
                           str(seconds)]) == 2
    assert capsys.readouterr().out == ""


def test_smoke_run_prints_every_metric_and_passes(tmp_path):
    """Every workload, shrunk: every BENCHMARK.json metric is printed
    with its unit, every check passes, and every traced span outside
    the benchmark's own loop belongs to a per-layer share."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke",
         "--trace", "1", "--trace-dir", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0].replace(".", "").replace(
                "_", "").isalnum():
            printed.setdefault(parts[0], set()).add(parts[2])
    workloads = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["unit"] in printed.get(metric["name"], ()), \
            metric["name"]
        for workload in workloads:
            if metric in SPEC["per_layer"]:
                assert f"{workload}:{metric['name']}" in final["metrics"]
    mapped = {span for spans in bench_run.LAYER_SHARES.values()
              for span in spans}
    for workload in workloads:
        detail = json.loads((tmp_path / f"{workload}.layers.json")
                            .read_text())
        assert set(detail["spans"]) <= mapped | UNATTRIBUTED_SPANS, \
            workload
        trace = json.loads((tmp_path / f"{workload}.trace.json")
                           .read_text())
        assert trace["traceEvents"]
