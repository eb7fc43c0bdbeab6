"""Unit tests for the roload-bench regression gate and record schema."""

import pytest

from repro.errors import ReproError
from repro.tools.benchtool import (DEFAULT_TOLERANCE, SCHEMA_VERSION,
                                   baseline_mips, build_parser, build_record,
                                   evaluate_gate)


def tier(mips, seconds=10.0):
    return {"sim_mips": mips, "wall_seconds": seconds,
            "instructions": int(mips * seconds * 1e6), "cycles": 0,
            "measurements": {}}


V5_RECORD = {
    "schema_version": 5,
    "scale": 1.0,
    "tiers": {"slow": tier(0.2), "tier1": tier(0.5), "tier2": tier(0.6),
              "tier4": tier(0.8)},
}


def test_baseline_reads_tier4():
    assert baseline_mips(V5_RECORD) == 0.8


def test_baseline_rejects_unknown_schema():
    with pytest.raises(ReproError):
        baseline_mips({"tiers": {}})
    with pytest.raises(ReproError):
        baseline_mips({"something": "else"})


def test_baseline_rejects_record_without_tier4():
    # Only v5 records (which always sweep tier 4) are baselines: there
    # is no fallback to a lower tier's throughput.
    with pytest.raises(ReproError):
        baseline_mips({"tiers": {"tier2": tier(0.8), "tier1": tier(0.5)}})
    with pytest.raises(ReproError):
        baseline_mips({"tiers": {"slow": tier(0.2)}})


def test_baseline_rejects_v1_schema():
    with pytest.raises(ReproError):
        baseline_mips({"fast": {"sim_mips": 0.5}})


def test_gate_passes_within_tolerance():
    # 15% default tolerance: floor is 0.8 * 0.85 = 0.68.
    ok, reference, floor = evaluate_gate(0.70, V5_RECORD)
    assert ok and reference == 0.8 and floor == pytest.approx(0.68)


def test_gate_fails_below_floor():
    ok, __, floor = evaluate_gate(0.60, V5_RECORD)
    assert not ok and 0.60 < floor


def test_gate_faster_is_never_an_error():
    ok, __, __ = evaluate_gate(5.0, V5_RECORD)
    assert ok


def test_gate_custom_tolerance():
    assert not evaluate_gate(0.70, V5_RECORD, tolerance=0.05)[0]
    assert evaluate_gate(0.70, V5_RECORD, tolerance=0.20)[0]


def test_build_record_schema():
    tiers = {"slow": tier(0.2, 40.0), "tier1": tier(0.5, 16.0),
             "tier2": tier(0.8, 10.0), "tier4": tier(1.0, 8.0)}
    record = build_record(["429.mcf"], ["base", "cfi"], 0.5, tiers)
    assert record["schema_version"] == SCHEMA_VERSION
    assert record["tool"] == "roload-bench"
    assert record["scale"] == 0.5
    assert record["benchmarks"] == ["429.mcf"]
    assert record["variants"] == ["base", "cfi"]
    assert set(record["host"]) == {"python", "platform", "cpu_count"}
    assert record["speedup"] == {"tier1_over_slow": 2.5,
                                 "tier2_over_tier1": 1.6,
                                 "tier2_over_slow": 4.0,
                                 "tier4_over_tier2": 1.25,
                                 "tier4_over_slow": 5.0}
    # The gate reads its reference straight back out of the record.
    assert baseline_mips(record) == 1.0


def test_build_record_prefers_sim_seconds():
    # Speedups compare simulation time when the sweeps carry it (wall
    # time includes tier-independent workload generation); the plain
    # wall_seconds fallback is what the other tests above exercise.
    tiers = {"tier1": dict(tier(0.5, 16.0), sim_seconds=8.0),
             "tier2": dict(tier(0.8, 10.0), sim_seconds=4.0)}
    record = build_record([], [], 1.0, tiers)
    assert record["speedup"]["tier2_over_tier1"] == 2.0


def test_build_record_partial_tiers():
    # The smoke/gate shape: tier 4 alone, no speedups to report.
    record = build_record([], [], 1.0, {"tier4": tier(0.5, 16.0)})
    assert "speedup" not in record
    assert baseline_mips(record) == 0.5


def test_parser_gate_flags():
    args = build_parser().parse_args(["--check-against", "BENCH_interp.json",
                                      "--report-only"])
    assert args.check_against.name == "BENCH_interp.json"
    assert args.report_only
    assert args.tolerance == DEFAULT_TOLERANCE
