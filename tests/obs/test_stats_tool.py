"""roload-stats CLI: summary, trace conversion, schema validation.

Also drives roload-run's --trace-out/--metrics-out export end to end on
the examples' forward-edge-CFI shape of workload: the produced trace
must validate, and the metrics dump must be the architectural counters.
"""

import json

from repro.asm import assemble, link
from repro.tools.runtool import main as run_main
from repro.tools.statstool import main as stats_main

SOURCE = r"""
.globl _start
_start:
    li t0, 3
loop:
    la a0, table
    ld.ro a1, (a0), 12
    addi t0, t0, -1
    bnez t0, loop
    la a0, wrong
    ld.ro a1, (a0), 5
    li a7, 93
    ecall
.section .rodata.key.12
table: .quad 1
.section .rodata.key.7
wrong: .quad 2
"""


def _events_file(tmp_path):
    from repro.obs import EventStream
    stream = EventStream()
    stream.emit("span.kernel.run", pid=1, dur_us=900.0)
    stream.emit("syscall", cat="arch", number=93, name="exit")
    stream.emit("counter.tiers", tier0=1, tier1=2, tier2=3)
    path = tmp_path / "events.jsonl"
    stream.dump_jsonl(path)
    return path


def test_trace_then_validate(tmp_path, capsys):
    events = _events_file(tmp_path)
    out = tmp_path / "trace.json"
    assert stats_main(["trace", str(events), "-o", str(out)]) == 0
    assert stats_main(["validate", str(out)]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_rejects_bad_trace(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
    assert stats_main(["validate", str(bad)]) == 1
    assert "bad phase" in capsys.readouterr().err
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert stats_main(["validate", str(notjson)]) == 1


def _bench_record(version, tiers, speedup=None):
    """A minimal roload-bench record of the given schema vintage (every
    sweep carries the v5 residency keys)."""
    record = {
        "tool": "roload-bench",
        "schema_version": version,
        "scale": 8.0,
        "benchmarks": ["429.mcf"],
        "variants": ["base"],
        "host": {"python": "3.x", "platform": "linux"},
        "tiers": {},
    }
    for name in tiers:
        residency = {"retired": 1000, "tier4_retired": 900,
                     "flat_regions_compiled": 3}
        record["tiers"][name] = {
            "tier": name,
            "wall_seconds": 1.0,
            "sim_mips": 1.0,
            "instructions": 1000,
            "cycles": 2000,
            "residency": residency,
        }
    if speedup is not None:
        record["speedup"] = speedup
    return record


def _validate(tmp_path, record):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(record))
    return stats_main(["validate", str(path)])


def test_validate_accepts_each_bench_schema_version(tmp_path, capsys):
    """v5 is the one supported vintage, in each shape it is written:
    a full four-tier sweep, a smoke/gate record (tier 4 only), and the
    committed record that still carries a tier3 column."""
    fixtures = [
        _bench_record(5, ["slow", "tier1", "tier2", "tier4"],
                      speedup={"tier4_over_tier2": 1.3}),
        _bench_record(5, ["tier4"]),
        _bench_record(5, ["tier3", "tier4"],
                      speedup={"tier4_over_tier3": 1.4}),
    ]
    for record in fixtures:
        assert _validate(tmp_path, record) == 0
        assert "schema v5" in capsys.readouterr().out


def test_validate_rejects_malformed_bench_records(tmp_path, capsys):
    # Unknown vintages, including the retired v3 (tier2-top) and v4
    # (tier3-top) records.
    for version, top in ((2, "tier2"), (3, "tier2"), (4, "tier3")):
        assert _validate(tmp_path, _bench_record(version, [top])) == 1
        assert f"schema_version {version}" in capsys.readouterr().err
    # A v5 record must sweep the flat core.
    assert _validate(tmp_path, _bench_record(5, ["tier2"])) == 1
    assert "lacks the 'tier4' sweep" in capsys.readouterr().err
    # v5 residency must carry the flat-core counters.
    record = _bench_record(5, ["tier4"])
    del record["tiers"]["tier4"]["residency"]["flat_regions_compiled"]
    assert _validate(tmp_path, record) == 1
    assert "flat_regions_compiled" in capsys.readouterr().err
    # Incomplete sweeps are named field by field.
    record = _bench_record(5, ["tier2", "tier4"])
    del record["tiers"]["tier2"]["sim_mips"]
    assert _validate(tmp_path, record) == 1
    assert "missing 'sim_mips'" in capsys.readouterr().err


def test_validate_accepts_real_smoke_record(tmp_path, capsys):
    """End to end: a record produced by roload-bench --smoke must pass
    the validator (the CI artifact check)."""
    from repro.tools.benchtool import main as bench_main
    out = tmp_path / "bench.json"
    code = bench_main(["--smoke", "--jobs", "1", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    assert stats_main(["validate", str(out)]) == 0
    assert "schema v5" in capsys.readouterr().out


def test_summary_of_events_and_metrics(tmp_path, capsys):
    events = _events_file(tmp_path)
    assert stats_main(["summary", str(events)]) == 0
    out = capsys.readouterr().out
    assert "3 events" in out and "syscall" in out and "span time" in out

    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"sys.l1d.hits": 42,
                                   "sys.mmu.roload_faults": 1}))
    assert stats_main(["summary", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "2 metric series" in out and "sys.l1d.hits" in out


def test_summary_of_bench_record_reports_tier4_residency(tmp_path,
                                                         capsys):
    """`summary` on a bench record must show the flat-core residency
    columns — tier-4 retires and lowered region count — not just the
    raw metric names."""
    record = _bench_record(5, ["tier2", "tier4"],
                           speedup={"tier4_over_tier2": 1.4})
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(record))
    assert stats_main(["summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert "schema v5" in out
    assert "t4_retired" in out and "flat_regions" in out
    assert "tier4" in out and "900" in out and "3" in out
    assert "tier4_over_tier2=1.4x" in out


def test_top_ranks_and_annotates(tmp_path, capsys):
    """`top` on a synthetic attribution table ranks hottest-first; the
    end-to-end path (runtool --metrics-out, then top --image) resolves
    unit heads through the image's symbol table."""
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"attribution": {
        "tier2": {"0x10004": 400, "0x10020": 10},
        "tier4": {"0x10004": 4000},
    }}))
    assert stats_main(["top", str(metrics)]) == 0
    out = capsys.readouterr().out
    assert "3 attributed units" in out
    lines = out.splitlines()
    assert "tier4" in lines[2]     # 4000 retires ranks first
    # --annotate without --image is a usage error.
    assert stats_main(["top", str(metrics), "--annotate", "f"]) == 2
    capsys.readouterr()
    # A metrics file without attribution degrades gracefully.
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"sys.l1d.hits": 1}))
    assert stats_main(["top", str(empty)]) == 0
    assert "no attribution data" in capsys.readouterr().out


def test_top_end_to_end_with_image(tmp_path, capsys):
    image_path = tmp_path / "prog.rex"
    image_path.write_bytes(link([assemble(SOURCE)]).to_bytes())
    metrics = tmp_path / "metrics.json"
    run_main([str(image_path), "--metrics-out", str(metrics)])
    capsys.readouterr()
    assert stats_main(["top", str(metrics),
                       "--image", str(image_path)]) == 0
    out = capsys.readouterr().out
    assert "attributed units" in out
    assert "_start" in out or "loop" in out   # symbols resolved
    assert stats_main(["top", str(metrics), "--image", str(image_path),
                       "--annotate", "loop"]) == 0
    assert "ld.ro" in capsys.readouterr().out


def test_audit_verify_cli_end_to_end(tmp_path, capsys):
    """roload-run --audit-out writes a sealed chain carrying the run's
    ROLoad violation; `audit verify` passes it, fails a tampered copy
    with the record named, and exits 1."""
    image_path = tmp_path / "prog.rex"
    image_path.write_bytes(link([assemble(SOURCE)]).to_bytes())
    audit_path = tmp_path / "audit.jsonl"
    code = run_main([str(image_path), "--audit-out", str(audit_path)])
    assert code == 128 + 11
    out = capsys.readouterr().out
    assert "[audit:" in out

    records = [json.loads(line)
               for line in audit_path.read_text().splitlines()]
    assert records[0]["type"] == "audit.genesis"
    assert records[-1]["type"] == "audit.seal"
    assert any(r["type"] == "roload.violation" for r in records)

    assert stats_main(["audit", "verify", str(audit_path)]) == 0
    assert "ok" in capsys.readouterr().out

    tampered = tmp_path / "tampered.jsonl"
    text = audit_path.read_text().replace("key_mismatch",
                                          "key_mismatcX", 1)
    tampered.write_text(text)
    assert stats_main(["audit", "verify", str(tampered)]) == 1
    err = capsys.readouterr().err
    assert "tampered" in err and "FAILED" in err


def test_trend_gates_comparable_records(tmp_path, capsys):
    def _write(name, mips):
        record = _bench_record(5, ["tier2", "tier4"],
                               speedup={"tier4_over_tier2": 1.4})
        record["tiers"]["tier4"]["sim_mips"] = mips
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return path

    a = _write("a.json", 1.00)
    b = _write("b.json", 0.95)    # inside the 15% tolerance
    c = _write("c.json", 0.50)    # a real regression
    assert stats_main(["trend", str(a), str(b)]) == 0
    assert "REGRESSION" not in capsys.readouterr().err
    assert stats_main(["trend", str(a), str(b), str(c)]) == 1
    assert "c.json: REGRESSION" in capsys.readouterr().err
    # Gate against an explicit baseline.
    assert stats_main(["trend", str(b), "--check-against", str(a)]) == 0
    assert "gate vs a.json: ok" in capsys.readouterr().out
    assert stats_main(["trend", str(c), "--check-against", str(a)]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_trend_skips_non_comparable_records(tmp_path, capsys):
    """A smoke record gated against a full-scale baseline is apples to
    oranges: trend must say so and exit 0, not produce a fake verdict —
    exactly what CI does with its smoke artifact."""
    full = _bench_record(5, ["tier2", "tier4"],
                         speedup={"tier4_over_tier2": 1.4})
    smoke = json.loads(json.dumps(full))
    smoke["scale"] = 0.05
    smoke["tiers"]["tier4"]["sim_mips"] = 0.01   # would fail if gated
    full_path = tmp_path / "full.json"
    full_path.write_text(json.dumps(full))
    smoke_path = tmp_path / "smoke.json"
    smoke_path.write_text(json.dumps(smoke))
    assert stats_main(["trend", str(smoke_path),
                       "--check-against", str(full_path)]) == 0
    out = capsys.readouterr().out
    assert "not comparable" in out
    # And a malformed record still fails loudly.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tool": "else"}))
    assert stats_main(["trend", str(bad)]) == 1


def test_runtool_exports_validating_trace_and_exact_metrics(tmp_path,
                                                            capsys):
    """The acceptance demo: a run with a ROLoad violation produces a
    Perfetto-loadable trace and a bit-exact metrics dump."""
    image = tmp_path / "prog.rex"
    image.write_bytes(link([assemble(SOURCE)]).to_bytes())
    trace_out = tmp_path / "trace.json"
    metrics_out = tmp_path / "metrics.json"
    code = run_main([str(image), "--trace-out", str(trace_out),
                     "--metrics-out", str(metrics_out)])
    assert code == 128 + 11  # SIGSEGV: the last ld.ro violates its key
    assert "[security]" in capsys.readouterr().out

    assert stats_main(["validate", str(trace_out)]) == 0
    trace = json.loads(trace_out.read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert "kernel.run" in names            # the run span
    assert "roload.violation" in names      # the security event
    assert "tiers" in names                 # residency counter samples

    metrics = json.loads(metrics_out.read_text())
    assert metrics["sys.mmu.roload_faults"] == 1
    assert metrics["sys.mmu.roload_checks"] == 4  # 3 good + 1 bad
    assert metrics["sys.timing.instructions"] > 0
    residency = metrics["sys.tier.residency"]
    assert residency["retired"] == metrics["sys.timing.instructions"]
    # The event-ring health counters ride along (overflow is visible).
    assert metrics["events.emitted"] >= len(trace["traceEvents"]) - 10
    assert metrics["events.dropped"] == 0
    # And so does the bounded security log's accounting.
    assert metrics["kernel.seclog.total"] == 1
    assert metrics["kernel.seclog.dropped"] == 0


def test_runtool_sample_interval_exports_timeseries(tmp_path, capsys):
    """--sample-interval arms the flight recorder: the metrics dump
    grows a 'timeseries' section and the trace grows flight-recorder
    counter tracks, and the file still validates."""
    image = tmp_path / "prog.rex"
    image.write_bytes(link([assemble(SOURCE)]).to_bytes())
    trace_out = tmp_path / "trace.json"
    metrics_out = tmp_path / "metrics.json"
    code = run_main([str(image), "--sample-interval", "5",
                     "--trace-out", str(trace_out),
                     "--metrics-out", str(metrics_out)])
    assert code == 128 + 11
    capsys.readouterr()

    metrics = json.loads(metrics_out.read_text())
    series = metrics["timeseries"]
    assert series["initial_interval"] == 5
    assert series["taken"] >= 2          # run start + mid/end samples
    instrets = [row["instret"] for row in series["samples"]]
    assert instrets == sorted(instrets)

    assert stats_main(["validate", str(trace_out)]) == 0
    trace = json.loads(trace_out.read_text())
    names = {event["name"] for event in trace["traceEvents"]}
    assert "sampled.tiers" in names
    assert "sampled.progress" in names


FIXTURES = __import__("pathlib").Path(__file__).parent / "fixtures"


def test_validate_accepts_campaign_fixture(capsys):
    """The committed good fixture — produced by a real roload-fuzz run
    — must pass the campaign schema check."""
    assert stats_main(["validate",
                       str(FIXTURES / "campaign_ok.json")]) == 0
    out = capsys.readouterr().out
    assert "campaign record schema v1" in out and "guided mode" in out


def test_validate_rejects_campaign_malformed_fixture(capsys):
    """The committed malformed fixture trips every class of problem:
    bad mode, non-numeric coverage, missing section, and — the security
    gate — escapes."""
    assert stats_main(["validate",
                       str(FIXTURES / "campaign_malformed.json")]) == 1
    err = capsys.readouterr().err
    assert "mode 'psychic'" in err
    assert "coverage.unique_signatures: not a number" in err
    assert "missing section 'detection'" in err
    assert "escapes.total is 2" in err
    assert "escapes.unexplained is 1" in err
    assert "not ok" in err


def test_summary_of_campaign_record(capsys):
    assert stats_main(["summary",
                       str(FIXTURES / "campaign_ok.json")]) == 0
    out = capsys.readouterr().out
    assert "roload-fuzz record" in out
    assert "unique signatures" in out
    assert "detection: rate" in out
    assert "ok: True" in out


def _campaign_variant(rate):
    record = json.loads((FIXTURES / "campaign_ok.json").read_text())
    record["detection"] = dict(record["detection"])
    record["detection"]["rate"] = rate
    return record


def test_trend_gates_campaign_detection_rate(tmp_path, capsys):
    """A comparable campaign record whose detection rate drops beyond
    the tolerance fails the trend gate, like a sim-MIPS regression."""
    def _write(name, rate):
        path = tmp_path / name
        path.write_text(json.dumps(_campaign_variant(rate)))
        return path

    a = _write("a.json", 1.00)
    b = _write("b.json", 0.90)    # inside the 0.15 tolerance
    c = _write("c.json", 0.60)    # a real detection regression
    assert stats_main(["trend", str(a), str(b)]) == 0
    assert "DETECTION REGRESSION" not in capsys.readouterr().err
    assert stats_main(["trend", str(a), str(b), str(c)]) == 1
    assert "c.json: DETECTION REGRESSION" in capsys.readouterr().err


def test_trend_mixes_bench_and_campaign_series(tmp_path, capsys):
    """One trend invocation can carry both artifact kinds — CI hands it
    BENCH_interp.json and BENCH_campaign.json together — and each
    subseries is gated on its own axis."""
    bench = _bench_record(5, ["tier2", "tier4"],
                          speedup={"tier4_over_tier2": 1.4})
    bench_path = tmp_path / "bench.json"
    bench_path.write_text(json.dumps(bench))
    camp_path = tmp_path / "camp.json"
    camp_path.write_text(json.dumps(_campaign_variant(1.0)))
    assert stats_main(["trend", str(bench_path), str(camp_path)]) == 0
    out = capsys.readouterr().out
    assert "det_rate" in out and "sim_mips" in out


def test_trend_skips_non_comparable_campaigns(tmp_path, capsys):
    """A smoke campaign (different budget) against a full campaign must
    not be gated."""
    def _write(name, rate, executions):
        record = _campaign_variant(rate)
        record["executions"] = executions
        path = tmp_path / name
        path.write_text(json.dumps(record))
        return path

    full = _write("full.json", 1.00, 10000)
    smoke = _write("smoke.json", 0.10, 500)   # would fail if gated
    assert stats_main(["trend", str(full), str(smoke)]) == 0
    assert "not comparable" in capsys.readouterr().out
