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
