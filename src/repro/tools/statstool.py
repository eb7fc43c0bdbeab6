"""roload-stats: inspect, convert, and validate observability artifacts.

    roload-stats summary FILE          # metrics JSON or events JSONL
    roload-stats trace EVENTS.jsonl -o TRACE.json
    roload-stats validate FILE         # Chrome trace or bench record
    roload-stats top METRICS.json [--image IMG] [--annotate SYMBOL]
    roload-stats audit verify AUDIT.jsonl
    roload-stats trend BENCH.json ... [--check-against BASELINE.json]

``summary`` prints a human-readable digest of a metrics snapshot
(``--metrics-out``), a structured event dump (JSONL), or a
``roload-bench`` record (per-tier residency incl. tier 4).  ``trace``
converts a JSONL event dump into Chrome trace-event JSON that opens in
Perfetto / chrome://tracing.  ``validate`` checks a trace file against
the trace-event schema — or, when the file is a ``roload-bench``
record, checks it against the bench record schema (version 5) — and
exits 1 on any problem: the CI artifact check.

``top`` ranks the guest-attribution histogram (blocks/regions by
retired instructions per tier); with ``--image`` the unit heads resolve
to symbols, and ``--annotate SYMBOL`` prints that symbol's disassembly
with retire counts.  ``audit verify`` recomputes a saved audit trail's
hash chain and fails closed — exit 1 with the divergent record named —
on any tamper, truncation, or reorder.  ``trend`` compares a series of
bench and/or fuzz-campaign records (oldest first) and exits 1 when a
later comparable record regresses past the tolerance — sim-MIPS for
bench records, detection rate for campaign records.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from repro.errors import ReproError
from repro.obs import chrome_trace, load_jsonl, validate_trace, verify_file
from repro.obs.attribution import SymbolMap, annotate, flatten, format_top
from repro.tools.cli import add_config_flag, config_scope


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roload-stats",
        description="Inspect, convert, and validate observability "
                    "artifacts (metrics JSON, events JSONL, Chrome "
                    "traces).")
    add_config_flag(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    summary = sub.add_parser(
        "summary", help="digest a metrics snapshot or event dump")
    summary.add_argument("file", type=Path)

    trace = sub.add_parser(
        "trace", help="convert an events JSONL dump to Chrome trace JSON")
    trace.add_argument("events", type=Path)
    trace.add_argument("-o", "--out", type=Path, required=True)

    validate = sub.add_parser(
        "validate", help="check a Chrome trace file against the "
                         "trace-event schema, a roload-bench record "
                         "against the bench schema (v3-v5), a "
                         "roload-serve record (BENCH_serve.json, v1), "
                         "or a roload-fuzz campaign record "
                         "(BENCH_campaign.json, v1)")
    validate.add_argument("trace", type=Path)

    top = sub.add_parser(
        "top", help="rank guest code by retired instructions per tier "
                    "(from a metrics snapshot's attribution section)")
    top.add_argument("file", type=Path,
                     help="metrics JSON written with --metrics-out")
    top.add_argument("--image", type=Path, default=None, metavar="IMG",
                     help="REX image: resolve unit heads to symbols")
    top.add_argument("-n", "--limit", type=int, default=20,
                     help="rows to show (default 20)")
    top.add_argument("--annotate", default=None, metavar="SYMBOL",
                     help="print SYMBOL's disassembly annotated with "
                          "retire counts (requires --image)")

    audit = sub.add_parser(
        "audit", help="verify a saved security audit trail's hash chain")
    audit.add_argument("action", choices=("verify",))
    audit.add_argument("file", type=Path,
                       help="audit JSONL written with --audit-out")

    trend = sub.add_parser(
        "trend", help="compare a series of roload-bench records; fail "
                      "on a regression between comparable records")
    trend.add_argument("files", type=Path, nargs="+",
                       help="bench records, oldest first")
    trend.add_argument("--check-against", type=Path, default=None,
                       metavar="BASELINE.json",
                       help="also gate the newest record against this "
                            "baseline record")
    trend.add_argument("--tolerance", type=float, default=0.15,
                       help="allowed fractional sim-MIPS drop between "
                            "comparable records (default 0.15)")
    return parser


# Bench record schema (see repro.tools.benchtool): the versions the
# validator accepts, and what each sweep/residency must carry. Only v5
# records are committed; older vintages are rejected.
BENCH_SCHEMA_VERSIONS = (5,)

_SWEEP_REQUIRED = ("tier", "wall_seconds", "sim_mips",
                   "instructions", "cycles", "residency")

_RESIDENCY_REQUIRED = ("retired", "tier4_retired", "flat_regions_compiled")

# The tier every record must include (full and smoke/gate records alike
# always sweep it; the gate reads its sim_mips).
_TOP_TIER = "tier4"


def is_bench_record(data: dict) -> bool:
    return isinstance(data, dict) and data.get("tool") == "roload-bench"


# Serve bench record schema (see repro.serve.loadgen): what a
# BENCH_serve.json must carry for the CI artifact check.
SERVE_SCHEMA_VERSIONS = (1,)

_SERVE_SECTIONS = {
    "fork": ("cold_boot_ms", "fork_ms_mean", "fork_ms_p99", "speedup"),
    "throughput": ("sessions_per_sec", "steps_per_sec", "sim_mips"),
    "latency_ms": ("step_p50", "step_p99", "create_p50", "create_p99"),
    "determinism": ("groups", "divergent"),
}


def is_serve_record(data: dict) -> bool:
    return isinstance(data, dict) and data.get("tool") == "roload-serve"


def validate_serve_record(record: dict) -> "list[str]":
    """Schema-check one BENCH_serve.json record; returns problems."""
    problems = []
    version = record.get("schema_version")
    if version not in SERVE_SCHEMA_VERSIONS:
        problems.append(f"schema_version {version!r} not in "
                        f"{list(SERVE_SCHEMA_VERSIONS)}")
        return problems
    for key in ("params", "host"):
        if not isinstance(record.get(key), dict):
            problems.append(f"missing section {key!r}")
    for section, fields in _SERVE_SECTIONS.items():
        body = record.get(section)
        if not isinstance(body, dict):
            problems.append(f"missing section {section!r}")
            continue
        for field in fields:
            if not isinstance(body.get(field), (int, float)) \
                    or isinstance(body.get(field), bool):
                problems.append(f"{section}.{field}: not a number "
                                f"(got {body.get(field)!r})")
    determinism = record.get("determinism", {})
    divergent = determinism.get("divergent")
    if isinstance(divergent, int) and divergent > 0:
        problems.append(f"determinism.divergent is {divergent}: "
                        f"identical-workload sessions diverged")
    return problems


def _summarize_serve(record: dict) -> str:
    params = record.get("params", {})
    fork = record.get("fork", {})
    throughput = record.get("throughput", {})
    latency = record.get("latency_ms", {})
    determinism = record.get("determinism", {})
    return "\n".join([
        f"roload-serve record (schema "
        f"v{record.get('schema_version', '?')}): "
        f"{params.get('sessions', '?')} sessions across "
        f"{params.get('workers', '?')} workers, "
        f"workload {params.get('workload', '?')} "
        f"(scale {params.get('scale', '?')}, "
        f"tiers: {', '.join(params.get('tiers', []))})",
        f"  fork: {fork.get('fork_ms_mean', 0):.3f}ms mean / "
        f"{fork.get('fork_ms_p99', 0):.3f}ms p99 vs "
        f"{fork.get('cold_boot_ms', 0):.1f}ms cold boot "
        f"({fork.get('speedup', 0):.1f}x)",
        f"  throughput: {throughput.get('sessions_per_sec', 0):.1f} "
        f"sessions/s, {throughput.get('steps_per_sec', 0):.1f} steps/s, "
        f"{throughput.get('sim_mips', 0):.3f} sim-MIPS",
        f"  latency: step p50 {latency.get('step_p50', 0):.2f}ms / "
        f"p99 {latency.get('step_p99', 0):.2f}ms, create p99 "
        f"{latency.get('create_p99', 0):.2f}ms",
        f"  determinism: {determinism.get('groups', 0)} group(s), "
        f"{determinism.get('divergent', 0)} divergent",
    ])


# Fuzz campaign record schema (see repro.fuzz.campaign): what a
# BENCH_campaign.json must carry for the CI artifact check.
CAMPAIGN_SCHEMA_VERSIONS = (1,)

_CAMPAIGN_SECTIONS = {
    "coverage": ("unique_signatures", "corpus_size"),
    "detection": ("injections", "rate"),
    "crashes": ("total", "unique"),
    "escapes": ("total", "unique", "unexplained"),
}


def is_campaign_record(data: dict) -> bool:
    return isinstance(data, dict) and data.get("tool") == "roload-fuzz"


def validate_campaign_record(record: dict) -> "list[str]":
    """Schema-check one BENCH_campaign.json record; returns problems.

    Beyond shape, the security gate itself is enforced: a record with
    escapes, unexplained (non-replay-verified) escape findings, or
    ``ok: false`` is invalid — CI must not archive a campaign that
    failed its own acceptance criteria.
    """
    problems = []
    version = record.get("schema")
    if version not in CAMPAIGN_SCHEMA_VERSIONS:
        problems.append(f"schema {version!r} not in "
                        f"{list(CAMPAIGN_SCHEMA_VERSIONS)}")
        return problems
    for key in ("mode", "seed", "executions", "workers",
                "schedule_max"):
        if key not in record:
            problems.append(f"missing top-level key {key!r}")
    if record.get("mode") not in ("guided", "random", None):
        problems.append(f"mode {record.get('mode')!r} is neither "
                        f"'guided' nor 'random'")
    for section, fields in _CAMPAIGN_SECTIONS.items():
        body = record.get(section)
        if not isinstance(body, dict):
            problems.append(f"missing section {section!r}")
            continue
        for field in fields:
            if not isinstance(body.get(field), (int, float)) \
                    or isinstance(body.get(field), bool):
                problems.append(f"{section}.{field}: not a number "
                                f"(got {body.get(field)!r})")
    coverage = record.get("coverage")
    if isinstance(coverage, dict) \
            and not isinstance(coverage.get("curve"), list):
        problems.append("coverage.curve: not a list")
    detection = record.get("detection")
    if isinstance(detection, dict):
        rate = detection.get("rate")
        if isinstance(rate, (int, float)) and not 0 <= rate <= 1:
            problems.append(f"detection.rate {rate!r} outside [0, 1]")
        if not isinstance(detection.get("table"), dict):
            problems.append("detection.table: not an object")
    if not isinstance(record.get("findings"), list):
        problems.append("findings: not a list")
    versus = record.get("guided_vs_random")
    if versus is not None:
        if not isinstance(versus, dict):
            problems.append("guided_vs_random: not an object")
        elif not versus.get("guided_wins"):
            problems.append("guided_vs_random.guided_wins is false: "
                            "guided coverage did not beat random at "
                            "equal budget")
    escapes = record.get("escapes", {})
    if isinstance(escapes, dict):
        if isinstance(escapes.get("total"), int) and escapes["total"] > 0:
            problems.append(f"escapes.total is {escapes['total']}: "
                            f"injections escaped detection")
        unexplained = escapes.get("unexplained")
        if isinstance(unexplained, int) and unexplained > 0:
            problems.append(f"escapes.unexplained is {unexplained}: "
                            f"escape findings failed replay "
                            f"verification")
    if record.get("ok") is not True:
        problems.append("record marks itself not ok")
    return problems


def _summarize_campaign(record: dict) -> str:
    coverage = record.get("coverage", {})
    detection = record.get("detection", {})
    crashes = record.get("crashes", {})
    escapes = record.get("escapes", {})
    lines = [
        f"roload-fuzz record (schema v{record.get('schema', '?')}): "
        f"{record.get('mode', '?')} mode, "
        f"{record.get('executions', '?')} executions across "
        f"{record.get('workers', '?')} workers "
        f"(seed {record.get('seed', '?')}, schedule_max "
        f"{record.get('schedule_max', '?')})",
        f"  coverage: {coverage.get('unique_signatures', 0)} unique "
        f"signatures, corpus {coverage.get('corpus_size', 0)}",
        f"  detection: rate {detection.get('rate', 0):.3f} over "
        f"{detection.get('injections', 0)} injections "
        f"({detection.get('groups', 0)} behavior groups)",
        f"  crashes: {crashes.get('total', 0)} "
        f"({crashes.get('unique', 0)} unique); escapes: "
        f"{escapes.get('total', 0)} "
        f"({escapes.get('unexplained', 0)} unexplained)",
    ]
    versus = record.get("guided_vs_random")
    if isinstance(versus, dict):
        lines.append(
            f"  guided vs random: {versus.get('guided_unique', 0)} vs "
            f"{versus.get('random_unique', 0)} unique signatures at "
            f"{versus.get('budget', 0)} executions each "
            f"({'guided wins' if versus.get('guided_wins') else 'guided does NOT win'})")
    lines.append(f"  ok: {record.get('ok')}")
    return "\n".join(lines)


def validate_bench_record(record: dict) -> "list[str]":
    """Schema-check one BENCH_interp.json record; returns problems."""
    problems = []
    version = record.get("schema_version")
    if version not in BENCH_SCHEMA_VERSIONS:
        problems.append(
            f"schema_version {version!r} not in "
            f"{list(BENCH_SCHEMA_VERSIONS)}")
        return problems
    for key in ("scale", "benchmarks", "variants", "host", "tiers"):
        if key not in record:
            problems.append(f"missing top-level key {key!r}")
    tiers = record.get("tiers")
    if not isinstance(tiers, dict) or not tiers:
        problems.append("'tiers' must be a non-empty object")
        return problems
    if _TOP_TIER not in tiers:
        problems.append(f"schema v{version} record lacks the "
                        f"{_TOP_TIER!r} sweep")
    for name, sweep in tiers.items():
        for key in _SWEEP_REQUIRED:
            if key not in sweep:
                problems.append(f"tiers.{name}: missing {key!r}")
        residency = sweep.get("residency", {})
        for key in _RESIDENCY_REQUIRED:
            if key not in residency:
                problems.append(f"tiers.{name}.residency: missing {key!r}")
    for key, value in record.get("speedup", {}).items():
        if not isinstance(value, (int, float)):
            problems.append(f"speedup.{key}: not a number")
    return problems


def _summarize_events(events: "list[dict]") -> str:
    lines = [f"{len(events)} events"]
    by_cat = Counter(e.get("cat", "?") for e in events)
    lines.append("  by category: " + ", ".join(
        f"{cat}={count}" for cat, count in sorted(by_cat.items())))
    by_type = Counter(e.get("type", "?") for e in events)
    lines.append(f"  {'type':32s} {'count':>8s}")
    for type_, count in by_type.most_common():
        lines.append(f"  {type_:32s} {count:>8d}")
    spans = [e for e in events if "dur_us" in e]
    if spans:
        total = sum(e["dur_us"] for e in spans)
        lines.append(f"  span time: {total / 1e6:.4f}s across "
                     f"{len(spans)} spans")
    return "\n".join(lines)


def _summarize_metrics(snapshot: dict) -> str:
    lines = [f"{len(snapshot)} metric series"]
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, float):
            lines.append(f"  {name:40s} {value:.6f}")
        elif isinstance(value, dict):
            lines.append(f"  {name:40s} "
                         + json.dumps(value, sort_keys=True))
        else:
            lines.append(f"  {name:40s} {value}")
    return "\n".join(lines)


def _summarize_bench(record: dict) -> str:
    """A roload-bench record as a per-tier residency/perf table (every
    swept tier, tier 4 included)."""
    version = record.get("schema_version", "?")
    lines = [f"roload-bench record (schema v{version}): "
             f"scale {record.get('scale', '?')}, "
             f"benchmarks: {', '.join(record.get('benchmarks', []))}",
             f"  {'tier':<8} {'sim_mips':>10} {'retired':>14} "
             f"{'t4_retired':>12} {'flat_regions':>12}"]
    tiers = record.get("tiers", {})
    for name, sweep in tiers.items():
        residency = sweep.get("residency", {})
        lines.append(
            f"  {name:<8} {sweep.get('sim_mips', 0):>10} "
            f"{residency.get('retired', 0):>14,d} "
            f"{residency.get('tier4_retired', 0):>12,d} "
            f"{residency.get('flat_regions_compiled', 0):>12,d}")
    speedup = record.get("speedup", {})
    if speedup:
        lines.append("  speedups: " + ", ".join(
            f"{key}={value}x" for key, value in sorted(speedup.items())))
    return "\n".join(lines)


def cmd_summary(args) -> int:
    """Digest a file, auto-detecting its kind: a whole-file JSON object
    is a metrics snapshot, a bench record, or a Chrome trace; anything
    that only parses line by line is an events JSONL dump."""
    try:
        data = json.loads(args.file.read_text())
    except json.JSONDecodeError:
        data = None
    if isinstance(data, dict):
        if "traceEvents" in data:
            print(f"Chrome trace: {len(data['traceEvents'])} trace "
                  f"events (use 'validate' to schema-check)")
            return 0
        if is_bench_record(data):
            print(_summarize_bench(data))
            return 0
        if is_serve_record(data):
            print(_summarize_serve(data))
            return 0
        if is_campaign_record(data):
            print(_summarize_campaign(data))
            return 0
        if "ts" in data and "type" in data:   # a one-event JSONL dump
            print(_summarize_events([data]))
            return 0
        print(_summarize_metrics(data))
        return 0
    if isinstance(data, list):
        print(_summarize_events(data))
        return 0
    try:
        print(_summarize_events(load_jsonl(args.file)))
        return 0
    except json.JSONDecodeError:
        print(f"roload-stats: {args.file} is neither JSON nor JSONL",
              file=sys.stderr)
        return 1


def cmd_trace(args) -> int:
    events = load_jsonl(args.events)
    trace = chrome_trace(events)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"[trace: {len(trace['traceEvents'])} events in {args.out}]")
    return 0


def cmd_validate(args) -> int:
    try:
        trace = json.loads(args.trace.read_text())
    except json.JSONDecodeError as error:
        print(f"roload-stats: {args.trace}: not JSON ({error})",
              file=sys.stderr)
        return 1
    if is_bench_record(trace):
        problems = validate_bench_record(trace)
        if problems:
            for problem in problems:
                print(f"roload-stats: {args.trace}: {problem}",
                      file=sys.stderr)
            return 1
        version = trace["schema_version"]
        tiers = ", ".join(sorted(trace["tiers"]))
        print(f"{args.trace}: ok (bench record schema v{version}, "
              f"tiers: {tiers})")
        return 0
    if is_serve_record(trace):
        problems = validate_serve_record(trace)
        if problems:
            for problem in problems:
                print(f"roload-stats: {args.trace}: {problem}",
                      file=sys.stderr)
            return 1
        version = trace["schema_version"]
        determinism = trace.get("determinism", {})
        print(f"{args.trace}: ok (serve record schema v{version}, "
              f"{trace.get('params', {}).get('sessions', '?')} sessions, "
              f"{determinism.get('divergent', 0)} divergent)")
        return 0
    if is_campaign_record(trace):
        problems = validate_campaign_record(trace)
        if problems:
            for problem in problems:
                print(f"roload-stats: {args.trace}: {problem}",
                      file=sys.stderr)
            return 1
        coverage = trace.get("coverage", {})
        print(f"{args.trace}: ok (campaign record schema "
              f"v{trace['schema']}, {trace.get('mode', '?')} mode, "
              f"{trace.get('executions', '?')} executions, "
              f"{coverage.get('unique_signatures', 0)} unique "
              f"signatures)")
        return 0
    problems = validate_trace(trace)
    if problems:
        for problem in problems:
            print(f"roload-stats: {args.trace}: {problem}",
                  file=sys.stderr)
        return 1
    count = len(trace["traceEvents"])
    print(f"{args.trace}: ok ({count} trace events)")
    return 0


def cmd_top(args) -> int:
    data = json.loads(args.file.read_text())
    if not isinstance(data, dict):
        print(f"roload-stats: {args.file} is not a metrics snapshot",
              file=sys.stderr)
        return 1
    table = data.get("attribution")
    if not isinstance(table, dict):
        table = {}
    symbols = None
    image = None
    if args.image is not None:
        from repro.asm import Executable
        image = Executable.from_bytes(args.image.read_bytes())
        symbols = SymbolMap(image.symbols)
    if args.annotate is not None:
        if image is None:
            print("roload-stats: --annotate requires --image",
                  file=sys.stderr)
            return 2
        print(annotate(image, args.annotate, table))
        return 0
    print(format_top(flatten(table), symbols, limit=args.limit))
    return 0


def cmd_audit(args) -> int:
    problems = verify_file(args.file)
    if problems:
        for problem in problems:
            print(f"roload-stats: {args.file}: {problem}",
                  file=sys.stderr)
        print(f"roload-stats: {args.file}: audit chain verification "
              f"FAILED ({len(problems)} problem"
              f"{'s' if len(problems) != 1 else ''})", file=sys.stderr)
        return 1
    records = [json.loads(line)
               for line in args.file.read_text().splitlines() if line]
    head = records[-1]["sha256"]
    print(f"{args.file}: ok ({len(records)} records, "
          f"{len(records) - 2} events, head {head[:16]}…)")
    return 0


def _comparable(a: dict, b: dict) -> bool:
    """Two bench records measure the same thing: same scale, same
    benchmark set, same variants. Gating across different sweeps (a
    smoke record vs a full record) is meaningless."""
    return (a.get("scale") == b.get("scale")
            and a.get("benchmarks") == b.get("benchmarks")
            and a.get("variants") == b.get("variants"))


def _campaign_comparable(a: dict, b: dict) -> bool:
    """Two campaign records measure the same thing: same scheduling
    mode, same budget, same schedule depth."""
    return (a.get("mode") == b.get("mode")
            and a.get("executions") == b.get("executions")
            and a.get("schedule_max") == b.get("schedule_max"))


def _trend_campaigns(series, tolerance: float) -> bool:
    """Gate a series of campaign records on detection-rate drops;
    returns whether any comparable pair regressed."""
    print(f"  {'record':<36} {'schema':>6} {'mode':>8} "
          f"{'det_rate':>10} {'coverage':>10}")
    for path, record in series:
        print(f"  {path.name:<36} {record['schema']:>6} "
              f"{record.get('mode', '?'):>8} "
              f"{record['detection']['rate']:>10.3f} "
              f"{record['coverage']['unique_signatures']:>10}")
    failed = False
    for (prev_path, prev), (path, record) in zip(series, series[1:]):
        if not _campaign_comparable(prev, record):
            print(f"note: {prev_path.name} -> {path.name}: not "
                  f"comparable (different mode/executions/"
                  f"schedule_max); not gated")
            continue
        rate = record["detection"]["rate"]
        floor = prev["detection"]["rate"] - tolerance
        if rate < floor:
            failed = True
            print(f"roload-stats: {path.name}: DETECTION REGRESSION vs "
                  f"{prev_path.name}: rate {rate:.3f} < floor "
                  f"{floor:.3f} (reference "
                  f"{prev['detection']['rate']:.3f})", file=sys.stderr)
    return failed


def cmd_trend(args) -> int:
    from repro.tools.benchtool import baseline_mips, evaluate_gate
    series = []
    campaigns = []
    for path in args.files:
        record = json.loads(path.read_text())
        if is_campaign_record(record):
            problems = validate_campaign_record(record)
            if problems:
                for problem in problems:
                    print(f"roload-stats: {path}: {problem}",
                          file=sys.stderr)
                return 1
            campaigns.append((path, record))
            continue
        if not is_bench_record(record):
            print(f"roload-stats: {path}: neither a roload-bench nor a "
                  f"roload-fuzz record", file=sys.stderr)
            return 1
        problems = validate_bench_record(record)
        if problems:
            for problem in problems:
                print(f"roload-stats: {path}: {problem}", file=sys.stderr)
            return 1
        series.append((path, record))
    failed = False
    if campaigns:
        failed = _trend_campaigns(campaigns, args.tolerance)
    if not series:
        return 1 if failed else 0
    print(f"  {'record':<36} {'schema':>6} {'sim_mips':>10}")
    for path, record in series:
        print(f"  {path.name:<36} {record['schema_version']:>6} "
              f"{baseline_mips(record):>10.3f}")
    for (prev_path, prev), (path, record) in zip(series, series[1:]):
        if not _comparable(prev, record):
            print(f"note: {prev_path.name} -> {path.name}: not "
                  f"comparable (different scale/benchmarks/variants); "
                  f"not gated")
            continue
        ok, reference, floor = evaluate_gate(
            baseline_mips(record), prev, args.tolerance)
        if not ok:
            failed = True
            print(f"roload-stats: {path.name}: REGRESSION vs "
                  f"{prev_path.name}: {baseline_mips(record):.3f} MIPS "
                  f"< floor {floor:.3f} (reference {reference:.3f})",
                  file=sys.stderr)
    if args.check_against is not None:
        baseline = json.loads(args.check_against.read_text())
        path, newest = series[-1]
        if not _comparable(baseline, newest):
            print(f"note: {path.name} vs {args.check_against.name}: not "
                  f"comparable (different scale/benchmarks/variants); "
                  f"not gated")
        else:
            ok, reference, floor = evaluate_gate(
                baseline_mips(newest), baseline, args.tolerance)
            verdict = "ok" if ok else "REGRESSION"
            print(f"gate vs {args.check_against.name}: {verdict} "
                  f"({baseline_mips(newest):.3f} MIPS, floor "
                  f"{floor:.3f}, reference {reference:.3f})")
            failed = failed or not ok
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with config_scope(args):
            if args.command == "summary":
                return cmd_summary(args)
            if args.command == "trace":
                return cmd_trace(args)
            if args.command == "top":
                return cmd_top(args)
            if args.command == "audit":
                return cmd_audit(args)
            if args.command == "trend":
                return cmd_trend(args)
            return cmd_validate(args)
    except (ReproError, OSError) as error:
        print(f"roload-stats: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
