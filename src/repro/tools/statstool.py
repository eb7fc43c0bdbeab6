"""roload-stats: inspect, convert, and validate observability artifacts.

    roload-stats summary FILE          # metrics JSON or events JSONL
    roload-stats trace EVENTS.jsonl -o TRACE.json
    roload-stats validate TRACE.json   # Chrome trace-event schema
    roload-stats top METRICS.json [--image IMG] [--annotate SYMBOL]
    roload-stats audit verify AUDIT.jsonl

``summary`` prints a human-readable digest of a metrics snapshot
(``--metrics-out``) or a structured event dump (JSONL).  ``trace``
converts a JSONL event dump into Chrome trace-event JSON that opens in
Perfetto / chrome://tracing.  ``validate`` checks a trace file against
the trace-event schema and exits 1 on any problem: the CI artifact
check.

``top`` ranks the guest-attribution histogram (blocks/regions by
retired instructions per tier); with ``--image`` the unit heads resolve
to symbols, and ``--annotate SYMBOL`` prints that symbol's disassembly
with retire counts.  ``audit verify`` recomputes a saved audit trail's
hash chain and fails closed — exit 1 with the divergent record named —
on any tamper, truncation, or reorder.

Throughput is measured by ``bench/run.py`` (see ``bench/README.md``),
not here.
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
                         "trace-event schema")
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

    return parser


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


def cmd_summary(args) -> int:
    """Digest a file, auto-detecting its kind: a whole-file JSON object
    is a metrics snapshot or a Chrome trace; anything
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
            return cmd_validate(args)
    except (ReproError, OSError) as error:
        print(f"roload-stats: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
