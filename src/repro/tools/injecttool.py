"""roload-inject: fault injection and replay-determinism verification.

    roload-inject campaign [--points N] [--reps K] [--kinds a,b,...]
                           [--profile P] [--table OUT.json]
    roload-inject verify   [--stop-after N] [--reps K] [--profile P]
                           [--tiers slow,tier1,tier4]
                           [--snapshot-out S.snap] [--journal-out J.json]

``campaign`` forks a hardened victim from its warm snapshot once per
injection, perturbs PTE key bits / page writability / allowlist
pointers at stratified instruction counts, runs each corruption to
completion through the fuzz executor, and prints a §V-style detection
table. Exit 1 if any injection escapes detection.

``verify`` is the replay determinism gate: record a reference run with
a mid-run snapshot, then restore and replay it under each interpreter
tier, asserting bit-identical final architectural state hashes and
identical architectural event sequences. Exit 1 on any divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.config import TIERS
from repro.errors import ReproError
from repro.tools.cli import (add_config_flag, add_obs_flags, config_scope,
                             enable_obs, obs_requested, write_obs_outputs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roload-inject",
        description="Fault injection + replay determinism over snapshots.")
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser(
        "campaign", help="run the fault-injection campaign and print the "
                         "detection table")
    campaign.add_argument("--points", type=int, default=10,
                          help="stratified snapshot points (default 10; "
                               "6 injections per point)")
    campaign.add_argument("--reps", type=int, default=8,
                          help="vcall+icall rounds in the unrolled victim "
                               "(1 to 14)")
    campaign.add_argument("--kinds", default=None,
                          help="comma-separated injection classes "
                               "(default: all of pte-key, pte-writable, "
                               "allowlist-ptr)")
    campaign.add_argument("--profile", default="processor+kernel",
                          help="system profile (§V-B)")
    campaign.add_argument("--table", type=Path, default=None,
                          metavar="OUT.json",
                          help="also write the detection table (with raw "
                               "per-injection records) as JSON")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress the per-injection log lines")
    add_obs_flags(campaign, what="the campaign")
    add_config_flag(campaign)

    verify = sub.add_parser(
        "verify", help="record a reference run and replay it on every "
                       "tier; fail on any divergence")
    verify.add_argument("--stop-after", type=int, default=200,
                        help="snapshot point, in retired instructions "
                             "(default 200)")
    verify.add_argument("--reps", type=int, default=8,
                        help="vcall+icall rounds in the reference victim "
                             "(1 to 14)")
    verify.add_argument("--profile", default="processor+kernel",
                        help="system profile (§V-B)")
    verify.add_argument("--tiers",
                        default=",".join(TIERS),
                        help="comma-separated tiers to replay under")
    verify.add_argument("--snapshot-out", type=Path, default=None,
                        metavar="S.snap",
                        help="also save the reference snapshot")
    verify.add_argument("--journal-out", type=Path, default=None,
                        metavar="J.json",
                        help="also save the reference journal")
    add_config_flag(verify)
    return parser


def _campaign(args) -> int:
    from repro.eval_model import DEFAULT_KINDS
    from repro.fuzz.campaign import stratified_campaign
    observing = obs_requested(args)
    if observing:
        enable_obs(args)
    kinds = tuple(k for k in (args.kinds or "").split(",") if k) \
        or DEFAULT_KINDS
    log = None if args.quiet else \
        (lambda line: print(line, file=sys.stderr))
    report = stratified_campaign(reps=args.reps, points=args.points,
                                 kinds=kinds, profile=args.profile, log=log)
    print(report.format_table())
    print(f"\n{report.injections} injections over "
          f"{report.total_instructions} instructions "
          f"(baseline exit {report.baseline_exit}); "
          f"escapes: {len(report.escapes)}")
    if args.table is not None:
        report.save_json(args.table)
        print(f"[detection table in {args.table}]")
    if observing:
        write_obs_outputs(args)
    if not report.ok:
        for record in report.escapes:
            print(f"ESCAPE: {record.kind} @ {record.trigger}: "
                  f"{record.target} — {record.detail}", file=sys.stderr)
        return 1
    return 0


def _verify(args) -> int:
    from repro.fuzz.target import build_image, unrolled_spec
    from repro.replay import record_reference, verify_replay
    tiers = tuple(t for t in args.tiers.split(",") if t)
    image = build_image(unrolled_spec(args.reps))
    reference = record_reference(image, stop_after=args.stop_after,
                                 profile=args.profile)
    report = verify_replay(reference, tiers=tiers)
    print(report.describe())
    if args.snapshot_out is not None:
        reference.snapshot.save(args.snapshot_out)
        print(f"[snapshot in {args.snapshot_out}]")
    if args.journal_out is not None:
        reference.journal.save(args.journal_out)
        print(f"[journal in {args.journal_out}]")
    if not report.ok:
        print("roload-inject: replay diverged between tiers",
              file=sys.stderr)
        return 1
    ran = dict.fromkeys(run.tier for run in report.runs)
    print(f"replay deterministic across {', '.join(ran)}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with config_scope(args):
            if args.command == "campaign":
                return _campaign(args)
            return _verify(args)
    except ReproError as error:
        print(f"roload-inject: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
