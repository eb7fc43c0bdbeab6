"""roload-fuzz: coverage-guided fault/fuzz campaigns.

    roload-fuzz campaign [--executions N] [--workers W]
                         [--mode guided|random] [--compare]
                         [--seed S] [--schedule-max K] [--tier T]
                         [--profile P] [--out RECORD.json]
                         [--quiet]

Runs a fuzz/fault campaign over the parameterized victim family:
mutated victim shapes x mutated injection schedules, executed as
copy-on-write forks of warm snapshots across worker processes, guided
by tier-stable coverage signatures. ``--compare`` runs a random control
arm at the same budget and annotates the record with the
guided-vs-random coverage comparison.

Exit 1 if the campaign is not ok — any escape, any unexplained
(non-replay-verified) escape, zero injections, a detection rate below
``repro.fuzz.campaign.MIN_DETECTION_RATE``, or (with ``--compare``)
guided coverage not strictly above random. The exit code is the gate:
CI runs no separate record check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.tools.cli import (add_config_flag, add_obs_flags, config_scope,
                             enable_obs, obs_requested, write_obs_outputs)


def build_parser() -> argparse.ArgumentParser:
    from repro.fuzz import campaign as campaign_mod
    parser = argparse.ArgumentParser(
        prog="roload-fuzz",
        description="Coverage-guided fault/fuzz campaigns over warm "
                    "snapshot forks.")
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser(
        "campaign", help="run a fuzz/fault campaign and print the "
                         "coverage + detection summary")
    campaign.add_argument("--executions", type=int, default=None,
                          help=f"execution budget "
                               f"(default {campaign_mod.EXECUTIONS})")
    campaign.add_argument("--workers", type=int, default=None,
                          help="worker processes (default: REPRO_JOBS)")
    campaign.add_argument("--mode", choices=("guided", "random"),
                          default="guided",
                          help="scheduling policy (default guided)")
    campaign.add_argument("--compare", action="store_true",
                          help="also run the random control arm at equal "
                               "budget; the record gains the "
                               "guided_vs_random section and ok requires "
                               "guided to win")
    campaign.add_argument("--seed", type=int, default=None,
                          help=f"campaign PRNG seed "
                               f"(default {campaign_mod.SEED})")
    campaign.add_argument("--schedule-max", type=int, default=None,
                          help=f"max injection-schedule entries per input "
                               f"(default {campaign_mod.SCHEDULE_MAX})")
    campaign.add_argument("--tier", default=None,
                          help="pin an interpreter tier for every "
                               "execution (default: ambient config)")
    campaign.add_argument("--profile", default="processor+kernel",
                          help="system profile (§V-B)")
    campaign.add_argument("--out", type=Path, default=None,
                          metavar="RECORD.json",
                          help="write the schema-v1 campaign record")
    campaign.add_argument("--quiet", action="store_true",
                          help="suppress the per-batch progress lines")
    add_obs_flags(campaign, what="the campaign")
    add_config_flag(campaign)
    return parser


def _summarize(report, label: str = "") -> None:
    tag = f"[{label}] " if label else ""
    table = report.result.table
    print(f"{tag}{report.executions} executions, "
          f"{report.unique_signatures} unique signatures, "
          f"corpus {report.corpus_size}, errors {report.errors}")
    print(f"{tag}detection rate {table.rate():.3f} over "
          f"{report.result.injections} injections; "
          f"crashes {len(report.result.crashes)}, "
          f"escapes {len(report.result.escapes)} "
          f"({report.unexplained_escapes} unexplained)")
    for finding in report.findings:
        print(f"{tag}finding: {finding.verdict} "
              f"kinds={','.join(finding.kinds)} "
              f"divergence={finding.divergence} x{finding.count} "
              f"verified={finding.verified}")


def _campaign(args) -> int:
    from repro.fuzz import Campaign, comparison_record, run_comparison
    observing = obs_requested(args)
    if observing:
        enable_obs(args)
    log = None if args.quiet else \
        (lambda line: print(line, file=sys.stderr))

    if args.compare:
        guided, rand = run_comparison(
            executions=args.executions, workers=args.workers,
            seed=args.seed, schedule_max=args.schedule_max,
            tier=args.tier, profile=args.profile, log=log)
        record = comparison_record(guided, rand)
        _summarize(guided, "guided")
        _summarize(rand, "random")
        versus = record["guided_vs_random"]
        print(f"guided {versus['guided_unique']} vs random "
              f"{versus['random_unique']} unique signatures at "
              f"{versus['budget']} executions each -> "
              f"{'guided wins' if versus['guided_wins'] else 'GUIDED DOES NOT WIN'}")
    else:
        report = Campaign(executions=args.executions,
                          workers=args.workers, mode=args.mode,
                          seed=args.seed,
                          schedule_max=args.schedule_max,
                          tier=args.tier, profile=args.profile,
                          log=log).run()
        record = report.to_record()
        _summarize(report, args.mode)

    print(report_detection_table(record))
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True)
                            + "\n")
        print(f"[campaign record in {args.out}]")
    if observing:
        write_obs_outputs(args)
    if not record["ok"]:
        print("roload-fuzz: campaign not ok (escapes, unexplained "
              "findings, detection rate below the floor, or guided did "
              "not beat random)", file=sys.stderr)
        return 1
    return 0


def report_detection_table(record: dict) -> str:
    """Render the record's per-kind detection rates as the §V table."""
    from repro.eval_model import DetectionTable
    return DetectionTable.from_dict(record["detection"]["table"]).format()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with config_scope(args):
            return _campaign(args)
    except ReproError as error:
        print(f"roload-fuzz: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
