"""Campaign driver: batched fan-out, coverage curve, triage, record.

A :class:`Campaign` runs a fixed execution budget under one scheduling
policy. Inputs are proposed in batches, executed across ``workers``
forked processes (each holding its own warm-victim pool), and fed back
into the scheduler with their coverage novelty. After the budget is
spent, every non-detected, non-benign run (crashes and escapes) is
deduplicated by replay-verified divergence point, minimized through the
journal, and reported as a :class:`~repro.fuzz.minimizer.Finding`;
detected runs are grouped by the same key (no minimization — they are
the expected outcome, the groups just show behavioral diversity).

:func:`stratified_campaign` is the fixed-schedule campaign behind
``roload-inject campaign``: no scheduler, no triage, one warm victim,
and the §V detection table as its result.

:func:`run_comparison` runs guided and random arms at equal budget from
the same seed and reports both; :func:`comparison_record` folds them
into one record whose ``ok`` also requires guided coverage to win —
the coverage-growth claim ``roload-fuzz campaign --compare`` gates on.

A campaign is ``ok`` only when it injected something, nothing escaped,
every escape finding replay-verified, and the detection rate is at
least :data:`MIN_DETECTION_RATE`; ``roload-fuzz`` exits 1 otherwise.
"""

from __future__ import annotations

import multiprocessing
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import config as _config
from repro.errors import ReplayError
from repro.eval_model import (CampaignResult, DEFAULT_KINDS, RunResult,
                              Verdict)
from repro.fuzz.corpus import FRAC_SCALE, FuzzInput, ScheduleEntry
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.executor import WarmVictimPool, _worker_execute
from repro.fuzz.minimizer import (Finding, dedup_key, minimize,
                                  replay_verify)
from repro.fuzz.scheduler import GuidedScheduler, RandomScheduler
from repro.fuzz.target import unrolled_spec
from repro.obs import OBS as _OBS
from repro.replay.inject import KIND_VARIANTS

SCHEMA_VERSION = 1

# Floor on the detection rate (DetectionTable.rate) of any ok campaign.
# ROLoad discriminates every consumed injection in every recorded
# campaign (rate 1.0); a run that falls more than 0.15 below that —
# crashes count as misses — fails its own verdict.
MIN_DETECTION_RATE = 0.85

# Defaults of a Campaign whose caller (or roload-fuzz flag) leaves the
# setting out.
EXECUTIONS = 10_000     # execution budget
SEED = 1                # PRNG seed: same seed + same budget = same campaign
SCHEDULE_MAX = 3        # max injection-schedule entries per fuzz input
CORPUS_CAP = 256        # max corpus entries kept by the guided scheduler


@dataclass
class CampaignReportV1:
    """Everything a campaign produced, ready for its schema-v1 record."""

    mode: str
    seed: int
    executions: int
    workers: int
    schedule_max: int
    result: CampaignResult
    unique_signatures: int
    coverage_curve: "List[Tuple[int, int]]"
    corpus_size: int
    findings: "List[Finding]" = field(default_factory=list)
    detected_groups: "Dict[tuple, int]" = field(default_factory=dict)
    errors: int = 0
    tier: "Optional[str]" = None   # the tier the executions ran at

    @property
    def unexplained_escapes(self) -> int:
        """Escape findings that failed journal replay-verification —
        the only escapes the campaign cannot account for."""
        return sum(1 for f in self.findings
                   if f.verdict == "escaped" and not f.verified)

    @property
    def ok(self) -> bool:
        return (self.result.injections > 0
                and not self.result.escapes
                and self.unexplained_escapes == 0
                and self.result.table.rate() >= MIN_DETECTION_RATE)

    def to_record(self) -> dict:
        """The schema-v1 campaign record (``roload-fuzz --out``)."""
        table = self.result.table
        return {
            "schema": SCHEMA_VERSION,
            "tool": "roload-fuzz",
            "mode": self.mode,
            "seed": self.seed,
            "executions": self.executions,
            "workers": self.workers,
            "schedule_max": self.schedule_max,
            "tier": self.tier,
            "coverage": {
                "unique_signatures": self.unique_signatures,
                "corpus_size": self.corpus_size,
                "curve": [list(point) for point in self.coverage_curve],
            },
            "detection": {
                "injections": self.result.injections,
                "rate": table.rate(),
                "rates": table.rates(),
                "table": table.to_dict(),
                "baseline_exit": self.result.baseline_exit,
                "groups": len(self.detected_groups),
            },
            "crashes": {
                "total": len(self.result.crashes),
                "unique": sum(1 for f in self.findings
                              if f.verdict == "crashed"),
            },
            "escapes": {
                "total": len(self.result.escapes),
                "unique": sum(1 for f in self.findings
                              if f.verdict == "escaped"),
                "unexplained": self.unexplained_escapes,
            },
            "findings": [f.to_dict() for f in self.findings],
            "errors": self.errors,
            "ok": self.ok,
        }


class Campaign:
    """One fuzz/fault campaign over a fixed execution budget."""

    def __init__(self, *, executions: "Optional[int]" = None,
                 workers: "Optional[int]" = None, mode: str = "guided",
                 seed: "Optional[int]" = None,
                 schedule_max: "Optional[int]" = None,
                 corpus_cap: "Optional[int]" = None,
                 tier: "Optional[str]" = None,
                 profile: str = "processor+kernel",
                 curve_points: int = 200, log=None):
        cfg = _config.current()
        if mode not in ("guided", "random"):
            raise ReplayError(f"unknown campaign mode {mode!r}; choose "
                              f"guided or random")
        if tier is not None:
            _config.check_tier(tier)
        self.executions = EXECUTIONS if executions is None else executions
        self.workers = cfg.resolve_jobs(workers)
        self.mode = mode
        self.seed = SEED if seed is None else seed
        self.schedule_max = SCHEDULE_MAX if schedule_max is None \
            else schedule_max
        self.corpus_cap = CORPUS_CAP if corpus_cap is None else corpus_cap
        self.tier = tier
        self.profile = profile
        self.curve_points = max(1, curve_points)
        self.log = log

    # -- the main loop -------------------------------------------------------

    def run(self) -> CampaignReportV1:
        rng = random.Random(self.seed)
        if self.mode == "guided":
            from repro.fuzz.corpus import Corpus
            scheduler = GuidedScheduler(rng, self.schedule_max,
                                        corpus=Corpus(self.corpus_cap))
        else:
            scheduler = RandomScheduler(rng, self.schedule_max)
        coverage = CoverageMap()
        result = CampaignResult(baseline_exit=None, total_instructions=0)
        executed: "List[Tuple[FuzzInput, RunResult]]" = []
        curve: "List[Tuple[int, int]]" = []
        errors = 0
        tier = None
        batch = max(8, self.workers * 8)
        stride = max(1, self.executions // self.curve_points)
        next_mark = stride

        pool = None
        local = None
        if self.workers > 1:
            method = "fork" \
                if "fork" in multiprocessing.get_all_start_methods() \
                else "spawn"
            ctx = multiprocessing.get_context(method)
            pool = ctx.Pool(processes=self.workers)
        else:
            local = WarmVictimPool(profile=self.profile)
        try:
            done = 0
            while done < self.executions:
                count = min(batch, self.executions - done)
                inputs = [scheduler.propose() for _ in range(count)]
                payloads = [{"input": inp.to_dict(), "tier": self.tier,
                             "profile": self.profile} for inp in inputs]
                if pool is not None:
                    outs = pool.map(_worker_execute, payloads)
                else:
                    outs = [self._execute_local(local, p)
                            for p in payloads]
                for inp, out in zip(inputs, outs):
                    done += 1
                    if "error" in out:
                        errors += 1
                        scheduler.feedback(inp, None, False)
                        continue
                    run = RunResult.from_dict(out["result"])
                    tier = out["tier"]
                    novel = coverage.add(out["signature"])
                    scheduler.feedback(inp, out["signature"], novel)
                    result.records.append(run)
                    executed.append((inp, run))
                    if done >= next_mark:
                        curve.append((done, len(coverage)))
                        next_mark += stride
                if self.log is not None:
                    self.log(f"[{self.mode}] {done}/{self.executions} "
                             f"executions, {len(coverage)} unique "
                             f"signatures")
        finally:
            if pool is not None:
                pool.close()
                pool.join()
        if not curve or curve[-1][0] != done:
            curve.append((done, len(coverage)))

        findings, detected_groups = self._triage(executed, local)
        corpus_size = len(scheduler.corpus) \
            if isinstance(scheduler, GuidedScheduler) else 0
        report = CampaignReportV1(
            mode=self.mode, seed=self.seed, executions=done,
            workers=self.workers, schedule_max=self.schedule_max,
            result=result, unique_signatures=len(coverage),
            coverage_curve=curve, corpus_size=corpus_size,
            findings=findings, detected_groups=detected_groups,
            errors=errors, tier=tier)
        if _OBS.enabled and _OBS.audit is not None:
            _OBS.audit.append("fuzz.campaign", mode=self.mode,
                              seed=self.seed, executions=done,
                              unique_signatures=len(coverage),
                              escapes=len(result.escapes),
                              unexplained=report.unexplained_escapes,
                              ok=report.ok)
        return report

    @staticmethod
    def _execute_local(local: WarmVictimPool, payload: dict) -> dict:
        input = FuzzInput.from_dict(payload["input"])
        try:
            outcome = local.execute(input, tier=payload.get("tier"))
        except ReplayError as exc:
            return {"input": payload["input"], "error": str(exc)}
        return {"input": payload["input"],
                "result": outcome.result.to_dict(),
                "signature": outcome.signature, "tier": outcome.tier}

    # -- triage: dedup + minimize + verify -----------------------------------

    def _triage(self, executed, pool: "Optional[WarmVictimPool]" = None) \
            -> "Tuple[List[Finding], Dict[tuple, int]]":
        """Group every run by its replay divergence key; minimize and
        replay-verify one reproducer per crash/escape group, on the
        campaign's tier and in ``pool`` (the campaign's own warm pool
        when it ran in-process; None = a fresh one)."""
        crash_groups: "Dict[tuple, List[Tuple[FuzzInput, RunResult]]]" = {}
        detected_groups: "Dict[tuple, int]" = {}
        for inp, run in executed:
            key = dedup_key(inp, run)
            if run.verdict in (Verdict.CRASHED, Verdict.ESCAPED):
                crash_groups.setdefault(key, []).append((inp, run))
            elif run.verdict is Verdict.DETECTED:
                detected_groups[key] = detected_groups.get(key, 0) + 1

        findings: "List[Finding]" = []
        if not crash_groups:
            return findings, detected_groups
        if pool is None:
            pool = WarmVictimPool(profile=self.profile)
        for key in sorted(crash_groups, key=repr):
            members = crash_groups[key]
            inp, run = members[0]
            shrunk_from = len(inp.schedule)
            try:
                small, small_run = minimize(pool, inp, run, tier=self.tier)
                verified, verified_run = replay_verify(pool, small,
                                                       tier=self.tier)
            except ReplayError:
                small, small_run, verified = inp, run, False
            findings.append(Finding(
                verdict=run.verdict.value, kinds=key[1],
                divergence=run.divergence, count=len(members),
                input=small, result=small_run, verified=verified,
                shrunk_from=shrunk_from))
            if self.log is not None:
                self.log(f"finding: {run.verdict.value} kinds={key[1]} "
                         f"divergence={run.divergence} "
                         f"x{len(members)} verified={verified}")
        return findings, detected_groups


def stratified_campaign(*, reps: int = 8, points: int = 10,
                        kinds: "Tuple[str, ...]" = DEFAULT_KINDS,
                        profile: str = "processor+kernel",
                        log=None) -> CampaignResult:
    """``roload-inject campaign``: the §V detection table.

    A fixed list of single-entry inputs over the ``reps``-round default
    victim: ``points`` triggers stratified over the run, times every
    variant of every kind in ``kinds`` (6 injections per point with the
    default kinds), each one fork of the same warm snapshot.
    """
    for kind in kinds:
        if kind not in KIND_VARIANTS:
            raise ReplayError(f"unknown injection class {kind!r}; choose "
                              f"from {', '.join(DEFAULT_KINDS)}")
    spec = unrolled_spec(reps)
    pool = WarmVictimPool(profile=profile)
    baseline = pool.victim(spec).baseline
    report = CampaignResult(baseline_exit=baseline.exit_code,
                            total_instructions=baseline.total_instructions)
    for i in range(1, points + 1):
        frac = i * FRAC_SCALE // (points + 1)
        for kind in kinds:
            for variant in range(KIND_VARIANTS[kind]):
                entry = ScheduleEntry(kind, frac, variant)
                result = pool.execute(FuzzInput(spec, (entry,))).result
                # The detection table keeps the injection-record shape.
                record = replace(result, coverage=None, divergence=None)
                report.records.append(record)
                if _OBS.enabled:
                    _OBS.events.emit(
                        "inject.verdict", kind=kind,
                        trigger=record.trigger, target=record.target,
                        outcome=record.outcome)
                    if _OBS.audit is not None:
                        _OBS.audit.append(
                            "inject.verdict", kind=kind,
                            trigger=record.trigger, target=record.target,
                            outcome=record.outcome,
                            exit_code=record.exit_code,
                            signal=record.signal)
                if log is not None:
                    log(f"[{len(report.records):>3}] {kind:<14} "
                        f"@{record.trigger:<8} -> {record.outcome:<8} "
                        f"{record.detail}")
    if _OBS.enabled and _OBS.audit is not None:
        # The campaign summary is the record auditors care about: the
        # detection table's bottom line, sealed into the chain.
        _OBS.audit.append("inject.campaign",
                          injections=report.injections,
                          escapes=len(report.escapes), ok=report.ok,
                          baseline_exit=report.baseline_exit,
                          total_instructions=report.total_instructions)
    return report


def run_comparison(*, executions: "Optional[int]" = None,
                   workers: "Optional[int]" = None,
                   seed: "Optional[int]" = None,
                   schedule_max: "Optional[int]" = None,
                   tier: "Optional[str]" = None,
                   profile: str = "processor+kernel", log=None) \
        -> "Tuple[CampaignReportV1, CampaignReportV1]":
    """Guided and random arms at equal budget from the same seed."""
    guided = Campaign(executions=executions, workers=workers,
                      mode="guided", seed=seed,
                      schedule_max=schedule_max, tier=tier,
                      profile=profile, log=log).run()
    rand = Campaign(executions=executions, workers=workers,
                    mode="random", seed=seed,
                    schedule_max=schedule_max, tier=tier,
                    profile=profile, log=log).run()
    return guided, rand


def comparison_record(guided: CampaignReportV1,
                      rand: CampaignReportV1) -> dict:
    """The guided record, annotated with the control-arm comparison."""
    record = guided.to_record()
    record["guided_vs_random"] = {
        "budget": rand.executions,
        "guided_unique": guided.unique_signatures,
        "random_unique": rand.unique_signatures,
        "guided_wins": guided.unique_signatures > rand.unique_signatures,
        "random_escapes": len(rand.result.escapes),
        "random_unexplained": rand.unexplained_escapes,
    }
    record["ok"] = bool(guided.ok and rand.ok
                        and record["guided_vs_random"]["guided_wins"])
    return record
