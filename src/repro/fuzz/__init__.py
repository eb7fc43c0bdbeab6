"""Coverage-guided fuzzing + fault-injection campaigns (DESIGN.md §16).

Scales ``roload-inject campaign`` (:func:`stratified_campaign`, 60
fixed single-entry injections) by three orders of magnitude: mutated
victim shapes x mutated injection schedules, executed as copy-on-write
forks of warm snapshots across worker processes, guided by tier-stable
coverage signatures from the obs layer, with crashes/escapes
deduplicated by replay-verified divergence point and minimized through
the record/replay journal.

Public surface (also re-exported from :mod:`repro`):

* :class:`Campaign` / :func:`run_comparison` /
  :func:`stratified_campaign` — the drivers
* :class:`Corpus`, :class:`FuzzInput`, :class:`ScheduleEntry`,
  :class:`VictimSpec` — the input model
* :class:`Mutator` and friends — the mutation engine
* :class:`WarmVictimPool` — one-process execution (tests, triage)
* :class:`CoverageMap` / :func:`signature` — the feedback
"""

from repro.fuzz.campaign import (Campaign, CampaignReportV1,
                                 SCHEMA_VERSION, comparison_record,
                                 run_comparison, stratified_campaign)
from repro.fuzz.corpus import (Corpus, FRAC_SCALE, FUZZ_KINDS, FuzzInput,
                               ScheduleEntry)
from repro.fuzz.coverage import CoverageMap, final_fingerprint, signature
from repro.fuzz.executor import (BOOT, ExecutionOutcome, WarmVictimPool)
from repro.fuzz.minimizer import (Finding, dedup_key, journal_divergence,
                                  minimize, replay_verify)
from repro.fuzz.mutators import (HavocMutator, Mutator, ScheduleMutator,
                                 SpecMutator, TriggerMutator,
                                 default_mutators, random_input)
from repro.fuzz.scheduler import GuidedScheduler, RandomScheduler
from repro.fuzz.target import VictimSpec, build_image, build_victim

__all__ = [
    "BOOT", "FRAC_SCALE", "FUZZ_KINDS", "SCHEMA_VERSION",
    "Campaign", "CampaignReportV1", "run_comparison",
    "comparison_record", "stratified_campaign",
    "Corpus", "FuzzInput", "ScheduleEntry", "VictimSpec",
    "build_victim", "build_image",
    "Mutator", "SpecMutator", "TriggerMutator", "ScheduleMutator",
    "HavocMutator", "default_mutators", "random_input",
    "GuidedScheduler", "RandomScheduler",
    "WarmVictimPool", "ExecutionOutcome",
    "CoverageMap", "signature", "final_fingerprint",
    "Finding", "dedup_key", "journal_divergence", "minimize",
    "replay_verify",
]
