"""Fuzz execution: warm-snapshot pools + CoW forks + classification.

One execution = fork a session copy-on-write from the victim's warm
boot snapshot (the serve-pool trick: ``restore(snap, cow=True)`` shares
every untouched frame), run to each schedule trigger with the kernel's
instruction-precise ``stop_after``, apply the injection primitive in
place, run to completion under a recording journal and an arch-event
capture, then classify with the shared §V verdict taxonomy and hash the
coverage signature.

The pool is per-process: worker processes (forked by the campaign) each
lazily warm the victims they are handed and LRU-cache them by spec, so
a 10k-execution campaign pays the image build + baseline run once per
distinct victim shape per worker, and ~a CoW restore per execution.
The baseline run also publishes the code it decoded and lowered onto
its victim (:class:`~repro.cpu.translations.Translations`), and every
execution's fork adopts it instead of re-translating: injections are
data writes, which keep translations (DESIGN.md §8).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro import config as _config
from repro.cpu.translations import Translations, publish
from repro.errors import ReplayError
from repro.eval_model import RunResult
from repro.fuzz.corpus import FRAC_SCALE, FuzzInput
from repro.fuzz.coverage import coarse_events, final_fingerprint, \
    signature
from repro.fuzz.minimizer import journal_divergence
from repro.fuzz.target import VictimSpec, build_image
from repro.replay.check import ObsCapture
from repro.replay.inject import apply_injection, classify_outcome
from repro.replay.journal import Journal
from repro.replay.snapshot import restore, snapshot

# Instructions retired before the warm snapshot is captured. Must stay
# below the first keyed load of the smallest victim so every
# inter-keyed-load interval remains injectable.
BOOT = 8


@dataclass
class Baseline:
    """The clean run of one victim shape, from its warm snapshot."""

    total_instructions: int
    exit_code: int
    events: "Tuple[tuple, ...]"
    journal_entries: "List[dict]"
    signature: str


@dataclass
class WarmVictim:
    image: object
    snapshot: object
    baseline: Baseline
    translations: "Optional[Translations]" = None


@dataclass
class ExecutionOutcome:
    """Everything one execution produced."""

    input: FuzzInput
    result: RunResult       # verdict + coverage + divergence, typed
    signature: str
    journal: Journal
    replay_ok: bool         # False iff a replay-mode journal diverged
    checks_at: "Tuple[int, ...]"
    tier: str               # the tier that ran it (Core.tier)


class WarmVictimPool:
    """Spec-keyed warm snapshots with the baselines to judge against."""

    def __init__(self, profile: str = "processor+kernel",
                 max_instructions: int = 5_000_000, cache: int = 64):
        self.profile = profile
        self.max_instructions = max_instructions
        self.cache = max(1, cache)
        self._victims: "OrderedDict[tuple, WarmVictim]" = OrderedDict()

    def victim(self, spec: VictimSpec) -> WarmVictim:
        key = spec.normalized().key()
        hit = self._victims.get(key)
        if hit is not None:
            self._victims.move_to_end(key)
            return hit
        entry = self._warm(spec.normalized())
        self._victims[key] = entry
        if len(self._victims) > self.cache:
            self._victims.popitem(last=False)
        return entry

    def _warm(self, spec: VictimSpec) -> WarmVictim:
        from repro.kernel.kernel import Kernel
        from repro.soc.system import build_system
        image = build_image(spec)
        kernel = Kernel(build_system(self.profile))
        process = kernel.create_process(image, name="fuzz-victim")
        kernel.run(process, max_instructions=self.max_instructions,
                   stop_after=BOOT)
        if not process.alive:
            raise ReplayError(f"victim {spec} finished during boot")
        snap = snapshot(kernel)

        # Clean baseline, itself a CoW fork of the snapshot — so every
        # later execution is judged against a run that started from
        # exactly the state it starts from.
        kernel, process = restore(snap, cow=True)
        journal = Journal.recording()
        kernel.journal = journal
        seclog_before = kernel.security_log.total
        with ObsCapture() as window:
            kernel.run(process, max_instructions=self.max_instructions)
            events = coarse_events(window.raw_arch())
        if process.state.value != "exited":
            raise ReplayError(f"baseline victim {spec} did not exit "
                              f"cleanly: {process.status()}")
        fingerprint = final_fingerprint(kernel, process, seclog_before,
                                        baseline_exit=process.exit_code)
        baseline = Baseline(
            total_instructions=kernel.system.core.instret,
            exit_code=process.exit_code, events=events,
            journal_entries=journal.entries,
            signature=signature(events, (), fingerprint))
        translations = publish(None, kernel.system.core, snap)
        return WarmVictim(image=image, snapshot=snap, baseline=baseline,
                          translations=translations)

    # -- execution -----------------------------------------------------------

    def triggers(self, input: FuzzInput) -> "List[int]":
        """Absolute retired-instruction trigger for each schedule entry
        (schedule order is by frac; the baseline fixes the scale)."""
        total = self.victim(input.spec).baseline.total_instructions
        span = max(1, total - BOOT - 2)
        return [min(total - 1, BOOT + 1 + entry.frac * span // FRAC_SCALE)
                for entry in sorted(input.schedule,
                                    key=lambda e: e.frac)]

    def execute(self, input: FuzzInput, *,
                tier: "Optional[str]" = None,
                replay_journal: "Optional[Journal]" = None) \
            -> ExecutionOutcome:
        """One classified execution of ``input``.

        ``tier`` pins an interpreter tier (None = ambient config); the
        signature is tier-stable either way. ``replay_journal`` runs in
        journal-replay mode for reproducer verification.
        """
        input = input.normalized()
        victim = self.victim(input.spec)
        baseline = victim.baseline
        schedule = sorted(input.schedule, key=lambda e: e.frac)
        triggers = self.triggers(input)

        with _config.overrides(tier=tier):
            kernel, process = restore(victim.snapshot, cow=True,
                                      translations=victim.translations)
            journal = replay_journal if replay_journal is not None \
                else Journal.recording()
            kernel.journal = journal
            seclog_before = kernel.security_log.total
            targets: "List[str]" = []
            checks_at: "List[int]" = []
            replay_ok = True
            with ObsCapture() as window:
                try:
                    for entry, trigger in zip(schedule, triggers):
                        gap = trigger - kernel.system.core.instret
                        if process.alive and gap > 0:
                            kernel.run(
                                process,
                                max_instructions=self.max_instructions,
                                stop_after=gap)
                        if not process.alive:
                            break
                        targets.append(apply_injection(
                            kernel, process, victim.image,
                            entry.kind, entry.variant))
                        checks_at.append(
                            kernel.system.mmu.stats.roload_checks)
                    if process.alive:
                        kernel.run(process,
                                   max_instructions=self.max_instructions)
                    journal.finish()
                except ReplayError:
                    if replay_journal is None:
                        raise
                    replay_ok = False
                events = coarse_events(window.raw_arch())
            verdict, detail = classify_outcome(
                kernel, process, victim.image, baseline.exit_code,
                seclog_before)
            fingerprint = final_fingerprint(
                kernel, process, seclog_before,
                baseline_exit=baseline.exit_code)
            final_instret = kernel.system.core.instret
            ran_tier = kernel.system.core.tier

        sig = signature(events, tuple(checks_at), fingerprint)
        divergence = journal_divergence(baseline.journal_entries,
                                        journal.entries,
                                        fallback=final_instret)
        result = RunResult(
            kind=input.kind,
            trigger=triggers[0] if triggers else 0,
            target="; ".join(targets) if targets else "none",
            verdict=verdict, detail=detail,
            exit_code=process.exit_code,
            signal=process.signal.number if process.signal else None,
            coverage=sig, divergence=divergence)
        return ExecutionOutcome(input=input, result=result,
                                signature=sig, journal=journal,
                                replay_ok=replay_ok,
                                checks_at=tuple(checks_at), tier=ran_tier)


# -- the campaign's face -----------------------------------------------------
# The campaign runs its payloads in its own pool, or maps them over a
# process Pool (the eval/measure idiom) whose workers each keep one
# module-global pool, so warm victims survive across the many map calls
# of a campaign.

_WORKER_POOL: "Optional[WarmVictimPool]" = None


def _worker_execute(payload: dict,
                    pool: "Optional[WarmVictimPool]" = None) -> dict:
    """One execution in wire form: ``payload`` names the input, tier and
    profile; the result or error comes back as a dict. Runs in ``pool``,
    else in this process's worker pool."""
    global _WORKER_POOL
    if pool is None:
        if _WORKER_POOL is None:
            _WORKER_POOL = WarmVictimPool(profile=payload["profile"])
        pool = _WORKER_POOL
    input = FuzzInput.from_dict(payload["input"])
    try:
        outcome = pool.execute(input, tier=payload["tier"])
    except ReplayError as exc:
        return {"input": payload["input"], "error": str(exc)}
    return {"input": payload["input"],
            "result": outcome.result.to_dict(),
            "signature": outcome.signature, "tier": outcome.tier}
