"""Divergence points, crash dedup, and journal-verified minimization.

Every fuzz execution records a replay journal (syscall results and
signal-delivery points, each stamped with its retired-instruction
count). Comparing a run's journal against the victim's clean baseline
journal yields the **divergence point**: the retired-instruction count
of the first boundary event where the perturbed run left the baseline
behavior. Two crashes with the same (verdict, schedule classes,
divergence point) are the same bug — that triple is the dedup key.

Minimization shrinks a reproducer while preserving its dedup key, and
the survivor is **replay-verified**: re-executed under its own recorded
journal in replay mode, which fails fast on the first nondeterministic
boundary event. A reproducer that survives that is deterministic by
construction — there are no flaky entries in the campaign report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ReplayError
from repro.eval_model import RunResult
from repro.fuzz.corpus import FuzzInput


def journal_divergence(baseline: "List[dict]", run: "List[dict]",
                       fallback: "Optional[int]" = None) \
        -> "Optional[int]":
    """Retired-instruction count of the first journal entry where
    ``run`` departs from ``baseline`` (None = no divergence)."""

    def instret(entry: "Optional[dict]") -> "Optional[int]":
        if entry is None:
            return fallback
        return entry.get("instret", fallback)

    for base_entry, run_entry in zip(baseline, run):
        if base_entry != run_entry:
            return instret(run_entry)
    if len(run) > len(baseline):
        return instret(run[len(baseline)])
    if len(run) < len(baseline):
        return instret(baseline[len(run)])
    return None


def dedup_key(input: FuzzInput, result: RunResult) -> "Tuple":
    """Two findings with the same key are the same underlying bug."""
    return (result.verdict.value,
            tuple(sorted({e.kind for e in input.schedule})),
            result.divergence)


@dataclass
class Finding:
    """One deduplicated crash/escape group, minimized and verified."""

    verdict: str
    kinds: "Tuple[str, ...]"
    divergence: "Optional[int]"
    count: int                    # raw executions collapsed into this
    input: FuzzInput              # minimized reproducer
    result: RunResult             # its (re-executed) classification
    verified: bool                # survived journal replay-verification
    shrunk_from: int              # schedule length before minimization

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, "kinds": list(self.kinds),
                "divergence": self.divergence, "count": self.count,
                "verified": self.verified,
                "shrunk_from": self.shrunk_from,
                "input": self.input.to_dict(),
                "result": self.result.to_dict()}


def _candidates(input: FuzzInput) -> "List[FuzzInput]":
    """Shrinking steps, most aggressive first: drop schedule entries,
    then simplify the victim shape."""
    out = []
    if len(input.schedule) > 1:
        for idx in range(len(input.schedule)):
            schedule = input.schedule[:idx] + input.schedule[idx + 1:]
            out.append(FuzzInput(input.spec, schedule))
    spec = input.spec
    if spec.loop:
        out.append(FuzzInput(spec.replace(loop=False), input.schedule))
    if spec.arith > 0:
        out.append(FuzzInput(spec.replace(arith=0), input.schedule))
    if spec.reps > 1:
        out.append(FuzzInput(spec.replace(reps=max(1, spec.reps // 2)),
                             input.schedule))
        out.append(FuzzInput(spec.replace(reps=spec.reps - 1),
                             input.schedule))
    if spec.vcalls > 1:
        out.append(FuzzInput(spec.replace(vcalls=1), input.schedule))
    if spec.icalls > 1:
        out.append(FuzzInput(spec.replace(icalls=1), input.schedule))
    return [c.normalized() for c in out]


def minimize(executor, input: FuzzInput, reference: RunResult,
             max_steps: int = 64, *, tier: "Optional[str]" = None) \
        -> "Tuple[FuzzInput, RunResult]":
    """Greedy shrink of ``input`` preserving its dedup key.

    ``executor`` is any object with ``execute(input, tier=...) ->
    ExecutionOutcome`` (a :class:`repro.fuzz.executor.WarmVictimPool`);
    every candidate runs on ``tier`` (None = ambient config). Each
    accepted step restarts the candidate walk from the smaller input.
    """
    key = dedup_key(input, reference)
    best, best_result = input, reference
    steps = 0
    progress = True
    while progress and steps < max_steps:
        progress = False
        for candidate in _candidates(best):
            steps += 1
            if steps > max_steps:
                break
            try:
                outcome = executor.execute(candidate, tier=tier)
            except ReplayError:
                continue
            if dedup_key(candidate, outcome.result) == key:
                best, best_result = candidate, outcome.result
                progress = True
                break
    return best, best_result


def replay_verify(executor, input: FuzzInput, *,
                  tier: "Optional[str]" = None) -> "Tuple[bool, RunResult]":
    """Record one execution of ``input`` on ``tier``, then re-execute it
    under the recorded journal in replay mode. True iff the replay
    consumed the journal exactly — the reproducer is deterministic."""
    first = executor.execute(input, tier=tier)
    try:
        second = executor.execute(
            input, tier=tier, replay_journal=first.journal.replay())
    except ReplayError:
        return False, first.result
    ok = (second.replay_ok
          and second.result.verdict == first.result.verdict
          and second.signature == first.signature)
    return ok, first.result
