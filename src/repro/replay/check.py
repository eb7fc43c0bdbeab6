"""Determinism checker: replay a snapshot and prove it bit-identical.

The acceptance test of the whole replay subsystem (DESIGN.md §11): a run
snapshotted at instruction N, restored in a *fresh* machine, and replayed
must finish with the same architectural state hash and the same
architectural event sequence as the recording run — on **every**
interpreter tier. :func:`record_reference` produces the reference
(snapshot + journal + the recording run's digest); :func:`verify_replay`
replays it under each requested tier and compares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro import config as _config
from repro import obs as _obs
from repro.errors import ReplayError
from repro.obs import arch_sequence
from repro.replay.journal import Journal
from repro.replay.snapshot import Snapshot, restore, snapshot


@dataclass
class ReplayResult:
    """Digest of one run from the snapshot point to completion."""

    tier: str
    state_hash: str
    arch_events: "Tuple[tuple, ...]"
    status: str
    exit_code: "Optional[int]"
    instructions: int

    def matches(self, other: "ReplayResult") -> bool:
        return (self.state_hash == other.state_hash
                and self.arch_events == other.arch_events)


@dataclass
class Reference:
    """A recorded run: restore point, journal, and expected digest."""

    snapshot: Snapshot
    journal: Journal
    result: ReplayResult
    max_instructions: int = 200_000_000

    def save(self, snapshot_path, journal_path) -> None:
        self.snapshot.save(snapshot_path)
        self.journal.save(journal_path)


class ObsCapture:
    """Architectural-event capture around one run.

    Enables observability for the run and reads back only the events
    emitted inside it; the prior enabled/disabled state is put back on
    exit. A capture nested in a user's observability session leaves
    that session's buffered events and configuration in place.

    The replay checker and the fuzz executor both capture the
    tier-stable arch-event subsequence this way.
    """

    def __enter__(self):
        self._was_enabled = _obs.OBS.enabled
        _obs.enable()
        self._start = _obs.OBS.events.emitted
        return self

    def arch(self) -> "Tuple[tuple, ...]":
        return tuple(tuple(e) if isinstance(e, list) else e
                     for e in arch_sequence(
                         _obs.OBS.events.since(self._start)))

    def raw_arch(self) -> "list[dict]":
        """The captured architectural events as raw dicts (full
        payloads with names) — the fuzz coverage extractor's input."""
        return [e for e in _obs.OBS.events.since(self._start)
                if e["cat"] == "arch"]

    def __exit__(self, *exc):
        if not self._was_enabled:
            _obs.disable()
        return False


def _digest(kernel, process, events: "Tuple[tuple, ...]") -> ReplayResult:
    from repro.replay.snapshot import state_hash
    return ReplayResult(
        tier=kernel.system.core.tier, state_hash=state_hash(kernel),
        arch_events=events, status=process.status(),
        exit_code=process.exit_code,
        instructions=kernel.system.core.instret)


def record_reference(image, *, stop_after: int,
                     profile: str = "processor+kernel",
                     max_instructions: int = 200_000_000,
                     stdin: bytes = b"",
                     name: str = "a.out") -> Reference:
    """Run ``image``, snapshot at instruction ``stop_after``, then record
    the rest of the run (journal + digest) as the replay reference.

    The snapshot quiesces the machine, so the recording run continues
    from exactly the state a restored run starts in — the recording run
    *is* the first replay.
    """
    from repro.kernel.kernel import Kernel
    from repro.soc.system import build_system

    system = build_system(profile)
    kernel = Kernel(system)
    process = kernel.create_process(image, name=name)
    if stdin:
        process.stdin = stdin
    kernel.run(process, max_instructions=max_instructions,
               stop_after=stop_after)
    if not process.alive:
        raise ReplayError(
            f"cannot snapshot at instruction {stop_after}: the program "
            f"already finished ({process.status()})")
    snap = snapshot(kernel)
    journal = Journal.recording()
    kernel.journal = journal
    with ObsCapture() as window:
        kernel.run(process, max_instructions=max_instructions)
        events = window.arch()
    result = _digest(kernel, process, events=events)
    return Reference(snap, journal, result,
                     max_instructions=max_instructions)


def replay_tier(reference: Reference,
                tier: "Optional[str]" = None) -> ReplayResult:
    """Restore the reference snapshot in a fresh machine and replay it to
    completion under ``tier`` (``None`` = the ambient config)."""
    with _config.overrides(tier=tier):
        kernel, process = restore(reference.snapshot)
        if not process.alive:
            raise ReplayError("restored process is not runnable")
        kernel.journal = reference.journal.replay()
        with ObsCapture() as window:
            kernel.run(process,
                       max_instructions=reference.max_instructions)
            events = window.arch()
        kernel.journal.finish()
        return _digest(kernel, process, events=events)


@dataclass
class VerifyReport:
    """Cross-tier determinism verdict."""

    reference: ReplayResult
    runs: "List[ReplayResult]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(run.matches(self.reference) for run in self.runs)

    def describe(self) -> str:
        lines = [f"reference ({self.reference.tier}): "
                 f"hash={self.reference.state_hash[:16]}… "
                 f"events={len(self.reference.arch_events)} "
                 f"{self.reference.status}"]
        for run in self.runs:
            verdict = "OK" if run.matches(self.reference) else "DIVERGED"
            lines.append(f"replay {run.tier:>6}: "
                         f"hash={run.state_hash[:16]}… "
                         f"events={len(run.arch_events)} "
                         f"{run.status} [{verdict}]")
        return "\n".join(lines)


def verify_replay(reference: Reference,
                  tiers: "Tuple[str, ...]" = _config.TIERS) -> VerifyReport:
    """Replay the reference under every tier; all digests must match."""
    for tier in tiers:
        _config.check_tier(tier, ReplayError)
    report = VerifyReport(reference=reference.result)
    report.runs.extend(replay_tier(reference, tier) for tier in tiers)
    return report
