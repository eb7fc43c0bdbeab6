"""Deterministic snapshot, record/replay, and fault injection.

DESIGN.md §11. Three layers, each usable alone:

* :mod:`repro.replay.snapshot` — versioned capture/restore of full
  machine state; derived microarchitectural state is dropped and
  rebuilt, proven equivalent by the differential tests.
* :mod:`repro.replay.journal` — record/replay of the nondeterministic
  boundary (getrandom entropy) plus divergence detection on every
  syscall result and signal-delivery point.
* :mod:`repro.replay.check` / :mod:`repro.replay.inject` — the
  determinism checker (cross-tier bit-identical replay) and the
  fault-injection harness behind the ``roload-inject`` tool.
"""

from repro.replay.check import (
    ObsCapture,
    Reference,
    ReplayResult,
    VerifyReport,
    record_reference,
    replay_tier,
    verify_replay,
)
from repro.replay.inject import (
    apply_injection,
    build_inject_image,
    build_inject_victim,
    classify_outcome,
    run_campaign,
)
from repro.replay.journal import Journal
from repro.replay.snapshot import (
    FORMAT_VERSION,
    Snapshot,
    quiesce,
    restore,
    snapshot,
    state_hash,
)

__all__ = [
    "FORMAT_VERSION",
    "Snapshot", "snapshot", "restore", "state_hash", "quiesce",
    "Journal",
    "ObsCapture",
    "Reference", "ReplayResult", "VerifyReport",
    "record_reference", "replay_tier", "verify_replay",
    "apply_injection", "classify_outcome",
    "build_inject_victim", "build_inject_image", "run_campaign",
]
