"""Deterministic snapshot, record/replay, and fault injection.

DESIGN.md §11. Three layers, each usable alone:

* :mod:`repro.replay.snapshot` — versioned capture/restore of full
  machine state; derived microarchitectural state is dropped and
  rebuilt, proven equivalent by the differential tests.
* :mod:`repro.replay.journal` — record/replay of the nondeterministic
  boundary (getrandom entropy) plus divergence detection on every
  syscall result and signal-delivery point.
* :mod:`repro.replay.check` — the determinism checker (cross-tier
  bit-identical replay) behind ``roload-inject verify``.

:mod:`repro.replay.inject` adds the fault-injection primitive and the
§V verdict classifier; the fuzz executor (:mod:`repro.fuzz.executor`)
is the one loop that runs them, for ``roload-inject campaign`` and
``roload-fuzz`` alike.
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
from repro.replay.inject import apply_injection, classify_outcome
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
]
