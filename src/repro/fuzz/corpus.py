"""Fuzz inputs and the coverage-keyed corpus.

A fuzz input is a :class:`~repro.fuzz.target.VictimSpec` (what program
runs) plus an injection *schedule* (when and how the machine is
perturbed mid-run). Schedule triggers are stored as fractions of the
victim's baseline run length (``frac`` / :data:`FRAC_SCALE`) rather
than absolute instruction counts, so the same schedule transplants
meaningfully onto a mutated victim of a different length.

The corpus keeps one entry per novel coverage signature, with an
AFL-style energy that decays as a seed is re-picked — fresh behavior
gets mutation budget, exhausted seeds fade without being forgotten.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ReplayError
from repro.eval_model import DEFAULT_KINDS
from repro.fuzz.target import VictimSpec

# Injection classes the fuzzer schedules: the roload-inject trio plus
# the fuzz-only wild-ptr (aims an allowlist pointer at unmapped memory,
# so the non-ROLoad crash path is exercised at scale too).
FUZZ_KINDS = DEFAULT_KINDS + ("wild-ptr",)

# Trigger-position resolution: frac in [0, FRAC_SCALE) maps linearly
# onto the baseline run between boot and exit.
FRAC_SCALE = 4096

# Per-kind variant space (page x flip / pointer choices); mutation
# draws variants below this and the primitives fold them modulo their
# actual option count.
VARIANT_SPAN = 6


@dataclass(frozen=True)
class ScheduleEntry:
    """One perturbation: inject ``kind``/``variant`` when the run
    reaches ``frac/FRAC_SCALE`` of its baseline length."""

    kind: str
    frac: int
    variant: int = 0

    def normalized(self) -> "ScheduleEntry":
        if self.kind not in FUZZ_KINDS:
            raise ReplayError(f"unknown injection kind {self.kind!r}; "
                              f"choose from {', '.join(FUZZ_KINDS)}")
        return ScheduleEntry(kind=self.kind,
                             frac=min(max(self.frac, 0), FRAC_SCALE - 1),
                             variant=self.variant % VARIANT_SPAN)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "frac": self.frac,
                "variant": self.variant}

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleEntry":
        return cls(kind=data["kind"], frac=data["frac"],
                   variant=data.get("variant", 0)).normalized()


@dataclass(frozen=True)
class FuzzInput:
    """One complete campaign input: victim shape + injection schedule.

    An empty schedule is legal (a pure baseline run — it contributes
    the victim's clean signature to the coverage map).
    """

    spec: VictimSpec
    schedule: "Tuple[ScheduleEntry, ...]" = ()

    def normalized(self) -> "FuzzInput":
        return FuzzInput(spec=self.spec.normalized(),
                         schedule=tuple(e.normalized()
                                        for e in self.schedule))

    def key(self) -> "Tuple":
        return (self.spec.key(),
                tuple((e.kind, e.frac, e.variant) for e in self.schedule))

    @property
    def kind(self) -> str:
        """The composite class label used in detection tables."""
        if not self.schedule:
            return "baseline"
        return "+".join(e.kind for e in self.schedule)

    def to_dict(self) -> dict:
        return {"spec": self.spec.to_dict(),
                "schedule": [e.to_dict() for e in self.schedule]}

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzInput":
        return cls(spec=VictimSpec.from_dict(data["spec"]),
                   schedule=tuple(ScheduleEntry.from_dict(e)
                                  for e in data.get("schedule", ())))


@dataclass
class CorpusEntry:
    input: FuzzInput
    signature: str
    energy: float = 1.0
    picks: int = 0


class Corpus:
    """Novelty-keyed seed store with energy-weighted selection."""

    DECAY = 0.90          # energy multiplier per pick
    FLOOR = 0.05          # entries never fully starve

    def __init__(self, cap: int = 256):
        self.cap = max(1, cap)
        self.entries: "List[CorpusEntry]" = []
        self._sigs = set()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def add(self, input: FuzzInput, signature: str) -> bool:
        """Admit ``input`` if its signature is novel; evict the lowest-
        energy entry once over cap. Returns whether it was admitted."""
        if signature in self._sigs:
            return False
        self._sigs.add(signature)
        self.entries.append(CorpusEntry(input=input, signature=signature))
        if len(self.entries) > self.cap:
            victim = min(range(len(self.entries)),
                         key=lambda i: (self.entries[i].energy, i))
            dropped = self.entries.pop(victim)
            self._sigs.discard(dropped.signature)
        return True

    def pick(self, rng) -> "Optional[CorpusEntry]":
        """Energy-weighted draw; picking decays the entry's energy."""
        if not self.entries:
            return None
        total = sum(max(e.energy, self.FLOOR) for e in self.entries)
        point = rng.random() * total
        chosen = self.entries[-1]
        for entry in self.entries:
            point -= max(entry.energy, self.FLOOR)
            if point <= 0:
                chosen = entry
                break
        chosen.picks += 1
        chosen.energy = max(chosen.energy * self.DECAY, self.FLOOR)
        return chosen
