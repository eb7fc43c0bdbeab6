"""Typed evaluation model: one schema for every security campaign.

PR 5's injection harness, the coverage-guided fuzzer, and the
``roload-stats`` validators each grew an ad-hoc verdict dict; this
module is the single typed surface they all speak now:

* :class:`Verdict` — the four-way outcome taxonomy of the §V detection
  argument (``detected`` / ``benign`` / ``crashed`` / ``escaped``).
* :class:`RunResult` — one perturbed execution, classified.
* :class:`DetectionTable` — verdict counts per injection class, with
  the §V-style text rendering and per-class detection rates.
* :class:`CampaignResult` — a whole campaign: baseline facts plus the
  classified runs, rendering and serializing through the table.

The serialized shapes (:meth:`RunResult.to_dict` /
:meth:`CampaignResult.to_dict`) are the ones the committed detection
tables and campaign records were written in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ReproError


class Verdict(str, Enum):
    """Outcome of one perturbed run (DESIGN.md §11 taxonomy)."""

    DETECTED = "detected"   # ROLoad-discriminated SIGSEGV: defense fired
    BENIGN = "benign"       # corruption never consumed
    CRASHED = "crashed"     # died of a non-ROLoad signal: still fail-stop
    ESCAPED = "escaped"     # consumed without detection: the only failure

    def __str__(self) -> str:  # prints as the bare word in f-strings
        return self.value

    @property
    def fail_stop(self) -> bool:
        """Did the machine stop before attacker code could profit?"""
        return self is not Verdict.ESCAPED


# Canonical column order — the old inject.OUTCOMES tuple.
VERDICTS: "Tuple[str, ...]" = tuple(v.value for v in Verdict)

# The PR 5 injection classes; the fuzzer extends these (see repro.fuzz).
DEFAULT_KINDS: "Tuple[str, ...]" = ("pte-key", "pte-writable",
                                    "allowlist-ptr")


@dataclass
class RunResult:
    """One injection/fuzz execution and its classified outcome."""

    kind: str
    trigger: int                        # retired-instruction count at
                                        # (first) injection
    target: str                         # what was perturbed
    verdict: Verdict
    detail: str = ""
    exit_code: "Optional[int]" = None
    signal: "Optional[int]" = None
    coverage: "Optional[str]" = None    # coverage signature (fuzz runs)
    divergence: "Optional[int]" = None  # replay-verified divergence
                                        # point, in retired instructions

    def __post_init__(self):
        self.verdict = Verdict(self.verdict)

    @property
    def outcome(self) -> str:
        """The verdict as its bare string — the pre-typed spelling."""
        return self.verdict.value

    def to_dict(self) -> dict:
        """The historical ``InjectionRecord`` dict shape, bit-for-bit;
        fuzz-only fields are appended only when present."""
        out = {"kind": self.kind, "trigger": self.trigger,
               "target": self.target, "outcome": self.verdict.value,
               "detail": self.detail, "exit_code": self.exit_code,
               "signal": self.signal}
        if self.coverage is not None:
            out["coverage"] = self.coverage
        if self.divergence is not None:
            out["divergence"] = self.divergence
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunResult":
        return cls(kind=data["kind"], trigger=data["trigger"],
                   target=data["target"],
                   verdict=Verdict(data.get("outcome")
                                   or data.get("verdict")),
                   detail=data.get("detail", ""),
                   exit_code=data.get("exit_code"),
                   signal=data.get("signal"),
                   coverage=data.get("coverage"),
                   divergence=data.get("divergence"))


@dataclass
class DetectionTable:
    """Verdict counts per injection class.

    ``kinds`` fixes the row order for the known classes; classes that
    only appear in the data (composite fuzz schedules like
    ``pte-key+wild-ptr``) render after them, sorted.
    """

    counts: "Dict[str, Dict[str, int]]" = field(default_factory=dict)
    kinds: "Tuple[str, ...]" = DEFAULT_KINDS

    @classmethod
    def from_results(cls, results: "Iterable[RunResult]",
                     kinds: "Tuple[str, ...]" = DEFAULT_KINDS) \
            -> "DetectionTable":
        table = cls(kinds=kinds)
        for result in results:
            table.add(result)
        return table

    def add(self, result: RunResult) -> None:
        row = self.counts.setdefault(
            result.kind, {outcome: 0 for outcome in VERDICTS})
        row[result.verdict.value] += 1

    # -- derived views -------------------------------------------------------

    def row_order(self) -> "List[str]":
        known = [kind for kind in self.kinds if kind in self.counts]
        extra = sorted(kind for kind in self.counts
                       if kind not in self.kinds)
        return known + extra

    @property
    def total(self) -> int:
        return sum(sum(row.values()) for row in self.counts.values())

    def count(self, verdict) -> int:
        name = Verdict(verdict).value
        return sum(row.get(name, 0) for row in self.counts.values())

    def rate(self) -> float:
        """Detection rate: of the injections that *were* consumed
        (non-benign), the fraction ROLoad discriminated. Crashes are
        fail-stop but score as misses here — the rate measures the
        paper's discrimination claim, not mere robustness."""
        consumed = self.total - self.count(Verdict.BENIGN)
        if consumed <= 0:
            return 1.0
        return self.count(Verdict.DETECTED) / consumed

    def rates(self) -> "Dict[str, float]":
        """Per-class detection rate, same definition as :meth:`rate`."""
        out = {}
        for kind in self.row_order():
            row = self.counts[kind]
            consumed = sum(row.values()) - row.get("benign", 0)
            out[kind] = (row.get("detected", 0) / consumed) \
                if consumed > 0 else 1.0
        return out

    def format(self) -> str:
        """The §V-style text table (identical to the PR 5 rendering)."""
        header = (f"{'class':<16} {'injected':>8} "
                  + " ".join(f"{o:>8}" for o in VERDICTS))
        lines = [header, "-" * len(header)]
        for kind in self.row_order():
            row = self.counts[kind]
            total = sum(row.values())
            lines.append(f"{kind:<16} {total:>8} "
                         + " ".join(f"{row[o]:>8}" for o in VERDICTS))
        total_row = {o: sum(self.counts.get(k, {}).get(o, 0)
                            for k in self.counts) for o in VERDICTS}
        lines.append("-" * len(header))
        lines.append(f"{'total':<16} {self.total:>8} "
                     + " ".join(f"{total_row[o]:>8}" for o in VERDICTS))
        return "\n".join(lines)

    def to_dict(self) -> "Dict[str, Dict[str, int]]":
        """The plain counts mapping (the old ``counts()`` shape)."""
        return {kind: dict(row) for kind, row in self.counts.items()}

    @classmethod
    def from_dict(cls, counts: "Dict[str, Dict[str, int]]",
                  kinds: "Tuple[str, ...]" = DEFAULT_KINDS) \
            -> "DetectionTable":
        table = cls(kinds=kinds)
        for kind, row in counts.items():
            table.counts[kind] = {outcome: int(row.get(outcome, 0))
                                  for outcome in VERDICTS}
        return table


@dataclass
class CampaignResult:
    """A classified campaign: the baseline facts plus every run.

    This is the PR 5 ``CampaignReport`` promoted to the shared model —
    same field names, same methods, same serialized shape — so the
    injection harness and the fuzzer publish interchangeable results.
    """

    baseline_exit: "Optional[int]"
    total_instructions: int
    records: "List[RunResult]" = field(default_factory=list)
    kinds: "Tuple[str, ...]" = DEFAULT_KINDS

    @property
    def table(self) -> DetectionTable:
        return DetectionTable.from_results(self.records, kinds=self.kinds)

    def counts(self) -> "Dict[str, Dict[str, int]]":
        return self.table.to_dict()

    @property
    def injections(self) -> int:
        return len(self.records)

    @property
    def escapes(self) -> "List[RunResult]":
        return [r for r in self.records if r.verdict is Verdict.ESCAPED]

    @property
    def crashes(self) -> "List[RunResult]":
        return [r for r in self.records if r.verdict is Verdict.CRASHED]

    @property
    def ok(self) -> bool:
        return self.injections > 0 and not self.escapes

    def format_table(self) -> str:
        return self.table.format()

    def to_dict(self) -> dict:
        return {"baseline_exit": self.baseline_exit,
                "total_instructions": self.total_instructions,
                "injections": self.injections,
                "table": self.counts(),
                "escapes": len(self.escapes),
                "ok": self.ok,
                "records": [r.to_dict() for r in self.records]}

    def save_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignResult":
        if "records" not in data:
            raise ReproError("not a campaign result: no 'records'")
        return cls(baseline_exit=data.get("baseline_exit"),
                   total_instructions=data.get("total_instructions", 0),
                   records=[RunResult.from_dict(r)
                            for r in data["records"]])
