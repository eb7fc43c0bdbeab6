"""Tamper-evident security audit trail: a hash-chained JSONL log.

Security-relevant events — ROLoad violations (key-mismatch and
writability faults), guest-initiated code-cache invalidations (SMC
stores, ``fence.i``), and fault-injection campaign verdicts — are
appended as records that each carry the SHA-256 of their canonical
predecessor, starting from a fixed genesis record and closed by a seal
record that fixes the event count. ``roload-stats audit verify``
recomputes the whole chain and fails closed: a single-byte tamper
breaks a record's own hash, a dropped or truncated record breaks the
``prev`` linkage (or leaves the chain unsealed), and a reorder breaks
both the linkage and the sequence numbers — always at a *nameable*
record.

Chain content is deterministic: records carry the guest ``instret`` at
which the event occurred, never host timestamps, so two runs of the
same program under different interpreter tiers produce bit-identical
chains (the cross-tier differential suite asserts exactly that for a
ROLoad fault raised inside a compiled region). Hashing uses canonical
JSON — sorted keys, compact separators — so the hash does not depend
on dict insertion order.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

from repro.errors import AuditError

FORMAT_VERSION = 1

# The genesis record's predecessor: a chain has to start somewhere.
ZERO_HASH = "0" * 64


def _canonical(record: dict) -> bytes:
    return json.dumps(record, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def record_hash(record: dict) -> str:
    """SHA-256 of a record's canonical JSON, its own hash excluded."""
    body = {key: value for key, value in record.items() if key != "sha256"}
    return hashlib.sha256(_canonical(body)).hexdigest()


class AuditTrail:
    """An append-only hash chain of security events.

    Created by :func:`repro.obs.enable` when ``REPRO_AUDIT=1`` (or
    ``--audit-out`` is given); the instrumentation sites in
    ``kernel/fault.py``, ``cpu/core.py`` and ``replay/inject.py`` append
    through :data:`repro.obs.OBS`. All cold paths: a record is only ever
    written when a violation, flush, or verdict actually happened.
    """

    __slots__ = ("records", "sealed")

    def __init__(self):
        self.records: "List[dict]" = []
        self.sealed = False
        genesis = {"seq": 0, "type": "audit.genesis",
                   "version": FORMAT_VERSION, "prev": ZERO_HASH}
        genesis["sha256"] = record_hash(genesis)
        self.records.append(genesis)

    @property
    def head(self) -> str:
        """The chain head: the newest record's hash."""
        return self.records[-1]["sha256"]

    @property
    def events(self) -> int:
        """Event records appended so far (genesis and seal excluded)."""
        return len(self.records) - 1 - (1 if self.sealed else 0)

    def append(self, type_: str, **fields) -> dict:
        """Append one event record, chained to the current head.

        ``fields`` must be JSON-serializable and deterministic (guest
        state like ``instret``, never host time) so chains stay
        comparable across interpreter tiers.
        """
        if self.sealed:
            raise AuditError("audit trail is sealed; no further records")
        record = {"seq": len(self.records), "type": type_,
                  "prev": self.head}
        record.update(fields)
        record["sha256"] = record_hash(record)
        self.records.append(record)
        return record

    def seal(self) -> dict:
        """Close the chain with a head record fixing the event count.

        Idempotent; after sealing, :meth:`append` raises. Verification
        treats an unsealed saved chain as truncated."""
        if self.sealed:
            return self.records[-1]
        record = self.append("audit.seal", events=len(self.records) - 1)
        self.sealed = True
        return record

    def save(self, path) -> int:
        """Write the chain as canonical JSONL; returns the record count."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(_canonical(record).decode("utf-8") + "\n")
        return len(self.records)


def sealed_view(trail: AuditTrail) -> "List[dict]":
    """A verifiable copy of a chain *without* sealing the live trail.

    Used by the serve ``query`` export: the returned record list ends in
    a seal computed over the current head, so :func:`verify_chain`
    accepts it, while the session's own chain stays open and keeps
    accumulating events. Each later export is a longer, independently
    verifiable prefix-extension of the earlier ones.
    """
    records = list(trail.records)
    if trail.sealed:
        return records
    seal = {"seq": len(records), "type": "audit.seal",
            "prev": records[-1]["sha256"], "events": len(records) - 1}
    seal["sha256"] = record_hash(seal)
    return records + [seal]


def verify_chain(records: "List[dict]") -> "List[str]":
    """Recompute and check the whole chain; returns problems (empty =
    intact). Every problem names the divergent record."""
    problems: "List[str]" = []
    if not records:
        return ["audit log is empty"]
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            problems.append(f"record {index}: not a JSON object")
            continue
        where = (f"record {index} ({record.get('type', '?')}, "
                 f"seq {record.get('seq', '?')})")
        for key in ("seq", "type", "prev", "sha256"):
            if key not in record:
                problems.append(f"{where}: missing {key!r}")
        if record.get("seq") != index:
            problems.append(
                f"{where}: sequence number does not match position "
                f"{index} (records reordered or dropped)")
        stored = record.get("sha256")
        if isinstance(stored, str) and record_hash(record) != stored:
            problems.append(f"{where}: content does not hash to its "
                            f"stored sha256 (tampered)")
        if index == 0:
            if record.get("type") != "audit.genesis":
                problems.append(f"{where}: chain does not start with "
                                f"audit.genesis")
            if record.get("prev") != ZERO_HASH:
                problems.append(f"{where}: genesis prev is not the "
                                f"zero hash")
        elif record.get("prev") != records[index - 1].get("sha256"):
            problems.append(
                f"{where}: prev does not match record {index - 1}'s "
                f"sha256 (chain broken)")
        if record.get("type") == "audit.seal" and index != len(records) - 1:
            problems.append(f"{where}: seal record is not last "
                            f"(records appended after sealing)")
    last = records[-1]
    if not isinstance(last, dict) or last.get("type") != "audit.seal":
        problems.append(f"record {len(records) - 1}: chain is not "
                        f"sealed (truncated?)")
    elif last.get("events") != len(records) - 2:
        problems.append(
            f"record {len(records) - 1} (audit.seal): seal counts "
            f"{last.get('events')} events but the chain carries "
            f"{len(records) - 2} (truncated?)")
    return problems


def verify_file(path) -> "List[str]":
    """Verify a saved chain, failing closed on unparseable lines."""
    records: "List[dict]" = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as error:
                    return [f"line {lineno}: not valid JSON ({error}) "
                            f"— tampered or corrupt"]
    except OSError as error:
        return [f"cannot read audit log: {error}"]
    return verify_chain(records)
