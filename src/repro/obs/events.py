"""Structured event stream: bounded ring buffer with a JSONL sink.

Every event is a plain dict with at least:

* ``ts``   — seconds since the stream's epoch (host ``perf_counter``),
* ``type`` — dotted event name (``jit.compile``, ``roload.violation``…),
* ``cat``  — ``"arch"`` for events fully determined by the simulated
  program's architectural execution (syscalls, faults, signals, MMU
  generation bumps) or ``"sim"`` for simulator-internal events (tier
  compiles, cache flushes, spans). The three-way differential suite
  asserts that the ``arch`` subsequence is bit-identical across
  interpreter tiers; the ``sim`` subsequence is allowed (expected) to
  differ.

plus free-form payload fields. The ring keeps the most recent
``capacity`` events; overwrites are counted in :attr:`dropped` so a
fault-storm workload shows *that* it overflowed rather than silently
forgetting its prefix.
"""

from __future__ import annotations

import json
import time
from collections import deque
from itertools import islice
from typing import Iterable, List, Optional

DEFAULT_CAPACITY = 65536


class EventStream:
    """Bounded in-memory event ring with optional write-through sink."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ValueError(f"event ring needs a positive capacity, "
                             f"got {capacity}")
        self.capacity = capacity
        self._ring: deque = deque(maxlen=capacity)
        self.epoch = time.perf_counter()
        self.emitted = 0
        self.dropped = 0
        self._sink = None   # file object for write-through JSONL

    # -- emission ------------------------------------------------------------

    def emit(self, type_: str, cat: str = "sim", **fields) -> dict:
        event = {"ts": time.perf_counter() - self.epoch,
                 "type": type_, "cat": cat}
        if fields:
            event.update(fields)
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self.emitted += 1
        if self._sink is not None:
            self._sink.write(json.dumps(event, sort_keys=True) + "\n")
        return event

    # -- reading -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self):
        return iter(self._ring)

    def events(self, type_prefix: "Optional[str]" = None,
               cat: "Optional[str]" = None) -> "List[dict]":
        """Snapshot of retained events, optionally filtered."""
        out = list(self._ring)
        if type_prefix is not None:
            out = [e for e in out if e["type"].startswith(type_prefix)]
        if cat is not None:
            out = [e for e in out if e["cat"] == cat]
        return out

    def since(self, emitted: int) -> "List[dict]":
        """The events emitted since :attr:`emitted` had the value
        ``emitted``, as far as the ring still holds them."""
        count = min(max(0, self.emitted - emitted), len(self._ring))
        return list(islice(reversed(self._ring), count))[::-1]

    def clear(self) -> None:
        self._ring.clear()
        self.emitted = 0
        self.dropped = 0
        self.epoch = time.perf_counter()

    # -- sinks ---------------------------------------------------------------

    def open_sink(self, path) -> None:
        """Write-through every future event as one JSON line."""
        self.close_sink()
        self._sink = open(path, "w", encoding="utf-8")

    def close_sink(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def dump_jsonl(self, path) -> int:
        """Write the retained ring to ``path``; returns the event count."""
        events = list(self._ring)
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event, sort_keys=True) + "\n")
        return len(events)


def load_jsonl(path) -> "List[dict]":
    """Read a JSONL event dump back into a list of event dicts."""
    events: "List[dict]" = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def arch_sequence(events: "Iterable[dict]") -> "List[tuple]":
    """The tier-comparable subsequence: architectural events with their
    payloads, wall timestamps stripped (those are host noise)."""
    out: "List[tuple]" = []
    for event in events:
        if event.get("cat") != "arch":
            continue
        payload = tuple(sorted((k, v) for k, v in event.items()
                               if k not in ("ts", "cat")))
        out.append(payload)
    return out
