"""TLB model with the ROLoad *key* field in every entry.

The paper: "We also add the newly introduced key field ... to each TLB
entry." Rocket's TLBs are small and fully associative; we model a
fully-associative, true-LRU TLB (32 entries by default, per Table II).
Only the *contents* matter for correctness — capacity and replacement
matter for the timing model (TLB miss => page-table walk).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass
class TLBEntry:
    """Cached translation: physical page number, permissions, and key."""

    ppn: int
    readable: bool
    writable: bool
    executable: bool
    user: bool
    key: int


class TLB:
    """Fully-associative, LRU translation lookaside buffer."""

    def __init__(self, entries: int = 32, name: str = "tlb"):
        if entries <= 0:
            raise ConfigError(f"TLB needs a positive entry count, got "
                              f"{entries}")
        self.capacity = entries
        self.name = name
        self._entries: "OrderedDict[int, TLBEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        # Shadow maps (vpn-keyed dicts) whose entries are only valid
        # while the TLB entry they were derived from stays resident and
        # unreplaced. The core registers its D-side page memos here, its
        # only D-side page cache (Core._jload_memo/_jstore_memo, read by
        # tier 1 and the flat core's native runner); purging on insert/
        # evict/flush/flush_page is what makes "memo hit" imply "this
        # exact entry is still live", whatever the MMU generation.
        self.shadows: "tuple[dict, ...]" = ()

    def lookup(self, vpn: int) -> Optional[TLBEntry]:
        """Look up a virtual page number; updates LRU order and stats."""
        entry = self._entries.get(vpn)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(vpn)
        self.hits += 1
        return entry

    def probe_hit(self, vpn: int) -> Optional[TLBEntry]:
        """Fast-path lookup: counts the hit (and refreshes LRU order) when
        the entry is resident, but records *nothing* on a miss — the
        caller falls back to the full translate path, whose own
        :meth:`lookup` then counts the miss exactly once."""
        entry = self._entries.get(vpn)
        if entry is not None:
            self._entries.move_to_end(vpn)
            self.hits += 1
        return entry

    def insert(self, vpn: int, entry: TLBEntry) -> None:
        """Install a translation, evicting the LRU entry if full."""
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
        self._entries[vpn] = entry
        if len(self._entries) > self.capacity:
            victim, _ = self._entries.popitem(last=False)
            for shadow in self.shadows:
                shadow.pop(victim, None)
        for shadow in self.shadows:
            shadow.pop(vpn, None)

    def flush(self) -> None:
        """Flush everything (sfence.vma with no arguments)."""
        self._entries.clear()
        self.flushes += 1
        for shadow in self.shadows:
            shadow.clear()

    def flush_page(self, vpn: int) -> None:
        """Flush one translation (sfence.vma with an address)."""
        self._entries.pop(vpn, None)
        for shadow in self.shadows:
            shadow.pop(vpn, None)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entry_map(self) -> "OrderedDict[int, TLBEntry]":
        """The live vpn -> entry map (identity-stable, LRU-ordered).

        Bound by the interpreter fast paths, which inline
        :meth:`probe_hit`: get + move_to_end + hits on residency, nothing
        on a miss.
        """
        return self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.flushes = 0
