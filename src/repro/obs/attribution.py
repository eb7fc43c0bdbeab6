"""Guest perf attribution: per-guest-PC retire histograms per tier.

The interpreter already attributes every retired instruction to a tier
(DESIGN.md §10); this module attributes them to *guest code* as well,
at the grain the tiers naturally batch at: tier 1 records per replayed
block, tier 2 per compiled block, tier 4 per region, each keyed by
the unit's start pc. The recording site is the same batch point that
flushes the deferred counters, so the per-instruction hot paths stay
untouched; a disabled attribution is one ``is not None`` test at those
batch points. Tier 0 — a core on the per-instruction slow path
(``REPRO_TIER=slow``) — is attributed by :class:`SlowPathTap`, a
retire hook installed only while observing: ``Core.step`` itself holds
no observability reference (the overhead suite asserts on its source)
and an unobserved slow run pays nothing.

``roload-stats top`` turns the exported histogram into a hot-symbol
report by resolving block/region start pcs through the executable's
symbol table (:class:`SymbolMap`), and ``--annotate`` renders an
annotated disassembly of one symbol via :mod:`repro.isa.disasm` — the
view that makes a tier-level wall-clock ratio attributable to specific
guest loops.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

TIER_NAMES = {0: "tier0", 1: "tier1", 2: "tier2", 4: "tier4"}


class Attribution:
    """(tier, unit start pc) -> retired-instruction histogram."""

    __slots__ = ("counts",)

    def __init__(self):
        self.counts: "Dict[Tuple[int, int], int]" = {}

    def record(self, tier: int, pc: int, retired: int) -> None:
        """Credit ``retired`` instructions to the unit at ``pc``."""
        key = (tier, pc)
        counts = self.counts
        counts[key] = counts.get(key, 0) + retired

    def clear(self) -> None:
        self.counts.clear()

    def export(self) -> dict:
        """The ``attribution`` section of the metrics JSON:
        ``{tier name: {hex pc: retired}}``, pc-sorted for stable dumps."""
        by_tier: "Dict[str, Dict[int, int]]" = {}
        for (tier, pc), retired in self.counts.items():
            name = TIER_NAMES.get(tier, f"tier{tier}")
            by_tier.setdefault(name, {})[pc] = retired
        return {name: {f"{pc:#x}": pcs[pc] for pc in sorted(pcs)}
                for name, pcs in sorted(by_tier.items())}


class SlowPathTap:
    """Tier-0 attribution for a core without the fast path.

    A retire hook (``Core.add_retire_hook``): each retired instruction
    is credited to its unit head, the pc reached by the last control
    transfer (taken branch, jump, or trap return). It records into
    whatever histogram the core's ``_attrib`` tap currently points at.
    """

    __slots__ = ("core", "head", "next_pc")

    def __init__(self, core):
        self.core = core
        self.head = self.next_pc = -1

    def __call__(self, pc: int, insn) -> None:
        if pc != self.next_pc:
            self.head = pc
        self.next_pc = pc + insn.length
        self.core._attrib.record(0, self.head, 1)


def flatten(table: dict) -> "List[Tuple[str, int, int]]":
    """An exported attribution table as (tier, pc, retired) rows,
    hottest first."""
    rows: "List[Tuple[str, int, int]]" = []
    for tier, pcs in table.items():
        if not isinstance(pcs, dict):
            continue
        for pc_text, retired in pcs.items():
            try:
                pc = int(pc_text, 16)
            except (TypeError, ValueError):
                continue
            rows.append((tier, pc, int(retired)))
    rows.sort(key=lambda row: (-row[2], row[1], row[0]))
    return rows


class SymbolMap:
    """Nearest-preceding-symbol resolution over an objfile symbol table."""

    def __init__(self, symbols: "Dict[str, int]"):
        self._table = sorted((addr, name) for name, addr in symbols.items())

    def resolve(self, pc: int) -> "Tuple[Optional[str], int]":
        """(symbol, offset) of the nearest symbol at or below ``pc``,
        or (None, 0) when ``pc`` precedes every symbol."""
        index = bisect_right(self._table, (pc, "￿")) - 1
        if index < 0:
            return None, 0
        addr, name = self._table[index]
        return name, pc - addr


def format_top(rows: "List[Tuple[str, int, int]]",
               symbols: "Optional[SymbolMap]" = None,
               limit: int = 20) -> str:
    """The ``roload-stats top`` report: hottest block/region heads."""
    if not rows:
        return "no attribution data (run with observability on)"
    total = sum(row[2] for row in rows) or 1
    lines = [f"{len(rows)} attributed units, {total:,d} instructions "
             f"retired through them",
             f"  {'retired':>14} {'%':>6}  {'tier':<6} {'pc':<18} symbol"]
    for tier, pc, retired in rows[:limit]:
        location = ""
        if symbols is not None:
            name, offset = symbols.resolve(pc)
            if name is not None:
                location = name if offset == 0 else f"{name}+{offset:#x}"
        lines.append(f"  {retired:>14,d} {100.0 * retired / total:>5.1f}%"
                     f"  {tier:<6} {pc:<#18x} {location}")
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} colder units not shown")
    return "\n".join(lines)


def _per_pc(table: dict) -> "Dict[int, int]":
    """Retires per unit start pc, summed across tiers."""
    merged: "Dict[int, int]" = {}
    for __, pc, retired in flatten(table):
        merged[pc] = merged.get(pc, 0) + retired
    return merged


def annotate(image, symbol: str, table: dict) -> str:
    """Annotated disassembly of ``symbol``: every instruction of its
    extent, with retire counts against the block/region head lines.

    Counts are block/region grain — an instruction inside a unit shows
    blank; its retires are credited to the unit's first instruction.
    """
    from repro.isa.disasm import disassemble_bytes

    try:
        start = image.symbol(symbol)
    except Exception:
        raise ReproError(f"symbol {symbol!r} not in the image's symbol "
                         f"table") from None
    segment = image.find_segment(start)
    if segment is None:
        raise ReproError(f"symbol {symbol!r} ({start:#x}) lies in no "
                         f"segment of the image")
    segment_end = segment.vaddr + len(segment.data)
    following = sorted(addr for addr in image.symbols.values()
                       if start < addr < segment_end)
    end = following[0] if following else segment_end
    data = segment.data[start - segment.vaddr:end - segment.vaddr]
    counts = _per_pc(table)
    total = sum(count for pc, count in counts.items()
                if start <= pc < end)
    lines = [f"{symbol}: {start:#x}..{end:#x} "
             f"({total:,d} instructions retired in attributed units "
             f"headed here)"]
    for address, __, text in disassemble_bytes(data, start):
        retired = counts.get(address)
        marker = f"{retired:>14,d}" if retired else " " * 14
        lines.append(f"  {marker}  {address:#010x}: {text}")
    return "\n".join(lines)
