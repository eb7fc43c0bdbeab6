"""Linker: object files -> loadable executable image.

Layout enforces the two properties the paper's toolchain needs:

* **separate-code** (the ``-z separate-code`` linker flag): executable
  pages never share a page with read-only data, "otherwise the linker will
  store read-only data into the pages that are both readable and
  executable, violating the read-only requirement of ROLoad-family
  instructions".
* **key isolation**: every ``.rodata.key.N`` group gets its own
  page-aligned segment, so two different keys can never land in the same
  page (a page has exactly one key in its PTE).

The linker also defines bookkeeping symbols: ``_end`` (heap start for the
loader), and ``__rodata_start``/``__rodata_end`` spanning all read-only
data segments — exactly the bounds VTint-style range checks test against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import LinkError
from repro.isa.encoding import decode, encode
from repro.asm.objfile import (
    Executable,
    ObjectFile,
    RelocType,
    Section,
    Segment,
)
from repro.utils.bits import align_up, fits_signed, sext, split_hi_lo

PAGE = 4096
DEFAULT_BASE = 0x10000


@dataclass
class _PlacedSection:
    object_index: int
    section: Section
    vaddr: int = 0


class Linker:
    """Link one or more object files into an :class:`Executable`."""

    def __init__(self, base: int = DEFAULT_BASE,
                 entry_symbol: str = "_start", page_size: int = PAGE):
        if base % page_size:
            raise LinkError("base address must be page aligned")
        self.base = base
        self.page_size = page_size
        self.entry_symbol = entry_symbol

    # -- public --------------------------------------------------------------

    def link(self, objects: "List[ObjectFile]",
             metadata: "Dict[str, str] | None" = None) -> Executable:
        if not objects:
            raise LinkError("nothing to link")
        placed = self._collect(objects)
        segments, section_addr = self._layout(placed)
        symbols = self._resolve_symbols(objects, section_addr)
        self._define_layout_symbols(symbols, segments)
        self._apply_relocations(objects, placed, section_addr, symbols)
        self._finalize_segment_data(placed, segments)
        try:
            entry = symbols[self.entry_symbol]
        except KeyError:
            raise LinkError(
                f"entry symbol {self.entry_symbol!r} undefined") from None
        return Executable(entry=entry, segments=segments,
                          symbols=dict(symbols),
                          metadata=dict(metadata or {}))

    # -- phases ---------------------------------------------------------------

    @staticmethod
    def _group_rank(section: Section) -> "tuple[int, int]":
        """Layout order: code, plain rodata, keyed rodata (by key), data,
        bss."""
        if section.executable:
            return (0, 0)
        if not section.writable and section.key == 0:
            return (1, 0)
        if not section.writable:
            return (2, section.key)
        if not section.nobits:
            return (3, 0)
        return (4, 0)

    def _collect(self, objects) -> "List[_PlacedSection]":
        # Empty sections are kept: their symbols still need addresses
        # (they contribute no segment bytes).
        placed = [
            _PlacedSection(index, section)
            for index, obj in enumerate(objects)
            for section in obj.sections.values()
        ]
        placed.sort(key=lambda p: (self._group_rank(p.section),
                                   p.object_index, p.section.name))
        return placed

    def _layout(self, placed) \
            -> "tuple[List[Segment], Dict[tuple, int]]":
        segments: "List[Segment]" = []
        section_addr: "Dict[tuple, int]" = {}
        cursor = self.base
        # Group sections that may share a segment: same permissions AND key.
        groups: "List[tuple[tuple, List[_PlacedSection]]]" = []
        for item in placed:
            signature = (item.section.executable, item.section.writable,
                         item.section.key, item.section.nobits
                         and item.section.writable)
            if groups and groups[-1][0] == (signature[0], signature[1],
                                            signature[2]):
                groups[-1][1].append(item)
            else:
                groups.append(((signature[0], signature[1], signature[2]),
                               [item]))
        for (executable, writable, key), items in groups:
            cursor = align_up(cursor, self.page_size)
            segment_start = cursor
            filesize = 0
            memsize = 0
            for item in items:
                align = max(item.section.align, 2)
                cursor = align_up(cursor, align)
                item.vaddr = cursor
                section_addr[(item.object_index, item.section.name)] = cursor
                cursor += item.section.length
                memsize = cursor - segment_start
                if not item.section.nobits:
                    filesize = cursor - segment_start
            if memsize == 0:
                continue  # only empty sections: nothing to load
            name = items[0].section.name
            if key:
                name = f".rodata.key.{key}"
            segments.append(Segment(
                vaddr=segment_start, data=bytes(filesize), memsize=memsize,
                readable=True, writable=writable, executable=executable,
                key=key, name=name))
        return segments, section_addr

    def _resolve_symbols(self, objects, section_addr) -> "Dict[str, int]":
        symbols: "Dict[str, int]" = {}
        for index, obj in enumerate(objects):
            for symbol in obj.symbols.values():
                address_base = section_addr.get((index, symbol.section))
                if address_base is None:
                    # Symbol in an empty section: place at base of nothing.
                    continue
                address = address_base + symbol.offset
                if symbol.name in symbols:
                    raise LinkError(f"duplicate symbol {symbol.name!r}")
                symbols[symbol.name] = address
        return symbols

    def _define_layout_symbols(self, symbols, segments) -> None:
        end = max((s.end for s in segments), default=self.base)
        symbols.setdefault("_end", align_up(end, self.page_size))
        ro_segments = [s for s in segments
                       if not s.writable and not s.executable]
        if ro_segments:
            symbols.setdefault("__rodata_start",
                               min(s.vaddr for s in ro_segments))
            symbols.setdefault("__rodata_end",
                               align_up(max(s.end for s in ro_segments),
                                        self.page_size))

    def _apply_relocations(self, objects, placed, section_addr,
                           symbols) -> None:
        for index, obj in enumerate(objects):
            for reloc in obj.relocations:
                section = obj.sections[reloc.section]
                base = section_addr.get((index, reloc.section))
                if base is None:
                    raise LinkError(f"relocation in unplaced section "
                                    f"{reloc.section!r}")
                target = symbols.get(reloc.symbol)
                if target is None:
                    raise LinkError(f"undefined symbol {reloc.symbol!r} "
                                    f"referenced from {obj.source}")
                value = target + reloc.addend
                place = base + reloc.offset
                self._patch(section, reloc, place, value, obj.source)

    @staticmethod
    def _patch(section, reloc, place, value, source) -> None:
        data = section.data
        offset = reloc.offset
        if reloc.rtype == RelocType.ABS64:
            data[offset:offset + 8] = value.to_bytes(8, "little")
            return
        word = int.from_bytes(data[offset:offset + 4], "little")
        insn = decode(word)
        if reloc.rtype == RelocType.HI20:
            insn.imm = split_hi_lo(value)[0]
        elif reloc.rtype == RelocType.LO12_I:
            insn.imm = sext(split_hi_lo(value)[1], 12)
        elif reloc.rtype == RelocType.LO12_S:
            insn.imm = sext(split_hi_lo(value)[1], 12)
        elif reloc.rtype == RelocType.BRANCH:
            delta = value - place
            if not fits_signed(delta, 13):
                raise LinkError(f"branch to {reloc.symbol!r} out of range "
                                f"({delta} bytes) in {source}")
            insn.imm = delta
        elif reloc.rtype == RelocType.JAL:
            delta = value - place
            if not fits_signed(delta, 21):
                raise LinkError(f"jump to {reloc.symbol!r} out of range "
                                f"({delta} bytes) in {source}")
            insn.imm = delta
        else:
            raise LinkError(f"unknown relocation type {reloc.rtype!r}")
        data[offset:offset + 4] = encode(insn).to_bytes(4, "little")

    def _finalize_segment_data(self, placed, segments) -> None:
        by_segment: "Dict[int, bytearray]" = {}
        for item in placed:
            if item.section.nobits or not item.section.data:
                continue
            for seg_index, segment in enumerate(segments):
                if segment.vaddr <= item.vaddr < segment.end:
                    buffer = by_segment.setdefault(
                        seg_index, bytearray(len(segment.data)))
                    start = item.vaddr - segment.vaddr
                    buffer[start:start + len(item.section.data)] = \
                        item.section.data
                    break
            else:
                raise LinkError(f"section {item.section.name!r} not inside "
                                f"any segment")
        for seg_index, buffer in by_segment.items():
            segments[seg_index] = Segment(
                vaddr=segments[seg_index].vaddr, data=bytes(buffer),
                memsize=segments[seg_index].memsize,
                readable=segments[seg_index].readable,
                writable=segments[seg_index].writable,
                executable=segments[seg_index].executable,
                key=segments[seg_index].key,
                name=segments[seg_index].name)


def link(objects: "List[ObjectFile]", base: int = DEFAULT_BASE,
         entry_symbol: str = "_start",
         metadata: "Dict[str, str] | None" = None) -> Executable:
    """Convenience wrapper around :class:`Linker`."""
    return Linker(base=base, entry_symbol=entry_symbol).link(
        objects, metadata=metadata)
