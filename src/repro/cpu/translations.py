"""Decoded and lowered code as a value shared by forks (DESIGN.md §8).

Everything a core derives from code bytes is plain data: a tier-1
block is a run of decoded instructions, each with the generic handler
of its mnemonic and the physical addresses its fetches touch, and a
tier-2 block or region is a :class:`~repro.cpu.flatcore.Lowered`
value. ``ld.ro``'s key and read-only check is never part of it — the
flat core takes the full MMU path on every execution. A
:class:`Translations` value collects those units with no core, frame or
closure in them, so every fork of one warm snapshot can share it: the
snapshot's owner publishes a finished fork's units onto it
(:func:`publish`), and each new fork adopts it and binds each unit on
its first dispatch (``Core.adopt_translations``).
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple, Optional

from repro.cpu.flatcore import lowering_key

_ZERO_FRAME = bytes(4096)


class Translations(NamedTuple):
    """The shared units of one warm snapshot, keyed by start pc."""

    key: tuple          # flatcore.lowering_key of every unit
    blocks: dict        # pc -> a core's tier-1 block as it is:
                        # (entries, vpn, frame base)
    jit: dict           # pc -> Lowered tier-2 block
    regions: dict       # head pc -> Lowered region
    frames: frozenset   # frame numbers all of the above were decoded from


def publish(translations: "Optional[Translations]", core,
            snap) -> "Optional[Translations]":
    """``translations`` merged with the units ``core`` translated.

    ``core`` ran a fork of the :class:`~repro.replay.snapshot.Snapshot`
    ``snap``. The donor is trusted for nothing. It publishes only if
    every code page it translated maps, in the snapshot's address space
    (``snap.page_map()``), the frame it was decoded from, and that
    frame's bytes equal the snapshot's; otherwise ``translations`` comes
    back unchanged. A host write into its code still pending
    (``code_written``) also publishes nothing. Units merge by start pc,
    and a unit already published wins.
    """
    frames, page_map = snap.state["memory"], snap.page_map()
    memory = core.memory
    key = lowering_key(core)
    if memory.code_written \
            or (translations is not None and translations.key != key):
        return translations
    blocks, jit, regions = core._blocks, core._jit_blocks, core._regions
    pages = {(vpn, frame >> 12) for _, vpn, frame in blocks.values()}
    for unit in chain(jit.values(), regions.values()):
        pages.update(unit.lowered.pages)
    own = memory.frame_map
    shared = getattr(own, "shared", {})
    for vpn, ppn in pages:
        if page_map.get(vpn << 12) != ppn << 12:
            return translations
        data = dict.get(own, ppn)   # never materializes a shared frame
        if data is None:
            data = shared.get(ppn, _ZERO_FRAME)
        if data != frames.get(ppn, _ZERO_FRAME):
            return translations
    if translations is None:
        translations = Translations(key, {}, {}, {}, frozenset())
    old_blocks, old_jit, old_regions = \
        translations.blocks, translations.jit, translations.regions
    new_blocks = {pc: block for pc, block in blocks.items()
                  if pc not in old_blocks}
    new_jit = {pc: unit.lowered for pc, unit in jit.items()
               if pc not in old_jit}
    new_regions = {pc: unit.lowered for pc, unit in regions.items()
                   if pc not in old_regions}
    if not (new_blocks or new_jit or new_regions):
        return translations
    return Translations(
        key, {**new_blocks, **old_blocks}, {**new_jit, **old_jit},
        {**new_regions, **old_regions},
        translations.frames | {ppn for _, ppn in pages})
