"""Executable loader: maps segments with permissions **and page keys**.

The paper: "Before a process gets started, the kernel helps the process
set up its page keys, either by itself during executable loading, or by
providing APIs for user-mode processes." This loader is the former path:
segment headers carry the key (from ``.rodata.key.N`` sections) and the
kernel installs it in the leaf PTEs — unless the kernel is the unmodified
one (``honour_keys=False``), which silently loads everything with key 0.
"""

from __future__ import annotations

from repro.asm.objfile import Executable
from repro.errors import LoaderError
from repro.kernel.address_space import (
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
    AddressSpace,
)
from repro.mem.physical import PAGE_SIZE
from repro.utils.bits import align_up


def load_executable(image: Executable, space: AddressSpace) -> int:
    """Map all segments of ``image`` into ``space``; returns the entry pc.

    Each segment is mapped once, with its final permissions and key
    (keyed segments read-only), then filled by the kernel's privileged
    copy-in, which ignores page permissions.
    """
    if not image.segments:
        raise LoaderError("image has no segments")
    for segment in image.segments:
        if segment.vaddr % PAGE_SIZE:
            raise LoaderError(f"segment {segment.name!r} not page aligned")
        prot = PROT_READ
        if segment.writable:
            prot |= PROT_WRITE
        if segment.executable:
            prot |= PROT_EXEC
        # [roload-begin: kernel]
        if segment.key and segment.writable:
            raise LoaderError(f"segment {segment.name!r}: keyed segments "
                              f"must be read-only")
        # [roload-end]
        space.map_region(segment.vaddr, segment.memsize, prot,
                         key=segment.key, name=segment.name)
        if segment.data:
            space.write_initial(segment.vaddr, segment.data)
    heap_base = image.symbols.get(
        "_end", align_up(max(s.end for s in image.segments), PAGE_SIZE))
    space.brk_base = space.brk = heap_base
    return image.entry


def map_stack(space: AddressSpace) -> int:
    """Map the main stack; returns the initial stack pointer (16-aligned)."""
    size = AddressSpace.STACK_PAGES * PAGE_SIZE
    base = AddressSpace.STACK_TOP - size
    space.map_region(base, size, PROT_READ | PROT_WRITE, name="stack")
    return AddressSpace.STACK_TOP - 16
