"""Sv39 three-level page tables: builder (kernel side) and walker (MMU side).

The builder manipulates page tables stored in simulated physical memory —
the same structures the walker reads — so the kernel model and the MMU
model cannot disagree about layout. Superpages are not used (the prototype
kernel maps everything with 4 KiB pages; documented simplification).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import PageTableError
from repro.mem.physical import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory
from repro.mem.pte import (
    PPN_MASK,
    PPN_SHIFT,
    PTE,
    PTE_R,
    PTE_V,
    PTE_W,
    PTE_X,
    make_leaf,
    make_table_pointer,
)

LEVELS = 3
VPN_BITS = 9
VA_BITS = 39
PTE_SIZE = 8
PTES_PER_PAGE = PAGE_SIZE // PTE_SIZE
# Virtual span one leaf table maps (512 pages, 2 MiB).
LEAF_SPAN_SHIFT = PAGE_SHIFT + VPN_BITS


def vpn_fields(vaddr: int) -> "tuple[int, int, int]":
    """Split a virtual address into (VPN[2], VPN[1], VPN[0])."""
    return ((vaddr >> 30) & 0x1FF, (vaddr >> 21) & 0x1FF,
            (vaddr >> 12) & 0x1FF)


def canonical(vaddr: int) -> bool:
    """Sv39 virtual addresses must be sign-extended from bit 38."""
    top = vaddr >> (VA_BITS - 1)
    return top == 0 or top == (1 << (64 - VA_BITS + 1)) - 1


class FrameAllocator:
    """Bump allocator handing out physical page frames to the kernel.

    Tracks allocation count so the evaluation can report physical memory
    usage in KiB, the unit Figure 3/5 use.
    """

    def __init__(self, base: int, limit: int):
        if base & (PAGE_SIZE - 1) or limit & (PAGE_SIZE - 1):
            raise PageTableError("frame pool must be page aligned")
        if base >= limit:
            raise PageTableError("empty frame pool")
        self.base = base
        self.limit = limit
        self._next = base
        self.allocated = 0

    def alloc(self) -> int:
        """Allocate one zeroed frame; returns its physical address."""
        if self._next >= self.limit:
            raise PageTableError("out of physical frames")
        frame = self._next
        self._next += PAGE_SIZE
        self.allocated += 1
        return frame

    @property
    def bytes_allocated(self) -> int:
        return self.allocated * PAGE_SIZE


@dataclass
class WalkResult:
    """Outcome of a successful page-table walk."""

    pte: PTE
    pte_address: int
    level: int
    accesses: int  # memory reads performed (for the timing model)


class PageTableWalker:
    """Hardware page-table walker over simulated physical memory."""

    def __init__(self, memory: PhysicalMemory):
        self.memory = memory

    def walk(self, root_ppn: int, vaddr: int) -> Optional[WalkResult]:
        """Walk from ``root_ppn``; return None if no valid leaf is found.

        ``None`` (not an exception) models the hardware raising a page
        fault for the requesting instruction.
        """
        if not canonical(vaddr):
            return None
        table = root_ppn << PAGE_SHIFT
        vpns = vpn_fields(vaddr)
        read = self.memory.read
        accesses = 0
        leaf_bits = PTE_R | PTE_W | PTE_X
        for level in (2, 1, 0):
            # vpns is ordered (VPN[2], VPN[1], VPN[0]).
            pte_address = table + vpns[2 - level] * PTE_SIZE
            accesses += 1
            # Intermediate levels only need the valid/leaf bits and the
            # next-table PPN — decode the full PTE only for the leaf.
            word = read(pte_address, 8)
            if not word & PTE_V:
                return None
            if word & leaf_bits:
                if level != 0:
                    # Superpages unsupported by this prototype kernel.
                    return None
                return WalkResult(PTE.unpack(word), pte_address, level,
                                  accesses)
            table = ((word >> PPN_SHIFT) & PPN_MASK) << PAGE_SHIFT
        return None


class PageTableBuilder:
    """Kernel-side construction and mutation of an Sv39 page table."""

    def __init__(self, memory: PhysicalMemory, allocator: FrameAllocator,
                 *, root: "int | None" = None):
        self.memory = memory
        self.allocator = allocator
        # ``root`` adopts an existing table (snapshot restore) instead of
        # allocating a fresh one; the PTEs live in ``memory`` either way.
        if root is not None:
            if root & (PAGE_SIZE - 1):
                raise PageTableError(f"root {root:#x} must be page aligned")
            self.root = root
        else:
            self.root = allocator.alloc()

    @property
    def root_ppn(self) -> int:
        return self.root >> PAGE_SHIFT

    def _next_table(self, table: int, index: int) -> int:
        pte_address = table + index * PTE_SIZE
        pte = PTE.unpack(self.memory.read(pte_address, 8))
        if pte.valid:
            if pte.is_leaf:
                raise PageTableError("unexpected leaf at intermediate level")
            return pte.ppn << PAGE_SHIFT
        frame = self.allocator.alloc()
        self.memory.write(pte_address, 8,
                          make_table_pointer(frame >> PAGE_SHIFT).pack())
        return frame

    def _leaf_address(self, vaddr: int, create: bool) -> Optional[int]:
        if not canonical(vaddr):
            raise PageTableError(f"non-canonical vaddr {vaddr:#x}")
        vpn2, vpn1, vpn0 = vpn_fields(vaddr)
        table = self.root
        for index in (vpn2, vpn1):
            pte_address = table + index * PTE_SIZE
            word = self.memory.read(pte_address, 8)
            if not word & PTE_V:
                if not create:
                    return None
                table = self._next_table(table, index)
            else:
                if word & (PTE_R | PTE_W | PTE_X):
                    raise PageTableError("superpage in the way")
                table = ((word >> PPN_SHIFT) & PPN_MASK) << PAGE_SHIFT
        return table + vpn0 * PTE_SIZE

    def map_page(self, vaddr: int, paddr: int, *, readable=False,
                 writable=False, executable=False, user=True,
                 key: int = 0) -> None:
        """Install a 4 KiB leaf mapping vaddr -> paddr."""
        self.map_pages(((vaddr, paddr),), readable=readable,
                       writable=writable, executable=executable, user=user,
                       key=key)

    def map_pages(self, pages, *, readable=False, writable=False,
                  executable=False, user=True, key: int = 0) -> None:
        """Install 4 KiB leaf mappings for ``(vaddr, paddr)`` pairs that
        share permissions and key, in order.

        The leaf table is resolved from the root once per run of pages
        in the same 2 MiB span, not once per page. Each pair is taken
        from ``pages`` only after the previous page is mapped, so a
        generator that allocates frames as it goes interleaves them
        with the tables this allocates exactly as one ``map_page``
        call per page would.
        """
        flags = make_leaf(0, readable=readable, writable=writable,
                          executable=executable, user=user,
                          key=key).pack()
        write = self.memory.write
        span = table = None
        for vaddr, paddr in pages:
            if vaddr & (PAGE_SIZE - 1) or paddr & (PAGE_SIZE - 1):
                raise PageTableError(
                    "map_page requires page-aligned addresses")
            ppn = paddr >> PAGE_SHIFT
            if ppn > PPN_MASK:
                raise PageTableError(f"PPN {ppn:#x} out of range")
            if vaddr >> LEAF_SPAN_SHIFT != span:
                span = vaddr >> LEAF_SPAN_SHIFT
                table = self._leaf_address(span << LEAF_SPAN_SHIFT,
                                           create=True)
            slot = (vaddr >> PAGE_SHIFT) & (PTES_PER_PAGE - 1)
            write(table + slot * PTE_SIZE, 8, flags | ppn << PPN_SHIFT)

    def unmap_page(self, vaddr: int) -> bool:
        """Remove a leaf mapping; returns False if it wasn't mapped."""
        leaf_address = self._leaf_address(vaddr, create=False)
        if leaf_address is None:
            return False
        if not PTE.unpack(self.memory.read(leaf_address, 8)).valid:
            return False
        self.memory.write(leaf_address, 8, 0)
        return True

    def lookup(self, vaddr: int) -> Optional[PTE]:
        """Read the leaf PTE covering ``vaddr`` (None if unmapped)."""
        leaf_address = self._leaf_address(vaddr & ~(PAGE_SIZE - 1),
                                          create=False)
        if leaf_address is None:
            return None
        pte = PTE.unpack(self.memory.read(leaf_address, 8))
        return pte if pte.valid else None

    def set_protection(self, vaddr: int, *, readable=None, writable=None,
                       executable=None, key=None) -> None:
        """Mutate permissions/key of an existing mapping (mprotect core).

        Arguments left as ``None`` keep their current value.
        """
        leaf_address = self._leaf_address(vaddr & ~(PAGE_SIZE - 1),
                                          create=False)
        if leaf_address is None:
            raise PageTableError(f"mprotect on unmapped page {vaddr:#x}")
        pte = PTE.unpack(self.memory.read(leaf_address, 8))
        if not pte.valid:
            raise PageTableError(f"mprotect on unmapped page {vaddr:#x}")
        if readable is not None:
            pte.readable = readable
        if writable is not None:
            pte.writable = writable
            pte.dirty = writable
        if executable is not None:
            pte.executable = executable
        if key is not None:
            pte.key = key
        if pte.writable and not pte.readable:
            raise PageTableError("writable-but-not-readable is reserved")
        self.memory.write(leaf_address, 8, pte.pack())

    def mappings(self, lo: int = 0, hi: int = 1 << VA_BITS) \
            -> Iterator["tuple[int, PTE]"]:
        """Iterate (vaddr, leaf PTE) pairs in [lo, hi). Debug/accounting."""
        root = self.root
        for i2 in range(PTES_PER_PAGE):
            pte2 = PTE.unpack(self.memory.read(root + i2 * PTE_SIZE, 8))
            if not pte2.valid or pte2.is_leaf:
                continue
            table1 = pte2.ppn << PAGE_SHIFT
            for i1 in range(PTES_PER_PAGE):
                pte1 = PTE.unpack(self.memory.read(table1 + i1 * PTE_SIZE, 8))
                if not pte1.valid or pte1.is_leaf:
                    continue
                table0 = pte1.ppn << PAGE_SHIFT
                for i0 in range(PTES_PER_PAGE):
                    pte0 = PTE.unpack(
                        self.memory.read(table0 + i0 * PTE_SIZE, 8))
                    if not pte0.valid:
                        continue
                    vaddr = (i2 << 30) | (i1 << 21) | (i0 << 12)
                    if lo <= vaddr < hi:
                        yield vaddr, pte0
