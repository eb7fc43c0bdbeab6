"""Per-process virtual address spaces with page keys.

The kernel-side analogue of the paper's ``arch/riscv`` changes: page keys
are plumbed "at each level of MMU abstraction" — here, through the VMA
list and into leaf PTEs — so that ``mmap()`` and ``mprotect()`` can set up
keys for user processes.

``honour_keys=False`` models the *unmodified* kernel of the
``processor``-only profile in §V-B: the key plumbing does not exist, so
every mapping gets key 0 regardless of what was requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import KernelError
from repro.isa.opcodes import KEY_MAX
from repro.mem.pagetable import FrameAllocator, PageTableBuilder
from repro.mem.physical import PAGE_SIZE, PhysicalMemory
from repro.utils.bits import align_down, align_up

PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4


@dataclass
class VMA:
    """One mapped virtual region."""

    start: int
    end: int
    prot: int
    key: int = 0
    name: str = ""

    def __contains__(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    @property
    def pages(self) -> int:
        return (self.end - self.start) // PAGE_SIZE


class AddressSpace:
    """A process's mappings plus its hardware page table."""

    # Virtual layout defaults.
    MMAP_BASE = 0x4000_0000
    STACK_TOP = 0x7FFF_F000
    STACK_PAGES = 64

    def __init__(self, memory: PhysicalMemory, allocator: FrameAllocator,
                 *, honour_keys: bool = True,
                 page_table_root: "int | None" = None):
        self.memory = memory
        self.allocator = allocator
        self.honour_keys = honour_keys
        # ``page_table_root`` re-adopts an already-built table whose PTEs
        # were restored into ``memory`` from a snapshot.
        self.page_table = PageTableBuilder(memory, allocator,
                                           root=page_table_root)
        self.vmas: "List[VMA]" = []
        self._frames: "dict[int, int]" = {}  # vpage -> physical frame addr
        self._mmap_cursor = self.MMAP_BASE
        self.brk_base = 0
        self.brk = 0

    @property
    def root_ppn(self) -> int:
        return self.page_table.root_ppn

    # -- queries --------------------------------------------------------------

    def vma_at(self, vaddr: int) -> Optional[VMA]:
        for vma in self.vmas:
            if vaddr in vma:
                return vma
        return None

    def mapped_pages(self) -> int:
        """Total pages mapped (the RSS-like figure used by the memory
        overhead evaluation — everything is pre-faulted in this model)."""
        return len(self._frames)

    def memory_kib(self) -> float:
        return self.mapped_pages() * PAGE_SIZE / 1024

    def user_frames(self) -> "set[int]":
        """Frame numbers of every page mapped into this space."""
        return {frame >> 12 for frame in self._frames.values()}

    def phys_addr(self, vaddr: int) -> Optional[int]:
        """Kernel-side translation (for copy-in/copy-out)."""
        frame = self._frames.get(vaddr // PAGE_SIZE * PAGE_SIZE)
        if frame is None:
            return None
        return frame + (vaddr & (PAGE_SIZE - 1))

    # -- mapping --------------------------------------------------------------

    # [roload-begin: kernel]
    def _check_key(self, key: int, prot: int) -> int:
        if not 0 <= key <= KEY_MAX:
            raise KernelError(f"page key {key} out of range")
        if not self.honour_keys:
            return 0  # unmodified kernel: no key plumbing exists
        if key and (prot & PROT_WRITE):
            raise KernelError("keyed pages must be read-only (pointee "
                              "integrity requires immutability)")
        return key
    # [roload-end]

    def map_region(self, start: int, length: int, prot: int, *,
                   key: int = 0, name: str = "") -> VMA:
        """Map [start, start+length) with fresh zeroed frames."""
        if start % PAGE_SIZE:
            raise KernelError(f"unaligned mapping at {start:#x}")
        if length <= 0:
            raise KernelError("empty mapping")
        key = self._check_key(key, prot)
        end = align_up(start + length, PAGE_SIZE)
        for vma in self.vmas:
            if start < vma.end and vma.start < end:
                raise KernelError(
                    f"mapping [{start:#x},{end:#x}) overlaps "
                    f"{vma.name or 'existing region'}")
        self.page_table.map_pages(
            self._fresh_pages(start, end), readable=bool(prot & PROT_READ),
            writable=bool(prot & PROT_WRITE),
            executable=bool(prot & PROT_EXEC), user=True, key=key)
        vma = VMA(start, end, prot, key, name)
        self.vmas.append(vma)
        return vma

    def _fresh_pages(self, start: int, end: int):
        """Back each page of [start, end) with a fresh zeroed frame,
        yielding ``(page, frame)`` for the page table to map."""
        alloc = self.allocator.alloc
        zero_frame = self.memory.zero_frame
        for page in range(start, end, PAGE_SIZE):
            frame = alloc()
            zero_frame(frame)
            self._frames[page] = frame
            yield page, frame

    def write_initial(self, vaddr: int, data: bytes) -> None:
        """Kernel copy-in (used by the loader, before the process runs)."""
        offset = 0
        while offset < len(data):
            paddr = self.phys_addr(vaddr + offset)
            if paddr is None:
                raise KernelError(f"copy-in to unmapped page at "
                                  f"{vaddr + offset:#x}")
            chunk = min(len(data) - offset,
                        PAGE_SIZE - ((vaddr + offset) & (PAGE_SIZE - 1)))
            self.memory.write_bytes(paddr, data[offset:offset + chunk])
            offset += chunk

    def copy_out(self, vaddr: int, data: bytes) -> bool:
        """Syscall copy-out (read(), clock_gettime(), getrandom()).

        All or nothing: every byte must lie in a mapping whose VMA has
        ``PROT_WRITE``, or nothing is written and False is returned (the
        syscall's ``-EFAULT``). The kernel never writes a read-only page
        on the guest's behalf — a keyed page is read-only, and writing
        it would bypass pointee integrity. The loader's
        :meth:`write_initial` stays privileged.
        """
        end = vaddr + len(data)
        page = align_down(vaddr, PAGE_SIZE)
        while page < end:
            vma = self.vma_at(max(page, vaddr))
            if vma is None or not vma.prot & PROT_WRITE \
                    or self.phys_addr(page) is None:
                return False
            page += PAGE_SIZE
        self.write_initial(vaddr, data)
        return True

    def read_memory(self, vaddr: int, length: int) -> bytes:
        """Kernel copy-out (e.g. the write() syscall gathering a buffer)."""
        out = bytearray()
        while len(out) < length:
            paddr = self.phys_addr(vaddr + len(out))
            if paddr is None:
                raise KernelError(f"copy-out from unmapped page at "
                                  f"{vaddr + len(out):#x}")
            chunk = min(length - len(out),
                        PAGE_SIZE - ((vaddr + len(out)) & (PAGE_SIZE - 1)))
            out += self.memory.read_bytes(paddr, chunk)
        return bytes(out)

    # -- syscall backends ------------------------------------------------------

    def mmap(self, addr: int, length: int, prot: int, *,
             key: int = 0, name: str = "mmap") -> int:
        """Anonymous mmap; returns the chosen virtual address."""
        if addr == 0:
            addr = self._mmap_cursor
            self._mmap_cursor = align_up(
                addr + max(length, 1), PAGE_SIZE) + PAGE_SIZE
        self.map_region(addr, length, prot, key=key, name=name)
        return addr

    def munmap(self, addr: int, length: int) -> None:
        end = align_up(addr + length, PAGE_SIZE)
        addr = align_down(addr, PAGE_SIZE)
        keep: "List[VMA]" = []
        for vma in self.vmas:
            if vma.start >= addr and vma.end <= end:
                for page in range(vma.start, vma.end, PAGE_SIZE):
                    self.page_table.unmap_page(page)
                    self._frames.pop(page, None)
            else:
                keep.append(vma)
        self.vmas = keep

    def mprotect(self, addr: int, length: int, prot: int, *,
                 key: "int | None" = None) -> None:
        """Change protection (and optionally the ROLoad key) of a range.

        This is the paper's user-facing API: "user-mode processes can
        finally use mmap() and mprotect() system calls to set up page keys
        for themselves."
        """
        if addr % PAGE_SIZE:
            raise KernelError("mprotect address must be page aligned")
        end = align_up(addr + length, PAGE_SIZE)
        if key is not None:
            key = self._check_key(key, prot)
        elif not self.honour_keys:
            key = 0
        for page in range(addr, end, PAGE_SIZE):
            vma = self.vma_at(page)
            if vma is None:
                raise KernelError(f"mprotect on unmapped page {page:#x}")
            self.page_table.set_protection(
                page, readable=bool(prot & PROT_READ),
                writable=bool(prot & PROT_WRITE),
                executable=bool(prot & PROT_EXEC),
                key=key)
        self._split_and_update(addr, end, prot, key)

    def _split_and_update(self, start, end, prot, key) -> None:
        updated: "List[VMA]" = []
        for vma in self.vmas:
            if vma.end <= start or vma.start >= end:
                updated.append(vma)
                continue
            if vma.start < start:
                updated.append(VMA(vma.start, start, vma.prot, vma.key,
                                   vma.name))
            if vma.end > end:
                updated.append(VMA(end, vma.end, vma.prot, vma.key,
                                   vma.name))
            new_key = vma.key if key is None else key
            updated.append(VMA(max(vma.start, start), min(vma.end, end),
                               prot, new_key, vma.name))
        self.vmas = updated

    def set_brk(self, new_brk: int) -> int:
        """Grow (never shrink) the heap; returns the current brk."""
        if new_brk <= self.brk:
            return self.brk
        start = align_up(self.brk, PAGE_SIZE)
        end = align_up(new_brk, PAGE_SIZE)
        if end > start:
            self.map_region(start, end - start,
                            PROT_READ | PROT_WRITE, name="heap")
        self.brk = new_brk
        return self.brk
