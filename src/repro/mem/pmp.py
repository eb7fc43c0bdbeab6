"""Physical-memory-protection backend with keys (the MMU-less profile).

§II-D: "It is even easier to implement ROLoad on systems only with
physical memory protection mechanisms (e.g. embedded systems), making it
applicable to a wide range of systems, including low-end IoT devices."

This module models that deployment: a small table of physical regions
(RISC-V PMP / ARM MPU style), each with R/W/X permissions **and a key**.
The check semantics are identical to the paged MMU: a ROLoad succeeds iff
the region is readable, not writable, and its key matches. The embedded
SoC profile in :mod:`repro.soc` can use this instead of the paged MMU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigError
from repro.isa.opcodes import KEY_MAX, MemOp
from repro.mem.faults import PageFault, ROLoadFailure
from repro.mem.mmu import TranslationResult


@dataclass
class PMPRegion:
    """One protected physical region with a ROLoad key."""

    base: int
    size: int
    readable: bool = False
    writable: bool = False
    executable: bool = False
    key: int = 0

    def __post_init__(self):
        if self.size <= 0:
            raise ConfigError("PMP region size must be positive")
        if not 0 <= self.key <= KEY_MAX:
            raise ConfigError(f"PMP key {self.key} out of range")
        if self.writable and not self.readable:
            raise ConfigError("writable-but-not-readable region is invalid")

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    @property
    def is_read_only(self) -> bool:
        return self.readable and not self.writable


class KeyedPMP:
    """PMP-style checker: first matching region wins (like RISC-V PMP).

    Addresses matched by no region are unprotected RAM with full access
    and key 0 when ``default_allow`` is True (typical for flat embedded
    memory maps); otherwise they fault.
    """

    def __init__(self, regions: "Optional[List[PMPRegion]]" = None, *,
                 default_allow: bool = True, roload_enabled: bool = True):
        self.regions: List[PMPRegion] = list(regions or [])
        self.default_allow = default_allow
        self.roload_enabled = roload_enabled
        self.roload_checks = 0
        self.roload_faults = 0
        # The regions are fixed at construction (nothing changes them
        # at run time), so the core's fetch fast path never needs
        # invalidating.
        self.generation = 0

    def region_for(self, addr: int) -> Optional[PMPRegion]:
        for region in self.regions:
            if region.contains(addr):
                return region
        return None

    def translate(self, addr: int, memop: str,
                  insn_key: int = 0) -> TranslationResult:
        """Check (no translation — physical addressing); same fault model
        as the paged MMU so the core is agnostic to the backend."""
        region = self.region_for(addr)
        if region is None:
            if self.default_allow and memop != MemOp.READ_RO:
                return TranslationResult(paddr=addr, tlb_hit=True)
            if memop == MemOp.READ_RO and self.roload_enabled:
                self.roload_checks += 1
                self.roload_faults += 1
                raise PageFault(addr, memop, roload=True,
                                reason=ROLoadFailure.NOT_READ_ONLY,
                                insn_key=insn_key, page_key=0)
            if self.default_allow:
                return TranslationResult(paddr=addr, tlb_hit=True)
            raise PageFault(addr, memop)

        if memop == MemOp.FETCH:
            conventional_ok = region.executable
        elif memop in (MemOp.WRITE, MemOp.AMO):
            conventional_ok = region.writable
        else:
            conventional_ok = region.readable

        roload_ok = True
        if memop == MemOp.READ_RO and self.roload_enabled:
            self.roload_checks += 1
            roload_ok = region.is_read_only and region.key == insn_key

        if conventional_ok and roload_ok:
            return TranslationResult(paddr=addr, tlb_hit=True)

        if memop == MemOp.READ_RO and self.roload_enabled:
            self.roload_faults += 1
            if not region.readable:
                reason = ROLoadFailure.NOT_READABLE
            elif region.writable:
                reason = ROLoadFailure.NOT_READ_ONLY
            else:
                reason = ROLoadFailure.KEY_MISMATCH
            raise PageFault(addr, memop, roload=True, reason=reason,
                            insn_key=insn_key, page_key=region.key)
        raise PageFault(addr, memop)

    # The paged-MMU interface bits the core may call.
    def flush(self) -> None:  # PMP has no TLB state
        pass

    def flush_page(self, vaddr: int) -> None:
        pass
