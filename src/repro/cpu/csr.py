"""Minimal CSR file: user-level counters plus a custom scratch range.

The workloads only need ``rdcycle``/``rdinstret`` (for self-timing code)
and the toolchain never touches supervisor CSRs — the kernel is a host
model, not simulated code. Writes to the read-only counters raise an
illegal-instruction trap, as on real hardware.
"""

from __future__ import annotations

import weakref

from repro.cpu.trap import Cause, Trap

CSR_CYCLE = 0xC00
CSR_TIME = 0xC01
CSR_INSTRET = 0xC02

# A small custom read/write range for tests (unused by real RISC-V).
SCRATCH_BASE = 0x800
SCRATCH_LAST = 0x8FF


class CSRFile:
    """Reads counters live from the core; scratch CSRs live in a dict."""

    def __init__(self, core):
        # A proxy, not a reference: the core owns its CSR file, and a
        # cycle would keep a finished core alive until a full collection.
        self._core = weakref.proxy(core)
        self._scratch: dict[int, int] = {}

    def read(self, csr: int, pc: int) -> int:
        if csr == CSR_CYCLE:
            return self._core.cycles
        if csr == CSR_TIME:
            return self._core.cycles  # 1 tick per cycle in this model
        if csr == CSR_INSTRET:
            return self._core.instret
        if SCRATCH_BASE <= csr <= SCRATCH_LAST:
            return self._scratch.get(csr, 0)
        raise Trap(Cause.ILLEGAL_INSTRUCTION, pc, tval=csr)

    def write(self, csr: int, value: int, pc: int) -> None:
        if SCRATCH_BASE <= csr <= SCRATCH_LAST:
            self._scratch[csr] = value & 0xFFFF_FFFF_FFFF_FFFF
            return
        raise Trap(Cause.ILLEGAL_INSTRUCTION, pc, tval=csr)
