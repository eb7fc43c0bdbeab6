"""The kernel model: process lifecycle, scheduling onto the core, traps.

A deliberately small monolith mirroring only what the paper's Linux
changes touch: executable loading (key setup), the syscall layer (key
arguments on mmap/mprotect), and the page-fault path (ROLoad fault
discrimination -> SIGSEGV).
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import List, Optional

from repro.asm.objfile import Executable
from repro.cpu.trap import Cause, Trap
from repro.errors import KernelError, SimulationError
from repro.kernel.address_space import AddressSpace
from repro.kernel.fault import FaultHandler
from repro.kernel.loader import load_executable, map_stack
from repro.kernel.process import Process, ProcessState
from repro.kernel.signals import SIGILL, SIGTRAP, SignalInfo
from repro.kernel.syscalls import SyscallDispatcher
from repro.mem.pagetable import FrameAllocator
from repro.obs import OBS as _OBS
from repro.soc.system import System

# Physical layout: the kernel owns the low region; user frames above it.
KERNEL_RESERVED = 16 << 20  # page tables, kernel text/data analogue


class Kernel:
    """Single-core kernel over a :class:`~repro.soc.system.System`."""

    def __init__(self, system: System):
        self.system = system
        self.roload_enabled = system.config.roload_kernel
        frame_pool_top = min(system.config.memory_size, 512 << 20)
        self.allocator = FrameAllocator(KERNEL_RESERVED, frame_pool_top)
        self.syscalls = SyscallDispatcher(self)
        self.faults = FaultHandler(roload_aware=self.roload_enabled)
        self.console = bytearray()
        self.processes: "List[Process]" = []
        self._next_pid = 1
        # (address space, MMU generation) at the last deschedule;
        # _schedule keeps the core's translations only if both still
        # match and no host write since touched code or kernel frames.
        self._descheduled = None
        # Record/replay boundary (repro.replay.journal). None = live run:
        # entropy comes from the host, nothing is recorded or verified.
        self.journal = None

    # -- process lifecycle -----------------------------------------------------

    def create_process(self, image: Executable,
                       name: str = "a.out") -> Process:
        """Load an executable into a fresh address space."""
        space = AddressSpace(self.system.memory, self.allocator,
                             honour_keys=self.roload_enabled)
        entry = load_executable(image, space)
        stack_pointer = map_stack(space)
        process = Process(pid=self._next_pid, address_space=space,
                          entry=entry, stack_pointer=stack_pointer,
                          name=name)
        self._next_pid += 1
        self.processes.append(process)
        return process

    def _schedule(self, process: Process) -> None:
        """Context switch: install the address space and register file.

        ``set_root`` always flushes the TLBs. The core's translations
        survive only a reschedule of the address space that was last
        descheduled, when nothing has bumped the MMU generation since
        and every host write in between landed in one of its plain
        data frames — not in code, page tables or kernel frames
        (DESIGN.md §8).
        """
        core = self.system.core
        mmu = self.system.mmu
        memory = self.system.memory
        space = process.address_space
        last = self._descheduled
        self._descheduled = None
        written = memory.written_frames
        memory.written_frames = None
        unchanged = last is not None and last[0] is space \
            and last[1] == mmu.generation and not memory.code_written \
            and (not written or written <= space.user_frames())
        mmu.set_root(space.root_ppn)
        if not (unchanged and core.keep_translations(last[1])):
            core.flush_decode_cache("context_switch")
        core.regs[:] = process.saved_regs
        core.pc = process.saved_pc
        process.state = ProcessState.RUNNING

    def _deschedule(self, process: Process) -> None:
        core = self.system.core
        process.saved_regs = list(core.regs)
        process.saved_pc = core.pc
        self._hold_translations(process)

    def _hold_translations(self, process: Process) -> None:
        """Record that the core's translations are current for
        ``process``'s space at this MMU generation, and collect the
        frames of host writes until the next schedule."""
        self._descheduled = (process.address_space,
                             self.system.mmu.generation)
        self.system.memory.written_frames = set()

    def adopt_translations(self, process: Process, translations) -> bool:
        """Start the core warm from shared translations (a fork of a
        warm snapshot, repro.replay.snapshot.restore).

        ``process`` must be the one the core state belongs to, not yet
        run on this kernel. On success its first schedule keeps the
        adopted code exactly as a reschedule of an unchanged space
        keeps the core's own.
        """
        if not self.system.core.adopt_translations(translations):
            return False
        self._hold_translations(process)
        return True

    # -- the run loop ------------------------------------------------------------

    def run(self, process: Process,
            max_instructions: int = 200_000_000,
            stop_after: "Optional[int]" = None) -> Process:
        """Run ``process`` until it exits, is killed, or the budget ends.

        Raises :class:`SimulationError` on budget exhaustion (runaway
        program) — never silently truncates a measurement.

        ``stop_after`` pauses the run once exactly that many instructions
        have retired in this call (``step_block`` never overshoots its
        limit), returning with the process still alive and its context
        saved — the snapshot point of :func:`repro.replay.snapshot`.
        """
        if not process.alive:
            raise KernelError(f"process {process.pid} is not runnable")
        core = self.system.core
        self._schedule(process)
        executed_start = core.instret
        observing = _OBS.enabled
        sampler = None
        if observing:
            self._sample_tiers(core)
            run_began = perf_counter()
            sampler = _OBS.sampler
            if sampler is not None:
                stats = core.timing.stats
                sampler.sample(core)
        try:
            while process.alive:
                if sampler is not None \
                        and stats.instructions >= sampler.next_at:
                    sampler.sample(core)
                executed = core.instret - executed_start
                if stop_after is not None and executed >= stop_after:
                    break
                remaining = max_instructions - executed
                if remaining <= 0:
                    raise SimulationError(
                        f"pid {process.pid}: instruction budget "
                        f"({max_instructions}) exhausted at "
                        f"pc={core.pc:#x}")
                if stop_after is not None:
                    remaining = min(remaining, stop_after - executed)
                try:
                    core.step_block(remaining)
                except Trap as trap:
                    self._handle_trap(process, trap)
                    if observing:
                        self._sample_tiers(core)
        finally:
            self._deschedule(process)
            if observing:
                if sampler is not None:
                    sampler.sample(core)
                self._sample_tiers(core)
                _OBS.events.emit(
                    "span.kernel.run", pid=process.pid,
                    dur_us=(perf_counter() - run_began) * 1e6,
                    instructions=core.instret - executed_start,
                    exit_code=process.exit_code,
                    state=process.state.name)
        return process

    @staticmethod
    def _sample_tiers(core) -> None:
        """Emit a tier-residency counter sample (Chrome counter track)."""
        _OBS.events.emit("counter.tiers", **core.retired_by_tier())

    def _handle_trap(self, process: Process, trap: Trap) -> None:
        core = self.system.core
        if trap.cause == Cause.ECALL_FROM_U:
            resumed = self.syscalls.dispatch(process, core)
            if resumed:
                core.pc = trap.pc + 4  # sepc + 4: skip the ecall
            return
        if trap.cause in (Cause.LOAD_PAGE_FAULT, Cause.STORE_PAGE_FAULT,
                          Cause.FETCH_PAGE_FAULT, Cause.MISALIGNED_LOAD,
                          Cause.MISALIGNED_STORE, Cause.MISALIGNED_FETCH):
            if _OBS.enabled:
                began = perf_counter()
                signal = self.faults.handle(process, trap,
                                            instret=core.instret)
                _OBS.events.emit(
                    "span.fault", pid=process.pid, pc=trap.pc,
                    cause=Cause.NAMES.get(trap.cause, "memory fault"),
                    roload=bool(trap.is_roload_fault),
                    signal=signal.number,
                    dur_us=(perf_counter() - began) * 1e6)
            else:
                signal = self.faults.handle(process, trap,
                                            instret=core.instret)
            self._journal_signal(core, signal)
            return
        if trap.cause == Cause.ILLEGAL_INSTRUCTION:
            signal = SignalInfo(SIGILL, "illegal instruction", pc=trap.pc,
                                fault_address=trap.tval)
            process.kill(signal)
            self._journal_signal(core, signal)
            return
        if trap.cause == Cause.BREAKPOINT:
            signal = SignalInfo(SIGTRAP, "breakpoint", pc=trap.pc)
            process.kill(signal)
            self._journal_signal(core, signal)
            return
        raise KernelError(f"unhandled trap: {trap}")

    def _journal_signal(self, core, signal: SignalInfo) -> None:
        """Record (or verify, on replay) a signal-delivery point."""
        if self.journal is not None:
            self.journal.signal(core.instret, signal.number, signal.pc)

    # -- nondeterminism boundary ---------------------------------------------------

    def random_bytes(self, length: int) -> bytes:
        """Entropy behind ``getrandom()``: host urandom on a live run,
        journal-mediated under record/replay."""
        if self.journal is not None:
            return self.journal.entropy(length)
        return os.urandom(length)

    # -- conveniences --------------------------------------------------------------

    @property
    def security_log(self):
        """ROLoad violations recorded by the modified kernel."""
        return self.faults.security_log

    @property
    def console_text(self) -> str:
        return self.console.decode("utf-8", errors="replace")


def run_program(image: Executable, *, profile: str = "processor+kernel",
                max_instructions: int = 200_000_000,
                system: "Optional[System]" = None,
                name: str = "a.out") -> Process:
    """One-shot helper: build a system, load, and run an executable."""
    from repro.soc.system import build_system
    if system is None:
        system = build_system(profile)
    kernel = Kernel(system)
    process = kernel.create_process(image, name=name)
    kernel.run(process, max_instructions=max_instructions)
    return process
