"""Page-fault handling: the modified ``arch/riscv/mm/fault.c``.

The paper's kernel change: "It first distinguishes load page faults raised
by ROLoad-family instructions from benign load page faults raised by
regular load instructions. If the load page faults are raised by
ROLoad-family instructions because of read-only permission check failure
or key check failure, the modified Linux kernel will send a segmentation
fault (SIGSEGV) signal to the faulting process to warn and/or kill it."

With ``roload_aware=False`` (the unmodified kernel of the ``processor``
profile) the fault is handled generically: the process still dies with
SIGSEGV, but the kernel records no ROLoad security event — the
*diagnostic* capability is what the kernel modification buys.

The security log is bounded (``REPRO_SECLOG_CAP``, default 4096): a
fault-storm workload keeps the most recent events and counts the
overflow in :attr:`SecurityLog.dropped` instead of growing without
limit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import config as _config
from repro.cpu.trap import Cause, Trap
from repro.kernel.signals import SIGSEGV, SignalInfo
from repro.obs import OBS as _OBS

DEFAULT_SECLOG_CAPACITY = 4096


@dataclass
class SecurityEvent:
    """A ROLoad violation recorded by the modified kernel."""

    pid: int
    pc: int
    fault_address: int
    reason: str
    insn_key: "int | None"
    page_key: "int | None"

    def __str__(self) -> str:
        text = (f"pid {self.pid}: ROLoad violation ({self.reason}) at "
                f"pc={self.pc:#x} addr={self.fault_address:#x}")
        if self.reason == "key_mismatch":
            text += f" (insn key {self.insn_key}, page key {self.page_key})"
        return text


class SecurityLog:
    """Bounded ring of :class:`SecurityEvent` with a dropped counter.

    List-like enough for existing callers (len/iter/index/bool); keeps
    the most recent ``capacity`` events. ``total`` counts every event
    ever recorded, ``dropped`` the ones the ring has since evicted.
    """

    def __init__(self, capacity: "int | None" = None):
        self.capacity = capacity if capacity is not None \
            else _config.current().seclog_cap
        if self.capacity <= 0:
            raise ValueError(f"security log needs a positive capacity, "
                             f"got {self.capacity}")
        self._ring: deque = deque(maxlen=self.capacity)
        self.total = 0
        self.dropped = 0

    def append(self, event: SecurityEvent) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        self.total += 1

    def clear(self) -> None:
        self._ring.clear()
        self.total = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def __bool__(self) -> bool:
        return bool(self._ring)

    def __iter__(self):
        return iter(self._ring)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._ring)[index]
        return self._ring[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SecurityLog(capacity={self.capacity}, "
                f"events={len(self._ring)}, dropped={self.dropped})")


@dataclass
class FaultHandler:
    """Kernel page-fault path."""

    roload_aware: bool = True
    security_log: SecurityLog = field(default_factory=SecurityLog)

    def handle(self, process, trap: Trap,
               instret: "int | None" = None) -> SignalInfo:
        """Handle a memory fault; returns the fatal signal delivered.

        ``instret`` is the guest retired-instruction count at the trap;
        the audit trail records it instead of any host timestamp so the
        chain stays bit-identical across interpreter tiers.

        (This model has no demand paging or swapping: every valid page is
        mapped up front, so any page fault is a genuine violation.)
        """
        # [roload-begin: kernel]
        if (trap.cause == Cause.LOAD_PAGE_FAULT and trap.is_roload_fault
                and self.roload_aware):
            # The new discrimination path of the modified kernel.
            reason = trap.roload_reason.value
            self.security_log.append(SecurityEvent(
                pid=process.pid, pc=trap.pc, fault_address=trap.tval,
                reason=reason, insn_key=trap.insn_key,
                page_key=trap.page_key))
            if _OBS.enabled:
                _OBS.events.emit(
                    "roload.violation", cat="arch", pid=process.pid,
                    pc=trap.pc, addr=trap.tval, reason=reason,
                    insn_key=trap.insn_key, page_key=trap.page_key)
                if _OBS.audit is not None:
                    _OBS.audit.append(
                        "roload.violation", pid=process.pid,
                        pc=trap.pc, addr=trap.tval, reason=reason,
                        insn_key=trap.insn_key,
                        page_key=trap.page_key, instret=instret)
            signal = SignalInfo(SIGSEGV,
                                f"pointee integrity violation: {reason}",
                                pc=trap.pc, fault_address=trap.tval,
                                roload=True)
        # [roload-end]
        else:
            kind = Cause.NAMES.get(trap.cause, "memory fault")
            if _OBS.enabled:
                _OBS.events.emit("fault.benign", cat="arch",
                                 pid=process.pid, pc=trap.pc,
                                 addr=trap.tval, kind=kind)
            signal = SignalInfo(SIGSEGV, kind, pc=trap.pc,
                                fault_address=trap.tval)
        process.kill(signal)
        return signal
