"""Signal numbers and delivery records for the kernel model.

The modified kernel's only new behaviour is: on a ROLoad check failure it
"will send a segmentation fault (SIGSEGV) signal to the faulting process
to warn and/or kill it". We record enough context for the evaluation's
security log.
"""

from __future__ import annotations

from dataclasses import dataclass

SIGILL = 4
SIGTRAP = 5
SIGBUS = 7
SIGSEGV = 11

SIGNAL_NAMES = {SIGILL: "SIGILL", SIGTRAP: "SIGTRAP", SIGBUS: "SIGBUS",
                SIGSEGV: "SIGSEGV"}


@dataclass
class SignalInfo:
    """A delivered (fatal) signal."""

    number: int
    reason: str
    pc: int
    fault_address: int = 0
    roload: bool = False

    @property
    def name(self) -> str:
        return SIGNAL_NAMES.get(self.number, f"SIG{self.number}")

    def __str__(self) -> str:
        text = f"{self.name}: {self.reason} (pc={self.pc:#x}, " \
               f"addr={self.fault_address:#x})"
        if self.roload:
            text += " [ROLoad violation]"
        return text
