"""Decoded instruction representation.

A :class:`Instruction` is the core's working form: mnemonic plus operand
fields. It is produced by the decoder (:mod:`repro.isa.encoding` /
:mod:`repro.isa.compressed`) and by the assembler, and consumed by the
executor and by the encoder. ``length`` distinguishes compressed (2-byte)
from standard (4-byte) encodings — compressed instructions decode to the
same semantics as their 32-bit twins but keep their own mnemonic so the
disassembler and code-size accounting stay faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa import registers


@dataclass
class Instruction:
    """A decoded (or to-be-encoded) instruction.

    ``imm`` is always the *signed* immediate value after any implicit
    scaling/sign-extension the format performs. For ROLoad-family
    instructions ``key`` holds the page key and ``imm`` is unused (0).
    """

    name: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = 0
    key: int = 0
    length: int = 4
    raw: int = 0
    semclass: str = field(default="alu", repr=False)

    @property
    def is_roload(self) -> bool:
        return self.semclass == "roload"

    def __str__(self) -> str:  # pragma: no cover - convenience only
        from repro.isa.disasm import format_instruction
        return format_instruction(self)


def make_nop() -> Instruction:
    """The canonical nop (``addi x0, x0, 0``)."""
    return Instruction("addi", rd=0, rs1=0, imm=0, semclass="alu")


def reg(name_or_index) -> int:
    """Accept either a register index or a name; return the index."""
    if isinstance(name_or_index, int):
        if not 0 <= name_or_index < registers.NUM_REGS:
            raise ValueError(f"register index {name_or_index} out of range")
        return name_or_index
    return registers.reg_index(name_or_index)
