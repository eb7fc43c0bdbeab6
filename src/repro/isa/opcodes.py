"""Instruction specification tables for the supported RV64IMAC + ROLoad ISA.

Each supported mnemonic maps to an :class:`InsnSpec` describing its format
and fixed encoding fields. The encoder and decoder in
:mod:`repro.isa.encoding` are both driven by this single table so that they
cannot drift apart; property tests round-trip every entry.

The ROLoad family (``lb.ro`` .. ``ld.ro``, unsigned variants) lives in the
RISC-V *custom-0* major opcode (0b0001011) using I-type layout where the
12-bit immediate field carries the **page key** instead of an address
offset, exactly as the paper describes (which is why the compiler inserts
an ``addi`` for loads with non-zero offsets).
"""

from __future__ import annotations

from dataclasses import dataclass

# --- Major opcodes (bits [6:0] of a 32-bit instruction) -------------------
OP_LUI = 0b0110111
OP_AUIPC = 0b0010111
OP_JAL = 0b1101111
OP_JALR = 0b1100111
OP_BRANCH = 0b1100011
OP_LOAD = 0b0000011
OP_STORE = 0b0100011
OP_IMM = 0b0010011
OP_IMM32 = 0b0011011
OP_REG = 0b0110011
OP_REG32 = 0b0111011
OP_MISC_MEM = 0b0001111
OP_SYSTEM = 0b1110011
OP_AMO = 0b0101111
OP_CUSTOM0 = 0b0001011  # ROLoad family lives here.

# Number of key bits honoured by the MMU (reserved top bits of the PTE).
KEY_BITS = 10
KEY_MAX = (1 << KEY_BITS) - 1
# Compressed ld.ro can only encode a 5-bit key.
RVC_KEY_BITS = 5
RVC_KEY_MAX = (1 << RVC_KEY_BITS) - 1


class MemOp:
    """Memory operation kinds issued by the core to the MMU.

    Mirrors Rocket's ``MemoryOpConstants``: the paper adds a new operation
    type for ROLoad loads that carries the instruction key so the TLB can
    run its read-only + key check in parallel with the normal permission
    check.
    """

    READ = "read"
    WRITE = "write"
    FETCH = "fetch"
    READ_RO = "read_ro"  # the new ROLoad memory operation type
    AMO = "amo"          # atomics: need read+write permission


@dataclass(frozen=True)
class InsnSpec:
    """Static description of one mnemonic's encoding."""

    name: str
    fmt: str          # R, I, S, B, U, J, SHIFT64, SHIFT32, CSR, CSRI, RO, AMO, SYS
    opcode: int
    funct3: int = 0
    funct7: int = 0   # also holds funct6<<1 for SHIFT64, funct5<<2|aq|rl base for AMO
    # Semantic class used by the executor dispatch ("alu", "load", ...).
    semclass: str = "alu"


def _spec(name, fmt, opcode, funct3=0, funct7=0, semclass="alu"):
    return InsnSpec(name, fmt, opcode, funct3, funct7, semclass)


# The one table. funct7 for SHIFT64 entries holds the high 6 bits (funct6)
# shifted left by 1 so the same field packing code can be reused.
SPECS = {}


def _add(*specs):
    for s in specs:
        SPECS[s.name] = s


_add(
    _spec("lui", "U", OP_LUI, semclass="lui"),
    _spec("auipc", "U", OP_AUIPC, semclass="auipc"),
    _spec("jal", "J", OP_JAL, semclass="jal"),
    _spec("jalr", "I", OP_JALR, 0b000, semclass="jalr"),
)

_add(
    _spec("beq", "B", OP_BRANCH, 0b000, semclass="branch"),
    _spec("bne", "B", OP_BRANCH, 0b001, semclass="branch"),
    _spec("blt", "B", OP_BRANCH, 0b100, semclass="branch"),
    _spec("bge", "B", OP_BRANCH, 0b101, semclass="branch"),
    _spec("bltu", "B", OP_BRANCH, 0b110, semclass="branch"),
    _spec("bgeu", "B", OP_BRANCH, 0b111, semclass="branch"),
)

_add(
    _spec("lb", "I", OP_LOAD, 0b000, semclass="load"),
    _spec("lh", "I", OP_LOAD, 0b001, semclass="load"),
    _spec("lw", "I", OP_LOAD, 0b010, semclass="load"),
    _spec("ld", "I", OP_LOAD, 0b011, semclass="load"),
    _spec("lbu", "I", OP_LOAD, 0b100, semclass="load"),
    _spec("lhu", "I", OP_LOAD, 0b101, semclass="load"),
    _spec("lwu", "I", OP_LOAD, 0b110, semclass="load"),
)

_add(
    _spec("sb", "S", OP_STORE, 0b000, semclass="store"),
    _spec("sh", "S", OP_STORE, 0b001, semclass="store"),
    _spec("sw", "S", OP_STORE, 0b010, semclass="store"),
    _spec("sd", "S", OP_STORE, 0b011, semclass="store"),
)

_add(
    _spec("addi", "I", OP_IMM, 0b000),
    _spec("slti", "I", OP_IMM, 0b010),
    _spec("sltiu", "I", OP_IMM, 0b011),
    _spec("xori", "I", OP_IMM, 0b100),
    _spec("ori", "I", OP_IMM, 0b110),
    _spec("andi", "I", OP_IMM, 0b111),
    _spec("slli", "SHIFT64", OP_IMM, 0b001, 0b000000 << 1),
    _spec("srli", "SHIFT64", OP_IMM, 0b101, 0b000000 << 1),
    _spec("srai", "SHIFT64", OP_IMM, 0b101, 0b010000 << 1),
    _spec("addiw", "I", OP_IMM32, 0b000),
    _spec("slliw", "SHIFT32", OP_IMM32, 0b001, 0b0000000),
    _spec("srliw", "SHIFT32", OP_IMM32, 0b101, 0b0000000),
    _spec("sraiw", "SHIFT32", OP_IMM32, 0b101, 0b0100000),
)

_add(
    _spec("add", "R", OP_REG, 0b000, 0b0000000),
    _spec("sub", "R", OP_REG, 0b000, 0b0100000),
    _spec("sll", "R", OP_REG, 0b001, 0b0000000),
    _spec("slt", "R", OP_REG, 0b010, 0b0000000),
    _spec("sltu", "R", OP_REG, 0b011, 0b0000000),
    _spec("xor", "R", OP_REG, 0b100, 0b0000000),
    _spec("srl", "R", OP_REG, 0b101, 0b0000000),
    _spec("sra", "R", OP_REG, 0b101, 0b0100000),
    _spec("or", "R", OP_REG, 0b110, 0b0000000),
    _spec("and", "R", OP_REG, 0b111, 0b0000000),
    _spec("addw", "R", OP_REG32, 0b000, 0b0000000),
    _spec("subw", "R", OP_REG32, 0b000, 0b0100000),
    _spec("sllw", "R", OP_REG32, 0b001, 0b0000000),
    _spec("srlw", "R", OP_REG32, 0b101, 0b0000000),
    _spec("sraw", "R", OP_REG32, 0b101, 0b0100000),
)

# M extension.
_add(
    _spec("mul", "R", OP_REG, 0b000, 0b0000001, "muldiv"),
    _spec("mulh", "R", OP_REG, 0b001, 0b0000001, "muldiv"),
    _spec("mulhsu", "R", OP_REG, 0b010, 0b0000001, "muldiv"),
    _spec("mulhu", "R", OP_REG, 0b011, 0b0000001, "muldiv"),
    _spec("div", "R", OP_REG, 0b100, 0b0000001, "muldiv"),
    _spec("divu", "R", OP_REG, 0b101, 0b0000001, "muldiv"),
    _spec("rem", "R", OP_REG, 0b110, 0b0000001, "muldiv"),
    _spec("remu", "R", OP_REG, 0b111, 0b0000001, "muldiv"),
    _spec("mulw", "R", OP_REG32, 0b000, 0b0000001, "muldiv"),
    _spec("divw", "R", OP_REG32, 0b100, 0b0000001, "muldiv"),
    _spec("divuw", "R", OP_REG32, 0b101, 0b0000001, "muldiv"),
    _spec("remw", "R", OP_REG32, 0b110, 0b0000001, "muldiv"),
    _spec("remuw", "R", OP_REG32, 0b111, 0b0000001, "muldiv"),
)

# A extension (aq/rl bits are accepted and ignored by the timing model).
_AMO_FUNCT5 = {
    "lr": 0b00010, "sc": 0b00011, "amoswap": 0b00001, "amoadd": 0b00000,
    "amoxor": 0b00100, "amoand": 0b01100, "amoor": 0b01000,
    "amomin": 0b10000, "amomax": 0b10100, "amominu": 0b11000,
    "amomaxu": 0b11100,
}
for _base, _f5 in _AMO_FUNCT5.items():
    for _sfx, _f3 in (("w", 0b010), ("d", 0b011)):
        _add(_spec(f"{_base}.{_sfx}", "AMO", OP_AMO, _f3, _f5 << 2, "amo"))

# Fences decode but are no-ops for this single-hart model.
_add(
    _spec("fence", "I", OP_MISC_MEM, 0b000, semclass="fence"),
    _spec("fence.i", "I", OP_MISC_MEM, 0b001, semclass="fence"),
)

# System.
_add(
    _spec("ecall", "SYS", OP_SYSTEM, 0b000, 0b0000000, "system"),
    _spec("ebreak", "SYS", OP_SYSTEM, 0b000, 0b0000000, "system"),
    _spec("csrrw", "CSR", OP_SYSTEM, 0b001, semclass="csr"),
    _spec("csrrs", "CSR", OP_SYSTEM, 0b010, semclass="csr"),
    _spec("csrrc", "CSR", OP_SYSTEM, 0b011, semclass="csr"),
    _spec("csrrwi", "CSRI", OP_SYSTEM, 0b101, semclass="csr"),
    _spec("csrrsi", "CSRI", OP_SYSTEM, 0b110, semclass="csr"),
    _spec("csrrci", "CSRI", OP_SYSTEM, 0b111, semclass="csr"),
)

# --- The ROLoad family (the paper's ISA extension) -------------------------
# I-type layout in custom-0; imm[11:0] carries the key (only KEY_BITS valid).
# funct3 mirrors the corresponding normal load so MMU width handling is
# uniform.
# [roload-begin: processor]
ROLOAD_SPECS = {}
for _ld, _f3 in (("lb.ro", 0b000), ("lh.ro", 0b001), ("lw.ro", 0b010),
                 ("ld.ro", 0b011), ("lbu.ro", 0b100), ("lhu.ro", 0b101),
                 ("lwu.ro", 0b110)):
    _s = _spec(_ld, "RO", OP_CUSTOM0, _f3, semclass="roload")
    _add(_s)
    ROLOAD_SPECS[_ld] = _s

# Map a ROLoad mnemonic to its plain-load twin and back.
RO_TO_PLAIN = {name: name[:-3] for name in ROLOAD_SPECS}
PLAIN_TO_RO = {v: k for k, v in RO_TO_PLAIN.items()}

# [roload-end]

# Load width/signedness by funct3 (shared by loads and ROLoads).
LOAD_WIDTH = {0b000: 1, 0b001: 2, 0b010: 4, 0b011: 8,
              0b100: 1, 0b101: 2, 0b110: 4}
LOAD_SIGNED = {0b000: True, 0b001: True, 0b010: True, 0b011: True,
               0b100: False, 0b101: False, 0b110: False}
STORE_WIDTH = {0b000: 1, 0b001: 2, 0b010: 4, 0b011: 8}

# Width/signedness per load/store mnemonic (plain and ROLoad variants),
# shared by the interpreter handler tables (repro.cpu.core) and the flat
# core's lowering (repro.cpu.flatcore).
LOAD_INFO = {
    "lb": (1, True), "lh": (2, True), "lw": (4, True), "ld": (8, True),
    "lbu": (1, False), "lhu": (2, False), "lwu": (4, False),
}
RO_INFO = {"lb.ro": (1, True), "lh.ro": (2, True), "lw.ro": (4, True),
           "ld.ro": (8, True), "lbu.ro": (1, False), "lhu.ro": (2, False),
           "lwu.ro": (4, False)}
STORE_INFO = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

# The M-extension ops the flat core runs inline; they must also charge
# TimingParams.mul_latency (the rest stay on their generic handlers).
INLINE_MULDIV = frozenset({"mul", "mulw"})


def spec_for(name: str) -> InsnSpec:
    """Look up the spec for a mnemonic; KeyError on unknown names."""
    return SPECS[name]


def is_roload(name: str) -> bool:
    """True for ld.ro-family mnemonics (including the compressed form)."""
    return name.endswith(".ro") or name == "c.ld.ro"
