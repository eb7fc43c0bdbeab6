"""Two-address textual assembler for the RV64IMAC + ROLoad subset.

Accepts the syntax our disassembler emits (round-trip tested) plus the
directives and pseudo-instructions the compiler back-end needs:

* sections: ``.section .text`` / ``.rodata`` / ``.rodata.key.N`` /
  ``.data`` / ``.bss`` (keyed read-only sections are how allowlists are
  placed in tamper-proof areas — Listing 3 lines 7-10)
* data: ``.byte .half .word .quad .asciz .ascii .zero .align .balign``
  (``.quad symbol`` emits an ABS64 relocation — how GFPT entries point at
  functions)
* symbols: labels, ``.globl``
* pseudo-instructions: ``li la mv not neg nop j jr ret call tail
  beqz bnez bltz bgez seqz snez csrr``
* ROLoad: ``ld.ro rd, (rs1), key`` (paper Listing 3), auto-compressed to
  ``c.ld.ro`` when registers and key allow (``.option rvc`` default on)

Instructions referring to symbols always use 4-byte encodings so the
single-pass layout is stable; everything else is compressed when possible.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.errors import AssemblerError
from repro.isa.compressed import try_compress
from repro.isa.disasm import CSR_NAMES
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import KEY_MAX, SPECS
from repro.isa.registers import NAME_TO_INDEX, reg_index
from repro.asm.objfile import ObjectFile, Relocation, RelocType
from repro.utils.bits import fits_signed, split_hi_lo

_CSR_NUMBERS = {name: num for num, name in CSR_NAMES.items()}

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*)\s*:\s*(.*)$")
_SYMBOL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")

# Operand grammar, compiled once (the assembler is on the benchmark
# harness's critical path — see DESIGN.md §8).
_HILO_RE = re.compile(r"%(hi|lo)\(([^)]+)\)$")
_LOMEM_RE = re.compile(r"%lo\(([^)]+)\)\(([\w$.]+)\)$")
_MEM_RE = re.compile(r"(-?\w*)\(([\w$.]+)\)$")
_SYM_ADDEND_RE = re.compile(r"([A-Za-z_.$][\w.$]*)\s*(?:([+-])\s*(\d+))?$")

# Encoding an instruction line is a pure function of (rvc, text): some
# bytes plus relocations at offsets from the line's start. Generated
# modules repeat a few thousand distinct lines tens of thousands of
# times, so each is encoded once and then replayed (DESIGN.md §8).
# Labels, directives and lines that raised never enter the memo; it is
# bounded so adversarial input cannot grow it without limit.
_LINE_MEMO: dict = {}
_LINE_MEMO_MAX = 8192

# Every mnemonic _pseudo() handles, so real instructions skip its chain.
_PSEUDO_NAMES = frozenset((
    "nop", "li", "la", "mv", "not", "neg", "negw", "sext.w", "seqz",
    "snez", "j", "jr", "ret", "call", "tail", "beqz", "bnez", "bltz",
    "bgez", "blez", "bgtz", "csrr",
))


def _split_operands(text: str) -> List[str]:
    """Split an operand string on top-level commas."""
    # str.split handles everything except commas nested in parentheses;
    # segments are re-joined while the running paren depth is open, which
    # reproduces the character-walk exactly (including never splitting
    # again once an unbalanced ")" drives the depth negative).
    parts, depth, acc = [], 0, []
    for part in text.split(","):
        acc.append(part)
        depth += part.count("(") - part.count(")")
        if depth == 0:
            parts.append(",".join(acc).strip())
            acc = []
    if acc:
        parts.append(",".join(acc).strip())
    if parts and not parts[-1]:
        parts.pop()
    return parts


def _parse_int(text: str) -> Optional[int]:
    try:
        return int(text, 0)
    except ValueError:
        return None


class _Operand:
    """A parsed operand: int, register, memory ref, symbol, or %hi/%lo."""

    __slots__ = ("kind", "value", "reg", "symbol", "addend")

    def __init__(self, kind, value=0, reg=0, symbol="", addend=0):
        self.kind = kind          # "reg" | "imm" | "mem" | "sym" | "hi" | "lo"
        self.value = value
        self.reg = reg
        self.symbol = symbol
        self.addend = addend


class Assembler:
    """Assemble one translation unit into an :class:`ObjectFile`."""

    def __init__(self, source: str, name: str = "<asm>", rvc: bool = True):
        self.source = source
        self.name = name
        self.rvc = rvc
        self.obj = ObjectFile(source=name)
        self._section = self.obj.section(".text")
        self._line = 0
        self._globals: set = set()

    # -- public entry --------------------------------------------------------

    def assemble(self) -> ObjectFile:
        for self._line, raw in enumerate(self.source.splitlines(), start=1):
            line = raw.strip()
            if "#" in line or "//" in line:
                line = self._strip_comment(line).strip()
            while ":" in line:
                match = _LABEL_RE.match(line)
                if match:
                    label, line = match.group(1), match.group(2).strip()
                    self._define_label(label)
                    continue
                break
            if not line:
                continue
            if line.startswith("."):
                self._directive(line)
            else:
                self._memo_instruction(line)
        for name in self._globals:
            if name in self.obj.symbols:
                self.obj.symbols[name].is_global = True
        return self.obj

    def _memo_instruction(self, line: str) -> None:
        """Emit one instruction line, encoding it only on a memo miss."""
        section, relocations = self._section, self.obj.relocations
        base, key = section.length, (self.rvc, line)
        entry = _LINE_MEMO.get(key)
        if entry is None:
            start, first = len(section.data), len(relocations)
            self._instruction(line)
            if len(_LINE_MEMO) < _LINE_MEMO_MAX:
                _LINE_MEMO[key] = (
                    bytes(section.data[start:]),
                    tuple((r.offset - base, r.rtype, r.symbol, r.addend)
                          for r in relocations[first:]))
            return
        code, relocs = entry
        section.data += code
        for offset, rtype, symbol, addend in relocs:
            relocations.append(Relocation(section.name, base + offset,
                                          rtype, symbol, addend))

    # -- helpers -------------------------------------------------------------

    def _error(self, message: str) -> AssemblerError:
        return AssemblerError(message, line=self._line, source=self.name)

    @staticmethod
    def _strip_comment(line: str) -> str:
        for marker in ("#", "//"):
            index = line.find(marker)
            if index >= 0:
                line = line[:index]
        return line

    def _define_label(self, label: str) -> None:
        self.obj.define_symbol(label, self._section.name,
                               self._section.length)

    def _emit_insn(self, insn: Instruction,
                   reloc: "Optional[tuple[str, str, int]]" = None) -> None:
        """Encode and append; ``reloc`` = (rtype, symbol, addend)."""
        section = self._section
        if reloc is None and self.rvc:
            halfword = try_compress(insn)
            if halfword is not None:
                section.data += halfword.to_bytes(2, "little")
                return
        if reloc is not None:
            rtype, symbol, addend = reloc
            self.obj.relocations.append(Relocation(
                section.name, section.length, rtype, symbol, addend))
        section.data += encode(insn).to_bytes(4, "little")

    # -- directives ----------------------------------------------------------

    def _directive(self, line: str) -> None:
        parts = line.split(None, 1)
        name = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if name == ".section":
            self._section = self.obj.section(_split_operands(rest)[0])
        elif name in (".text", ".data", ".bss", ".rodata"):
            self._section = self.obj.section(name)
        elif name == ".globl" or name == ".global":
            for symbol in _split_operands(rest):
                self._globals.add(symbol)
        elif name in (".align", ".balign"):
            alignment = _parse_int(rest)
            if alignment is None or alignment <= 0:
                raise self._error(f"bad alignment {rest!r}")
            self._section.align_to(alignment)
        elif name == ".p2align":
            power = _parse_int(rest)
            if power is None or power < 0:
                raise self._error(f"bad p2align {rest!r}")
            self._section.align_to(1 << power)
        elif name in (".byte", ".half", ".word", ".quad"):
            width = {".byte": 1, ".half": 2, ".word": 4, ".quad": 8}[name]
            for item in _split_operands(rest):
                self._data_item(item, width)
        elif name in (".zero", ".space", ".skip"):
            count = _parse_int(rest)
            if count is None or count < 0:
                raise self._error(f"bad size {rest!r}")
            self._section.reserve(count)
        elif name in (".asciz", ".string", ".ascii"):
            text = self._parse_string(rest)
            self._section.data += text.encode()
            if name != ".ascii":
                self._section.data += b"\0"
        elif name == ".option":
            if rest == "rvc":
                self.rvc = True
            elif rest == "norvc":
                self.rvc = False
            else:
                raise self._error(f"unknown option {rest!r}")
        elif name in (".file", ".ident", ".size", ".type"):
            pass  # accepted and ignored
        else:
            raise self._error(f"unknown directive {name!r}")

    def _parse_string(self, rest: str) -> str:
        rest = rest.strip()
        if len(rest) < 2 or rest[0] != '"' or rest[-1] != '"':
            raise self._error(f"bad string literal {rest!r}")
        body = rest[1:-1]
        return (body.replace("\\n", "\n").replace("\\t", "\t")
                .replace("\\0", "\0").replace('\\"', '"')
                .replace("\\\\", "\\"))

    def _data_item(self, item: str, width: int) -> None:
        value = _parse_int(item)
        if value is not None:
            mask = (1 << (8 * width)) - 1
            self._section.data += (value & mask).to_bytes(width, "little")
            return
        symbol, addend = self._split_symbol_addend(item)
        if symbol is None:
            raise self._error(f"bad data item {item!r}")
        if width != 8:
            raise self._error("symbol references need .quad (8 bytes)")
        self.obj.relocations.append(Relocation(
            self._section.name, self._section.length, RelocType.ABS64,
            symbol, addend))
        self._section.data += bytes(8)

    @staticmethod
    def _split_symbol_addend(text: str):
        match = _SYM_ADDEND_RE.match(text.strip())
        if not match:
            return None, 0
        addend = int(match.group(3)) if match.group(3) else 0
        if match.group(2) == "-":
            addend = -addend
        return match.group(1), addend

    # -- operand parsing -----------------------------------------------------

    def _operand(self, text: str) -> _Operand:
        text = text.strip()
        # The two overwhelmingly common operand shapes — a register name
        # or a plain integer — resolve without regexes or exceptions.
        # Register names cannot parse as ints, %-relocs, or memory refs,
        # so probing them first changes no parse.
        reg = NAME_TO_INDEX.get(text)
        if reg is not None:
            return _Operand("reg", reg=reg)
        head = text[:1]
        if head.isdigit() or head == "-" or head == "+":
            value = _parse_int(text)
            if value is not None:
                return _Operand("imm", value=value)
        if text.endswith(")"):
            match = _HILO_RE.match(text)
            if match:
                symbol, addend = self._split_symbol_addend(match.group(2))
                if symbol is None:
                    raise self._error(
                        f"bad %{match.group(1)} operand {text!r}")
                return _Operand(match.group(1), symbol=symbol, addend=addend)
            match = _LOMEM_RE.match(text)
            if match:
                symbol, addend = self._split_symbol_addend(match.group(1))
                if symbol is None:
                    raise self._error(f"bad %lo memory operand {text!r}")
                return _Operand("lomem", reg=reg_index(match.group(2)),
                                symbol=symbol, addend=addend)
            match = _MEM_RE.match(text)
            if match:
                offset_text, reg_text = match.group(1), match.group(2)
                offset = _parse_int(offset_text) if offset_text else 0
                if offset is None:
                    raise self._error(f"bad memory offset in {text!r}")
                return _Operand("mem", value=offset, reg=reg_index(reg_text))
        try:
            return _Operand("reg", reg=reg_index(text))
        except AssemblerError:
            pass
        symbol, addend = self._split_symbol_addend(text)
        if symbol is not None:
            return _Operand("sym", symbol=symbol, addend=addend)
        raise self._error(f"cannot parse operand {text!r}")

    def _want_reg(self, op: _Operand, what: str) -> int:
        if op.kind != "reg":
            raise self._error(f"{what} must be a register")
        return op.reg

    def _want_imm(self, op: _Operand, what: str) -> int:
        if op.kind != "imm":
            raise self._error(f"{what} must be an integer")
        return op.value

    # -- instructions --------------------------------------------------------

    def _instruction(self, line: str) -> None:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        operands = [self._operand(t) for t in _split_operands(operand_text)]
        if mnemonic in _PSEUDO_NAMES and \
                self._pseudo(mnemonic, operands, operand_text):
            return
        spec = SPECS.get(mnemonic)
        if spec is None:
            raise self._error(f"unknown instruction {mnemonic!r}")
        self._ASM_FORMATS[spec.fmt](self, mnemonic, spec, operands)

    def _asm_unsupported(self, mnemonic, spec, operands):
        raise self._error(f"format {spec.fmt} of {mnemonic!r} unsupported")

    def _asm_r(self, mnemonic, spec, operands):
        if len(operands) != 3:
            raise self._error(f"{mnemonic} needs rd, rs1, rs2")
        rd = self._want_reg(operands[0], "rd")
        rs1 = self._want_reg(operands[1], "rs1")
        rs2 = self._want_reg(operands[2], "rs2")
        self._emit_insn(Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2,
                                    semclass=spec.semclass))

    def _asm_amo(self, mnemonic, spec, operands):
        if len(operands) != 3:
            raise self._error(f"{mnemonic} needs rd, rs2, (rs1)")
        rd = self._want_reg(operands[0], "rd")
        # Accept both GNU "rd, rs2, (rs1)" and plain "rd, rs1, rs2".
        if operands[2].kind == "mem":
            rs2 = self._want_reg(operands[1], "rs2")
            rs1 = operands[2].reg
            if operands[2].value:
                raise self._error("AMO memory operand takes no offset")
        else:
            rs1 = self._want_reg(operands[1], "rs1")
            rs2 = self._want_reg(operands[2], "rs2")
        self._emit_insn(Instruction(mnemonic, rd=rd, rs1=rs1, rs2=rs2,
                                    semclass=spec.semclass))

    def _asm_i(self, mnemonic, spec, operands):
        if spec.semclass == "fence":
            self._emit_insn(Instruction(mnemonic, semclass=spec.semclass))
            return
        if spec.semclass == "load" or mnemonic == "jalr":
            self._asm_load_like(mnemonic, spec, operands)
            return
        if len(operands) != 3:
            raise self._error(f"{mnemonic} needs rd, rs1, imm")
        rd = self._want_reg(operands[0], "rd")
        rs1 = self._want_reg(operands[1], "rs1")
        imm_op = operands[2]
        if imm_op.kind == "lo":
            self._emit_insn(
                Instruction(mnemonic, rd=rd, rs1=rs1, imm=0,
                            semclass=spec.semclass),
                reloc=(RelocType.LO12_I, imm_op.symbol, imm_op.addend))
            return
        imm = self._want_imm(imm_op, "immediate")
        if not fits_signed(imm, 12):
            raise self._error(f"immediate {imm} out of 12-bit range")
        self._emit_insn(Instruction(mnemonic, rd=rd, rs1=rs1, imm=imm,
                                    semclass=spec.semclass))

    def _asm_load_like(self, mnemonic, spec, operands):
        if len(operands) == 2 and operands[1].kind == "lomem":
            rd = self._want_reg(operands[0], "rd")
            self._emit_insn(
                Instruction(mnemonic, rd=rd, rs1=operands[1].reg, imm=0,
                            semclass=spec.semclass),
                reloc=(RelocType.LO12_I, operands[1].symbol,
                       operands[1].addend))
            return
        if len(operands) == 2 and operands[1].kind == "mem":
            rd = self._want_reg(operands[0], "rd")
            self._emit_insn(Instruction(
                mnemonic, rd=rd, rs1=operands[1].reg, imm=operands[1].value,
                semclass=spec.semclass))
            return
        if len(operands) == 3 and operands[2].kind == "lo":
            rd = self._want_reg(operands[0], "rd")
            rs1 = self._want_reg(operands[1], "rs1")
            self._emit_insn(
                Instruction(mnemonic, rd=rd, rs1=rs1, imm=0,
                            semclass=spec.semclass),
                reloc=(RelocType.LO12_I, operands[2].symbol,
                       operands[2].addend))
            return
        if len(operands) == 3:
            rd = self._want_reg(operands[0], "rd")
            rs1 = self._want_reg(operands[1], "rs1")
            imm = self._want_imm(operands[2], "offset")
            self._emit_insn(Instruction(mnemonic, rd=rd, rs1=rs1, imm=imm,
                                        semclass=spec.semclass))
            return
        raise self._error(f"{mnemonic} needs rd, offset(rs1)")

    # [roload-begin: compiler]
    def _asm_ro(self, mnemonic, spec, operands):
        """The paper's syntax: ld.ro rd, (rs1), key (Listing 3)."""
        if len(operands) != 3 or operands[1].kind != "mem":
            raise self._error(f"{mnemonic} needs rd, (rs1), key")
        if operands[1].value:
            raise self._error(f"{mnemonic} takes no address offset — the "
                              f"immediate field holds the key")
        rd = self._want_reg(operands[0], "rd")
        key = self._want_imm(operands[2], "key")
        if not 0 <= key <= KEY_MAX:
            raise self._error(f"key {key} out of range 0..{KEY_MAX}")
        self._emit_insn(Instruction(mnemonic, rd=rd, rs1=operands[1].reg,
                                    key=key, semclass=spec.semclass))
    # [roload-end]

    def _asm_s(self, mnemonic, spec, operands):
        if len(operands) == 2 and operands[1].kind == "lomem":
            rs2 = self._want_reg(operands[0], "rs2")
            self._emit_insn(
                Instruction(mnemonic, rs1=operands[1].reg, rs2=rs2, imm=0,
                            semclass=spec.semclass),
                reloc=(RelocType.LO12_S, operands[1].symbol,
                       operands[1].addend))
            return
        if len(operands) == 2 and operands[1].kind == "mem":
            rs2 = self._want_reg(operands[0], "rs2")
            self._emit_insn(Instruction(
                mnemonic, rs1=operands[1].reg, rs2=rs2,
                imm=operands[1].value, semclass=spec.semclass))
            return
        if len(operands) == 3 and operands[2].kind == "lo":
            rs2 = self._want_reg(operands[0], "rs2")
            rs1 = self._want_reg(operands[1], "rs1")
            self._emit_insn(
                Instruction(mnemonic, rs1=rs1, rs2=rs2, imm=0,
                            semclass=spec.semclass),
                reloc=(RelocType.LO12_S, operands[2].symbol,
                       operands[2].addend))
            return
        raise self._error(f"{mnemonic} needs rs2, offset(rs1)")

    def _asm_b(self, mnemonic, spec, operands):
        if len(operands) != 3:
            raise self._error(f"{mnemonic} needs rs1, rs2, target")
        rs1 = self._want_reg(operands[0], "rs1")
        rs2 = self._want_reg(operands[1], "rs2")
        target = operands[2]
        if target.kind == "imm":
            self._emit_insn(Instruction(mnemonic, rs1=rs1, rs2=rs2,
                                        imm=target.value,
                                        semclass=spec.semclass))
        elif target.kind == "sym":
            self._emit_insn(
                Instruction(mnemonic, rs1=rs1, rs2=rs2, imm=0,
                            semclass=spec.semclass),
                reloc=(RelocType.BRANCH, target.symbol, target.addend))
        else:
            raise self._error("branch target must be a label or offset")

    def _asm_u(self, mnemonic, spec, operands):
        if len(operands) != 2:
            raise self._error(f"{mnemonic} needs rd, imm20")
        rd = self._want_reg(operands[0], "rd")
        imm_op = operands[1]
        if imm_op.kind == "hi":
            self._emit_insn(
                Instruction(mnemonic, rd=rd, imm=0, semclass=spec.semclass),
                reloc=(RelocType.HI20, imm_op.symbol, imm_op.addend))
            return
        imm = self._want_imm(imm_op, "imm20")
        self._emit_insn(Instruction(mnemonic, rd=rd, imm=imm & 0xFFFFF,
                                    semclass=spec.semclass))

    def _asm_j(self, mnemonic, spec, operands):
        if len(operands) != 2:
            raise self._error(f"{mnemonic} needs rd, target")
        rd = self._want_reg(operands[0], "rd")
        target = operands[1]
        if target.kind == "imm":
            self._emit_insn(Instruction(mnemonic, rd=rd, imm=target.value,
                                        semclass=spec.semclass))
        elif target.kind == "sym":
            self._emit_insn(
                Instruction(mnemonic, rd=rd, imm=0, semclass=spec.semclass),
                reloc=(RelocType.JAL, target.symbol, target.addend))
        else:
            raise self._error("jump target must be a label or offset")

    def _asm_shift64(self, mnemonic, spec, operands):
        self._asm_shift(mnemonic, spec, operands, 64)

    def _asm_shift32(self, mnemonic, spec, operands):
        self._asm_shift(mnemonic, spec, operands, 32)

    def _asm_shift(self, mnemonic, spec, operands, width):
        if len(operands) != 3:
            raise self._error(f"{mnemonic} needs rd, rs1, shamt")
        rd = self._want_reg(operands[0], "rd")
        rs1 = self._want_reg(operands[1], "rs1")
        shamt = self._want_imm(operands[2], "shift amount")
        if not 0 <= shamt < width:
            raise self._error(f"shift amount {shamt} out of range")
        self._emit_insn(Instruction(mnemonic, rd=rd, rs1=rs1, imm=shamt,
                                    semclass=spec.semclass))

    def _csr_number(self, op: _Operand) -> int:
        if op.kind == "imm":
            return op.value
        if op.kind == "sym" and op.symbol in _CSR_NUMBERS:
            return _CSR_NUMBERS[op.symbol]
        raise self._error("bad CSR name/number")

    def _asm_csr(self, mnemonic, spec, operands):
        if len(operands) != 3:
            raise self._error(f"{mnemonic} needs rd, csr, rs1")
        rd = self._want_reg(operands[0], "rd")
        csr = self._csr_number(operands[1])
        rs1 = self._want_reg(operands[2], "rs1")
        self._emit_insn(Instruction(mnemonic, rd=rd, rs1=rs1, csr=csr,
                                    semclass=spec.semclass))

    def _asm_csri(self, mnemonic, spec, operands):
        if len(operands) != 3:
            raise self._error(f"{mnemonic} needs rd, csr, imm5")
        rd = self._want_reg(operands[0], "rd")
        csr = self._csr_number(operands[1])
        imm = self._want_imm(operands[2], "imm5")
        self._emit_insn(Instruction(mnemonic, rd=rd, imm=imm, csr=csr,
                                    semclass=spec.semclass))

    def _asm_sys(self, mnemonic, spec, operands):
        if operands:
            raise self._error(f"{mnemonic} takes no operands")
        self._emit_insn(Instruction(mnemonic, semclass=spec.semclass))

    # -- pseudo-instructions -------------------------------------------------

    def _pseudo(self, mnemonic, operands, operand_text) -> bool:
        emit = self._emit_insn
        if mnemonic == "nop":
            emit(Instruction("addi", rd=0, rs1=0, imm=0))
            return True
        if mnemonic == "li":
            rd = self._want_reg(operands[0], "rd")
            value = self._want_imm(operands[1], "value")
            self._emit_li(rd, value)
            return True
        if mnemonic == "la":
            rd = self._want_reg(operands[0], "rd")
            target = operands[1]
            if target.kind != "sym":
                raise self._error("la needs a symbol")
            emit(Instruction("lui", rd=rd, imm=0),
                 reloc=(RelocType.HI20, target.symbol, target.addend))
            emit(Instruction("addi", rd=rd, rs1=rd, imm=0),
                 reloc=(RelocType.LO12_I, target.symbol, target.addend))
            return True
        if mnemonic == "mv":
            rd = self._want_reg(operands[0], "rd")
            rs = self._want_reg(operands[1], "rs")
            emit(Instruction("addi", rd=rd, rs1=rs, imm=0))
            return True
        if mnemonic == "not":
            rd = self._want_reg(operands[0], "rd")
            rs = self._want_reg(operands[1], "rs")
            emit(Instruction("xori", rd=rd, rs1=rs, imm=-1))
            return True
        if mnemonic == "neg":
            rd = self._want_reg(operands[0], "rd")
            rs = self._want_reg(operands[1], "rs")
            emit(Instruction("sub", rd=rd, rs1=0, rs2=rs))
            return True
        if mnemonic == "negw":
            rd = self._want_reg(operands[0], "rd")
            rs = self._want_reg(operands[1], "rs")
            emit(Instruction("subw", rd=rd, rs1=0, rs2=rs))
            return True
        if mnemonic == "sext.w":
            rd = self._want_reg(operands[0], "rd")
            rs = self._want_reg(operands[1], "rs")
            emit(Instruction("addiw", rd=rd, rs1=rs, imm=0))
            return True
        if mnemonic == "seqz":
            rd = self._want_reg(operands[0], "rd")
            rs = self._want_reg(operands[1], "rs")
            emit(Instruction("sltiu", rd=rd, rs1=rs, imm=1))
            return True
        if mnemonic == "snez":
            rd = self._want_reg(operands[0], "rd")
            rs = self._want_reg(operands[1], "rs")
            emit(Instruction("sltu", rd=rd, rs1=0, rs2=rs))
            return True
        if mnemonic == "j":
            self._asm_j("jal", SPECS["jal"],
                        [_Operand("reg", reg=0), operands[0]])
            return True
        if mnemonic == "jr":
            rs = self._want_reg(operands[0], "rs")
            emit(Instruction("jalr", rd=0, rs1=rs, imm=0, semclass="jalr"))
            return True
        if mnemonic == "ret":
            emit(Instruction("jalr", rd=0, rs1=1, imm=0, semclass="jalr"))
            return True
        if mnemonic == "call":
            self._asm_j("jal", SPECS["jal"],
                        [_Operand("reg", reg=1), operands[0]])
            return True
        if mnemonic == "tail":
            self._asm_j("jal", SPECS["jal"],
                        [_Operand("reg", reg=0), operands[0]])
            return True
        if mnemonic in ("beqz", "bnez", "bltz", "bgez", "blez", "bgtz"):
            rs = self._want_reg(operands[0], "rs")
            target = operands[1]
            table = {"beqz": ("beq", rs, 0), "bnez": ("bne", rs, 0),
                     "bltz": ("blt", rs, 0), "bgez": ("bge", rs, 0),
                     "blez": ("bge", 0, rs), "bgtz": ("blt", 0, rs)}
            name, rs1, rs2 = table[mnemonic]
            self._asm_b(name, SPECS[name],
                        [_Operand("reg", reg=rs1), _Operand("reg", reg=rs2),
                         target])
            return True
        if mnemonic == "csrr":
            rd = self._want_reg(operands[0], "rd")
            csr = self._csr_number(operands[1])
            emit(Instruction("csrrs", rd=rd, rs1=0, csr=csr,
                             semclass="csr"))
            return True
        return False

    def _emit_li(self, rd: int, value: int) -> None:
        """Load an arbitrary 64-bit constant (GNU-as style expansion)."""
        from repro.utils.bits import sext
        if value >= 1 << 63:  # accept unsigned 64-bit spellings
            value -= 1 << 64
        if not fits_signed(value, 64):
            raise self._error(f"li constant {value:#x} exceeds 64 bits")
        if fits_signed(value, 12):
            self._emit_insn(Instruction("addi", rd=rd, rs1=0, imm=value))
            return
        if fits_signed(value, 32):
            hi20, lo12 = split_hi_lo(value & 0xFFFFFFFF)
            self._emit_insn(Instruction("lui", rd=rd, imm=hi20))
            lo_signed = sext(lo12, 12)
            if lo_signed:
                self._emit_insn(Instruction("addiw", rd=rd, rs1=rd,
                                            imm=lo_signed))
            return
        # 64-bit: build the upper part, shift by 12, add a signed chunk.
        lo_signed = sext(value & 0xFFF, 12)
        upper = (value - lo_signed) >> 12
        self._emit_li(rd, upper)
        self._emit_insn(Instruction("slli", rd=rd, rs1=rd, imm=12))
        if lo_signed:
            self._emit_insn(Instruction("addi", rd=rd, rs1=rd,
                                        imm=lo_signed))


# Format -> emitter, resolved once instead of per-instruction getattr.
Assembler._ASM_FORMATS = {
    fmt: getattr(Assembler, f"_asm_{fmt.lower()}", Assembler._asm_unsupported)
    for fmt in {spec.fmt for spec in SPECS.values()}
}


def assemble(source: str, name: str = "<asm>", rvc: bool = True) \
        -> ObjectFile:
    """Assemble a source string into an object file."""
    return Assembler(source, name=name, rvc=rvc).assemble()
