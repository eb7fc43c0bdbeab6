"""The assembler's line memo: each distinct instruction line is encoded
once and replayed afterwards, and a replay must be indistinguishable
from encoding the line again."""

import pytest

from repro.asm import assemble
from repro.asm import assembler
from repro.compiler import compile_to_assembly
from repro.compiler.pipeline import RUNTIME_ASM
from repro.errors import AssemblerError
from repro.eval.measure import make_hardening
from repro.fuzz.target import VictimSpec, build_victim
from repro.defenses import TypeBasedCFI, VCallProtection
from repro.isa import Instruction, format_instruction
from repro.isa.opcodes import SPECS
from repro.workloads import build_workload, profile

from ..cpu import test_tier2_blocks as tier2

# Every pseudo-instruction, every relocation kind, labels sharing a line
# with an instruction, data directives and both encodings of one line.
HANDWRITTEN = """\
.section .text
.globl _start
_start: li a0, 0x123456789   # 64-bit constant
    li a1, -2048
    li a2, 0x7ffff800
    la a3, table
    lui a4, %hi(table+8)
    ld a5, %lo(table+8)(a4)
    sd a5, %lo(table)(a4)
    addi a6, a4, %lo(table)
    mv a7, a0
    nop
    not t0, a0
    neg t1, a0
    negw t2, a0
    sext.w t3, a0
    seqz t4, a0
    snez t5, a0
here: beqz a0, here
    bnez a0, _start
    bltz a0, here
    bgez a0, here
    blez a0, here
    bgtz a0, here
    beq a0, a1, there
    csrr a0, cycle
    csrrs a0, cycle, zero
    amoadd.d a0, a1, (a2)
    ld.ro a0, (a1), 7
    ld.ro s2, (s3), 900
    call there
    tail there
    jr a0
.option norvc
there: addi a0, a0, 1
    ld a0, 8(sp)
.option rvc
    addi a0, a0, 1
    ld a0, 8(sp)
    ret
.section .rodata.key.5
table: .quad there, here+4
.data
.byte 1, 2
.half 3
.word 4
.asciz "hi"
.align 8
.quad table
.bss
.zero 64
"""


def _generated_sources():
    for name, variant in (("483.xalancbmk", "vcall"),
                          ("471.omnetpp", "vtint"),
                          ("403.gcc", "icall"), ("445.gobmk", "cfi"),
                          ("429.mcf", "base")):
        program = build_workload(profile(name), scale=0.05)
        yield f"{name}/{variant}", compile_to_assembly(
            program.module, hardening=make_hardening(variant, program))
    for spec in (VictimSpec(reps=4, arith=3),
                 VictimSpec(reps=6, loop=True, vcalls=2, icalls=3)):
        yield f"victim-{spec.reps}-{spec.loop}", compile_to_assembly(
            build_victim(spec),
            hardening=[VCallProtection(), TypeBasedCFI()])


def _disassembly_source():
    """One line per mnemonic, as the disassembler prints it."""
    lines = []
    for name, spec in sorted(SPECS.items()):
        fields = {"SHIFT32": dict(rd=5, rs1=6, imm=3),
                  "SHIFT64": dict(rd=5, rs1=6, imm=35),
                  "U": dict(rd=5, imm=0x12345)}.get(
            spec.fmt, dict(rd=5, rs1=6, rs2=7, imm=-8, key=3, csr=0xC00))
        if spec.semclass == "fence" or spec.fmt in ("SYS", "CSR", "CSRI"):
            continue
        lines.append(format_instruction(Instruction(
            name, semclass=spec.semclass, **fields)))
    return "\n".join(lines) + "\n"


CORPUS = {
    "runtime": RUNTIME_ASM,
    "handwritten": HANDWRITTEN,
    "disassembly": _disassembly_source(),
    **{name: getattr(tier2, name) for name in (
        "BRANCH_BOTH_WAYS", "CALL_RETURN", "SYSCALL_AND_CSR",
        "PAGE_FALL_ALU", "PAGE_FALL_LOAD", "PAGE_FALL_STORE",
        "PAGE_FALL_ROLOAD")},
    **dict(_generated_sources()),
}


@pytest.fixture()
def memo(monkeypatch):
    """A private, empty memo for one test."""
    table = {}
    monkeypatch.setattr(assembler, "_LINE_MEMO", table)
    return table


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_replayed_lines_equal_encoded_lines(name, memo, monkeypatch):
    source = CORPUS[name]
    cold = assemble(source, name="t.s")
    assert memo, "nothing was memoized"
    warm = assemble(source, name="t.s")
    monkeypatch.setattr(assembler, "_LINE_MEMO_MAX", 0)
    memo.clear()
    plain = assemble(source, name="t.s")
    assert not memo
    for obj in (cold, warm):
        assert obj.sections == plain.sections
        assert obj.symbols == plain.symbols
        assert obj.relocations == plain.relocations


def test_rvc_option_is_part_of_the_key(memo):
    line = "addi a0, a0, 1"
    source = f"{line}\n.option norvc\n{line}\n.option rvc\n{line}\n"
    for _ in range(2):
        data = bytes(assemble(source).sections[".text"].data)
        assert len(data) == 2 + 4 + 2
        assert data[:2] == data[6:] != data[2:4]
    assert {key for key in memo if key[1] == line} == \
        {(True, line), (False, line)}


def test_relocations_are_rebased_onto_each_use(memo):
    obj = assemble("la a0, x\nnop\nla a0, x\nx: .quad 0\n", rvc=False)
    assert [(r.offset, r.rtype) for r in obj.relocations] == \
        [(0, "hi20"), (4, "lo12_i"), (12, "hi20"), (16, "lo12_i")]


def test_a_bad_line_after_memoized_lines_reports_its_own_line(memo):
    good = "addi a0, a0, 1\nla a1, target\ncall target\n"
    assemble(good + "target: ret\n")
    source = good * 3 + "addi a0, a0, 4096\n" + good
    for _ in range(2):
        with pytest.raises(AssemblerError) as info:
            assemble(source, name="bad.s")
        assert info.value.line == 10
        assert "bad.s:10:" in str(info.value)
    assert all(key[1] != "addi a0, a0, 4096" for key in memo)


def test_labels_and_directives_are_never_memoized(memo):
    assemble(".section .text\nentry: addi a0, a0, 1\n.p2align 2\n"
             "other:\n.quad entry\n")
    assert set(memo) == {(True, "addi a0, a0, 1")}


def test_memo_stops_growing_at_its_bound(memo, monkeypatch):
    source = "".join(f"li a0, {n}\n" for n in range(100))
    monkeypatch.setattr(assembler, "_LINE_MEMO_MAX", 16)
    bounded = assemble(source)
    assert len(memo) == 16
    monkeypatch.setattr(assembler, "_LINE_MEMO_MAX", 0)
    memo.clear()
    assert assemble(source) == bounded


def test_default_bound_holds(memo):
    limit = assembler._LINE_MEMO_MAX
    assemble("".join(f"li a0, {n}\n" for n in range(limit + 500)))
    assert len(memo) == limit
