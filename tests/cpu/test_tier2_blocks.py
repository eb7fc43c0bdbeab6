"""Tier 2 on the flat core: single-block lowering, one exit shape at a time.

Tier 4 first lowers each basic block as a one-member, non-loop plan on
the flat core (src/repro/cpu/flatcore.py, ``compile_block``) — a plan
shape the region planner never produces. Each program here makes one
kind of block end hot with regions held off (the test-only blocks-only
leg, ``tests.conftest.BLOCKS_ONLY``; a lowering failure is an error),
then checks the run against the slow interpreter bit for bit (without
the native runner the run is at tier 1 and only that comparison
holds). The programs cover the exits the wider differential suites do
not pin down one by one: a branch hot in both
directions, ``jal``/``jalr`` call and return, an ``ecall`` and a CSR
read (generic terminators that observe the counters), and page-boundary
fall-through out of a block whose last entry is an ALU op, a load, a
store, or an ``ld.ro`` that key-faults.

The module also holds the structural guarantee behind tier 2's design:
nothing under ``repro.cpu`` or ``repro.isa`` generates code at run time.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.asm import assemble, link
from repro.cpu import flatcore
from repro.cpu.core import _HANDLERS
from repro.kernel import Kernel
from repro.soc import build_system

from tests.conftest import BLOCKS_ONLY, LOWERS, needs_native, set_tier


def _page_tail(tail):
    """Start ``loop`` ``tail`` instructions before a page boundary:
    ``.balign`` pads to one boundary, the skip runs up to just short of
    the next. The programs are 4-byte only (.option norvc) so this is
    exact; each test re-checks the layout it relies on."""
    return f"    j loop\n    .balign 4096\n    .skip {4096 - 4 * tail}\n"


BRANCH_BOTH_WAYS = """\
.option norvc
.globl _start
_start:
    li t0, 64
loop:
    andi t1, t0, 1
    beqz t1, even           # alternates: taken, not taken, ...
    addi s1, s1, 3
even:
    addi s2, s2, 1
    addi t0, t0, -1
    bnez t0, loop
    add a0, s1, s2
    andi a0, a0, 0x7f
    li a7, 93
    ecall
"""

CALL_RETURN = """\
.option norvc
.globl _start
_start:
    li t0, 48
loop:
    mv a0, t0
    jal ra, bump            # block ends in jal
    add s1, s1, a0
    addi t0, t0, -1
    bnez t0, loop
    andi a0, s1, 0x7f
    li a7, 93
    ecall
bump:
    slli a0, a0, 1
    addi a0, a0, 5
    ret                     # block ends in jalr
"""

SYSCALL_AND_CSR = """\
.option norvc
.globl _start
_start:
    li t0, 40
loop:
    addi s3, s3, 1
    csrr t1, cycle          # generic terminator reading the counters
    csrr t2, instret
    sub t3, t1, t2
    add s1, s1, t3
    li a7, 172
    ecall                   # getpid: generic terminator via the kernel
    add s2, s2, a0
    addi t0, t0, -1
    bnez t0, loop
    add a0, s1, s2
    andi a0, a0, 0x7f
    li a7, 93
    ecall
"""

# A loop whose body straddles a page: the first block is cut by the page
# boundary after its last entry and falls through to the next page.
PAGE_FALL_ALU = """\
.option norvc
.globl _start
_start:
    li t0, 40
""" + _page_tail(2) + """\
loop:
    addi s1, s1, 1
    slli s2, s1, 2          # last entry on the page
    add s3, s3, s2
    addi t0, t0, -1
    bnez t0, loop
    andi a0, s3, 0x7f
    li a7, 93
    ecall
"""

PAGE_FALL_LOAD = """\
.option norvc
.globl _start
_start:
    li t0, 40
    la s0, table
""" + _page_tail(2) + """\
loop:
    addi s1, s1, 1
    ld a1, 0(s0)            # last entry on the page
    add s2, s2, a1
    addi s0, s0, 8
    addi t0, t0, -1
    bnez t0, loop
    andi a0, s2, 0x7f
    li a7, 93
    ecall
.data
table:
""" + "    .quad 3\n" * 40

PAGE_FALL_STORE = """\
.option norvc
.globl _start
_start:
    li t0, 40
    la s0, buf
""" + _page_tail(2) + """\
loop:
    addi s1, s1, 7
    sd s1, 0(s0)            # last entry on the page
    ld a1, 0(s0)
    add s2, s2, a1
    addi s0, s0, 8
    addi t0, t0, -1
    bnez t0, loop
    andi a0, s2, 0x7f
    li a7, 93
    ecall
.data
buf:
    .zero 320
"""

# The ld.ro ends the block; the pointer walks off its key-5 page onto
# the key-9 page (keyed rodata is laid out page-aligned in key order),
# so the 513th execution of the hot block key-faults.
PAGE_FALL_ROLOAD = """\
.option norvc
.globl _start
_start:
    li t0, 520
    la s0, table
""" + _page_tail(2) + """\
loop:
    addi t0, t0, -1
    ld.ro a1, (s0), 5       # last entry on the page
    add s1, s1, a1
    addi s0, s0, 8
    bnez t0, loop
    li a7, 93
    ecall
.section .rodata.key.5
table:
""" + "    .quad 1\n" * 512 + """\
.section .rodata.key.9
sentinel:
    .quad 2
"""

# name -> (source, mnemonic ending the hot block under test, whether that
# block must end at a page boundary)
CASES = {
    "branch-both-ways": (BRANCH_BOTH_WAYS, "beq", False),
    "jal": (CALL_RETURN, "jal", False),
    "jalr": (CALL_RETURN, "jalr", False),
    "csr": (SYSCALL_AND_CSR, "csrrs", False),
    "ecall": (SYSCALL_AND_CSR, "ecall", False),
    "page-fall-alu": (PAGE_FALL_ALU, "slli", True),
    "page-fall-load": (PAGE_FALL_LOAD, "ld", True),
    "page-fall-store": (PAGE_FALL_STORE, "sd", True),
    "page-fall-roload-fault": (PAGE_FALL_ROLOAD, "ld.ro", True),
}


def _run(monkeypatch, source, tier2):
    set_tier(monkeypatch, BLOCKS_ONLY if tier2 else "slow")
    kernel = Kernel(build_system("processor+kernel", memory_size=64 << 20))
    process = kernel.create_process(link([assemble(source)]))
    kernel.run(process)
    core = kernel.system.core
    mmu = kernel.system.mmu
    signal = process.signal
    observed = {
        "state": process.state,
        "exit_code": process.exit_code,
        "signal": None if signal is None else (signal.number,
                                               signal.roload),
        "security_log": [(e.reason, e.insn_key, e.page_key, e.pc,
                          e.fault_address) for e in kernel.security_log],
        "regs": list(core.regs),
        "pc": core.pc,
        "instret": core.instret,
        "cycles": core.cycles,
        "stats": vars(core.timing.stats).copy(),
        "icache": (core.icache.hits, core.icache.misses),
        "dcache": (core.dcache.hits, core.dcache.misses),
        "dtlb": (mmu.dtlb.hits, mmu.dtlb.misses),
        "roload_checks": mmu.stats.roload_checks,
    }
    return observed, core


@pytest.mark.parametrize("case", list(CASES))
def test_single_block_exit_matches_slow_path(monkeypatch, case):
    source, last, at_page_end = CASES[case]
    slow, __ = _run(monkeypatch, source, tier2=False)
    fast, core = _run(monkeypatch, source, tier2=True)
    assert fast == slow
    if case == "page-fall-roload-fault":
        assert slow["security_log"][0][0] == "key_mismatch"
    if not LOWERS:
        return
    # Not vacuous: tier 2 blocks alone ran the program (no regions), and
    # a lowered block ending in the mnemonic under test exists.
    assert core.regions_compiled == 0
    assert core.tier_residency()["tier2_retired"] > 0
    ends = {}
    for rec in core._jit_blocks.values():
        block = core._blocks[rec.start_pc]
        ends[block[0][rec.n - 1][1].name] = rec
    assert last in ends, sorted(ends)
    if at_page_end:
        assert ends[last].end_pc & 0xFFF == 0   # cut by the page boundary


@needs_native
def test_lowered_generic_sites_hold_only_module_level_handlers(monkeypatch):
    """A block entry's handler may be a closure over its core, but a
    lowered value is shared across cores (repro.cpu.translations): its
    generic sites take the module-level handler whatever the entry
    holds."""
    __, core = _run(monkeypatch, SYSCALL_AND_CSR, tier2=True)
    foreign = lambda core, insn, pc: None  # noqa: E731
    pc, (entries, vpn, frame) = next(
        (pc, block) for pc, block in core._blocks.items()
        if any(e[1].name == "csrrs" for e in block[0]))
    block = (tuple((foreign,) + e[1:] for e in entries), vpn, frame)
    gh = flatcore.compile_block(core, block, pc).lowered.GH
    assert gh
    assert all(handler is _HANDLERS[insn.name] for handler, insn in gh)


def test_no_runtime_code_generation():
    """Every compiled tier lowers to data: no module under repro.cpu or
    repro.isa calls compile() or exec()."""
    root = Path(repro.__file__).parent
    calls = []
    for package in ("cpu", "isa"):
        for path in sorted((root / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id in ("compile", "exec"):
                    calls.append(f"{path.name}:{node.lineno}")
    assert not calls, calls
