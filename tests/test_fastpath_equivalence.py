"""Differential proof that the interpreter fast paths change nothing.

The simulator has four interpreter tiers (src/repro/cpu/core.py,
src/repro/cpu/regions.py and src/repro/cpu/flatcore.py):

  slow   REPRO_FASTPATH=0                 the seed decode-dispatch loop
  tier1  REPRO_FASTPATH=1 REPRO_JIT=0     block replay + D-side page cache
  tier2  ... REPRO_JIT=1 REPRO_TIER4=0    hot blocks lowered to the flat
                                          core, one block each
  tier4  ... REPRO_TIER4=1                hot loops planned as superblocks
                                          and lowered to flat arrays

All four are pure implementation details: every test here runs the same
program under each tier and asserts the architectural results are
bit-identical: cycles, retired instructions, memory, exit codes,
cache/TLB miss rates, and fault delivery (including the ROLoad security
log).
"""

import dataclasses

import pytest

from repro.asm import assemble, link
from repro.cpu import Core, TimingModel
from repro.errors import SimulationError
from repro.eval.measure import run_variant
from repro.kernel import Kernel, ProcessState, SIGSEGV
from repro.mem import MMU, PhysicalMemory
from repro.soc import build_system
from repro.workloads import build_workload, profile

# tier name -> (REPRO_FASTPATH, REPRO_JIT, REPRO_TIER4)
TIERS = {
    "slow": ("0", "0", "0"),
    "tier1": ("1", "0", "0"),
    "tier2": ("1", "1", "0"),
    "tier4": ("1", "1", "1"),
}

COMPARED = ("tier1", "tier2", "tier4")


def set_tier(monkeypatch, tier):
    fastpath, jit, tier4 = TIERS[tier]
    monkeypatch.setenv("REPRO_FASTPATH", fastpath)
    monkeypatch.setenv("REPRO_JIT", jit)
    monkeypatch.setenv("REPRO_TIER4", tier4)
    # Low promotion thresholds so the scaled-down workloads really do
    # execute compiled blocks and regions, and debug mode so a compile
    # failure is an error rather than a silent fallback to tier 1.
    monkeypatch.setenv("REPRO_JIT_THRESHOLD", "2")
    monkeypatch.setenv("REPRO_REGION_THRESHOLD", "2")
    monkeypatch.setenv("REPRO_JIT_DEBUG", "1")


WORKLOADS = [
    ("429.mcf", "base"),
    ("462.libquantum", "vcall"),
    ("473.astar", "cfi"),
    ("401.bzip2", "icall"),
]


def measure(monkeypatch, name, variant, tier):
    set_tier(monkeypatch, tier)
    program = build_workload(profile(name), scale=0.05)
    return run_variant(program, variant)


@pytest.mark.parametrize("name,variant", WORKLOADS)
def test_workload_equivalence(monkeypatch, name, variant):
    slow = measure(monkeypatch, name, variant, "slow")
    for tier in COMPARED:
        fast = measure(monkeypatch, name, variant, tier)
        assert dataclasses.asdict(fast) == dataclasses.asdict(slow), tier
        # The fields the issue names, spelled out for a readable failure:
        assert fast.cycles == slow.cycles, tier
        assert fast.instructions == slow.instructions, tier
        assert fast.memory_kib == slow.memory_kib, tier
        assert fast.exit_code == slow.exit_code, tier
        assert fast.dtlb_miss_rate == slow.dtlb_miss_rate, tier
        assert fast.dcache_miss_rate == slow.dcache_miss_rate, tier


# A hot loop of ROLoad accesses (so the faulting site is replayed from a
# cached block, not interpreted cold) followed by a key-mismatch ld.ro.
ROLOAD_FAULT = r"""
.globl _start
_start:
    li t0, 32
    la s0, table
loop:
    ld.ro a1, (s0), 42      # correct key: hits through the fast path
    add s1, s1, a1
    addi t0, t0, -1
    bnez t0, loop
    ld.ro a2, (s0), 7       # wrong key: must fault mid fast path
    li a7, 93
    ecall
.section .rodata.key.42
table: .quad 5
"""


def run_kernel_program(monkeypatch, source, tier):
    set_tier(monkeypatch, tier)
    kernel = Kernel(build_system("processor+kernel", memory_size=64 << 20))
    process = kernel.create_process(link([assemble(source)]))
    kernel.run(process)
    return kernel, process


def test_roload_key_mismatch_through_fast_path(monkeypatch):
    results = {}
    for tier in TIERS:
        kernel, process = run_kernel_program(monkeypatch, ROLOAD_FAULT, tier)
        assert process.state is ProcessState.KILLED
        assert process.signal.number == SIGSEGV
        assert process.signal.roload
        event = kernel.security_log[0]
        core = kernel.system.core
        if tier != "slow":
            # Guard against vacuity: the block cache really engaged.
            assert core._blocks
        if tier in ("tier2", "tier4"):
            assert core.jit_compiled > 0 and core._jit_blocks
        if tier == "tier4":
            # Guard against vacuity: the hot ld.ro loop really did run
            # as a lowered region when the tier-4 knob is on.
            assert core.regions_compiled > 0
            assert core.tier4_retired > 0
        results[tier] = (
            core.cycles, core.instret,
            len(kernel.security_log), event.reason,
            event.insn_key, event.page_key, event.pc, event.fault_address,
        )
    for tier in COMPARED:
        assert results[tier] == results["slow"], tier
    assert results["slow"][3] == "key_mismatch"
    assert results["slow"][4] == 7 and results["slow"][5] == 42


def _bare_core(monkeypatch, tier):
    set_tier(monkeypatch, tier)
    memory = PhysicalMemory(1 << 20)
    core = Core(memory, MMU(memory), timing=TimingModel())
    core.pc = 0x1000
    return core


def test_self_modifying_code_equivalence(monkeypatch):
    """A store over not-yet-executed code (no fence.i) must behave the
    same whether or not the first copy was already block-cached (tier 1)
    or compiled (tier 2)."""
    from repro.isa import Instruction, encode

    def program(core):
        base = 0x1000
        insns = [
            # Overwrite the "addi a0, zero, 1" below — an instruction in
            # the SAME basic block as the store — with "addi a0, zero, 9".
            Instruction("lui", rd=5, imm=0x2),               # t0 = 0x2000
            Instruction("lw", rd=6, rs1=5, imm=0),           # patched word
            Instruction("lui", rd=7, imm=0x1),               # t2 = 0x1000
            Instruction("sw", rs1=7, rs2=6, imm=16),
            Instruction("addi", rd=10, rs1=0, imm=1),        # gets patched
            Instruction("ebreak"),
        ]
        addr = base
        for insn in insns:
            core.memory.write(addr, 4, encode(insn))
            addr += 4
        core.memory.write(0x2000, 4,
                          encode(Instruction("addi", rd=10, rs1=0, imm=9)))

    outcomes = {}
    for tier in TIERS:
        core = _bare_core(monkeypatch, tier)
        program(core)
        retired = core.run(100, trap_handler=None)  # stops at ebreak
        outcomes[tier] = (core.regs[10], retired, core.cycles)
    for tier in COMPARED:
        assert outcomes[tier] == outcomes["slow"], tier
    assert outcomes["slow"][0] == 9  # the patched instruction executed


def test_budget_exhaustion_identical(monkeypatch):
    """Block replay and compiled blocks must not overshoot the
    instruction budget."""
    from repro.isa import Instruction, encode

    for tier in TIERS:
        core = _bare_core(monkeypatch, tier)
        # A straight-line run ending in a backwards jump: infinite loop.
        addr = 0x1000
        for __ in range(8):
            core.memory.write(addr, 4,
                              encode(Instruction("addi", rd=5, rs1=5, imm=1)))
            addr += 4
        core.memory.write(addr, 4,
                          encode(Instruction("jal", rd=0, imm=-(addr - 0x1000))))
        with pytest.raises(SimulationError):
            core.run(100)
        assert core.instret == 100, f"tier={tier} retired {core.instret}"
        if tier in ("tier2", "tier4"):
            assert core.jit_compiled > 0  # the loop really was compiled
