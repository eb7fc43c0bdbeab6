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

Tiers 2 and 4 run their lowered units on one of two flat-core runners:
the native one (a C extension built at import, when the host can build
it) and the Python loop it was ported from. Every tier-2 and tier-4
comparison here runs on each runner the host has (:data:`CONFIGS`),
switched at module level by the ``use_runner`` fixture.
"""

import dataclasses

import pytest

from repro.asm import assemble, link
from repro.cpu import Core, TimingModel, flatcore
from repro.errors import SimulationError
from repro.eval.measure import run_variant
from repro.kernel import Kernel, ProcessState, SIGSEGV
from repro.mem import MMU, PhysicalMemory
from repro.soc import build_system
from repro.workloads import build_workload, profile

from tests.cpu.conftest import patch_own_code_loop

# tier name -> (REPRO_FASTPATH, REPRO_JIT, REPRO_TIER4)
TIERS = {
    "slow": ("0", "0", "0"),
    "tier1": ("1", "0", "0"),
    "tier2": ("1", "1", "0"),
    "tier4": ("1", "1", "1"),
}

COMPARED = ("tier1", "tier2", "tier4")

# The flat-core runners this host has: the native one when it was built
# here, and always the Python loop, the reference.
NATIVE = flatcore._native
RUNNERS = ("python",) if NATIVE is None else ("native", "python")

# Every compared configuration: a tier, and the runner its flat-core
# units use (tier 1 lowers nothing, so one runner is enough there).
CONFIGS = [("tier1", "python")] + [(tier, runner)
                                   for tier in ("tier2", "tier4")
                                   for runner in RUNNERS]


@pytest.fixture()
def use_runner(monkeypatch):
    """Switch the module-level flat-core runner for the rest of a test:
    ``use_runner("native")`` or ``use_runner("python")``."""
    def use(runner):
        monkeypatch.setattr(flatcore, "_native",
                            NATIVE if runner == "native" else None)
        assert flatcore.runner() == runner
    return use


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
def test_workload_equivalence(monkeypatch, use_runner, name, variant):
    slow = measure(monkeypatch, name, variant, "slow")
    for tier, runner in CONFIGS:
        use_runner(runner)
        fast = measure(monkeypatch, name, variant, tier)
        tier = f"{tier}/{runner}"
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


def test_roload_key_mismatch_through_fast_path(monkeypatch, use_runner):
    results = {}
    for tier, runner in [("slow", "python")] + CONFIGS:
        use_runner(runner)
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
        results[tier, runner] = (
            core.cycles, core.instret,
            len(kernel.security_log), event.reason,
            event.insn_key, event.page_key, event.pc, event.fault_address,
        )
    slow = results["slow", "python"]
    for config in CONFIGS:
        assert results[config] == slow, config
    assert slow[3] == "key_mismatch"
    assert slow[4] == 7 and slow[5] == 42


def _bare_core(monkeypatch, tier):
    set_tier(monkeypatch, tier)
    memory = PhysicalMemory(1 << 20)
    core = Core(memory, MMU(memory), timing=TimingModel())
    core.pc = 0x1000
    return core


def test_self_modifying_code_equivalence(monkeypatch, use_runner):
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
    for tier, runner in [("slow", "python")] + CONFIGS:
        use_runner(runner)
        core = _bare_core(monkeypatch, tier)
        program(core)
        retired = core.run(100, trap_handler=None)  # stops at ebreak
        outcomes[tier, runner] = (core.regs[10], retired, core.cycles)
    slow = outcomes["slow", "python"]
    for config in CONFIGS:
        assert outcomes[config] == slow, config
    assert slow[0] == 9  # the patched instruction executed


def test_budget_exhaustion_identical(monkeypatch, use_runner):
    """Block replay and compiled blocks must not overshoot the
    instruction budget."""
    from repro.isa import Instruction, encode

    for tier, runner in [("slow", "python")] + CONFIGS:
        use_runner(runner)
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


# -- both runners, state after faults and aborts ------------------------------

def machine_state(core):
    """Everything a run leaves behind that a runner could get wrong:
    registers, pc, the timing and MMU counters, and the caches' and
    TLBs' hit/miss counts and LRU order."""
    mmu = core.mmu

    def cache(c):
        return c.hits, c.misses, [list(ways) for ways in c.line_sets]

    def tlb(t):
        return t.hits, t.misses, list(t.entry_map)
    return {
        "regs": list(core.regs), "pc": core.pc,
        "timing": dataclasses.asdict(core.timing.stats),
        "mmu": dataclasses.asdict(mmu.stats),
        "icache": cache(core.icache), "dcache": cache(core.dcache),
        "dtlb": tlb(mmu.dtlb), "itlb": tlb(mmu.itlb),
    }


def unit_counters(core):
    """Counters of the compiled tiers themselves: equal between the two
    runners of one tier, not across tiers."""
    return {"tier4": core.tier4_retired,
            "side_exits": core.region_side_exits,
            "compiled": (core.jit_compiled, core.regions_compiled)}


def compare_kernel_runs(monkeypatch, use_runner, source):
    """Run ``source`` on the slow tier and on every configuration; every
    configuration must leave the slow tier's machine state, and the two
    runners of a tier the same unit counters. Returns the slow run's
    kernel, process and state."""
    use_runner("python")
    slow_kernel, slow_process = run_kernel_program(monkeypatch, source,
                                                   "slow")
    slow = machine_state(slow_kernel.system.core)
    units = {}
    for tier, runner in CONFIGS:
        use_runner(runner)
        kernel, process = run_kernel_program(monkeypatch, source, tier)
        core = kernel.system.core
        assert process.state is slow_process.state, (tier, runner)
        assert machine_state(core) == slow, (tier, runner)
        assert [dataclasses.astuple(e) for e in kernel.security_log] == \
            [dataclasses.astuple(e) for e in slow_kernel.security_log]
        units.setdefault(tier, {})[runner] = unit_counters(core)
        if tier == "tier4":
            assert core.tier4_retired > 0, runner   # non-vacuity
    for tier, by_runner in units.items():
        assert len(set(map(repr, by_runner.values()))) == 1, tier
    return slow_kernel, slow_process, slow


@pytest.mark.parametrize("source,reason", [
    ("HOT_WALK_KEY", "key_mismatch"),
    ("HOT_WALK_WRITABLE", "not_read_only"),
], ids=["key-mismatch", "writable-page"])
def test_hot_roload_faults_match_on_both_runners(monkeypatch, use_runner,
                                                 source, reason):
    """An ld.ro that faults from inside a hot block or region — a key
    mismatch, or a pointee on a writable page — is delivered with the
    same tval, pc and security-log entry on both runners, which also
    leave the same registers and counters."""
    from tests.cpu import test_jit

    kernel, process, __ = compare_kernel_runs(
        monkeypatch, use_runner, getattr(test_jit, source))
    assert process.signal.number == SIGSEGV and process.signal.roload
    assert kernel.security_log[0].reason == reason


# A hot loop walks a pointer off the end of its data: the load of the
# first unmapped page faults mid-region, after the same pass has already
# written registers (s1) and memory.
WALK_OFF_THE_END = r"""
.globl _start
_start:
    la s0, buf
loop:
    addi s1, s1, 1
    ld a1, 0(s0)
    add s2, s2, a1
    sd s1, 8(s0)
    addi s0, s0, 64
    j loop
.data
buf: .quad 7
    .space 8192
"""


def test_trap_mid_region_leaves_same_state(monkeypatch, use_runner):
    """A page fault raised in the middle of a region pass leaves the
    same registers (including the ones the pass wrote before the fault)
    and the same counters on both runners as on the slow tier."""
    __, process, slow = compare_kernel_runs(monkeypatch, use_runner,
                                            WALK_OFF_THE_END)
    assert process.state is ProcessState.KILLED
    assert process.signal.number == SIGSEGV
    assert slow["regs"][9] > 64     # s1: the loop ran hot before faulting


# Each pass loads from two pages and stores to a third at the same page
# offset, so one pass touches three D-TLB entries and three lines of
# one D-cache set (the L1D's ways are 4 KiB): the deferred LRU moves
# must replay in the order the accesses happened.
THREE_PAGES_ONE_SET = r"""
.globl _start
_start:
    li t0, 200
    la s0, pages
    li t1, 4096
    add s1, s0, t1
    add s2, s1, t1
loop:
    ld a1, 0(s0)
    ld a2, 0(s1)
    add a3, a1, a2
    sd a3, 8(s2)
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
.data
.balign 4096
pages:
    .quad 1
    .space 12280
"""


def test_lru_order_matches_on_both_runners(monkeypatch, use_runner):
    """Cache and TLB LRU order after a loop that reorders one set and
    several TLB entries every pass: the deferred replay on both runners
    ends in the order eager moves leave on the slow tier."""
    __, process, slow = compare_kernel_runs(monkeypatch, use_runner,
                                            THREE_PAGES_ONE_SET)
    assert process.exit_code == 0


def test_smc_abort_resumes_at_same_pc(monkeypatch, use_runner):
    """A unit that patches its own code leaves right after the store;
    on both runners every trampoline return lands on the same pc with
    the same instret, and the run ends as on the slow tier."""
    from repro.cpu.trap import Trap

    traces, finals = {}, {}
    for tier, runner in [("slow", "python")] + CONFIGS:
        use_runner(runner)
        core = _bare_core(monkeypatch, tier)
        patch_own_code_loop(core)
        trace = []
        with pytest.raises(Trap):           # the final ebreak
            while True:
                core.step_block(1000)
                trace.append((core.pc, core.instret))
        traces[tier, runner] = trace
        finals[tier, runner] = (list(core.regs), core.pc, core.instret,
                                core.cycles)
        if tier in ("tier2", "tier4"):
            assert core.jit_flushes >= 1, (tier, runner)  # it did abort
    for tier in ("tier2", "tier4"):
        assert traces[tier, RUNNERS[0]] == traces[tier, "python"], tier
    slow = finals["slow", "python"]
    for config in CONFIGS:
        assert finals[config] == slow, config
    assert slow[0][10] == 12    # a0: every pass ran its addi


# A hot loop of correctly keyed ld.ro: every execution must take the
# MMU's key and read-only check (DESIGN.md §8), in every tier.
ROLOAD_LOOP = r"""
.globl _start
_start:
    li t0, 64
    la s0, table
loop:
    ld.ro a1, (s0), 42
    add s1, s1, a1
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
.section .rodata.key.42
table: .quad 5
"""
ROLOAD_EXECUTIONS = 64


def roload_checks(monkeypatch, tier):
    kernel, process = run_kernel_program(monkeypatch, ROLOAD_LOOP, tier)
    assert process.exit_code == 0
    core = kernel.system.core
    if tier == "tier4":
        assert core.tier4_retired > 0   # the loop ran as a region
    return kernel.system.mmu.stats.roload_checks


def test_every_ld_ro_execution_takes_the_mmu_check(monkeypatch, use_runner):
    """``mmu.stats.roload_checks`` counts one check per ld.ro executed,
    on every tier and both runners: no runner serves ld.ro from a cached
    page view."""
    for tier, runner in [("slow", "python")] + CONFIGS:
        use_runner(runner)
        assert roload_checks(monkeypatch, tier) == ROLOAD_EXECUTIONS, \
            (tier, runner)


def test_ld_ro_served_from_the_cached_view_is_caught(monkeypatch,
                                                     use_runner):
    """Positive control for the test above: a mutant flat core that
    lowers ld.ro as a plain load, served from the cached page view,
    skips checks on every runner — and the count exposes it."""
    from repro.isa.opcodes import LOAD_INFO, RO_INFO

    classify = flatcore._classify
    monkeypatch.setattr(flatcore, "_classify", lambda name: "load"
                        if name in RO_INFO else classify(name))
    monkeypatch.setattr(flatcore, "LOAD_INFO", {**LOAD_INFO, **RO_INFO})
    for runner in RUNNERS:
        use_runner(runner)
        assert roload_checks(monkeypatch, "tier4") < ROLOAD_EXECUTIONS, \
            runner
