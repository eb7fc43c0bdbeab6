"""Differential proof that the interpreter fast paths change nothing.

The simulator has three interpreter tiers (src/repro/cpu/core.py,
src/repro/cpu/regions.py and src/repro/cpu/flatcore.py), the values of
``REPRO_TIER`` (:data:`repro.config.TIERS`), and the suite compares a
fourth, test-only leg (``tests.conftest.LEGS``):

  slow   the seed decode-dispatch loop
  tier1  block replay + D-side page cache
  tier2  test-only: tier 4 with its region threshold out of reach, every
         block lowered to the flat core on its first dispatch, one block
         each
  tier4  every block lowered, plus hot loops planned as superblocks and
         lowered to flat arrays

All are pure implementation details: every test here runs the same
program under each leg and asserts the architectural results are
bit-identical: cycles, retired instructions, memory, exit codes,
cache/TLB miss rates, and fault delivery (including the ROLoad security
log). The workloads run at the production region threshold; the short
test programs lower it so they reach tier 4.

Lowered units run on the flat core's native runner, a C extension built
at import. Where the host cannot build it a tier-4 core runs tier 1, so
the lowering legs are left out of :data:`CONFIGS` and the tests that
need them skip with :data:`repro.cpu.native.failure` as the reason.
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

from tests.conftest import LEGS, LOWERS, lowers, needs_native
from tests.conftest import set_tier as set_leg
from tests.cpu.conftest import patch_own_code_loop

COMPARED = LEGS[1:]

# Every compared leg this host runs: the lowering legs only where the
# native runner was built.
CONFIGS = COMPARED if LOWERS else ("tier1",)


def set_tier(monkeypatch, tier):
    """Build the next core at leg ``tier``, with regions formed after
    two arrivals so the short test programs really run them."""
    set_leg(monkeypatch, tier, region_threshold=2)


WORKLOADS = [
    ("429.mcf", "base"),
    ("462.libquantum", "vcall"),
    ("473.astar", "cfi"),
    ("401.bzip2", "icall"),
]


def measure(monkeypatch, name, variant, tier):
    set_leg(monkeypatch, tier)
    program = build_workload(profile(name), scale=0.05)
    return run_variant(program, variant)


@pytest.mark.parametrize("name,variant", WORKLOADS)
def test_workload_equivalence(monkeypatch, name, variant):
    slow = measure(monkeypatch, name, variant, "slow")
    for tier in CONFIGS:
        fast = measure(monkeypatch, name, variant, tier)
        assert dataclasses.asdict(fast) == dataclasses.asdict(slow), tier
        # The fields the issue names, spelled out for a readable failure:
        assert fast.cycles == slow.cycles, tier
        assert fast.instructions == slow.instructions, tier
        assert fast.memory_kib == slow.memory_kib, tier
        assert fast.exit_code == slow.exit_code, tier
        assert fast.dtlb_miss_rate == slow.dtlb_miss_rate, tier
        assert fast.dcache_miss_rate == slow.dcache_miss_rate, tier
        # Non-vacuity at the production thresholds: every workload
        # lowers blocks, and a region on tier 4 only.
        residency = fast.tier_residency
        if lowers(tier):
            assert residency["jit_compiled"] > 0, tier
            assert (residency["regions_compiled"] > 0) == (tier == "tier4")


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
    for tier in ("slow",) + CONFIGS:
        kernel, process = run_kernel_program(monkeypatch, ROLOAD_FAULT, tier)
        assert process.state is ProcessState.KILLED
        assert process.signal.number == SIGSEGV
        assert process.signal.roload
        event = kernel.security_log[0]
        core = kernel.system.core
        if tier != "slow":
            # Guard against vacuity: the block cache really engaged.
            assert core._blocks
        if lowers(tier):
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
    slow = results["slow"]
    for tier in CONFIGS:
        assert results[tier] == slow, tier
    assert slow[3] == "key_mismatch"
    assert slow[4] == 7 and slow[5] == 42


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
    for tier in ("slow",) + CONFIGS:
        core = _bare_core(monkeypatch, tier)
        program(core)
        retired = core.run(100, trap_handler=None)  # stops at ebreak
        outcomes[tier] = (core.regs[10], retired, core.cycles)
    slow = outcomes["slow"]
    for tier in CONFIGS:
        assert outcomes[tier] == slow, tier
    assert slow[0] == 9  # the patched instruction executed


def test_budget_exhaustion_identical(monkeypatch):
    """Block replay and compiled blocks must not overshoot the
    instruction budget."""
    from repro.isa import Instruction, encode

    for tier in ("slow",) + CONFIGS:
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
        if lowers(tier):
            assert core.jit_compiled > 0  # the loop really was compiled


# -- state after faults and aborts ---------------------------------------------

def machine_state(core):
    """Everything a run leaves behind that a tier could get wrong:
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


def compare_kernel_runs(monkeypatch, source):
    """Run ``source`` on the slow tier and on every configuration; every
    configuration must leave the slow tier's machine state. Returns the
    slow run's kernel, process and state."""
    slow_kernel, slow_process = run_kernel_program(monkeypatch, source,
                                                   "slow")
    slow = machine_state(slow_kernel.system.core)
    for tier in CONFIGS:
        kernel, process = run_kernel_program(monkeypatch, source, tier)
        core = kernel.system.core
        assert process.state is slow_process.state, tier
        assert machine_state(core) == slow, tier
        assert [dataclasses.astuple(e) for e in kernel.security_log] == \
            [dataclasses.astuple(e) for e in slow_kernel.security_log]
        if tier == "tier4":
            assert core.tier4_retired > 0   # non-vacuity
    return slow_kernel, slow_process, slow


@pytest.mark.parametrize("source,reason", [
    ("HOT_WALK_KEY", "key_mismatch"),
    ("HOT_WALK_WRITABLE", "not_read_only"),
], ids=["key-mismatch", "writable-page"])
def test_hot_roload_faults_match_on_both_runners(monkeypatch, source,
                                                 reason):
    """An ld.ro that faults from inside a hot block or region — a key
    mismatch, or a pointee on a writable page — is delivered with the
    slow tier's tval, pc and security-log entry, registers and
    counters."""
    from tests.cpu import test_jit

    kernel, process, __ = compare_kernel_runs(
        monkeypatch, getattr(test_jit, source))
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


def test_trap_mid_region_leaves_same_state(monkeypatch):
    """A page fault raised in the middle of a region pass leaves the
    same registers (including the ones the pass wrote before the fault)
    and the same counters as on the slow tier."""
    __, process, slow = compare_kernel_runs(monkeypatch, WALK_OFF_THE_END)
    assert process.state is ProcessState.KILLED
    assert process.signal.number == SIGSEGV
    assert slow["regs"][9] > 64     # s1: the loop ran hot before faulting


# Each pass loads from two pages, stores to a third at the same page
# offset and loads from the first page again, so one pass touches three
# D-TLB entries and three lines of one D-cache set (the L1D's ways are
# 4 KiB), the first of them twice: the deferred LRU moves must replay
# in the order of each key's last access, not its first.
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
    ld a4, 16(s0)
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


def test_lru_order_matches_on_both_runners(monkeypatch):
    """Cache and TLB LRU order after a loop that reorders one set and
    several TLB entries every pass: the deferred replay ends in the
    order eager moves leave on the slow tier."""
    __, process, slow = compare_kernel_runs(monkeypatch,
                                            THREE_PAGES_ONE_SET)
    assert process.exit_code == 0


# A hot inner loop of three blocks, then three calls a pass: about a
# dozen distinct blocks and two dozen distinct instruction words, far
# more than the shrunken caches below hold.
CAPACITY_LOOP = r"""
.globl _start
_start:
    li s0, 1
    li s1, 40
    la s2, buf
outer:
    li t0, 8
inner:
    addi s0, s0, 3
    andi t1, s0, 1
    beqz t1, even
    xori s0, s0, 5
even:
    addi t0, t0, -1
    bnez t0, inner
    call f1
    call f2
    call f3
    addi s1, s1, -1
    bnez s1, outer
    andi a0, s0, 0xff
    li a7, 93
    ecall
f1:
    slli t2, s0, 1
    add s0, s0, t2
    ret
f2:
    srli t2, s0, 3
    xor s0, s0, t2
    ret
f3:
    sd s0, 0(s2)
    ld t4, 0(s2)
    add s0, s0, t4
    ret
.data
buf: .quad 0
"""


def test_capacity_flushes_match_on_both_runners(monkeypatch):
    """Block and decode caches shrunk on one core: the block cache
    flushes on capacity and the decode caches wrap every outer pass,
    dropping lowered units with the blocks, and every configuration
    still ends in the slow tier's machine and exit state."""
    def run(tier):
        set_tier(monkeypatch, tier)
        kernel = Kernel(build_system("processor+kernel",
                                     memory_size=64 << 20))
        core = kernel.system.core
        core._block_cache_cap = 4
        core._decode_cache_cap = 8
        process = kernel.create_process(link([assemble(CAPACITY_LOOP)]))
        kernel.run(process)
        assert len(core._blocks) <= 4, tier
        assert len(core._decode_cache) <= 8, tier
        return core, (process.state, process.exit_code, machine_state(core))

    __, slow = run("slow")
    assert slow[0] is ProcessState.EXITED
    for tier in CONFIGS:
        core, outcome = run(tier)
        assert outcome == slow, tier
        assert core.flush_causes["block_cache_capacity"] >= 1, tier
        if tier != "tier1":                                 # non-vacuity
            assert core.jit_compiled > 0, tier
        if tier == "tier4":
            assert core.tier4_retired > 0


def test_smc_abort_resumes_at_same_pc(monkeypatch):
    """A unit that patches its own code leaves right after the store,
    and the run ends as on the slow tier."""
    from repro.cpu.trap import Trap

    finals = {}
    for tier in ("slow",) + CONFIGS:
        core = _bare_core(monkeypatch, tier)
        patch_own_code_loop(core)
        with pytest.raises(Trap):           # the final ebreak
            while True:
                core.step_block(1000)
        finals[tier] = (list(core.regs), core.pc, core.instret, core.cycles)
        if lowers(tier):
            assert core.jit_flushes >= 1, tier  # it did abort
    slow = finals["slow"]
    for tier in CONFIGS:
        assert finals[tier] == slow, tier
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


def test_every_ld_ro_execution_takes_the_mmu_check(monkeypatch):
    """``mmu.stats.roload_checks`` counts one check per ld.ro executed,
    on every tier: no tier serves ld.ro from a cached page view."""
    for tier in ("slow",) + CONFIGS:
        assert roload_checks(monkeypatch, tier) == ROLOAD_EXECUTIONS, tier


@needs_native
def test_ld_ro_served_from_the_cached_view_is_caught(monkeypatch):
    """Positive control for the test above: a mutant flat core that
    lowers ld.ro as a plain load, served from the cached page view,
    skips checks — and the count exposes it."""
    from repro.isa.opcodes import LOAD_INFO, RO_INFO

    classify = flatcore._classify
    monkeypatch.setattr(flatcore, "_classify", lambda name: "load"
                        if name in RO_INFO else classify(name))
    monkeypatch.setattr(flatcore, "LOAD_INFO", {**LOAD_INFO, **RO_INFO})
    assert roload_checks(monkeypatch, "tier4") < ROLOAD_EXECUTIONS


# -- the native D-TLB refill ---------------------------------------------------

# Each pass loads one probe page, stores to 34 data pages (more than
# the 32 D-TLB entries), loads the probe page again, then loads from and
# stores to the 34 pages and loads twice from each of 34 pages nothing
# writes. Every data-page access misses the D-TLB and replays the MMU's
# walk memo after the first pass; the stores right after a load hit the
# D-TLB but miss the D-side page cache. The store sweep evicts the probe
# page while its page memo is still filled, so its second load must
# count a miss, not a hit. A copy-on-write fork has no frames for the
# unwritten pages (a snapshot drops zero frames): their loads read
# zeros, the second one from a page in both the D-TLB and the D-side
# page cache. The stride is a page plus a line, so each page lands in
# its own D-cache set.
THRASH = r"""
.globl _start
_start:
    li t0, 16
    li t2, 4160
    la s3, probe
outer:
    ld a1, 0(s3)
    add s1, s1, a1
    la s0, pages
    li t1, 34
stores:
    sd t0, 8(s0)
    add s0, s0, t2
    addi t1, t1, -1
    bnez t1, stores
    ld a1, 0(s3)
    add s1, s1, a1
    la s0, pages
    la s4, zeros
    li t1, 34
both:
    ld a2, 8(s0)
    ld a4, 16(s0)
    add s2, s2, a2
    add s2, s2, a4
    sd s2, 16(s0)
    ld a5, 0(s4)
    ld a6, 8(s4)
    add s5, s5, a5
    add s5, s5, a6
    add s0, s0, t2
    add s4, s4, t2
    addi t1, t1, -1
    bnez t1, both
    addi t0, t0, -1
    bnez t0, outer
    li a0, 0
    li a7, 93
    ecall
.data
.balign 4096
probe:
    .quad 3
    .space 4088
pages:
    .space 143360
zeros:
    .space 143360
"""
THRASH_PAGES = 34
# A pass retires 5 + 34 * 4 + 7 + 34 * 13 + 2 instructions; stop a
# little after the fourth.
THRASH_PAUSE = 4 * 592 + 100


def swap_thrash_frames(kernel, process, image):
    """Swap the frames of data pages 2j and 2j+1 by exchanging their leaf
    PTE words in physical memory, with no sfence: the next walk-memo
    replay of each page has to notice its PTE changed."""
    mmu, memory = kernel.system.mmu, kernel.system.memory
    root = process.address_space.root_ppn
    base = image.symbol("pages")
    for j in range(0, THRASH_PAGES - 1, 2):
        one, two = (mmu.walker.walk(root, (base + k * 4160) & ~0xFFF)
                    .pte_address for k in (j, j + 1))
        a, b = memory.read(one, 8), memory.read(two, 8)
        memory.write(one, 8, b)
        memory.write(two, 8, a)


def run_thrash(monkeypatch, tier, fork=False):
    """THRASH on ``tier``: paused after a few passes, optionally forked
    copy-on-write from a snapshot there, its data frames swapped, then
    run to the end."""
    from repro.replay import restore, snapshot

    set_tier(monkeypatch, tier)
    image = link([assemble(THRASH)])
    kernel = Kernel(build_system("processor+kernel", memory_size=64 << 20))
    process = kernel.create_process(image)
    kernel.run(process, stop_after=THRASH_PAUSE)
    assert process.alive
    if fork:
        kernel, process = restore(snapshot(kernel), cow=True)
    swap_thrash_frames(kernel, process, image)
    kernel.run(process)
    assert process.exit_code == 0
    return kernel


@pytest.mark.parametrize("fork", [False, True], ids=["run", "cow-fork"])
def test_dtlb_thrash_matches_on_both_runners(monkeypatch, fork):
    """A loop over more pages than the D-TLB holds, where nearly every
    access is a walk-memo replay with an eviction: every configuration
    leaves the slow tier's cycles, TLB, cache and MMU counters and LRU
    order, and on a copy-on-write fork the same private frames."""
    slow_kernel = run_thrash(monkeypatch, "slow", fork)
    slow = machine_state(slow_kernel.system.core)
    slow_frames = slow_kernel.system.memory.private_frame_count()
    assert slow["mmu"]["walks"] > 16 * THRASH_PAGES    # it did thrash
    for tier in CONFIGS:
        kernel = run_thrash(monkeypatch, tier, fork)
        core = kernel.system.core
        assert machine_state(core) == slow, tier
        assert kernel.system.memory.private_frame_count() == slow_frames, \
            tier
        if tier == "tier4":
            assert core.tier4_retired > 0   # non-vacuity


@needs_native
def test_native_refill_makes_no_python_callouts(monkeypatch):
    """Once THRASH runs as regions and the walk memo holds every page,
    the native runner serves each D-TLB miss itself: no call reaches
    ``Core.load``/``Core.store`` in the later passes. The warm-up passes
    before them, whose first touches walk the page table, do call them,
    which shows the probes count."""
    calls = {"load": [], "store": []}
    load, store = Core.load, Core.store

    def counted(name, fn):
        def wrapper(self, *args, **kwargs):
            calls[name].append(self.instret)
            return fn(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(Core, "load", counted("load", load))
    monkeypatch.setattr(Core, "store", counted("store", store))
    set_tier(monkeypatch, "tier4")
    kernel = Kernel(build_system("processor+kernel", memory_size=64 << 20))
    process = kernel.create_process(link([assemble(THRASH)]))
    kernel.run(process)
    assert kernel.system.core.tier4_retired > 0
    early = {name: sum(at <= THRASH_PAUSE for at in ats)
             for name, ats in calls.items()}
    late = {name: len(ats) - early[name] for name, ats in calls.items()}
    assert not any(late.values()), late
    assert early["load"] > THRASH_PAGES and early["store"] > 0, early


# A correctly keyed ld.ro on each of 40 keyed pages per pass: every
# one misses the D-TLB, and from the second pass on the MMU's walk memo
# could replay it. A plain load of a data page beside it keeps the
# D-side page cache current, so nothing but the opcode keeps these
# misses from the native refill. On the last pass the first page,
# evicted and just refilled, is read once more with the wrong key.
ROLOAD_THRASH = r"""
.globl _start
_start:
    li t0, 4
    li t2, 4096
    li t4, 1
    la s3, plain
outer:
    la s0, table
    li t1, 40
inner:
    ld a1, 0(s3)
    ld.ro a2, (s0), 42
    add s1, s1, a2
    bne t0, t4, next
    ld.ro a3, (s0), 7
next:
    add s0, s0, t2
    addi t1, t1, -1
    bnez t1, inner
    addi t0, t0, -1
    bnez t0, outer
    li a0, 0
    li a7, 93
    ecall
.data
plain:
    .quad 9
.section .rodata.key.42
table:
    .quad 5
    .space 163832
"""
# Three full passes and the first page of the fourth, then the mismatch.
ROLOAD_THRASH_CHECKS = 3 * 40 + 1 + 1


def test_ld_ro_over_refilled_pages_checks_every_execution(monkeypatch):
    """ld.ro over more keyed pages than the D-TLB holds still takes the
    MMU check once per execution on every configuration, never the
    native refill, and the wrong key on a page that was just evicted and
    refilled faults as on the slow tier."""
    kernel, process, slow = compare_kernel_runs(monkeypatch, ROLOAD_THRASH)
    assert process.signal.number == SIGSEGV and process.signal.roload
    assert kernel.security_log[0].reason == "key_mismatch"
    assert slow["mmu"]["roload_checks"] == ROLOAD_THRASH_CHECKS
    assert slow["mmu"]["walks"] > 3 * 40     # it did thrash
