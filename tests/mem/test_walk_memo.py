"""The MMU's verify-on-hit walk memo must never serve a stale PTE.

The memo (src/repro/mem/mmu.py) caches completed page-table walks
host-side so a TLB miss can skip re-walking — but only after re-reading
the 8-byte leaf PTE and checking it is bit-identical to the word the
walk saw. These tests pin the two kernel-side mutations that must
defeat it: an mprotect-style permission rewrite (followed by the usual
generation bump) and a direct leaf-PTE rewrite in physical memory. In
both cases the next translation must observe the new PTE, and the
architectural walk counters must be exactly what a memo-less MMU would
have charged — on the bare MMU and through every interpreter tier
(tiers 2 and 4 where the flat core's native runner, which refills the
D-TLB from the memo itself, was built).
"""

import pytest

from repro.cpu import TimingModel, flatcore
from repro.cpu.trap import Cause
from repro.isa import Instruction, encode
from repro.isa.opcodes import MemOp
from repro.mem import (
    MMU,
    FrameAllocator,
    PageFault,
    PageTableBuilder,
    PhysicalMemory,
)
from repro.mem.pte import make_leaf
from tests.cpu.conftest import tier_core


@pytest.fixture()
def setup():
    mem = PhysicalMemory(64 << 20)
    builder = PageTableBuilder(mem, FrameAllocator(1 << 20, 32 << 20))
    mmu = MMU(mem)
    mmu.set_root(builder.root_ppn)
    return mem, builder, mmu


def spy_walker(mmu):
    """Count real page-table walks without disturbing their results."""
    calls = []
    real = mmu.walker.walk
    mmu.walker.walk = lambda *a: (calls.append(a), real(*a))[1]
    return calls


# -- unit level: the memo itself ---------------------------------------------

def test_memo_replays_walk_without_rewalking(setup):
    __, builder, mmu = setup
    builder.map_page(0x5000, 0x300000, readable=True)
    mmu.flush()
    walks = spy_walker(mmu)
    first = mmu.translate(0x5000, MemOp.READ)
    assert len(walks) == 1 and mmu.stats.walks == 1
    mmu.flush()  # sfence: TLBs drop, the host-side memo survives
    assert 0x5 in mmu._walk_memo
    second = mmu.translate(0x5000, MemOp.READ)
    # The memo replayed the walk: no new walker activity, but the
    # architectural walk and its access count charged exactly as before.
    assert len(walks) == 1
    assert mmu.stats.walks == 2
    assert second.walk_accesses == first.walk_accesses
    assert second.paddr == first.paddr


def test_mprotect_rewrite_invalidates_memo(setup):
    __, builder, mmu = setup
    builder.map_page(0x5000, 0x300000, readable=True, writable=True)
    mmu.flush()
    mmu.translate(0x5000, MemOp.WRITE)
    walks = spy_walker(mmu)
    # mprotect core: rewrite the leaf's permission bits, then sfence.
    builder.set_protection(0x5000, writable=False)
    mmu.flush()
    assert 0x5 in mmu._walk_memo  # still memoized — verify must catch it
    with pytest.raises(PageFault):
        mmu.translate(0x5000, MemOp.WRITE)
    assert len(walks) == 1  # verify failed, a real walk re-read the PTE
    mmu.flush()
    assert mmu.translate(0x5000, MemOp.READ).paddr == 0x300000


def test_direct_leaf_pte_rewrite_invalidates_memo(setup):
    mem, builder, mmu = setup
    builder.map_page(0x5000, 0x300000, readable=True)
    mmu.flush()
    assert mmu.translate(0x5000, MemOp.READ).paddr == 0x300000
    leaf = mmu.walker.walk(mmu.root_ppn, 0x5000).pte_address
    # Retarget the mapping by writing the raw PTE word — no builder, no
    # bookkeeping, just the store a kernel's remap would do.
    mem.write(leaf, 8, make_leaf(0x301000 >> 12, readable=True).pack())
    mmu.flush()
    walks = spy_walker(mmu)
    assert mmu.translate(0x5000, MemOp.READ).paddr == 0x301000
    assert len(walks) == 1  # the stale memo lost its verify race


def test_leaf_clear_faults_and_drops_memo(setup):
    mem, builder, mmu = setup
    builder.map_page(0x5000, 0x300000, readable=True)
    mmu.flush()
    mmu.translate(0x5000, MemOp.READ)
    leaf = mmu.walker.walk(mmu.root_ppn, 0x5000).pte_address
    mem.write(leaf, 8, 0)  # munmap core: the leaf goes invalid
    mmu.flush()
    with pytest.raises(PageFault):
        mmu.translate(0x5000, MemOp.READ)
    assert 0x5 not in mmu._walk_memo


# -- every tier: the fast paths ride the same memo ---------------------------

CODE_VA = 0x1000
DATA_VA = 0x10000
FRAME_A = 48 << 20
FRAME_B = (48 << 20) + 0x1000

# The tiers this host runs: tiers 2 and 4 only where the native runner
# was built.
CONFIGS = ("slow", "tier1") + (
    ("tier2", "tier4") if flatcore.runner() == "native" else ())

# Three identical hot load loops separated by ebreaks, so the host can
# mutate the page tables between phases while regions are live, then a
# hot loop that loads and stores the data page.
_LOOP_REGS = (7, 28, 29)  # t2, t3, t4 accumulate one phase each
STORE_PC = CODE_VA + 4 * 6 * len(_LOOP_REGS)
STORE_VA = DATA_VA + 8


def _program():
    words = []
    for acc in _LOOP_REGS:
        words.append(Instruction("addi", rd=5, rs1=0, imm=40))
        words.append(Instruction("ld", rd=6, rs1=8, imm=0))
        words.append(Instruction("add", rd=acc, rs1=acc, rs2=6))
        words.append(Instruction("addi", rd=5, rs1=5, imm=-1))
        words.append(Instruction("bne", rs1=5, rs2=0, imm=-12))
        words.append(Instruction("ebreak"))
    words.append(Instruction("addi", rd=5, rs1=0, imm=40))  # STORE_PC
    words.append(Instruction("ld", rd=6, rs1=8, imm=0))
    words.append(Instruction("sd", rs1=8, rs2=6, imm=8))
    words.append(Instruction("addi", rd=5, rs1=5, imm=-1))
    words.append(Instruction("bne", rs1=5, rs2=0, imm=-12))
    words.append(Instruction("ebreak"))
    return words


def _tier_system(tier):
    mem = PhysicalMemory(64 << 20)
    builder = PageTableBuilder(mem, FrameAllocator(1 << 20, 32 << 20))
    builder.map_page(CODE_VA, CODE_VA, readable=True, executable=True)
    builder.map_page(DATA_VA, FRAME_A, readable=True, writable=True)
    mmu = MMU(mem)
    mmu.set_root(builder.root_ppn)
    mem.write(FRAME_A, 8, 1234)
    mem.write(FRAME_B, 8, 99)
    addr = CODE_VA  # identity-mapped, so PA == VA for the code page
    for insn in _program():
        mem.write(addr, 4, encode(insn))
        addr += 4
    core = tier_core(mem, mmu, tier=tier, region_threshold=2,
                     timing=TimingModel())
    core.pc = CODE_VA
    core.regs[8] = DATA_VA
    return mem, builder, mmu, core


def _run_until_trap(core):
    traps = []
    core.run(10_000, trap_handler=lambda t: traps.append(t) and False)
    assert len(traps) == 1
    return traps[0]


def _run_phase(core):
    trap = _run_until_trap(core)
    assert trap.cause == Cause.BREAKPOINT
    core.pc = trap.pc + 4


def test_memo_invalidation_identical_across_tiers():
    """Phase 1 makes the load loop hot (a live region in tier 4);
    between phases the host rewrites the data page's leaf PTE — first
    mprotect-style through the builder, then directly in physical
    memory, retargeting the frame. Every tier must observe each rewrite
    on the very next load, with bit-identical walk charges. A store leg
    runs a load/store loop hot on the writable page; after the mprotect
    its next store faults with the same tval and pc."""
    results = {}
    for tier in CONFIGS:
        mem, builder, mmu, core = _tier_system(tier)
        _run_phase(core)  # phase 1: RW page, loads see frame A
        resume = core.pc
        core.pc = STORE_PC
        _run_phase(core)  # the store loop, hot on the RW page
        # Leg 1: mprotect generation bump (permission rewrite + sfence).
        builder.set_protection(DATA_VA, writable=False)
        mmu.flush()
        assert DATA_VA >> 12 in mmu._walk_memo
        core.pc = STORE_PC
        fault = _run_until_trap(core)   # its first store now faults
        assert fault.cause == Cause.STORE_PAGE_FAULT
        assert (fault.tval, fault.pc) == (STORE_VA, STORE_PC + 8)
        core.pc = resume
        _run_phase(core)  # phase 2: read-only now, loads still frame A
        # Leg 2: direct leaf-PTE rewrite retargeting the frame.
        leaf = mmu.walker.walk(mmu.root_ppn, DATA_VA).pte_address
        mem.write(leaf, 8, make_leaf(FRAME_B >> 12, readable=True).pack())
        mmu.flush()
        assert DATA_VA >> 12 in mmu._walk_memo  # stale entry still there
        _run_phase(core)  # phase 3: loads must see frame B
        if tier == "tier4":
            assert core.regions_compiled >= 1
            assert core.tier4_retired > 0
        results[tier] = (
            tuple(core.regs[r] for r in _LOOP_REGS),
            core.instret, core.cycles, core.timing.stats.dtlb_walk_cycles,
            mmu.dtlb.hits, mmu.dtlb.misses,
            mmu.itlb.hits, mmu.itlb.misses,
            mmu.stats.walks, mmu.stats.translations,
        )
    slow = results["slow"]
    for tier in CONFIGS:
        assert results[tier] == slow, tier
    sums = slow[0]
    assert sums == (40 * 1234, 40 * 1234, 40 * 99)
