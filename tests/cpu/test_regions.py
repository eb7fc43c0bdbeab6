"""Region tier: formation, deoptimization, identity on every leg.

The region planner (src/repro/cpu/regions.py) selects hot tier-2 block
chains as superblocks; the tier-4 flat core (src/repro/cpu/flatcore.py)
lowers each plan to pre-decoded array dispatch. Like the tiers below
it, the region tier must be architecturally invisible: these tests pin
formation (hot loops really become regions), the deoptimization edges
(an SMC store and an MMU-generation bump taken *mid-region* continue
bit-identically on every interpreter leg), and the overlap-suppression policy
that keeps alternate entry splits of a live region from lowering
near-identical superblocks.
"""

from repro.asm import assemble, link
from repro.cpu import TimingModel
from repro.cpu.flatcore import compile_region
from repro.cpu.regions import DEFER, Region
from repro.kernel import Kernel, ProcessState
from repro.mem import PhysicalMemory
from repro.soc import build_system

from tests.conftest import LEGS, LOWERS, needs_native, set_tier
from .conftest import CODE_BASE, I, assemble_at, tier_core

COMPARED = LEGS[1:]


def region_core(tier):
    """A core at leg ``tier`` whose loops become regions after two
    arrivals."""
    core = tier_core(PhysicalMemory(1 << 20), tier=tier,
                     region_threshold=2, timing=TimingModel())
    core.pc = CODE_BASE
    return core


def countdown_loop(core, iters, body=2):
    addr = assemble_at(core, [I("addi", rd=5, rs1=0, imm=iters)])
    loop_pc = addr
    insns = [I("addi", rd=6 + i, rs1=6 + i, imm=1) for i in range(body)]
    insns.append(I("addi", rd=5, rs1=5, imm=-1))
    addr = assemble_at(core, insns, addr)
    addr = assemble_at(core, [I("bne", rs1=5, rs2=0, imm=loop_pc - addr)],
                       addr)
    assemble_at(core, [I("ebreak")], addr)
    return loop_pc


# -- formation ---------------------------------------------------------------

def test_hot_loop_forms_region():
    outcomes = {}
    for tier in LEGS:
        core = region_core(tier)
        loop_pc = countdown_loop(core, 50)
        core.run(10_000, trap_handler=None)  # stops at ebreak
        outcomes[tier] = (core.regs[5], core.regs[6], core.regs[7],
                         core.instret, core.cycles)
        if tier == "tier4" and LOWERS:
            assert core.regions_compiled >= 1
            region = core._regions[loop_pc]
            assert region.loop
            assert loop_pc in region.pcs
            assert core.tier4_retired > 0
        else:
            assert core.regions_compiled == 0 and not core._regions
    for tier in COMPARED:
        assert outcomes[tier] == outcomes["slow"], tier
    assert outcomes["slow"][1] == 50  # the body really ran 50 times


@needs_native
def test_residency_attributes_region_instructions():
    core = region_core("tier4")
    countdown_loop(core, 50)
    core.run(10_000, trap_handler=None)
    residency = core.tier_residency()
    assert residency["tier4_retired"] == core.tier4_retired > 0
    assert (residency["tier0_retired"] + residency["tier1_retired"]
            + residency["tier2_retired"]
            + residency["tier4_retired"]) == residency["retired"]
    assert residency["regions_compiled"] == core.regions_compiled >= 1


@needs_native
def test_residency_attributes_flat_region_instructions():
    """Every region is a flat region, counted once as regions_compiled;
    the legacy tier-3 attribute stays a constant 0."""
    core = region_core("tier4")
    countdown_loop(core, 50)
    core.run(10_000, trap_handler=None)
    residency = core.tier_residency()
    assert "tier3_retired" not in residency
    assert "flat_regions_compiled" not in residency
    assert core.tier3_retired == 0
    assert residency["regions_compiled"] == core.regions_compiled >= 1


# -- overlap suppression -----------------------------------------------------

def test_region_covers_spans():
    region = Region(fn=None, n=4, vpn=1, start_pc=0x1000,
                    pcs=(0x1000, 0x2000), loop=True,
                    spans=((0x1000, 0x1010), (0x2000, 0x2008)))
    assert region.covers(0x1000)
    assert region.covers(0x100C)
    assert region.covers(0x2004)
    assert not region.covers(0x1010)
    assert not region.covers(0x0FFC)
    assert not region.covers(0x2008)


@needs_native
def test_alternate_entry_inside_live_region_defers():
    """A head pc lying inside a live region's instruction range is an
    alternate entry split: lowering defers while lukewarm instead of
    building a near-identical superblock (or pinning the pc)."""
    core = region_core("tier4")
    loop_pc = countdown_loop(core, 50)
    core.run(10_000, trap_handler=None)
    assert core._regions[loop_pc].covers(loop_pc + 4)
    assert compile_region(core, loop_pc + 4, 0) is DEFER
    # Past the escalated arrival bar the duplicate lowering is allowed
    # again; here there is no tier-2 block at the split, so planning
    # (not deferral) rejects it.
    assert compile_region(core, loop_pc + 4, 10 ** 9) is None


# -- deoptimization: SMC store taken mid-region ------------------------------

def test_smc_store_mid_region_deoptimizes_identically():
    """Twenty clean iterations make the loop a compiled region; then a
    side-exit block stores a patched encoding over the live region's
    body (no fence.i) and jumps back in. The patch must take effect on
    the very next iteration, identically in every tier."""
    from repro.isa import Instruction, encode

    def program(core):
        # 0x2000 holds the patch word: "addi a0, a0, 2".
        core.memory.write(0x2000, 4,
                          encode(Instruction("addi", rd=10, rs1=10, imm=2)))
        insns = [
            I("addi", rd=5, rs1=0, imm=30),     # t0 = 30 iterations
            I("addi", rd=29, rs1=0, imm=10),    # t4: patch trigger count
            I("lui", rd=6, imm=0x2),            # t1 = 0x2000
            I("lw", rd=7, rs1=6, imm=0),        # t2 = patch word
            I("lui", rd=28, imm=0x1),           # t3 = 0x1000
            # loop (0x1014):
            I("addi", rd=9, rs1=9, imm=1),      # s1 += 1
            I("addi", rd=10, rs1=10, imm=1),    # a0 += 1  <- 0x1018, patched
            I("addi", rd=5, rs1=5, imm=-1),
            I("beq", rs1=5, rs2=29, imm=12),    # t0 == 10: go patch
            I("bne", rs1=5, rs2=0, imm=-16),    # backedge
            I("ebreak"),
            # patch block (0x102c): store over the hot loop, re-enter.
            I("sw", rs1=28, rs2=7, imm=0x18),
            I("jal", rd=0, imm=-28),
        ]
        assemble_at(core, insns)

    outcomes = {}
    for tier in LEGS:
        core = region_core(tier)
        program(core)
        core.run(10_000, trap_handler=None)
        outcomes[tier] = (core.regs[9], core.regs[10], core.instret,
                         core.cycles)
        if tier == "tier4" and LOWERS:
            # The region formed during the clean phase, before the SMC
            # store invalidated it.
            assert core.regions_compiled >= 1
    for tier in COMPARED:
        assert outcomes[tier] == outcomes["slow"], tier
    # 20 iterations at +1, then the patch, then 10 at +2.
    assert outcomes["slow"][0] == 30
    assert outcomes["slow"][1] == 40


# -- deoptimization: MMU generation bump taken mid-run -----------------------

MPROTECT_BETWEEN_LOOPS = r"""
.globl _start
_start:
    li a0, 0
    li a1, 4096
    li a2, 3          # PROT_READ|PROT_WRITE
    li a3, 0
    li a4, 0
    li a7, 222
    ecall             # mmap a scratch page
    mv s0, a0
    li t0, 1234
    sd t0, 0(s0)
    li t1, 48
loop1:                # hot loop 1: plain loads from the RW page
    ld a1, 0(s0)
    add s1, s1, a1
    addi t1, t1, -1
    bnez t1, loop1
    mv a0, s0
    li a1, 4096
    li a2, 1          # PROT_READ
    li a3, 55         # seal with a key: sfence.vma mid-run
    li a7, 226
    ecall
    li t1, 48
loop2:                # hot loop 2: the same page, now keyed ld.ro
    ld.ro a2, (s0), 55
    add s2, s2, a2
    addi t1, t1, -1
    bnez t1, loop2
    li a0, 0
    li a7, 93
    ecall
"""


def run_kernel_tier(monkeypatch, source, tier):
    set_tier(monkeypatch, tier, region_threshold=2)
    kernel = Kernel(build_system("processor+kernel", memory_size=64 << 20))
    process = kernel.create_process(link([assemble(source)]))
    kernel.run(process)
    return kernel, process


def test_mmu_generation_bump_mid_region_identical(monkeypatch):
    """mprotect between two hot loops bumps the MMU generation while
    tier 4 has live regions; execution must continue bit-identically
    (same cycles, instructions, TLB behavior) on every leg."""
    results = {}
    for tier in LEGS:
        kernel, process = run_kernel_tier(monkeypatch,
                                          MPROTECT_BETWEEN_LOOPS, tier)
        assert process.state is ProcessState.EXITED, tier
        assert process.exit_code == 0, tier
        core = kernel.system.core
        mmu = kernel.system.mmu
        if tier == "tier4" and LOWERS:
            # Both hot loops became regions, before and after the bump.
            assert core.regions_compiled >= 2
            assert core.tier4_retired > 0
        results[tier] = (
            core.cycles, core.instret, mmu.generation,
            mmu.dtlb.hits, mmu.dtlb.misses, mmu.stats.walks,
            len(kernel.security_log),
        )
    for tier in COMPARED:
        assert results[tier] == results["slow"], tier
    assert results["slow"][6] == 0  # the sealed ld.ro never faulted
