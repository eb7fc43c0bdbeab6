"""Shared helpers for CPU tests: a bare-mode core running raw encodings."""

import pytest

from repro import config
from repro.cpu import Core, TimingModel
from repro.isa import Instruction, encode, try_compress
from repro.mem import MMU, PhysicalMemory

CODE_BASE = 0x1000
DATA_BASE = 0x8000


@pytest.fixture()
def machine():
    """A bare-translation core with 1 MiB of RAM; code at CODE_BASE."""
    memory = PhysicalMemory(1 << 20)
    mmu = MMU(memory)  # bare mode: identity translation
    core = Core(memory, mmu, timing=TimingModel())
    core.pc = CODE_BASE
    return core


def assemble_at(core, insns, base=CODE_BASE):
    """Write a list of Instructions (or (insn, 'c') for compressed) into
    memory at ``base`` and return the end address."""
    addr = base
    for item in insns:
        if isinstance(item, tuple) and item[1] == "c":
            halfword = try_compress(item[0])
            assert halfword is not None, f"not compressible: {item[0]}"
            core.memory.write(addr, 2, halfword)
            addr += 2
        else:
            core.memory.write(addr, 4, encode(item))
            addr += 4
    return addr


def run_insns(core, insns, steps=None):
    """Assemble at pc and execute each instruction once."""
    assemble_at(core, insns, core.pc)
    count = steps if steps is not None else len(insns)
    for __ in range(count):
        core.step()
    return core


def I(name, **kw):  # noqa: E743 - terse test helper
    return Instruction(name, **kw)


def patch_own_code_loop(core, passes=12):
    """Set up a hot loop at CODE_BASE whose last pass stores into its
    own block: the store target is data (DATA_BASE) until t0 reaches 1,
    then the word of the ``addi`` right after the store, rewritten with
    its own bytes, so the store invalidates the running block mid-block
    (after 5 of its 8 instructions). Ends at an ebreak."""
    patched = CODE_BASE + 20
    insns = [
        I("sltiu", rd=6, rs1=5, imm=2),       # t1 = (t0 == 1)
        I("sub", rd=7, rs1=18, rs2=9),        # t2 = patched - data
        I("mul", rd=7, rs1=7, rs2=6),
        I("add", rd=28, rs1=9, rs2=7),        # t3 = data or patched
        I("sw", rs1=28, rs2=19, imm=0),
        I("addi", rd=10, rs1=10, imm=1),      # the patched word
        I("addi", rd=5, rs1=5, imm=-1),
        I("bne", rs1=5, rs2=0, imm=-28),
        I("ebreak"),
    ]
    assemble_at(core, insns)
    core.regs[5] = passes                       # t0
    core.regs[9] = DATA_BASE                    # s1
    core.regs[18] = patched                     # s2
    core.regs[19] = encode(insns[5])            # s3: the same bytes
    core.pc = CODE_BASE


def tier_core(memory, mmu=None, *, tier="tier4", region_threshold=None,
              **kwargs):
    """A core at interpreter ``tier`` (bare MMU unless ``mmu`` is
    given). ``region_threshold`` lowers its region promotion threshold
    so a short test loop reaches tier 4."""
    with config.overrides(tier=tier):
        core = Core(memory, MMU(memory) if mmu is None else mmu, **kwargs)
    if region_threshold is not None:
        core.region_threshold = region_threshold
    return core
