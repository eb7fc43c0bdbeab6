"""Tier 2: hot-block lowering, chaining, invalidation, faults.

The compiled tier (single blocks lowered to the flat core,
src/repro/cpu/flatcore.py) must be architecturally invisible. These
tests pin down the machinery itself: blocks really compile on their
first dispatch, chain links form and are torn down
on every invalidation edge (fence.i, MMU generation bumps, SMC), and a
ROLoad fault raised from *inside* a hot compiled block is delivered
bit-identically to the slow interpreter — including the case where the
faulting ld.ro itself was hot (the pointer walks off its key's page).
"""

import pytest

from repro.asm import assemble, link
from repro.cpu import TimingModel
from repro.cpu.regions import MAX_REGION_ENTRIES
from repro.kernel import Kernel, ProcessState, SIGSEGV
from repro.mem import PhysicalMemory
from repro.mem.tlb import TLB, TLBEntry
from repro.soc import build_system

from tests.conftest import (LEGS, LOWERS, NO_REGIONS, lowers, needs_native,
                            set_tier)
from .conftest import (CODE_BASE, I, assemble_at, patch_own_code_loop,
                       tier_core)


def jit_core(tier="tier4"):
    core = tier_core(PhysicalMemory(1 << 20), tier=tier,
                     timing=TimingModel())
    core.pc = CODE_BASE
    return core


def countdown_loop(core, iters, body=2, tail=()):
    """li t0, iters; loop: <body x addi>; addi t0,-1; bnez loop; <tail>;
    ebreak. Returns the loop's start pc."""
    addr = assemble_at(core, [I("addi", rd=5, rs1=0, imm=iters)])
    loop_pc = addr
    insns = [I("addi", rd=6 + i, rs1=6 + i, imm=1) for i in range(body)]
    insns.append(I("addi", rd=5, rs1=5, imm=-1))
    addr = assemble_at(core, insns, addr)
    offset = loop_pc - addr
    addr = assemble_at(core, [I("bne", rs1=5, rs2=0, imm=offset)], addr)
    addr = assemble_at(core, list(tail) + [I("ebreak")], addr)
    return loop_pc


def run_to_ebreak(core, budget=10_000):
    return core.run(budget, trap_handler=None)


def test_hot_block_compiles_and_matches_tier1():
    outcomes = {}
    for tier in ("tier1", "tier4"):
        core = jit_core(tier)
        countdown_loop(core, 10)
        run_to_ebreak(core)
        outcomes[tier] = (core.regs[5], core.regs[6], core.regs[7],
                          core.instret, core.cycles)
        if lowers(tier):
            assert core.jit_compiled >= 1
            assert core._jit_blocks
        else:
            assert core.jit_compiled == 0 and not core._jit_blocks
    assert outcomes["tier4"] == outcomes["tier1"]
    assert outcomes["tier4"][1] == 10  # the loop body really ran 10 times


def test_jit_disabled_by_constructor():
    core = jit_core("tier1")
    countdown_loop(core, 10)
    run_to_ebreak(core)
    assert core.jit_compiled == 0 and not core._jit_blocks


@needs_native
def test_hot_loop_chains_to_itself():
    core = jit_core()
    loop_pc = countdown_loop(core, 10)
    run_to_ebreak(core)
    rec = core._jit_blocks[loop_pc]
    # The back edge of a hot loop is the simplest chain: the block links
    # straight back to its own compiled body.
    assert rec.links.get(loop_pc) is rec


@needs_native
def test_fence_i_flushes_compiled_blocks_and_links():
    core = jit_core()
    loop_pc = countdown_loop(core, 10, tail=[I("fence.i"),
                                             I("addi", rd=28, rs1=0, imm=7)])
    # By the time the run stops at ebreak the fence.i has executed.
    run_to_ebreak(core)
    assert core.regs[28] == 7
    assert core.jit_flushes >= 1
    # The hot loop's compiled body is gone (the block after the fence.i
    # was lowered afresh on its first dispatch).
    assert loop_pc not in core._jit_blocks


@needs_native
def test_fence_i_clears_links_of_surviving_references():
    """Anyone still holding a JITBlock across a fence.i must see its
    chain links gone — a stale link would jump into dead code."""
    core = jit_core()
    loop_pc = countdown_loop(core, 10)
    run_to_ebreak(core)
    rec = core._jit_blocks[loop_pc]
    assert rec.links  # non-vacuous: the self-link from the hot loop
    core.flush_decode_cache()  # what the fence.i handler calls
    assert not rec.links
    assert not core._jit_blocks
    assert core.jit_flushes >= 1


@needs_native
def test_generation_bump_flushes_compiled_blocks():
    core = jit_core()
    loop_pc = countdown_loop(core, 10)
    run_to_ebreak(core)
    rec = core._jit_blocks[loop_pc]
    core.mmu.flush()  # sfence.vma: bumps the MMU generation
    # The flush is lazy: the next dispatch notices the stale generation.
    core.pc = CODE_BASE
    run_to_ebreak(core)
    assert core.jit_flushes >= 1
    assert not rec.links
    assert core._jit_blocks.get(loop_pc) is not rec


def test_smc_store_flushes_compiled_blocks():
    """A store over compiled code must drop the stale translation and
    execute the patched instruction — same result as the slow tier."""
    def program(core):
        insns = [
            I("lui", rd=5, imm=0x8),                  # t0 = DATA area
            I("lw", rd=6, rs1=5, imm=0),              # patched word
            I("lui", rd=7, imm=0x1),                  # t2 = 0x1000
            I("sw", rs1=7, rs2=6, imm=16),
            I("addi", rd=10, rs1=0, imm=1),           # gets patched
            I("ebreak"),
        ]
        assemble_at(core, insns)
        from repro.isa import encode
        core.memory.write(0x8000, 4,
                          encode(I("addi", rd=10, rs1=0, imm=9)))

    outcomes = {}
    for tier in ("tier1", "tier4"):
        core = jit_core(tier)
        program(core)
        retired = run_to_ebreak(core)
        outcomes[tier] = (core.regs[10], retired, core.cycles)
        if lowers(tier):
            assert core.jit_flushes >= 1
    assert outcomes["tier4"] == outcomes["tier1"]
    assert outcomes["tier4"][0] == 9


class _Attribution:
    """Stands in for the obs attribution tap: records every charge."""

    def __init__(self):
        self.records = []

    def record(self, tier, pc, retired):
        self.records.append((tier, pc, retired))


@needs_native
def test_block_leaving_early_is_charged_its_instret_delta():
    """A tier-2 block that patches its own code leaves right after the
    store. The trampoline charges attribution (and the budget) with the
    instructions it retired — the instret delta across the call — not
    with the block's length."""
    core = tier_core(PhysicalMemory(1 << 20), region_threshold=NO_REGIONS,
                     timing=TimingModel())
    patch_own_code_loop(core)
    core._attrib = attribution = _Attribution()
    run_to_ebreak(core)
    tier2 = [(pc, n) for tier, pc, n in attribution.records if tier == 2]
    assert core.jit_flushes >= 1                # the block did abort
    assert (CODE_BASE, 5) in tier2              # 5 of its 8 instructions
    residency = core.tier_residency()
    assert sum(n for __, n in tier2) == residency["tier2_retired"]


@needs_native
def test_short_budget_replays_never_lower_a_block_twice():
    """A budget shorter than a lowered block (a serve slice end, a fuzz
    trigger) replays the tier-1 block; that replay must not lower the
    block again and replace its unit."""
    core = tier_core(PhysicalMemory(1 << 20), region_threshold=NO_REGIONS,
                     timing=TimingModel())
    assemble_at(core, [I("addi", rd=6, rs1=6, imm=1)] * 20 + [I("ebreak")])
    first = None
    for __ in range(40):
        core.pc = CODE_BASE
        core.step_block(5)
        first = first or core._jit_blocks.get(CODE_BASE)
    assert core.jit_compiled == 1
    assert core._jit_blocks[CODE_BASE] is first
    assert core.regs[6] == 200       # every short replay really ran


def test_oversized_block_splits():
    """A block longer than MAX_REGION_ENTRIES lowers as a prefix; the
    suffix is promoted organically as its own block. A page holds only
    1,024 four-byte instructions, so the block is compressed."""
    n = MAX_REGION_ENTRIES + 40
    outcomes = {}
    for tier in ("tier1", "tier4"):
        core = jit_core(tier)
        addr = assemble_at(core, [(I("addi", rd=6, rs1=6, imm=1), "c")] * n)
        assert addr <= CODE_BASE + 0x1000 - 4  # one page, jal included
        assemble_at(core, [I("jal", rd=0, imm=CODE_BASE - addr)], addr)
        with pytest.raises(Exception):
            core.run(6 * (n + 1))
        outcomes[tier] = (core.regs[6], core.instret, core.cycles)
        if lowers(tier):
            assert core.jit_compiled >= 2  # prefix + promoted suffix
            sizes = sorted(rec.n for rec in core._jit_blocks.values())
            assert sizes[-1] == MAX_REGION_ENTRIES
    assert outcomes["tier4"] == outcomes["tier1"]


# -- ROLoad faults raised from inside a hot compiled block -------------------

# The faulting ld.ro is itself the hot instruction: the pointer walks a
# table that fills its key-5 page exactly, then steps onto the next page.
# The linker places keyed rodata in ascending key order, each group page
# aligned, so the quad after the table lives on the key-9 page: the
# 513th iteration faults with KEY_MISMATCH from compiled code.
HOT_WALK_KEY = (
    ".globl _start\n"
    "_start:\n"
    "    li t0, 520\n"
    "    la s0, table\n"
    "loop:\n"
    "    ld.ro a1, (s0), 5\n"
    "    add s1, s1, a1\n"
    "    addi s0, s0, 8\n"
    "    addi t0, t0, -1\n"
    "    bnez t0, loop\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".section .rodata.key.5\n"
    "table:\n" + "    .quad 1\n" * 512 +
    ".section .rodata.key.9\n"
    "sentinel:\n"
    "    .quad 2\n"
)

# Same walk, but the page after the table is ordinary writable .data:
# the pointee is not immutable, so ld.ro faults with NOT_READ_ONLY.
HOT_WALK_WRITABLE = (
    ".globl _start\n"
    "_start:\n"
    "    li t0, 520\n"
    "    la s0, table\n"
    "loop:\n"
    "    ld.ro a1, (s0), 5\n"
    "    add s1, s1, a1\n"
    "    addi s0, s0, 8\n"
    "    addi t0, t0, -1\n"
    "    bnez t0, loop\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".section .rodata.key.5\n"
    "table:\n" + "    .quad 1\n" * 512 +
    ".section .data\n"
    "sentinel:\n"
    "    .quad 2\n"
)

COMPARED = LEGS[1:]


def pin_tier(monkeypatch, tier):
    """Build the next kernel's core at leg ``tier``, with regions formed
    after two arrivals so the short hot loops reach tier 4."""
    set_tier(monkeypatch, tier, region_threshold=2)


def run_hot_fault(monkeypatch, source, tier):
    pin_tier(monkeypatch, tier)
    kernel = Kernel(build_system("processor+kernel", memory_size=64 << 20))
    process = kernel.create_process(link([assemble(source)]))
    kernel.run(process)
    return kernel, process


@pytest.mark.parametrize("source,reason,page_key", [
    (HOT_WALK_KEY, "key_mismatch", 9),
    (HOT_WALK_WRITABLE, "not_read_only", 0),
], ids=["key-mismatch", "writable-page"])
def test_roload_fault_inside_hot_compiled_block(monkeypatch, source,
                                                reason, page_key):
    results = {}
    for tier in LEGS:
        kernel, process = run_hot_fault(monkeypatch, source, tier)
        assert process.state is ProcessState.KILLED, tier
        assert process.signal.number == SIGSEGV, tier
        assert process.signal.roload, tier
        event = kernel.security_log[0]
        core = kernel.system.core
        if lowers(tier):
            # Non-vacuity: the faulting pc lies inside a block that was
            # compiled and still cached when the fault was delivered.
            assert core.jit_compiled >= 1
            assert any(rec.start_pc <= event.pc < rec.end_pc
                       for rec in core._jit_blocks.values())
        if tier == "tier4" and LOWERS:
            # And the hot ld.ro loop really ran as a flat region,
            # raising from inside it.
            assert core.regions_compiled >= 1
            assert any(region.covers(event.pc)
                       for region in core._regions.values())
            assert core.tier4_retired > 0
        results[tier] = (
            core.cycles, core.instret, len(kernel.security_log),
            event.reason, event.insn_key, event.page_key,
            event.pc, event.fault_address,
        )
    for tier in COMPARED:
        assert results[tier] == results["slow"], tier
    assert results["slow"][3] == reason
    assert results["slow"][4] == 5
    assert results["slow"][5] == page_key


@pytest.mark.parametrize("source,reason", [
    (HOT_WALK_KEY, "key_mismatch"),
    (HOT_WALK_WRITABLE, "not_read_only"),
], ids=["key-mismatch", "writable-page"])
def test_arch_event_stream_identical_across_tiers(monkeypatch, source,
                                                  reason):
    """The observability contract across tiers: the architectural event
    subsequence (faults, signals, MMU bumps — everything cat="arch") of
    a run that faults inside a hot compiled block is bit-identical on
    every interpreter leg."""
    from repro import obs
    from repro.obs import arch_sequence

    sequences = {}
    try:
        for tier in LEGS:
            obs.disable()
            obs.enable()
            kernel, __ = run_hot_fault(monkeypatch, source, tier)
            assert kernel.security_log  # the fault really happened
            sequences[tier] = arch_sequence(obs.OBS.events)
    finally:
        obs.disable()

    for tier in COMPARED:
        assert sequences[tier] == sequences["slow"], tier
    # Non-vacuity: the stream carries the violation and its signal.
    types = [dict(payload)["type"] for payload in sequences["slow"]]
    assert "roload.violation" in types
    assert "signal.delivery" in types
    violation = next(dict(payload) for payload in sequences["slow"]
                     if dict(payload)["type"] == "roload.violation")
    assert violation["reason"] == reason
    assert violation["insn_key"] == 5


def test_audit_chain_identical_across_tiers(monkeypatch):
    """The tamper-evident audit trail is part of the same cross-tier
    contract: a ROLoad key-mismatch raised inside a compiled region must
    produce a bit-identical hash chain — same records, same hashes, same
    head — under every interpreter tier, because audit records carry
    guest instret, never host time. Alongside it, the architectural
    event subsequence must also match (the satellite differential)."""
    from repro import obs
    from repro.obs import arch_sequence, verify_chain

    chains = {}
    sequences = {}
    try:
        for tier in LEGS:
            obs.disable()
            obs.enable(audit=True)
            kernel, __ = run_hot_fault(monkeypatch, HOT_WALK_KEY, tier)
            assert kernel.security_log, tier  # the fault really happened
            obs.OBS.audit.seal()
            chains[tier] = [dict(record)
                            for record in obs.OBS.audit.records]
            sequences[tier] = arch_sequence(obs.OBS.events)
    finally:
        obs.disable()

    for tier in COMPARED:
        assert chains[tier] == chains["slow"], tier
        assert sequences[tier] == sequences["slow"], tier
    chain = chains["slow"]
    assert verify_chain(chain) == []
    assert chain[0]["type"] == "audit.genesis"
    assert chain[-1]["type"] == "audit.seal"
    violation = next(record for record in chain
                     if record["type"] == "roload.violation")
    assert violation["reason"] == "key_mismatch"
    assert violation["insn_key"] == 5
    # Guest time, identical in every tier: 512 good walks retired the
    # same instruction count everywhere before the 513th ld.ro faulted.
    assert isinstance(violation["instret"], int)
    assert violation["instret"] > 512


@pytest.mark.parametrize("source", [HOT_WALK_KEY, HOT_WALK_WRITABLE],
                         ids=["key-mismatch", "writable-page"])
@pytest.mark.parametrize("tier", LEGS)
def test_roload_monitor_complete_under_hot_fault(monkeypatch, source,
                                                 tier):
    """An attached ROLoadMonitor observes every *retired* ld.ro in every
    tier — 512 good walks; the faulting 513th never retires. Attaching
    deoptimizes, so the compiled tier cannot hide executions from it."""
    from repro.cpu.tracer import ROLoadMonitor

    pin_tier(monkeypatch, tier)
    kernel = Kernel(build_system("processor+kernel", memory_size=64 << 20))
    process = kernel.create_process(link([assemble(source)]))
    with ROLoadMonitor(kernel.system.core) as monitor:
        kernel.run(process)
    assert process.state is ProcessState.KILLED
    assert monitor.by_key == {5: 512}


# -- the TLB shadow coupling the compiled memo relies on ---------------------

def _entry(ppn):
    return TLBEntry(ppn=ppn, readable=True, writable=False,
                    executable=False, user=True, key=0)


def test_tlb_shadow_purged_on_replace_evict_and_flush():
    tlb = TLB(entries=2)
    shadow = {}
    tlb.shadows = (shadow,)

    tlb.insert(1, _entry(11))
    shadow[1] = "memo"
    tlb.insert(1, _entry(12))      # replacement invalidates the memo
    assert 1 not in shadow

    shadow[1] = "memo"
    tlb.insert(2, _entry(22))
    tlb.insert(3, _entry(33))      # capacity eviction of vpn 1
    assert 1 not in shadow

    shadow[2] = shadow[3] = "memo"
    tlb.flush_page(3)
    assert 3 not in shadow and 2 in shadow
    tlb.flush()
    assert not shadow
