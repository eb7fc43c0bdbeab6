"""Translations survive a reschedule of the same, unchanged address space.

``Kernel.run`` reschedules its process on every call, and serve sessions
and snapshot slicing call it once per slice. ``set_root`` still flushes
the TLBs each time, but the core's decoded and lowered code is kept when
the same address space comes back with no MMU generation bump and no
host write into code, page tables or kernel frames since it was
descheduled (DESIGN.md §8).

Identity: a program run to exit in many small slices (some shorter than
one block, so tier 1 replays the start of a block that already has a
lowered unit) on every tier matches the slow tier sliced the same way in
every counter, and a one-shot slow run in architectural state. The set_root at each slice walks the page tables again, so walk
counts and cycles legitimately differ from a one-shot run.

Guards: a host write into code, a page-table edit, another process and a
snapshot quiesce between slices each force a flush before the next run.
"""

import pytest

from repro.kernel import Kernel, ProcessState
from repro.replay.snapshot import quiesce
from repro.soc import build_system

from tests.conftest import BLOCKS_ONLY, LEGS, at_tier, lowers
from .conftest import build_image

LOOP = r"""
.globl _start
_start:
    li s0, 0
    li s1, 300
    la s2, buf
    la s3, table
loop:
    call work
    add s0, s0, a0
    sd s0, 0(s2)
    ld s4, 0(s2)
    ld.ro t0, (s3), 42
    add s0, s0, t0
    addi s1, s1, -1
    bnez s1, loop
    andi a0, s0, 0xff
    li a7, 93
    ecall
work:
    li a0, 1
    ret
alt:
    li a0, 2
    ret
.data
buf: .quad 0
.section .rodata.key.42
table: .quad 3
"""

# Slice sizes cycled until exit; 1 and 3 are shorter than one block
# dispatch.
PLAN = (1, 3, 7, 20, 150)
FAST_TIERS = LEGS[1:]


def _kernel(tier):
    with at_tier(tier):
        return Kernel(build_system("processor+kernel",
                                   memory_size=64 << 20))


def _run_sliced(kernel, process, between=None):
    """Run ``process`` to its end in PLAN-sized slices, calling
    ``between(index)`` after each slice."""
    index = 0
    while process.alive:
        kernel.run(process, stop_after=PLAN[index % len(PLAN)])
        if between is not None:
            between(index)
        index += 1
    return index


def _architectural(kernel, process):
    core = kernel.system.core
    return {"state": process.state, "exit_code": process.exit_code,
            "signal": None if process.signal is None
            else (process.signal.number, process.signal.roload),
            "stdout": bytes(process.stdout),
            "security_log": [(e.reason, e.insn_key, e.page_key, e.pc)
                             for e in kernel.security_log],
            "regs": list(process.saved_regs), "pc": process.saved_pc,
            "instret": core.instret,
            "roload_checks": kernel.system.mmu.stats.roload_checks}


def _counters(kernel, process):
    system = kernel.system
    mmu = system.mmu
    out = _architectural(kernel, process)
    out.update(stats=vars(system.timing.stats).copy(),
               mmu=vars(mmu.stats).copy(),
               itlb=(mmu.itlb.hits, mmu.itlb.misses, mmu.itlb.flushes),
               dtlb=(mmu.dtlb.hits, mmu.dtlb.misses, mmu.dtlb.flushes),
               icache=(system.icache.hits, system.icache.misses),
               dcache=(system.dcache.hits, system.dcache.misses),
               generation=mmu.generation)
    return out


class TestIdentity:
    @pytest.mark.parametrize("tier", FAST_TIERS)
    def test_sliced_run_matches_the_slow_tier(self, tier):
        slow = _kernel("slow")
        slow_process = slow.create_process(build_image(LOOP))
        slices = _run_sliced(slow, slow_process)
        fast = _kernel(tier)
        fast_process = fast.create_process(build_image(LOOP))
        assert _run_sliced(fast, fast_process) == slices
        assert _counters(fast, fast_process) == \
            _counters(slow, slow_process)

        one_shot = _kernel("slow")
        whole = one_shot.create_process(build_image(LOOP))
        one_shot.run(whole)
        assert _architectural(fast, fast_process) == \
            _architectural(one_shot, whole)
        assert fast_process.exit_code == (300 * 4) & 0xFF
        assert slices > 50

    @pytest.mark.parametrize("tier", FAST_TIERS)
    def test_translations_are_retained(self, tier):
        kernel = _kernel(tier)
        process = kernel.create_process(build_image(LOOP))
        _run_sliced(kernel, process)
        core = kernel.system.core
        assert not {"context_switch", "mmu_generation"} \
            & core.flush_causes.keys(), core.flush_causes
        residency = core.tier_residency()
        if not lowers(tier):
            return
        if tier == BLOCKS_ONLY:
            assert residency["tier2_retired"] > 0
        if tier == "tier4":
            assert residency["tier4_retired"] > 0
            # The short slices replayed blocks that had lowered units.
            assert residency["tier1_retired"] > 0


def _guarded(tier, intervene, at=40):
    """Run LOOP in slices on ``tier`` with ``intervene(kernel, process)``
    after slice ``at``; returns (kernel, process)."""
    kernel = _kernel(tier)
    image = build_image(LOOP)
    process = kernel.create_process(image)

    def between(index):
        if index == at:
            intervene(kernel, process, image)

    _run_sliced(kernel, process, between)
    return kernel, process


def _assert_guard_flushes(intervene, flushes=1):
    """The intervention forces ``flushes`` flushes on every fast tier,
    and every tier ends where the slow tier does."""
    slow = _counters(*_guarded("slow", intervene))
    for tier in FAST_TIERS:
        kernel, process = _guarded(tier, intervene)
        assert _counters(kernel, process) == slow, tier
        assert kernel.system.core.flush_causes.get("context_switch") \
            == flushes, (tier, kernel.system.core.flush_causes)
    return slow


def _copy_alt_over_work(write):
    """An intervention that patches ``work`` to return 2, not 1, through
    ``write(kernel, space, vaddr, data)``."""
    def patch(kernel, process, image):
        space = process.address_space
        work, alt = image.symbol("work"), image.symbol("alt")
        write(kernel, space, work, space.read_memory(alt, alt - work))
    return patch


class TestGuards:
    @pytest.mark.parametrize("write", [
        lambda kernel, space, vaddr, data:
            space.write_initial(vaddr, data),
        lambda kernel, space, vaddr, data:
            kernel.system.memory.write_bytes(space.phys_addr(vaddr), data),
    ], ids=["address-space", "physical"])
    def test_host_code_write_runs_the_patched_instruction(self, write):
        slow = _assert_guard_flushes(_copy_alt_over_work(write))
        assert slow["state"] is ProcessState.EXITED
        # Iterations before the patch add 1 + 3, the rest 2 + 3.
        assert slow["exit_code"] != (300 * 4) & 0xFF

    def test_page_table_edit_without_sfence_is_guarded(self):
        def rekey(kernel, process, image):
            process.address_space.page_table.set_protection(
                image.symbol("table"), key=7)

        slow = _assert_guard_flushes(rekey)
        assert slow["state"] is ProcessState.KILLED
        assert slow["security_log"][0][:3] == ("key_mismatch", 42, 7)

    def test_snapshot_quiesce_is_guarded(self):
        slow = _assert_guard_flushes(
            lambda kernel, process, image: quiesce(kernel.system))
        assert slow["state"] is ProcessState.EXITED

    def test_another_process_in_between_is_guarded(self):
        other_source = LOOP.replace("li s1, 300", "li s1, 20") \
            .replace("work:\n    li a0, 1", "work:\n    li a0, 5")

        def run_other(kernel, process, image):
            other = kernel.create_process(build_image(other_source))
            kernel.run(other)
            assert other.exit_code == (20 * 8) & 0xFF

        # Once for the other process, once on the way back.
        _assert_guard_flushes(run_other, flushes=2)
