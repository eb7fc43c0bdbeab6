"""Per-frame code guard, syscall copy-out checks, fence.i in the audit.

Translations are invalidated per code frame (DESIGN.md §8). A host
write into a frame holding cached code flushes the core before its
next dispatch, during a run as well as between runs. Host writes into
plain data frames, and the kernel's own page-table writes during a run
(mmap growth), keep it. Every tier must still end where the slow tier
does, counter for counter.

Syscall copy-out (read, clock_gettime, getrandom) writes only pages
whose VMA has PROT_WRITE: a keyed page is read-only, and the kernel
must not write it for the guest.

A guest fence.i enters the audit chain as a function of guest state
only, so every tier records it and chains the same head.
"""

import pytest

from repro import obs
from repro.cpu import regions
from repro.kernel import ProcessState

from tests.conftest import LEGS as TIERS
from .conftest import build_image
from .test_translation_retention import _counters, _kernel

FAST_TIERS = TIERS[1:]


@pytest.fixture(autouse=True)
def _promote_early(monkeypatch):
    monkeypatch.setattr(regions, "REGION_THRESHOLD", 2)


def _run(source, tier, stdin=b""):
    kernel = _kernel(tier)
    process = kernel.create_process(build_image(source))
    process.stdin = stdin
    kernel.run(process)
    return kernel, process


# A 2-instruction function in an RWX page, called 200 times, patched
# to return 2 by a read() over it, then called 200 times more.
SMC_BY_READ = r"""
.globl _start
_start:
    li a0, 0
    li a1, 4096
    li a2, 7          # PROT_READ|PROT_WRITE|PROT_EXEC
    li a3, 0
    li a4, 0
    li a7, 222
    ecall             # mmap an RWX page
    mv s2, a0
    li t0, 0x00100513 # li a0, 1
    sw t0, 0(s2)
    li t0, 0x00008067 # ret
    sw t0, 4(s2)
    li s0, 0
    li s1, 200
loop1:
    jalr ra, 0(s2)
    add s0, s0, a0
    addi s1, s1, -1
    bnez s1, loop1
    li a0, 0          # read(0, s2, 4): stdin holds li a0, 2
    mv a1, s2
    li a2, 4
    li a7, 63
    ecall
    li s1, 200
loop2:
    jalr ra, 0(s2)
    add s0, s0, a0
    addi s1, s1, -1
    bnez s1, loop2
    srli a0, s0, 2
    li a7, 93
    ecall
"""
LI_A0_2 = (0x00200513).to_bytes(4, "little")


class TestCodeWrites:
    def test_read_over_called_code_matches_the_slow_tier(self):
        """The syscall's write lands in compiled code mid-run: every
        tier must run the patched instruction from the next call on."""
        slow = _counters(*_run(SMC_BY_READ, "slow", LI_A0_2))
        assert slow["state"] is ProcessState.EXITED
        assert slow["exit_code"] == (200 * 1 + 200 * 2) // 4
        for tier in FAST_TIERS:
            kernel, process = _run(SMC_BY_READ, tier, LI_A0_2)
            assert _counters(kernel, process) == slow, tier
            assert kernel.system.core.flush_causes == {"host_write": 1}, \
                tier


# A loop that reads a data word the host may poke between slices; the
# poke must keep translations.
LOOP = r"""
.globl _start
_start:
    li s0, 0
    li s1, 300
    la s2, buf
loop:
    call work
    add s0, s0, a0
    sd s0, 0(s2)
    ld s4, 8(s2)
    add s0, s0, s4
    addi s1, s1, -1
    bnez s1, loop
    andi a0, s0, 0xff
    li a7, 93
    ecall
work:
    li a0, 1
    ret
.data
buf: .quad 0, 0
"""
PLAN = (1, 3, 7, 20, 150)


def _sliced(tier, between):
    kernel = _kernel(tier)
    image = build_image(LOOP)
    process = kernel.create_process(image)
    index = 0
    while process.alive:
        kernel.run(process, stop_after=PLAN[index % len(PLAN)])
        between(index, kernel, process, image)
        index += 1
    return kernel, process


class TestDataWrites:
    def test_host_write_to_a_data_frame_between_slices_keeps_code(self):
        def poke(index, kernel, process, image):
            if index == 40:
                space = process.address_space
                kernel.system.memory.write(
                    space.phys_addr(image.symbol("buf") + 8), 8, 2)

        slow = _counters(*_sliced("slow", poke))
        # 300 iterations of +1, and +2 from the poke on.
        assert slow["exit_code"] != 300 & 0xFF
        for tier in FAST_TIERS:
            kernel, process = _sliced(tier, poke)
            assert _counters(kernel, process) == slow, tier
            assert kernel.system.core.flush_causes == {}, tier

    def test_mmap_growth_inside_a_run_keeps_code(self):
        """The kernel writes page tables (not code) for every mmap: a
        hot loop calling mmap never flushes."""
        source = r"""
        .globl _start
        _start:
            li s1, 40
        loop:
            li a0, 0
            li a1, 4096
            li a2, 3
            li a3, 0
            li a4, 0
            li a7, 222
            ecall
            sd s1, 0(a0)
            ld t0, 0(a0)
            add s0, s0, t0
            addi s1, s1, -1
            bnez s1, loop
            andi a0, s0, 0xff
            li a7, 93
            ecall
        """
        slow = _counters(*_run(source, "slow"))
        assert slow["exit_code"] == (40 * 41 // 2) & 0xFF
        for tier in FAST_TIERS:
            kernel, process = _run(source, tier)
            assert _counters(kernel, process) == slow, tier
            assert kernel.system.core.flush_causes == {}, tier


# A syscall copies into a keyed (read-only) table, then ld.ro reads it.
# Exits with the table's low byte plus (result + 14): the table's own
# value (3) exactly when the call failed with -EFAULT.
COPY_INTO_TABLE = r"""
.globl _start
_start:
    la s3, table
    {call}
    mv s4, a0
    ld.ro t0, (s3), 42
    addi s4, s4, 14
    add a0, t0, s4
    li a7, 93
    ecall
.section .rodata.key.42
table: .quad 3
.section .bss
ts: .zero 16
"""
CALLS = {
    "read": "li a0, 0\n    mv a1, s3\n    li a2, 8\n    li a7, 63\n"
            "    ecall",
    "clock_gettime": "li a0, 0\n    mv a1, s3\n    li a7, 113\n    ecall",
    "getrandom": "mv a0, s3\n    li a1, 8\n    li a2, 0\n    li a7, 278\n"
                 "    ecall",
}


class TestCopyOut:
    @pytest.mark.parametrize("tier", TIERS)
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_copy_out_into_a_keyed_page_fails_with_efault(self, call,
                                                          tier):
        source = COPY_INTO_TABLE.format(call=CALLS[call])
        kernel, process = _run(source, tier, stdin=b"A" * 8)
        assert process.state is ProcessState.EXITED, process.status()
        assert process.exit_code == 3
        assert process.stdin == b"A" * 8        # nothing consumed
        table = process.address_space.read_memory(
            build_image(source).symbol("table"), 8)
        assert table == (3).to_bytes(8, "little")
        assert not kernel.security_log

    @pytest.mark.parametrize("tier", TIERS)
    def test_copy_out_into_a_writable_buffer_still_works(self, tier):
        source = COPY_INTO_TABLE.format(call=CALLS["clock_gettime"]) \
            .replace("mv a1, s3", "la a1, ts")
        kernel, process = _run(source, tier)
        # ld.ro reads the untouched table (3); the call returned 0.
        assert process.exit_code == 3 + 14

    def test_copy_out_to_an_unmapped_buffer_fails_with_efault(self):
        source = COPY_INTO_TABLE.format(call=CALLS["read"]) \
            .replace("mv a1, s3", "li a1, 0x30000000")
        kernel, process = _run(source, "tier4", stdin=b"A" * 8)
        assert process.exit_code == 3


FENCE_LOOP = r"""
.globl _start
_start:
    li s1, 30
    la s3, table
loop:
    ld.ro t0, (s3), 42
    add s0, s0, t0
    fence.i
    addi s1, s1, -1
    bnez s1, loop
    andi a0, s0, 0xff
    li a7, 93
    ecall
.section .rodata.key.42
table: .quad 3
"""


class TestFenceIAudit:
    def test_every_tier_records_each_fence_i_and_chains_one_head(self):
        heads = {}
        for tier in TIERS:
            obs.disable()
            obs.enable(audit=True)
            try:
                kernel, process = _run(FENCE_LOOP, tier)
                trail = obs.OBS.audit
                records = [r for r in trail.records
                           if r["type"] == "cache.flush"]
                heads[tier] = trail.head
            finally:
                obs.disable()
            assert process.exit_code == 90
            assert len(records) == 30, tier
            assert {key for key in records[0]
                    if key not in ("seq", "prev", "sha256")} \
                == {"type", "reason", "instret"}
            assert records[0]["reason"] == "fence.i"
        assert len(set(heads.values())) == 1, heads
