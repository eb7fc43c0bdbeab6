"""End-to-end kernel tests: load, run, syscalls, fault discrimination."""

import gc
import weakref

import pytest

from repro.errors import SimulationError
from repro.kernel import Kernel, ProcessState, SIGILL, SIGSEGV, run_program
from repro.soc import build_system

from tests.conftest import BLOCKS_ONLY, needs_native, set_tier
from .conftest import build_image

HELLO = r"""
.globl _start
_start:
    li a0, 1
    la a1, msg
    li a2, 6
    li a7, 64
    ecall
    mv s0, a0           # byte count written
    li a0, 0
    li a7, 93
    ecall
.section .rodata
msg: .asciz "hello\n"
"""

ROLOAD_OK = r"""
.globl _start
_start:
    la a0, table
    ld.ro a1, (a0), 42
    mv a0, a1
    li a7, 93
    ecall
.section .rodata.key.42
table: .quad 99
"""


class TestBasicExecution:
    def test_hello_world(self, kernel):
        process = kernel.create_process(build_image(HELLO))
        kernel.run(process)
        assert process.state is ProcessState.EXITED
        assert process.exit_code == 0
        assert process.stdout_text == "hello\n"
        assert kernel.console_text == "hello\n"

    def test_write_returns_length(self, kernel):
        process = kernel.create_process(build_image(HELLO))
        kernel.run(process)
        # s0 got the write() return value; check saved context.
        assert process.saved_regs[8] == 6

    def test_exit_code(self, kernel):
        image = build_image("li a0, 7\nli a7, 93\necall\n.globl _start\n"
                            "_start = 0x10000" if False else
                            ".globl _start\n_start:\nli a0, 7\nli a7, 93\n"
                            "ecall")
        process = kernel.create_process(image)
        kernel.run(process)
        assert process.exit_code == 7

    def test_roload_success_through_kernel(self, kernel):
        process = kernel.create_process(build_image(ROLOAD_OK))
        kernel.run(process)
        assert process.exit_code == 99
        assert not kernel.security_log

    def test_budget_exhaustion_raises(self, kernel):
        image = build_image(".globl _start\n_start: j _start")
        process = kernel.create_process(image)
        with pytest.raises(SimulationError):
            kernel.run(process, max_instructions=1000)

    def test_two_processes_isolated(self, kernel):
        p1 = kernel.create_process(build_image(HELLO), name="one")
        p2 = kernel.create_process(build_image(HELLO), name="two")
        kernel.run(p1)
        kernel.run(p2)
        assert p1.pid != p2.pid
        assert p1.stdout_text == p2.stdout_text == "hello\n"


class TestSyscalls:
    def test_brk_grows_heap(self, kernel):
        source = r"""
        .globl _start
        _start:
            li a0, 0
            li a7, 214
            ecall            # query brk
            mv s0, a0
            addi a0, a0, 64
            li a7, 214
            ecall            # grow
            sd s0, 0(s0)     # touch the new heap page
            li a0, 0
            li a7, 93
            ecall
        """
        process = kernel.create_process(build_image(source))
        kernel.run(process)
        assert process.state is ProcessState.EXITED

    def test_mmap_mprotect_with_key(self, kernel):
        """A process builds its own allowlist page at runtime: mmap RW,
        write an entry, seal with mprotect(PROT_READ, key), then ld.ro."""
        source = r"""
        .globl _start
        _start:
            li a0, 0
            li a1, 4096
            li a2, 3          # PROT_READ|PROT_WRITE
            li a3, 0
            li a4, 0
            li a7, 222
            ecall             # mmap
            mv s0, a0
            li t0, 1234
            sd t0, 0(s0)      # write the allowlist entry
            mv a0, s0
            li a1, 4096
            li a2, 1          # PROT_READ
            li a3, 55         # key (our extended mprotect ABI)
            li a7, 226
            ecall             # seal
            bnez a0, fail
            ld.ro a1, (s0), 55
            mv a0, a1
            li a7, 93
            ecall
        fail:
            li a0, 1
            li a7, 93
            ecall
        """
        process = kernel.create_process(build_image(source))
        kernel.run(process)
        assert process.status() == "exited with code 210"  # 1234 & 0xFF

    def test_mprotect_key_on_unmodified_kernel_is_dropped(
            self, kernel_unmodified):
        """On the processor-only profile the kernel has no key plumbing:
        sealing 'with a key' silently yields key 0, so the ld.ro faults."""
        source = r"""
        .globl _start
        _start:
            li a0, 0
            li a1, 4096
            li a2, 3
            li a3, 0
            li a4, 0
            li a7, 222
            ecall
            mv s0, a0
            mv a0, s0
            li a1, 4096
            li a2, 1
            li a3, 55
            li a7, 226
            ecall
            ld.ro a1, (s0), 55
            li a0, 0
            li a7, 93
            ecall
        """
        kernel = kernel_unmodified
        process = kernel.create_process(build_image(source))
        kernel.run(process)
        assert process.state is ProcessState.KILLED
        assert process.signal.number == SIGSEGV

    def test_unknown_syscall_returns_enosys(self, kernel):
        source = r"""
        .globl _start
        _start:
            li a7, 9999
            ecall
            li a7, 93        # exit(a0) -- a0 holds -ENOSYS & 0xff
            ecall
        """
        process = kernel.create_process(build_image(source))
        kernel.run(process)
        assert process.exit_code == (-38) & 0xFF

    def test_write_bad_fd(self, kernel):
        source = r"""
        .globl _start
        _start:
            li a0, 5
            la a1, msg
            li a2, 1
            li a7, 64
            ecall
            li a7, 93
            ecall
        .section .rodata
        msg: .asciz "x"
        """
        process = kernel.create_process(build_image(source))
        kernel.run(process)
        assert process.exit_code == (-9) & 0xFF  # -EBADF


HOT_LOOP = r"""
.globl _start
_start:
    li t0, 200
loop:
    addi s0, s0, 3
    xori s0, s0, 5
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
"""


@needs_native
@pytest.mark.parametrize("fork", [None, "copy", "cow"])
@pytest.mark.parametrize("tier", [BLOCKS_ONLY, "tier4"])
def test_finished_machine_dies_without_a_collection(tier, fork,
                                                    monkeypatch):
    """A machine that ran lowered code and exited normally, forked from
    a snapshot or not, is freed by reference counting alone once it is
    dropped: its kernel releases the bound units, which hold the
    core."""
    from repro.replay import restore, snapshot

    set_tier(monkeypatch, tier, region_threshold=2)
    kernel = Kernel(build_system("processor+kernel", memory_size=64 << 20))
    process = kernel.create_process(build_image(HOT_LOOP))
    kernels = [kernel]
    if fork:
        kernel.run(process, stop_after=300)
        kernel, process = restore(snapshot(kernel), cow=fork == "cow")
        kernels.append(kernel)
    kernel.run(process)
    assert process.exit_code == 0
    cores = [k.system.core for k in kernels]
    assert all(core.jit_compiled for core in cores)     # non-vacuity
    assert bool(cores[-1].regions_compiled) == (tier == "tier4")
    refs = [weakref.ref(x) for x in kernels + cores]
    gc.disable()
    try:
        del kernel, process, kernels, cores
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("unit", ["block", "region"])
def test_a_lowering_failure_raises(unit, monkeypatch):
    """Lowering fails only on a broken internal invariant, so the error
    leaves Kernel.run: it does not quietly pin the pc to the tier
    below."""
    from repro import config
    from repro.cpu import flatcore, native, regions

    if flatcore.runner() != "native":
        pytest.skip(f"no native flat-core runner: {native.failure}")
    lower = flatcore._lower

    def broken(core, plan, region):
        if region == (unit == "region"):
            raise ValueError(f"cannot lower this {unit}")
        return lower(core, plan, region)

    monkeypatch.setattr(flatcore, "_lower", broken)
    monkeypatch.setattr(regions, "REGION_THRESHOLD", 2)
    with config.overrides(tier="tier4"):
        kernel = Kernel(build_system("processor+kernel",
                                     memory_size=64 << 20))
    process = kernel.create_process(build_image(HOT_LOOP))
    with pytest.raises(ValueError, match=f"cannot lower this {unit}"):
        kernel.run(process)


class TestFaultDiscrimination:
    WRONG_KEY = r"""
    .globl _start
    _start:
        la a0, table
        ld.ro a1, (a0), 43
        li a7, 93
        ecall
    .section .rodata.key.42
    table: .quad 7
    """

    ILLEGAL = r"""
    .globl _start
    _start:
        .word 0xffffffff
    """

    @pytest.mark.parametrize("source", [WRONG_KEY, ILLEGAL],
                             ids=["sigsegv", "sigill"])
    def test_killed_machine_dies_without_a_collection(self, source):
        # The signal record must not keep the trap: the trap's traceback
        # holds the frames of the run, and with them the kernel, so each
        # killed machine would wait for a full garbage collection.
        kernel = Kernel(build_system("processor+kernel",
                                     memory_size=64 << 20))
        process = kernel.create_process(build_image(source))
        kernel.run(process)
        assert process.state is ProcessState.KILLED
        core = kernel.system.core
        ref = weakref.ref(core)
        gc.disable()
        try:
            del kernel, process, core
            assert ref() is None
        finally:
            gc.enable()

    def test_roload_fault_logged_and_sigsegv(self, kernel):
        process = kernel.create_process(build_image(self.WRONG_KEY))
        kernel.run(process)
        assert process.state is ProcessState.KILLED
        assert process.signal.number == SIGSEGV
        assert process.signal.roload
        assert len(kernel.security_log) == 1
        event = kernel.security_log[0]
        assert event.reason == "key_mismatch"
        assert event.insn_key == 43 and event.page_key == 42

    def test_unmodified_kernel_no_security_log(self, kernel_unmodified):
        kernel = kernel_unmodified
        process = kernel.create_process(build_image(self.WRONG_KEY))
        kernel.run(process)
        assert process.state is ProcessState.KILLED
        assert process.signal.number == SIGSEGV
        assert not process.signal.roload    # generic fault path
        assert not kernel.security_log

    def test_plain_segfault_not_roload(self, kernel):
        source = r"""
        .globl _start
        _start:
            li a0, 0xdead000
            ld a1, 0(a0)
        """
        process = kernel.create_process(build_image(source))
        kernel.run(process)
        assert process.state is ProcessState.KILLED
        assert not process.signal.roload
        assert not kernel.security_log

    def test_write_to_rodata_segfaults(self, kernel):
        source = r"""
        .globl _start
        _start:
            la a0, victim
            sd a0, 0(a0)
        .section .rodata
        victim: .quad 1
        """
        process = kernel.create_process(build_image(source))
        kernel.run(process)
        assert process.state is ProcessState.KILLED
        assert process.signal.number == SIGSEGV

    def test_illegal_instruction_sigill(self, kernel):
        source = r"""
        .globl _start
        _start:
            .word 0xffffffff
        """
        process = kernel.create_process(build_image(source))
        kernel.run(process)
        assert process.signal.number == SIGILL

    def test_baseline_profile_ld_ro_sigill(self):
        kernel = Kernel(build_system("baseline", memory_size=64 << 20))
        process = kernel.create_process(build_image(self.WRONG_KEY))
        kernel.run(process)
        assert process.signal.number == SIGILL


class TestRunProgram:
    def test_one_shot_helper(self):
        process = run_program(build_image(HELLO))
        assert process.exit_code == 0
        assert process.stdout_text == "hello\n"

    def test_memory_accounting_nonzero(self):
        process = run_program(build_image(HELLO))
        assert process.memory_kib() > 0
