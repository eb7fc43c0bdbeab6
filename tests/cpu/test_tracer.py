"""Tests for tracing/profiling tooling."""

import pytest

from repro.asm import assemble, link
from repro.cpu.tracer import Profiler, ROLoadMonitor, Tracer
from repro.kernel import Kernel
from repro.soc import build_system

from tests.conftest import LOWERS

SOURCE = r"""
.globl _start
_start:
    li t0, 5
loop:
    la a0, table
    ld.ro a1, (a0), 12
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
.section .rodata.key.12
table: .quad 1
"""


@pytest.fixture()
def machine():
    kernel = Kernel(build_system(memory_size=64 << 20))
    process = kernel.create_process(link([assemble(SOURCE)]))
    return kernel, process


class TestTracer:
    def test_records_instructions(self, machine):
        kernel, process = machine
        with Tracer(kernel.system.core, limit=1000) as tracer:
            kernel.run(process)
        assert tracer.entries
        texts = [e.text for e in tracer.entries]
        assert any("ld.ro" in t for t in texts)
        assert any("addi" in t for t in texts)
        # ecall traps instead of retiring, so it is (correctly) absent.
        assert not any("ecall" in t for t in texts)

    def test_limit_bounds_memory(self, machine):
        kernel, process = machine
        with Tracer(kernel.system.core, limit=5) as tracer:
            kernel.run(process)
        assert len(tracer.entries) == 5
        # Indices stay global even when trimmed.
        assert tracer.entries[-1].index > 5

    def test_filter_by_mnemonic(self, machine):
        kernel, process = machine
        with Tracer(kernel.system.core, only="ld.ro") as tracer:
            kernel.run(process)
        assert len(tracer.entries) == 5  # one per loop iteration
        assert all("ld.ro" in e.text for e in tracer.entries)

    def test_detach_restores_hook(self, machine):
        kernel, process = machine
        core = kernel.system.core
        tracer = Tracer(core)
        tracer.attach()
        tracer.detach()
        assert core.trace_hook is None
        kernel.run(process)  # runs fine without the hook

    def test_format(self, machine):
        kernel, process = machine
        with Tracer(kernel.system.core) as tracer:
            kernel.run(process)
        text = tracer.format(last=3)
        assert len(text.splitlines()) == 3


class TestProfiler:
    def test_cycle_attribution_sums(self, machine):
        kernel, process = machine
        core = kernel.system.core
        start_cycles = core.timing.stats.cycles
        with Profiler(core) as profiler:
            kernel.run(process)
        attributed = sum(profiler.cycle_counts.values())
        elapsed = core.timing.stats.cycles - start_cycles
        assert attributed == elapsed

    def test_hot_loop_dominates(self, machine):
        kernel, process = machine
        with Profiler(kernel.system.core) as profiler:
            kernel.run(process)
        pc, cycles, count = profiler.hottest(1)[0]
        assert count >= 5  # a loop-body instruction

    def test_format_with_symbols(self, machine):
        kernel, process = machine
        image = link([assemble(SOURCE)])
        with Profiler(kernel.system.core) as profiler:
            kernel.run(process)
        text = profiler.format(5, symbols=image.symbols)
        assert "_start" in text or "loop" in text


class TestROLoadMonitor:
    def test_counts_by_key(self, machine):
        kernel, process = machine
        with ROLoadMonitor(kernel.system.core) as monitor:
            kernel.run(process)
        assert monitor.by_key == {12: 5}
        assert all(e.mnemonic == "ld.ro" for e in monitor.events)
        assert "12" in monitor.format()

    def test_chained_hooks(self, machine):
        """Two attachables stack: both observe every instruction."""
        kernel, process = machine
        core = kernel.system.core
        with Profiler(core) as profiler:
            with ROLoadMonitor(core) as monitor:
                kernel.run(process)
        assert monitor.by_key[12] == 5
        assert profiler.instruction_counts

    def test_out_of_order_detach(self, machine):
        """Hooks detach independently, in any order."""
        kernel, process = machine
        core = kernel.system.core
        profiler = Profiler(core).attach()
        monitor = ROLoadMonitor(core).attach()
        profiler.detach()           # not last-attached-first
        kernel.run(process)
        monitor.detach()
        assert core.trace_hook is None
        assert monitor.by_key == {12: 5}
        assert not profiler.instruction_counts  # detached before the run


class TestJITBlindSpot:
    """Attaching an observer must deoptimize the tiered interpreter:
    every retired instruction reaches the hook, even ones that used to
    run inside hot tier-1/tier-2 compiled blocks (the blind spot)."""

    def _hot_core(self):
        from .test_jit import countdown_loop, jit_core
        core = jit_core()
        countdown_loop(core, 200)
        return core

    def test_tracer_sees_every_instruction_when_attached_hot(self):
        core = self._hot_core()
        # Heat the loop until tier-2 blocks are compiled and running
        # (the tight budget raises; the compiled state survives).
        with pytest.raises(Exception):
            core.run(200, trap_handler=None)
        assert core._blocks
        if LOWERS:
            assert core.jit_compiled >= 1 and core._jit_blocks
        attach_instret = core.instret
        with Profiler(core) as profiler:
            # Attaching dropped the compiled state: no stale chain may
            # keep retiring instructions underneath the hook.
            assert not core._jit_blocks and not core._blocks
            core.run(10_000, trap_handler=None)  # runs to ebreak
        observed = sum(profiler.instruction_counts.values())
        assert observed == core.instret - attach_instret
        assert observed > 0

    def test_retiering_resumes_after_detach(self):
        core = self._hot_core()
        with Profiler(core):
            with pytest.raises(Exception):
                core.run(50, trap_handler=None)
        assert core.trace_hook is None
        compiled_before = core.jit_compiled
        core.run(10_000, trap_handler=None)
        # The loop got hot again and recompiled after the detach flush.
        assert core._blocks
        if LOWERS:
            assert core.jit_compiled > compiled_before
