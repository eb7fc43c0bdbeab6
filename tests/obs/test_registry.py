"""Metrics registry: instruments, live sources, bit-exact system dumps."""

from repro.asm import assemble, link
from repro.kernel import Kernel
from repro.obs import MetricsRegistry, register_system
from repro.soc import build_system

# A workload that exercises ROLoad checks AND takes a ROLoad fault: five
# good keyed loads, then one from a key-7 page with a key-5 instruction.
FAULTING = r"""
.globl _start
_start:
    li t0, 5
loop:
    la a0, table
    ld.ro a1, (a0), 12
    addi t0, t0, -1
    bnez t0, loop
    la a0, wrong
    ld.ro a1, (a0), 5
    li a7, 93
    ecall
.section .rodata.key.12
table: .quad 1
.section .rodata.key.7
wrong: .quad 2
"""


def test_counter_gauge_histogram():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(17)
    hist = registry.histogram("h")
    for value in (0, 1, 2, 3, 900):
        hist.observe(value)
    out = registry.collect()
    assert out["c"] == 5
    assert out["g"] == 17
    assert out["h"]["count"] == 5
    assert out["h"]["sum"] == 906
    assert out["h"]["max"] == 900
    # zeros land in bucket 0; 2 and 3 share the [2,4) bucket.
    assert out["h"]["buckets"]["0"] == 1
    assert out["h"]["buckets"]["2"] == 2


def test_sources_read_live_and_unregister():
    registry = MetricsRegistry()

    class Holder:
        hits = 1

    holder = Holder()
    registry.register_attrs("x", holder, "hits")
    assert registry.collect()["x.hits"] == 1
    holder.hits = 41  # mutate the plain attribute; nothing was wrapped
    assert registry.collect()["x.hits"] == 41
    registry.unregister_prefix("x")
    assert "x.hits" not in registry.collect()


def test_system_dump_matches_architectural_counters(enabled_obs):
    """The acceptance bar: a metrics dump's ROLoad-fault and TLB/cache
    counters equal the architectural counters bit for bit."""
    system = build_system(memory_size=64 << 20)
    register_system(system)
    kernel = Kernel(system)
    process = kernel.create_process(link([assemble(FAULTING)]))
    kernel.run(process)
    assert kernel.security_log  # the run really faulted

    snapshot = enabled_obs.registry.collect()
    mmu, timing = system.mmu, system.timing.stats
    assert snapshot["sys.mmu.roload_checks"] == mmu.stats.roload_checks
    assert snapshot["sys.mmu.roload_faults"] == mmu.stats.roload_faults
    assert snapshot["sys.mmu.roload_faults"] >= 1
    assert snapshot["sys.dtlb.hits"] == mmu.dtlb.hits
    assert snapshot["sys.dtlb.misses"] == mmu.dtlb.misses
    assert snapshot["sys.itlb.misses"] == mmu.itlb.misses
    assert snapshot["sys.l1d.hits"] == system.dcache.hits
    assert snapshot["sys.l1d.misses"] == system.dcache.misses
    assert snapshot["sys.l1i.hits"] == system.icache.hits
    assert snapshot["sys.timing.instructions"] == timing.instructions
    assert snapshot["sys.timing.cycles"] == timing.cycles

    # Residency accounting is exhaustive: the four tiers partition the
    # retired-instruction count exactly.
    residency = snapshot["sys.tier.residency"]
    assert residency["retired"] == timing.instructions
    assert (residency["tier0_retired"] + residency["tier1_retired"]
            + residency["tier2_retired"]
            + residency["tier4_retired"]) == residency["retired"]


def test_reregistering_replaces_namespace(enabled_obs):
    system_a = build_system(memory_size=64 << 20)
    system_b = build_system(memory_size=64 << 20)
    register_system(system_a)
    register_system(system_b)
    system_a.dcache.hits = 123456
    # The dump reads system_b (last registered), not the mutated a.
    assert enabled_obs.registry.collect()["sys.l1d.hits"] == \
        system_b.dcache.hits
