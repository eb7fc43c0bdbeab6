"""Translations shared per warm snapshot (DESIGN.md §8, §15, §16).

A finished fork publishes the code it decoded and lowered onto the warm
snapshot it came from, and later forks adopt it and bind each unit on
its first dispatch. The contract:

* a warm fork is indistinguishable from a cold one — state hash,
  counters and audit head — on every tier;
* a fork adopts only units of tiers it runs;
* a sibling that patched a code frame (guest store, syscall, host
  write) publishes nothing, and the next fork runs the original code;
* the shared value holds no core, frame or closure, and a destroyed
  session's core dies by reference counting alone;
* a fuzz execution on the baseline's translations classifies exactly
  as a cold one.
"""

import copy
import gc
import weakref

import pytest

from repro import config, obs
from repro.asm import assemble, link
from repro.cpu import regions
from repro.cpu.core import Core, _HANDLERS
from repro.cpu.translations import publish
from repro.fuzz import executor
from repro.fuzz.corpus import FuzzInput, ScheduleEntry
from repro.fuzz.target import VictimSpec
from repro.kernel import Kernel
from repro.replay.snapshot import Snapshot, restore, snapshot, state_hash
from repro.serve.pool import SnapshotPool, WarmSnapshot
from repro.serve.session import Session, SessionCaps
from repro.soc import build_system

from tests.conftest import LEGS, LOWERS, at_tier, lowers
from .conftest import KEY, fork

PLAN = (700, 1300, 2500, 900)


@pytest.fixture(autouse=True)
def _promote_early(monkeypatch):
    monkeypatch.setattr(regions, "REGION_THRESHOLD", 4)


@pytest.fixture()
def pool():
    """A pool of its own: publishing must not leak into other tests."""
    pool = SnapshotPool()
    pool.warm(KEY)
    return pool


def _session(pool, tier, sid=0):
    entry, _ = pool.warm(KEY)
    kernel, process, tier = fork(pool, KEY, tier)
    return Session(sid, kernel, process, SessionCaps.from_request(),
                   tier=tier, workload=KEY.workload, origin=entry)


def _cold_session(pool, tier, sid=0):
    entry, _ = pool.warm(KEY)
    with at_tier(tier):
        kernel, process = restore(entry.snapshot, cow=True)
    return Session(sid, kernel, process, SessionCaps.from_request(),
                   workload=KEY.workload)


def _stepped(session):
    for n in PLAN:
        session.step(n)
    core = session.kernel.system.core
    stats = session.kernel.system.timing.stats
    out = (stats.instructions, stats.cycles, stats.icache_misses,
           stats.dcache_misses,
           session.query(with_hash=True)["state_hash"], session.audit.head)
    return out, core


def _publish_from(pool, tier="tier4"):
    donor = _session(pool, tier, sid=99)
    _stepped(donor)
    donor.destroy()
    return pool.warm(KEY)[0].translations


class TestWarmForks:
    def test_warm_forks_match_cold_forks_on_every_tier(self, pool):
        shared = _publish_from(pool)
        assert shared is not None
        assert bool(shared.jit and shared.regions) == LOWERS
        for tier in LEGS:
            cold, cold_core = _stepped(_cold_session(pool, tier))
            warm_session = _session(pool, tier)
            adopted = warm_session.kernel.system.core._adopted
            warm, warm_core = _stepped(warm_session)
            assert warm == cold, tier
            assert (adopted is shared) == (tier != "slow"), tier
            if lowers(tier):
                # Bound rather than lowered: the fork compiles less.
                assert warm_core.jit_compiled < cold_core.jit_compiled

    @pytest.mark.parametrize("tier", ["slow", "tier1", "tier4"])
    def test_fork_adopts_only_units_of_its_tiers(self, pool, tier):
        shared = _publish_from(pool, "tier4")
        session = _session(pool, tier)
        core = session.kernel.system.core
        before = core.tier_residency()
        assert (core._adopted is None) == (tier == "slow")
        _stepped(session)
        after = core.tier_residency()
        if lowers(tier):
            # Bound, not lowered: the adopted blocks and regions run.
            assert core._jit_blocks.keys() & shared.jit.keys()
            assert core._regions.keys() & shared.regions.keys()
            assert after["tier4_retired"] > before["tier4_retired"]
            return
        assert after["tier4_retired"] == before["tier4_retired"]
        assert not core._regions and core.regions_compiled == 0
        assert after["tier2_retired"] == before["tier2_retired"]
        assert not core._jit_blocks and core.jit_compiled == 0
        if tier == "slow":
            assert after["tier1_retired"] == before["tier1_retired"]

    @pytest.mark.parametrize("tier", LEGS[1:])
    def test_adopted_blocks_run_as_shared_on_every_tier(self, pool, tier):
        # One way to make a tier-1 block runnable, whatever the core's
        # tiers and whether it was built cold or adopted: the generic
        # handlers, and an adopted block is the shared recipe itself,
        # decoded as a cold build decodes the pc.
        shared = _publish_from(pool)
        _, cold = _stepped(_cold_session(pool, tier))
        assert cold._blocks
        for pc, block in cold._blocks.items():
            assert all(e[0] is _HANDLERS[e[1].name] for e in block[0]), \
                hex(pc)
        _, warm = _stepped(_session(pool, tier))
        adopted = warm._blocks.keys() & shared.blocks.keys()
        assert adopted
        for pc in adopted:
            block = warm._blocks[pc]
            assert block is shared.blocks[pc], hex(pc)
            assert all(e[0] is _HANDLERS[e[1].name] for e in block[0])
            if pc in cold._blocks:
                assert [e[1:] for e in block[0]] \
                    == [e[1:] for e in cold._blocks[pc][0]], hex(pc)

    @pytest.mark.parametrize("tier", ["tier1", "tier4"])
    def test_publish_stores_the_cores_own_blocks(self, pool, tier):
        entry, _ = pool.warm(KEY)
        _, core = _stepped(_cold_session(pool, tier))
        shared = publish(None, core, entry.snapshot)
        assert shared is not None
        assert shared.blocks.keys() == core._blocks.keys()
        for pc, block in core._blocks.items():
            assert shared.blocks[pc] is block, hex(pc)

    def test_destroyed_session_core_dies_without_a_collection(self, pool):
        _publish_from(pool)
        session = _session(pool, "tier4")
        _stepped(session)
        ref = weakref.ref(session.kernel.system.core)
        gc.disable()
        try:
            session.destroy()
            del session
            assert ref() is None
        finally:
            gc.enable()

    def test_shared_value_holds_no_core_frame_or_closure(self, pool):
        shared = _publish_from(pool)
        seen, stack = set(), [shared]
        handlers = set(map(id, _HANDLERS.values()))
        while stack:
            item = stack.pop()
            if id(item) in seen or isinstance(item, (type, str, int)):
                continue
            seen.add(id(item))
            assert not isinstance(item, (Core, bytearray, memoryview))
            if callable(item):
                # Generic-site handlers: the module-level table only.
                assert id(item) in handlers, item
                continue
            stack.extend(gc.get_referents(item))


# An RWX page holding a 2-instruction function ("li a0, 1; ret"),
# called 100 times; then a mode byte from stdin: "S" patches it to
# "li a0, 2" with a guest store, "R" with a read() over it, anything
# else leaves it; then 100 calls more. Exits with the sum (200
# unpatched).
PATCHABLE = r"""
.globl _start
_start:
    li a0, 0
    li a1, 4096
    li a2, 7
    li a3, 0
    li a4, 0
    li a7, 222
    ecall
    mv s2, a0
    li t0, 0x00100513
    sw t0, 0(s2)
    li t0, 0x00008067
    sw t0, 4(s2)
    li s0, 0
    li s1, 100
loop1:
    jalr ra, 0(s2)
    add s0, s0, a0
    addi s1, s1, -1
    bnez s1, loop1
    li a0, 0
    la a1, mode
    li a2, 1
    li a7, 63
    ecall
    la t1, mode
    lbu t1, 0(t1)
    li t2, 83
    bne t1, t2, nostore
    li t0, 0x00200513
    sw t0, 0(s2)
nostore:
    li t2, 82
    bne t1, t2, noread
    li a0, 0
    mv a1, s2
    li a2, 4
    li a7, 63
    ecall
noread:
    li s1, 100
loop2:
    jalr ra, 0(s2)
    add s0, s0, a0
    addi s1, s1, -1
    bnez s1, loop2
    andi a0, s0, 0xff
    li a7, 93
    ecall
.data
mode: .quad 0
spare: .quad 0
"""
LI_A0_2 = (0x00200513).to_bytes(4, "little")
UNPATCHED = 200
BOOT = 30   # inside loop1: the code page is in the snapshot


@pytest.fixture()
def entry():
    kernel = Kernel(build_system("processor+kernel", memory_size=64 << 20))
    process = kernel.create_process(link([assemble(PATCHABLE)]))
    kernel.run(process, stop_after=BOOT)
    return WarmSnapshot(snapshot(kernel), boot_seconds=0.0)


def _fork(entry, tier="tier4", stdin=b"N", between=None):
    with config.overrides(tier=tier):
        kernel, process = restore(entry.snapshot, cow=True,
                                  translations=entry.translations)
    process.stdin = stdin
    kernel.run(process, stop_after=150)
    if between is not None:
        between(kernel, process)
    kernel.run(process)
    return kernel, process


def _host_patch(kernel, process):
    code = process.saved_regs[18]       # s2: the RWX page
    kernel.system.memory.write_bytes(
        process.address_space.phys_addr(code), LI_A0_2)


SIBLINGS = {
    "guest-store": dict(stdin=b"S"),
    "syscall": dict(stdin=b"R" + LI_A0_2),
    "host-write": dict(between=_host_patch),
}


class TestPatchedSiblings:
    @pytest.mark.parametrize("kind", sorted(SIBLINGS))
    def test_patching_sibling_neither_publishes_nor_leaks(self, entry,
                                                         kind):
        patched = _fork(entry, "slow", **SIBLINGS[kind])[1].exit_code
        assert patched != UNPATCHED
        kernel, process = _fork(entry, **SIBLINGS[kind])
        assert process.exit_code == patched
        core = kernel.system.core
        assert core._jit_blocks if LOWERS else core._blocks   # translated
        entry.publish(kernel)
        assert entry.translations is None

        cold = _fork(entry)
        assert cold[1].exit_code == UNPATCHED
        entry.publish(cold[0])
        assert entry.translations is not None
        kernel, process = _fork(entry)
        assert kernel.system.core.flush_causes.get("host_write") is None
        assert process.exit_code == UNPATCHED
        assert state_hash(kernel) == state_hash(cold[0])

    def test_donor_mapping_code_elsewhere_publishes_nothing(self, entry):
        kernel, process = _fork(entry)
        core = kernel.system.core
        assert publish(None, core, entry.snapshot) is not None
        state = copy.deepcopy(entry.snapshot.state)
        frames = state["processes"][-1]["space"]["frames"]
        frames[process.saved_regs[18]] += 4096      # the RWX code page
        assert publish(None, core, Snapshot(state)) is None

    def test_data_write_between_slices_keeps_adopted_code(self, entry):
        entry.publish(_fork(entry)[0])

        spare = link([assemble(PATCHABLE)]).symbol("spare")

        def poke(kernel, process):
            kernel.system.memory.write(
                process.address_space.phys_addr(spare), 8, 7)

        kernel, process = _fork(entry, between=poke)
        core = kernel.system.core
        assert process.exit_code == UNPATCHED
        assert core.flush_causes == {}
        assert core._adopted is entry.translations
        assert core.jit_compiled == 0


FENCE_LOOP = r"""
.globl _start
_start:
    li s1, 60
    la s3, table
loop:
    ld.ro t0, (s3), 42
    add s0, s0, t0
    andi t1, s1, 15
    bnez t1, skip
    fence.i
skip:
    addi s1, s1, -1
    bnez s1, loop
    andi a0, s0, 0xff
    li a7, 93
    ecall
.section .rodata.key.42
table: .quad 3
"""


def test_fence_i_audit_head_is_the_same_cold_and_warm():
    kernel = Kernel(build_system("processor+kernel", memory_size=64 << 20))
    process = kernel.create_process(link([assemble(FENCE_LOOP)]))
    kernel.run(process, stop_after=10)
    entry = WarmSnapshot(snapshot(kernel), boot_seconds=0.0)
    heads = {}
    for warm in (False, True):
        for tier in LEGS:
            obs.disable()
            obs.enable(audit=True)
            try:
                with at_tier(tier):
                    kernel, process = restore(
                        entry.snapshot, cow=True,
                        translations=entry.translations)
                kernel.run(process, stop_after=40)
                kernel.run(process)
                flushes = [r for r in obs.OBS.audit.records
                           if r["type"] == "cache.flush"]
                heads[(warm, tier)] = obs.OBS.audit.head
            finally:
                obs.disable()
            assert process.exit_code == 180 & 0xFF
            assert len(flushes) == 3, (warm, tier)
            entry.publish(kernel)
        assert entry.translations is not None
    assert len(set(heads.values())) == 1, heads


class TestFuzzBaseline:
    @pytest.mark.parametrize("schedule", [
        (ScheduleEntry("allowlist-ptr", 1500, 0),),
        (ScheduleEntry("pte-key", 1400, 1),
         ScheduleEntry("wild-ptr", 3000, 0)),
    ], ids=["data-write", "pte-key+wild-ptr"])
    def test_adopting_execution_matches_a_cold_one(self, monkeypatch,
                                                   schedule):
        forks = []

        def spy(*args, **kwargs):
            forks.append(restore(*args, **kwargs))
            return forks[-1]

        monkeypatch.setattr(executor, "restore", spy)
        pool = executor.WarmVictimPool()
        fuzz_input = FuzzInput(
            spec=VictimSpec(reps=30, loop=True, vcalls=2, icalls=1,
                            arith=2),
            schedule=schedule)
        with config.overrides(tier="tier4"):
            victim = pool.victim(fuzz_input.spec)   # the baseline donor
        shared = victim.translations
        assert shared is not None and bool(shared.jit) == LOWERS
        warm = pool.execute(fuzz_input, tier="tier4")
        warm_core = forks[-1][0].system.core
        victim.translations = None
        cold = pool.execute(fuzz_input, tier="tier4")
        cold_core = forks[-1][0].system.core
        assert warm.result.to_dict() == cold.result.to_dict()
        assert warm.signature == cold.signature
        assert warm.journal.entries == cold.journal.entries
        assert warm.checks_at == cold.checks_at
        if LOWERS:
            assert warm_core.jit_compiled < cold_core.jit_compiled
        if schedule[0].kind == "allowlist-ptr":
            # An injected pointer is a data write: it flushes nothing.
            assert not warm_core.flush_causes
