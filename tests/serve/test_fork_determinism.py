"""Fork determinism across interpreter tiers — PR 9 satellite.

The serve-level restatement of the repo's core differential property:
two sessions forked from the *same* warm snapshot and stepped through
the same workload must be bit-identical from the outside — same
retired-instruction and cycle counts, same architectural state hash,
same audit chain head-for-head — even when one simulates on tier1 and
the other on tier4. A client can't tell (and must not be able to tell)
which interpreter served it.
"""

import pytest

from repro.serve.session import Session, SessionCaps

from tests.conftest import BLOCKS_ONLY
from .conftest import fork


def _drive(pool, key, tier, slices, sid=0):
    kernel, process, tier = fork(pool, key, tier)
    session = Session(sid, kernel, process, SessionCaps.from_request(),
                      tier=tier, workload=key.workload)
    for n in slices:
        session.step(n)
    return session


class TestForkDeterminism:
    @pytest.mark.parametrize("other_tier", ["slow", BLOCKS_ONLY, "tier4"])
    def test_same_hash_cycles_and_chain_across_tiers(self, pool,
                                                     warm_key,
                                                     other_tier):
        slices = [700, 1300, 2500]
        one = _drive(pool, warm_key, "tier1", slices, sid=1)
        two = _drive(pool, warm_key, other_tier, slices, sid=2)

        # Same instructions retired, same simulated cycle count.
        stats_one = one.kernel.system.timing.stats
        stats_two = two.kernel.system.timing.stats
        assert stats_one.instructions == stats_two.instructions
        assert stats_one.cycles == stats_two.cycles

        # Bit-identical architectural state (hash quiesces, so only
        # compare at the end — this is the final barrier).
        q_one = one.query(with_hash=True)
        q_two = two.query(with_hash=True)
        assert q_one["state_hash"] == q_two["state_hash"]

        # Identical audit chains, record for record: chain content is
        # a pure function of execution history, not of who simulated
        # it or which session id it ran under.
        assert one.audit.records == two.audit.records
        assert q_one["audit"]["head"] == q_two["audit"]["head"]

    def test_slicing_granularity_is_architecturally_invisible(
            self, pool, warm_key):
        # The step plan is part of the determinism contract: each
        # slice entry re-activates the address space (a TLB flush), so
        # *timing* counters legitimately depend on slicing. What must
        # NOT depend on it is the architectural machine: registers,
        # memory, and process state after N instructions are identical
        # however those N were sliced.
        from repro.replay.snapshot import snapshot
        coarse = _drive(pool, warm_key, "tier1", [4500], sid=3)
        fine = _drive(pool, warm_key, "tier1", [500] * 9, sid=4)
        state_c = snapshot(coarse.kernel).state
        state_f = snapshot(fine.kernel).state
        for section in ("core", "memory", "processes", "kernel",
                        "uart"):
            assert state_c[section] == state_f[section], section
        assert state_c["timing"]["instructions"] == \
            state_f["timing"]["instructions"]

    def test_fork_is_isolated_from_its_sibling(self, pool, warm_key):
        # The leader runs to completion of its plan before the laggard
        # even starts: if COW leaked the leader's progress into the
        # shared frames, the laggard (same plan) would see it.
        ahead = _drive(pool, warm_key, "tier1", [3000], sid=5)
        behind = _drive(pool, warm_key, "tier1", [3000], sid=6)
        assert ahead.retired == behind.retired == 3000
        assert behind.query(with_hash=True)["state_hash"] == \
            ahead.query(with_hash=True)["state_hash"]

    def test_fork_is_much_faster_than_cold_boot(self, pool, warm_key):
        entry, built = pool.warm(warm_key)
        assert not built                  # warmed by the fixture
        _, _, fork_seconds = pool.fork(warm_key)
        # Acceptance floor is 10x; leave headroom for noisy runners
        # (observed ~100-300x on the CI container).
        assert fork_seconds < entry.boot_seconds / 10
