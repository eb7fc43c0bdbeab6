"""Shared serve fixtures: one tiny warm snapshot per test session.

Booting a workload costs ~100ms; forking from the warm snapshot costs
microseconds. Every serve test that needs a live machine forks from
this one pool entry, which is exactly the production shape.
"""

import pytest

from repro.serve.pool import PoolKey, SnapshotPool

from tests.conftest import BLOCKS_ONLY, at_tier

# Small enough to boot fast, big enough to survive thousands of step
# instructions past the boot point before exiting.
KEY = PoolKey(profile="processor+kernel", workload="429.mcf",
              scale=0.02, variant="vcall", boot=2000)


@pytest.fixture(scope="session")
def pool():
    return SnapshotPool()


@pytest.fixture(scope="session")
def warm_key(pool):
    pool.warm(KEY)
    return KEY


def fork(pool, key, tier):
    """``pool.fork(key, tier=tier)`` at interpreter leg ``tier``
    (``tests.conftest.LEGS``). A pool refuses the test-only blocks-only
    leg, so that leg forks at the ambient tier inside ``at_tier``.
    Returns the kernel, the process and the tier for the session."""
    if tier == BLOCKS_ONLY:
        with at_tier(tier):
            kernel, process, _ = pool.fork(key)
        return kernel, process, "tier4"
    kernel, process, _ = pool.fork(key, tier=tier)
    return kernel, process, tier
