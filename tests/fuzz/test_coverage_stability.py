"""Coverage signatures are tier-stable: the fork-determinism contract
extended to the fuzzer's feedback.

The same input — a loop victim long enough to lower its blocks and
push the region compiler past its threshold, plus a multi-entry
injection schedule — must hash to the same signature and the same
divergence point on every interpreter leg. Without this, a corpus
built on one tier would be garbage on another, and "new coverage" could
mean "different simulator backend" instead of "different behavior"."""

import pytest

from repro.fuzz.corpus import FuzzInput, ScheduleEntry
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.executor import WarmVictimPool
from repro.fuzz.target import VictimSpec

from tests.conftest import LEGS as TIERS, at_tier


def _execute(pool, fuzz_input, tier):
    with at_tier(tier):
        return pool.execute(fuzz_input)


@pytest.fixture(scope="module")
def pool():
    return WarmVictimPool()


@pytest.fixture(scope="module")
def deep_input():
    # A loop victim hot enough to form regions, injected twice:
    # a PTE key flip mid-run and a wild pointer later.
    return FuzzInput(
        spec=VictimSpec(reps=30, loop=True, vcalls=2, icalls=1,
                        arith=2),
        schedule=(ScheduleEntry("pte-key", 1400, 1),
                  ScheduleEntry("wild-ptr", 3000, 0)))


def test_signature_identical_across_tiers(pool, deep_input):
    outcomes = {tier: _execute(pool, deep_input, tier) for tier in TIERS}
    signatures = {tier: o.signature for tier, o in outcomes.items()}
    assert len(set(signatures.values())) == 1, signatures
    divergences = {tier: o.result.divergence
                   for tier, o in outcomes.items()}
    assert len(set(divergences.values())) == 1, divergences
    verdicts = {tier: o.result.verdict for tier, o in outcomes.items()}
    assert len(set(verdicts.values())) == 1, verdicts
    checks = {tier: o.checks_at for tier, o in outcomes.items()}
    assert len(set(checks.values())) == 1, checks


def test_baseline_signature_identical_across_tiers(pool):
    baseline = FuzzInput(spec=VictimSpec(reps=25, loop=True, vcalls=1,
                                         icalls=2))
    signatures = {tier: _execute(pool, baseline, tier).signature
                  for tier in TIERS}
    assert len(set(signatures.values())) == 1, signatures


def test_coverage_map_counts_novelty_once(pool, deep_input):
    coverage = CoverageMap()
    first = pool.execute(deep_input)
    assert coverage.add(first.signature)
    again = pool.execute(deep_input)
    assert again.signature == first.signature   # same input, same class
    assert not coverage.add(again.signature)
    assert len(coverage) == 1
