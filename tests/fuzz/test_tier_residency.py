"""Tier residency of fuzz executions under the tier-up policy.

A fuzz victim runs most of its blocks once or twice, so tier 2 must
lower each block on its first dispatch: otherwise the Python tier 1
replays most of every execution. Counted over every core one execution
uses: the warm boot, the baseline and the execution fork.
"""

import pytest

from repro import config
from repro.cpu import flatcore, native
from repro.fuzz.corpus import FRAC_SCALE, FuzzInput, ScheduleEntry
from repro.fuzz.executor import WarmVictimPool
from repro.fuzz.target import VictimSpec
from repro.kernel import Kernel


@pytest.mark.skipif(flatcore.runner() != "native",
                    reason=f"no native flat-core runner: {native.failure}")
@pytest.mark.parametrize("spec", [
    VictimSpec(reps=8),
    VictimSpec(reps=30, loop=True, vcalls=2, icalls=1, arith=20),
], ids=["unrolled", "loop"])
def test_an_execution_retires_at_most_a_tenth_at_tier1(monkeypatch, spec):
    counts = {"retired": 0, "tier1": 0}
    run = Kernel.run

    def counting_run(kernel, *args, **kwargs):
        core = kernel.system.core
        retired, tier1 = core.instret, core.tier1_retired
        try:
            return run(kernel, *args, **kwargs)
        finally:
            counts["retired"] += core.instret - retired
            counts["tier1"] += core.tier1_retired - tier1

    monkeypatch.setattr(Kernel, "run", counting_run)
    entry = ScheduleEntry("pte-key", FRAC_SCALE // 2)
    with config.overrides(tier="tier4"):
        WarmVictimPool().execute(FuzzInput(spec, (entry,)))
    assert counts["retired"] > 0
    assert counts["tier1"] * 10 <= counts["retired"], counts
