"""Replay results name the tier that ran, not the tier that was asked for.

Tier 4 runs only on the flat core's native runner; where it could not
be built, a core configured for it runs tier 1. The determinism checker
must then report a tier-1 run, not a tier-4 run that never happened.
"""

import pytest

from repro import config
from repro.cpu import Core, flatcore
from repro.fuzz.target import VictimSpec, build_image
from repro.mem import MMU, PhysicalMemory
from repro.replay import record_reference, replay_tier
from repro.tools import injecttool

TIER_NAMES = config.TIERS


@pytest.fixture(scope="module")
def image():
    return build_image(VictimSpec(reps=2))


@pytest.fixture()
def no_runner(monkeypatch):
    monkeypatch.setattr(flatcore, "_native", None)


def core_tier(tier: str) -> str:
    memory = PhysicalMemory(1 << 20)
    with config.overrides(tier=tier):
        return Core(memory, MMU(memory)).tier


def test_core_tier_without_the_runner(no_runner):
    assert [core_tier(t) for t in TIER_NAMES] == ["slow", "tier1", "tier1"]


@pytest.mark.skipif(flatcore.runner() != "native",
                    reason="needs the native flat-core runner")
def test_core_tier_with_the_runner():
    assert [core_tier(t) for t in TIER_NAMES] == list(TIER_NAMES)


def test_replays_without_the_runner_are_labelled_tier1(no_runner, image):
    with config.overrides(tier="tier4"):
        reference = record_reference(image, stop_after=100)
    assert reference.result.tier == "tier1"
    runs = [replay_tier(reference, tier) for tier in TIER_NAMES]
    assert [run.tier for run in runs] == ["slow", "tier1", "tier1"]
    assert all(run.matches(reference.result) for run in runs)


def test_verify_without_the_runner_names_the_tiers_that_ran(no_runner,
                                                             capsys):
    code = injecttool.main(["verify", "--stop-after", "100", "--reps", "2",
                            "--tiers", "slow,tier1,tier4"])
    out = capsys.readouterr().out
    assert code == 0
    assert [line.split(":")[0].split()[-1] for line in out.splitlines()
            if line.startswith("replay ") and "[OK]" in line] == \
        ["slow", "tier1", "tier1"]
    assert "replay deterministic across slow, tier1\n" in out
