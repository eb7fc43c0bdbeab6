"""Shared test helpers: the interpreter legs the differential tests
compare, and the mark for tests that need the native flat-core runner.

The legs are the ``REPRO_TIER`` values (:data:`repro.config.TIERS`)
plus :data:`BLOCKS_ONLY`, a test-only setting: tier 4 with its region
threshold out of reach, so every lowered unit is a single tier-2 block.
It isolates block lowering from region planning.
"""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro import config
from repro.cpu import flatcore, native, regions
from repro.cpu.regions import REGION_THRESHOLD

# Without the native runner a tier-4 core runs tier 1: nothing is
# lowered, so assertions about lowered units and their counters hold
# only where this is True.
LOWERS = flatcore.runner() == "native"

needs_native = pytest.mark.skipif(
    not LOWERS, reason=f"no native flat-core runner: {native.failure}")

BLOCKS_ONLY = "tier2"
NO_REGIONS = 1 << 62    # a region threshold no run reaches
LEGS = ("slow", "tier1", BLOCKS_ONLY, "tier4")


def lowers(leg: str) -> bool:
    """Whether a core built at ``leg`` lowers blocks on this host."""
    return LOWERS and leg in (BLOCKS_ONLY, "tier4")


def set_tier(monkeypatch, leg: str, region_threshold=REGION_THRESHOLD):
    """Build the next cores at ``leg`` (one of :data:`LEGS`), forming
    regions after ``region_threshold`` arrivals (never on the
    blocks-only leg), until the test ends: an override of the tier that
    ``monkeypatch`` pops."""
    if leg == BLOCKS_ONLY:
        leg, region_threshold = "tier4", NO_REGIONS
    monkeypatch.setattr(config, "_OVERRIDES", [
        *config._OVERRIDES, config.current().replace(tier=leg)])
    monkeypatch.setattr(regions, "REGION_THRESHOLD", region_threshold)


@contextmanager
def at_tier(leg: str):
    """Build cores at ``leg`` (one of :data:`LEGS`) inside the block."""
    threshold = regions.REGION_THRESHOLD
    if leg == BLOCKS_ONLY:
        leg, threshold = "tier4", NO_REGIONS
    with config.overrides(tier=leg), \
            mock.patch.object(regions, "REGION_THRESHOLD", threshold):
        yield
