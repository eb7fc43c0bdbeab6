"""Snapshot/restore (repro.replay.snapshot) — DESIGN.md §11.

The load-bearing property: a restored machine is architecturally
indistinguishable from the machine it was captured from, *including
timing*, even though derived state (TLB, block cache, JIT code) is
dropped and rebuilt.
"""

import pytest

from repro.errors import ReplayError
from repro.fuzz.target import VictimSpec, build_image
from repro.kernel import Kernel
from repro.replay import (FORMAT_VERSION, Snapshot, restore, snapshot,
                          state_hash)
from repro.replay.snapshot import MAGIC
from repro.soc import build_system

from tests.conftest import BLOCKS_ONLY, at_tier


@pytest.fixture(scope="module")
def image():
    return build_image(VictimSpec(reps=4))


def _run_to(image, stop_after, profile="processor+kernel"):
    system = build_system(profile)
    kernel = Kernel(system)
    process = kernel.create_process(image, name="victim")
    kernel.run(process, stop_after=stop_after)
    return kernel, process


class TestFormat:
    def test_bytes_round_trip_preserves_hash(self, image):
        kernel, _ = _run_to(image, 100)
        snap = snapshot(kernel)
        again = Snapshot.from_bytes(snap.to_bytes())
        assert again.version == FORMAT_VERSION
        assert again.state_hash() == snap.state_hash()
        assert again.instret == snap.instret

    def test_file_round_trip(self, image, tmp_path):
        kernel, _ = _run_to(image, 100)
        snap = snapshot(kernel)
        path = tmp_path / "run.snap"
        snap.save(path)
        assert Snapshot.load(path).state_hash() == snap.state_hash()

    def test_bad_magic_rejected(self):
        with pytest.raises(ReplayError, match="magic|not a"):
            Snapshot.from_bytes(b"NOTASNAP" + bytes(64))

    def test_future_version_rejected(self, image):
        kernel, _ = _run_to(image, 100)
        blob = bytearray(snapshot(kernel).to_bytes())
        offset = len(MAGIC)
        blob[offset:offset + 2] = (FORMAT_VERSION + 1).to_bytes(2, "big")
        with pytest.raises(ReplayError, match="not supported"):
            Snapshot.from_bytes(bytes(blob))

    def test_profile_mismatch_rejected(self, image):
        kernel, _ = _run_to(image, 100, profile="processor+kernel")
        snap = snapshot(kernel)
        other = build_system("processor")
        with pytest.raises(ReplayError, match="profile"):
            restore(snap, system=other)


class TestDifferential:
    """Continuous run == snapshot + restore + run, bit for bit."""

    def test_restore_reproduces_state_hash(self, image):
        kernel, _ = _run_to(image, 150)
        snap = snapshot(kernel)
        restored_kernel, restored = restore(snap)
        assert restored.alive
        assert state_hash(restored_kernel) == snap.state_hash()

    def test_continuous_equals_restored_to_completion(self, image):
        # Continuous: run to N, snapshot (which quiesces), run to end.
        kernel, process = _run_to(image, 150)
        snap = snapshot(kernel)
        kernel.run(process)
        continuous = state_hash(kernel)
        continuous_exit = process.exit_code

        # Restored: fresh machine from the snapshot, run to end.
        fresh_kernel, fresh_process = restore(snap)
        fresh_kernel.run(fresh_process)
        assert state_hash(fresh_kernel) == continuous
        assert fresh_process.exit_code == continuous_exit

    def test_derived_state_rebuilt_not_copied(self, image):
        # The snapshot quiesces: TLB and cache *contents* are dropped
        # (flush counters tick up), so the restored machine re-walks and
        # re-translates — and still ends bit-identical (test above).
        kernel, _ = _run_to(image, 150)
        flushes_before = kernel.system.mmu.dtlb.flushes
        snapshot(kernel)
        assert kernel.system.mmu.dtlb.flushes > flushes_before

    def test_snapshot_is_idempotent(self, image):
        kernel, _ = _run_to(image, 150)
        assert snapshot(kernel).state_hash() == \
            snapshot(kernel).state_hash()

    def test_cannot_snapshot_finished_process(self, image):
        from repro.replay import record_reference
        with pytest.raises(ReplayError, match="finished"):
            record_reference(image, stop_after=10_000_000)


class TestCrossTier:
    def test_replay_bit_identical_across_tiers(self, image):
        from repro.replay import record_reference, replay_tier, verify_replay
        reference = record_reference(image, stop_after=150)
        report = verify_replay(reference)
        with at_tier(BLOCKS_ONLY):
            report.runs.append(replay_tier(reference))
        assert len(report.runs) == 4
        assert report.ok, report.describe()
        hashes = {run.state_hash for run in report.runs}
        hashes.add(report.reference.state_hash)
        assert len(hashes) == 1
        events = {run.arch_events for run in report.runs}
        events.add(report.reference.arch_events)
        assert len(events) == 1

    def test_unknown_tier_rejected(self, image):
        from repro.replay import record_reference, verify_replay
        reference = record_reference(image, stop_after=150)
        for tier in ("tier9", "tier2"):
            with pytest.raises(ReplayError, match=f"unknown tier '{tier}'"):
                verify_replay(reference, tiers=("slow", tier))
