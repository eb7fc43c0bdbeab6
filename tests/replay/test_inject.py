"""Fault-injection harness (repro.replay.inject) — DESIGN.md §11.

The §V-style claim under test: every key-mismatch load that a fault
injection provokes is ROLoad-detected, and no injection escapes to a
successful hijack.
"""

import json

import pytest

from repro.eval_model import CampaignResult
from repro.replay import build_inject_image, run_campaign
from repro.replay.inject import KINDS, OUTCOMES


@pytest.fixture(scope="module")
def campaign():
    # 10 stratified points x 6 variants = 60 injections (>= the 50 the
    # acceptance criterion asks for).
    return run_campaign(points=10)


class TestCampaign:
    def test_at_least_fifty_injections_zero_escapes(self, campaign):
        assert campaign.injections >= 50
        assert not campaign.escapes
        assert campaign.ok

    def test_every_kind_injected_and_detected(self, campaign):
        counts = campaign.counts()
        for kind in KINDS:
            assert sum(counts[kind].values()) > 0, kind
            assert counts[kind]["detected"] > 0, kind

    def test_key_perturbations_always_detected(self, campaign):
        # A flipped PTE key makes the next ld.ro a key-mismatch load:
        # the paper's core detection path. No such injection may be
        # benign, crash untyped, or escape.
        for record in campaign.records:
            if record.kind == "pte-key":
                assert record.outcome == "detected", record.to_dict()
                assert "key_mismatch" in record.detail, record.to_dict()

    def test_writable_page_detected_as_not_read_only(self, campaign):
        details = [r.detail for r in campaign.records
                   if r.kind == "pte-writable" and r.outcome == "detected"]
        assert details
        assert all("not_read_only" in d for d in details)

    def test_outcomes_are_from_the_taxonomy(self, campaign):
        for record in campaign.records:
            assert record.outcome in OUTCOMES

    def test_baseline_exit_matches_victim_arithmetic(self, campaign):
        # The unrolled victim accumulates reps x (42) per round.
        assert campaign.baseline_exit == (8 * 42) & 0xFF

    def test_table_lists_every_kind(self, campaign):
        table = campaign.format_table()
        for kind in KINDS:
            assert kind in table
        for outcome in OUTCOMES:
            assert outcome in table

    def test_json_artifact_round_trips(self, campaign, tmp_path):
        path = tmp_path / "table.json"
        campaign.save_json(path)
        data = json.loads(path.read_text())
        assert data["injections"] == campaign.injections
        assert len(data["records"]) == campaign.injections
        assert data["ok"] is True


class TestHarness:
    def test_victim_image_builds_and_is_hardened(self):
        image = build_inject_image(4)
        assert image.symbol("attacker_buf") is not None
        assert any(segment.key for segment in image.segments)

    def test_kind_filter(self):
        report = run_campaign(points=2, kinds=("pte-key",))
        assert report.injections > 0
        assert all(r.kind == "pte-key" for r in report.records)

    def test_unknown_kind_rejected(self):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            run_campaign(points=1, kinds=("pte-unicorn",))

    def test_report_type(self, campaign):
        assert isinstance(campaign, CampaignResult)
        assert campaign.total_instructions > 0
