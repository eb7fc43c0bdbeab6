"""Fault-injection campaign (``roload-inject campaign``) — DESIGN.md §11.

The §V-style claim under test: every key-mismatch load that a fault
injection provokes is ROLoad-detected, and no injection escapes to a
successful hijack. The campaign is
:func:`repro.fuzz.campaign.stratified_campaign`: fixed single-entry
fuzz inputs run through the fuzz executor.
"""

import json

import pytest

from repro.errors import ReproError
from repro.eval_model import DEFAULT_KINDS, VERDICTS, CampaignResult
from repro.fuzz.campaign import stratified_campaign
from repro.fuzz.target import VictimSpec, build_image
from repro.replay.inject import classify_outcome

from tests.conftest import LEGS, at_tier

# The detection table's records as the snapshot-per-trigger harness
# produced them before the campaign moved onto the fuzz executor, as
# (kind, target, verdict, detail, exit_code, signal). Triggers are left
# out: the executor resolves them through FRAC_SCALE from its BOOT
# snapshot, which moves each by at most 8 retired instructions at the
# default settings without moving any verdict.
KEY = ("detected", "key_mismatch", None, 11)
READ_ONLY = ("detected", "not_read_only", None, 11)
CLEAN = ("benign", "corruption never consumed", 80, None)
KEY_FLIPS = [("pte-key", "key 1->0 @ 0x11000", *KEY),
             ("pte-key", "key 1->340 @ 0x11000", *KEY),
             ("pte-key", "key 1->1022 @ 0x11000", *KEY)]
WRITABLE = ("pte-writable", "W bit set on keyed page @ 0x11000 (key 1)",
            *READ_ONLY)
OBJ, FP_SLOT = ("obj -> attacker_buf (0x12020)",
                "fp_slot -> attacker_buf (0x12020)")
POINT = KEY_FLIPS + [WRITABLE, ("allowlist-ptr", OBJ, *READ_ONLY),
                     ("allowlist-ptr", FP_SLOT, *READ_ONLY)]
# At the last point the rounds that read obj and fp_slot are over.
LAST_POINT = KEY_FLIPS + [WRITABLE, ("allowlist-ptr", OBJ, *CLEAN),
                          ("allowlist-ptr", FP_SLOT, *CLEAN)]
DEFAULT_RECORDS = POINT * 9 + LAST_POINT


def rows(report):
    return [(r.kind, r.target, r.outcome, r.detail, r.exit_code, r.signal)
            for r in report.records]


@pytest.fixture(scope="module")
def campaign():
    # 10 stratified points x 6 variants = 60 injections (>= the 50 the
    # acceptance criterion asks for).
    return stratified_campaign(points=10)


class TestCampaign:
    def test_at_least_fifty_injections_zero_escapes(self, campaign):
        assert campaign.injections >= 50
        assert not campaign.escapes
        assert campaign.ok

    def test_every_kind_injected_and_detected(self, campaign):
        counts = campaign.counts()
        for kind in DEFAULT_KINDS:
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
            assert record.outcome in VERDICTS

    def test_baseline_exit_matches_victim_arithmetic(self, campaign):
        # The unrolled victim accumulates reps x (42) per round.
        assert campaign.baseline_exit == (8 * 42) & 0xFF

    def test_table_lists_every_kind(self, campaign):
        table = campaign.format_table()
        for kind in DEFAULT_KINDS:
            assert kind in table
        for outcome in VERDICTS:
            assert outcome in table

    def test_json_artifact_round_trips(self, campaign, tmp_path):
        path = tmp_path / "table.json"
        campaign.save_json(path)
        data = json.loads(path.read_text())
        assert data["injections"] == campaign.injections
        assert len(data["records"]) == campaign.injections
        assert data["ok"] is True
        # The injection-record shape: no fuzz-only fields.
        assert all("coverage" not in r and "divergence" not in r
                   for r in data["records"])


class TestPinnedTables:
    @pytest.mark.parametrize("tier", LEGS)
    def test_default_records_on_every_tier(self, tier):
        with at_tier(tier):
            report = stratified_campaign(points=10)
        assert report.total_instructions == 379
        assert rows(report) == DEFAULT_RECORDS
        assert report.table.to_dict() == {
            "pte-key": {"detected": 30, "benign": 0, "crashed": 0,
                        "escaped": 0},
            "pte-writable": {"detected": 10, "benign": 0, "crashed": 0,
                             "escaped": 0},
            "allowlist-ptr": {"detected": 18, "benign": 2, "crashed": 0,
                              "escaped": 0}}

    def test_triggers_stay_within_eight_instructions(self, campaign):
        # Where the snapshot-per-trigger harness injected: total * i // 11.
        old = [379 * i // 11 for i in range(1, 11) for _ in range(6)]
        assert all(abs(r.trigger - t) <= 8
                   for r, t in zip(campaign.records, old))

    @pytest.mark.parametrize("points", [1, 2])
    def test_key_only_tables(self, points):
        report = stratified_campaign(points=points, kinds=("pte-key",))
        assert rows(report) == KEY_FLIPS * points


class TestHarness:
    def test_victim_image_builds_and_is_hardened(self):
        image = build_image(VictimSpec(reps=4))
        assert image.symbol("attacker_buf") is not None
        assert any(segment.key for segment in image.segments)

    def test_kind_filter(self):
        report = stratified_campaign(points=2, kinds=("pte-key",))
        assert report.injections > 0
        assert all(r.kind == "pte-key" for r in report.records)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            stratified_campaign(points=1, kinds=("pte-unicorn",))

    @pytest.mark.parametrize("reps", [0, 15])
    def test_reps_outside_the_unrolled_bound_refused(self, reps):
        with pytest.raises(ReproError, match="choose 1 to 14"):
            stratified_campaign(reps=reps, points=1)

    def test_cli_refuses_reps_15(self, capsys):
        from repro.tools import injecttool
        assert injecttool.main(["campaign", "--reps", "15", "--quiet"]) == 1
        assert "choose 1 to 14" in capsys.readouterr().err

    def test_report_type(self, campaign):
        assert isinstance(campaign, CampaignResult)
        assert campaign.total_instructions > 0


def test_verdict_events_survive_in_an_obs_session():
    """Each execution's event capture reads its own window and leaves
    the events of the enclosing session, earlier verdicts included."""
    from repro import obs
    obs.enable()
    try:
        report = stratified_campaign(points=1, kinds=("pte-key",))
        verdicts = obs.OBS.events.events("inject.verdict")
    finally:
        obs.disable()
    assert len(verdicts) == report.injections == 3


def test_classifier_fails_closed_without_a_hijack_marker():
    """An exited run whose ``pwned`` marker cannot be read is not
    ``benign``: the classifier raises instead of reading it as clear."""
    from repro.compiler import IRBuilder, Module, compile_module
    from repro.kernel import Kernel
    from repro.soc import build_system
    module = Module("no-marker")
    b = IRBuilder(module.function("main"))
    b.ret(b.li(7))
    image = compile_module(module)
    kernel = Kernel(build_system("processor+kernel"))
    process = kernel.create_process(image, name="no-marker")
    kernel.run(process)
    assert process.exit_code == 7
    with pytest.raises(ReproError, match="pwned"):
        classify_outcome(kernel, process, image, baseline_exit=7,
                         seclog_before=0)
