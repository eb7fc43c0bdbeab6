"""The typed evaluation model: verdicts, run results, detection tables
— and the bit-for-bit compatibility with the PR 5 dict shapes."""

import json

import pytest

from repro.errors import ReproError
from repro.eval_model import (DEFAULT_KINDS, VERDICTS, CampaignResult,
                              DetectionTable, RunResult, Verdict)


class TestVerdict:
    def test_values_and_order(self):
        assert VERDICTS == ("detected", "benign", "crashed", "escaped")

    def test_prints_as_bare_word(self):
        assert f"{Verdict.DETECTED}" == "detected"
        assert str(Verdict.ESCAPED) == "escaped"

    def test_fail_stop(self):
        assert Verdict.DETECTED.fail_stop
        assert Verdict.BENIGN.fail_stop
        assert Verdict.CRASHED.fail_stop
        assert not Verdict.ESCAPED.fail_stop

    def test_coerces_from_string(self):
        assert Verdict("detected") is Verdict.DETECTED
        with pytest.raises(ValueError):
            Verdict("exploded")


class TestRunResult:
    def test_to_dict_is_the_old_injection_record_shape(self):
        result = RunResult(kind="pte-key", trigger=120, target="obj",
                           verdict="detected", detail="key_mismatch",
                           exit_code=None, signal=11)
        assert result.to_dict() == {
            "kind": "pte-key", "trigger": 120, "target": "obj",
            "outcome": "detected", "detail": "key_mismatch",
            "exit_code": None, "signal": 11}
        # Key order is part of the committed-JSON compatibility.
        assert list(result.to_dict()) == ["kind", "trigger", "target",
                                          "outcome", "detail",
                                          "exit_code", "signal"]

    def test_fuzz_fields_appended_only_when_present(self):
        result = RunResult(kind="wild-ptr", trigger=9, target="fp_slot",
                           verdict=Verdict.DETECTED,
                           coverage="abc123", divergence=451)
        data = result.to_dict()
        assert data["coverage"] == "abc123"
        assert data["divergence"] == 451
        assert list(data)[-2:] == ["coverage", "divergence"]

    def test_roundtrip(self):
        result = RunResult(kind="allowlist-ptr", trigger=7,
                           target="fp_slot", verdict="escaped",
                           detail="exit 66", exit_code=66,
                           coverage="ffff", divergence=12)
        again = RunResult.from_dict(result.to_dict())
        assert again == result
        assert again.verdict is Verdict.ESCAPED

    def test_outcome_property(self):
        result = RunResult(kind="pte-key", trigger=0, target="x",
                           verdict="benign")
        assert result.outcome == "benign"


class TestDetectionTable:
    def _results(self):
        mk = lambda kind, verdict: RunResult(
            kind=kind, trigger=0, target="t", verdict=verdict)
        return [mk("pte-key", "detected"), mk("pte-key", "benign"),
                mk("pte-writable", "detected"),
                mk("allowlist-ptr", "escaped"),
                mk("wild-ptr+pte-key", "detected")]

    def test_rate_excludes_benign(self):
        table = DetectionTable.from_results(self._results())
        # 4 consumed (1 benign), 3 detected.
        assert table.rate() == pytest.approx(3 / 4)
        assert table.total == 5

    def test_row_order_known_kinds_first(self):
        table = DetectionTable.from_results(self._results())
        order = table.row_order()
        assert order[:3] == list(DEFAULT_KINDS)
        assert order[3:] == ["wild-ptr+pte-key"]

    def test_format_has_all_columns(self):
        text = DetectionTable.from_results(self._results()).format()
        for word in ("class", "injected") + VERDICTS:
            assert word in text

    def test_dict_roundtrip(self):
        table = DetectionTable.from_results(self._results())
        again = DetectionTable.from_dict(table.to_dict())
        assert again.to_dict() == table.to_dict()
        assert again.rate() == table.rate()
        assert again.format() == table.format()


class TestCampaignResult:
    def _campaign(self):
        result = CampaignResult(baseline_exit=42,
                                total_instructions=1000)
        result.records.append(RunResult(
            kind="pte-key", trigger=5, target="obj",
            verdict="detected", signal=11))
        result.records.append(RunResult(
            kind="pte-writable", trigger=9, target="obj",
            verdict="benign", exit_code=42))
        return result

    def test_to_dict_is_the_old_campaign_report_shape(self):
        data = self._campaign().to_dict()
        assert list(data) == ["baseline_exit", "total_instructions",
                              "injections", "table", "escapes", "ok",
                              "records"]
        assert data["injections"] == 2
        assert data["escapes"] == 0
        assert data["ok"] is True

    def test_json_roundtrip(self, tmp_path):
        campaign = self._campaign()
        path = tmp_path / "table.json"
        campaign.save_json(path)
        again = CampaignResult.from_dict(json.loads(path.read_text()))
        assert again.to_dict() == campaign.to_dict()

    def test_from_dict_requires_records(self):
        with pytest.raises(ReproError, match="records"):
            CampaignResult.from_dict({"baseline_exit": 0})

    def test_escape_flips_ok(self):
        campaign = self._campaign()
        campaign.records.append(RunResult(
            kind="allowlist-ptr", trigger=1, target="fp_slot",
            verdict="escaped"))
        assert not campaign.ok
        assert len(campaign.escapes) == 1

