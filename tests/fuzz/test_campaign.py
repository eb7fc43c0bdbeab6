"""End-to-end campaigns: classification at scale, dedup + minimization
through the journal, replay verification, the schema-v1 record, and
the campaign verdict that roload-fuzz exits on."""

import pytest

from repro.eval_model import CampaignResult, RunResult, Verdict
from repro.fuzz import (Campaign, CampaignReportV1, comparison_record,
                        run_comparison)
from repro.fuzz.campaign import MIN_DETECTION_RATE
from repro.fuzz.corpus import FuzzInput, ScheduleEntry
from repro.fuzz.executor import WarmVictimPool
from repro.fuzz.minimizer import dedup_key, minimize, replay_verify
from repro.fuzz.target import VictimSpec
from repro.tools.fuzztool import main as fuzz_main


@pytest.fixture(scope="module")
def pool():
    return WarmVictimPool()


@pytest.fixture(scope="module")
def small_report():
    return Campaign(executions=40, workers=1, mode="guided",
                    seed=11, schedule_max=2).run()


class TestExecutor:
    @pytest.mark.parametrize("kind,reason", [
        ("pte-key", "key_mismatch"),
        ("pte-writable", "not_read_only"),
        ("allowlist-ptr", "not_read_only"),
        ("wild-ptr", "not_present"),
    ])
    def test_each_kind_is_detected_with_its_reason(self, pool, kind,
                                                   reason):
        inp = FuzzInput(spec=VictimSpec(reps=6),
                        schedule=(ScheduleEntry(kind, 800),))
        outcome = pool.execute(inp)
        assert outcome.result.verdict is Verdict.DETECTED
        assert reason in outcome.result.detail
        assert outcome.result.coverage == outcome.signature
        assert outcome.result.divergence is not None

    def test_empty_schedule_is_benign(self, pool):
        outcome = pool.execute(FuzzInput(spec=VictimSpec(reps=4)))
        assert outcome.result.verdict is Verdict.BENIGN
        assert outcome.result.divergence is None  # matches baseline


class TestTriage:
    def test_minimize_preserves_the_dedup_key(self, pool):
        inp = FuzzInput(
            spec=VictimSpec(reps=10, vcalls=2, icalls=2, arith=4),
            schedule=(ScheduleEntry("pte-key", 500, 1),
                      ScheduleEntry("wild-ptr", 3000),
                      ScheduleEntry("pte-writable", 3500)))
        reference = pool.execute(inp).result
        small, small_run = minimize(pool, inp, reference)
        assert dedup_key(small, small_run) == dedup_key(inp, reference)
        assert len(small.schedule) <= len(inp.schedule)
        assert small.spec.reps <= inp.spec.reps

    def test_replay_verify_confirms_a_reproducer(self, pool):
        inp = FuzzInput(spec=VictimSpec(reps=8),
                        schedule=(ScheduleEntry("pte-key", 1000),))
        verified, run = replay_verify(pool, inp)
        assert verified
        assert run.verdict is Verdict.DETECTED

    def test_triage_runs_on_the_campaign_tier_and_warm_pool(
            self, monkeypatch):
        """Minimization and replay verification execute on the tier the
        campaign was asked for, in the pool that already warmed the
        crashed run's victim."""
        inp = FuzzInput(spec=VictimSpec(reps=4, vcalls=2),
                        schedule=(ScheduleEntry("wild-ptr", 2000),
                                  ScheduleEntry("pte-key", 3000)))
        warm = WarmVictimPool()
        warm.victim(inp.spec)
        tiers, warmed = [], []
        execute, rewarm = WarmVictimPool.execute, WarmVictimPool._warm

        def spy_execute(pool, input, **kwargs):
            tiers.append(kwargs.get("tier"))
            return execute(pool, input, **kwargs)

        def spy_warm(pool, spec):
            warmed.append(spec)
            return rewarm(pool, spec)

        monkeypatch.setattr(WarmVictimPool, "execute", spy_execute)
        monkeypatch.setattr(WarmVictimPool, "_warm", spy_warm)
        crashed = RunResult("wild-ptr+pte-key", 100, "vptr",
                            Verdict.CRASHED, divergence=100)
        campaign = Campaign(executions=1, workers=1, tier="tier1")
        findings, __ = campaign._triage([(inp, crashed)], warm)
        assert len(findings) == 1
        assert tiers and set(tiers) == {"tier1"}
        assert inp.spec.normalized() not in warmed


class TestCampaign:
    def test_small_guided_campaign_is_ok(self, small_report):
        report = small_report
        assert report.executions == 40
        assert report.result.injections > 0
        assert len(report.result.escapes) == 0
        assert report.unexplained_escapes == 0
        assert report.ok
        assert report.unique_signatures > 0
        assert report.corpus_size > 0
        # The coverage curve is monotone and ends at the final count.
        counts = [count for _, count in report.coverage_curve]
        assert counts == sorted(counts)
        assert counts[-1] == report.unique_signatures

    def test_record_validates_against_schema_v1(self, small_report):
        record = small_report.to_record()
        assert record["schema"] == 1 and record["tool"] == "roload-fuzz"
        assert record["ok"] is True
        assert record["escapes"] == {"total": 0, "unique": 0,
                                     "unexplained": 0}
        assert record["detection"]["rate"] >= MIN_DETECTION_RATE

    def test_record_names_the_tier_that_ran(self, monkeypatch):
        """Without the native runner a core configured for tier 4 runs
        tier 1, and the record says so."""
        from repro.cpu import flatcore
        monkeypatch.setattr(flatcore, "_native", None)
        record = Campaign(executions=2, workers=1, seed=5, schedule_max=1,
                          tier="tier4").run().to_record()
        assert record["tier"] == "tier1"

    def test_unknown_mode_rejected(self):
        from repro.errors import ReplayError
        with pytest.raises(ReplayError, match="unknown campaign mode"):
            Campaign(executions=1, mode="psychic")

    def test_worker_fanout_matches_serial(self):
        """The multiprocessing path must classify identically to the
        serial path (same seed, same budget)."""
        serial = Campaign(executions=16, workers=1, mode="random",
                          seed=3, schedule_max=2).run()
        fanned = Campaign(executions=16, workers=2, mode="random",
                          seed=3, schedule_max=2).run()
        assert serial.unique_signatures == fanned.unique_signatures
        assert serial.result.table.to_dict() \
            == fanned.result.table.to_dict()


class TestComparison:
    def test_comparison_record_shape(self):
        guided, rand = run_comparison(executions=12, workers=1, seed=2,
                                      schedule_max=2)
        record = comparison_record(guided, rand)
        versus = record["guided_vs_random"]
        assert versus["budget"] == 12
        assert versus["guided_unique"] == guided.unique_signatures
        assert versus["random_unique"] == rand.unique_signatures
        assert record["ok"] == (guided.ok and rand.ok
                                and versus["guided_wins"])


def _report(crashed, detected=10):
    """A campaign report over a synthetic table: ``detected`` runs
    ROLoad caught and ``crashed`` runs that died of another signal."""
    records = [RunResult("pte-key", 100, "gfpt", Verdict.DETECTED)
               for __ in range(detected)]
    records += [RunResult("wild-ptr", 100, "vptr", Verdict.CRASHED)
                for __ in range(crashed)]
    result = CampaignResult(baseline_exit=0, total_instructions=0,
                            records=records)
    return CampaignReportV1(mode="guided", seed=0,
                            executions=len(records), workers=1,
                            schedule_max=1, result=result,
                            unique_signatures=1,
                            coverage_curve=[(len(records), 1)],
                            corpus_size=1)


class TestDetectionFloor:
    def test_crashes_below_the_floor_fail_the_campaign(self,
                                                       monkeypatch,
                                                       capsys):
        """Crashes score as misses: 10 detected and 1 crashed (rate
        0.91) is ok; 10 and 2 (0.83) is below the 0.85 floor, so the
        campaign is not ok and roload-fuzz exits 1 on it."""
        assert MIN_DETECTION_RATE == 0.85
        passing = _report(crashed=1)
        assert passing.ok
        failing = _report(crashed=2)
        assert failing.result.table.rate() < MIN_DETECTION_RATE
        assert not failing.result.escapes      # no escape to blame
        assert not failing.ok
        assert failing.to_record()["ok"] is False

        monkeypatch.setattr(Campaign, "run", lambda self: failing)
        argv = ["campaign", "--executions", "1", "--workers", "1",
                "--quiet"]
        assert fuzz_main(argv) == 1
        assert "campaign not ok" in capsys.readouterr().err
        monkeypatch.setattr(Campaign, "run", lambda self: passing)
        assert fuzz_main(argv) == 0
