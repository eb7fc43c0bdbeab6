"""CLI tool tests (main() invoked directly; no subprocesses needed)."""

import json
import os

import pytest

from repro.tools import asmtool, audittool, injecttool, objdump, runtool

from tests.conftest import LOWERS

GOOD_SOURCE = r"""
.globl _start
_start:
    la a0, table
    ld.ro a1, (a0), 42
    mv a0, a1
    li a7, 93
    ecall
.section .rodata.key.42
table: .quad 7
"""

DANGLING_KEY_SOURCE = r"""
.globl _start
_start:
    la a0, table
    ld.ro a1, (a0), 99
    ebreak
.section .rodata.key.42
table: .quad 7
"""


@pytest.fixture()
def good_image(tmp_path):
    source = tmp_path / "prog.s"
    source.write_text(GOOD_SOURCE)
    out = tmp_path / "prog.rex"
    assert asmtool.main([str(source), "-o", str(out)]) == 0
    return out


class TestAsmTool:
    def test_assemble_and_link(self, tmp_path, capsys):
        source = tmp_path / "p.s"
        source.write_text(GOOD_SOURCE)
        assert asmtool.main([str(source)]) == 0
        assert (tmp_path / "p.rex").exists()
        assert "entry" in capsys.readouterr().out

    def test_syntax_error_fails(self, tmp_path, capsys):
        source = tmp_path / "bad.s"
        source.write_text("frobnicate a0\n.globl _start\n_start: nop")
        assert asmtool.main([str(source)]) == 1
        assert "bad.s" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert asmtool.main([str(tmp_path / "nope.s")]) == 1

    def test_audit_flag_catches_dangling_key(self, tmp_path, capsys):
        source = tmp_path / "d.s"
        source.write_text(DANGLING_KEY_SOURCE)
        assert asmtool.main([str(source), "--audit"]) == 2
        assert "E4" in capsys.readouterr().err

    def test_no_rvc_larger_output(self, tmp_path):
        source = tmp_path / "p.s"
        source.write_text(GOOD_SOURCE)
        small = tmp_path / "s.rex"
        big = tmp_path / "b.rex"
        asmtool.main([str(source), "-o", str(small)])
        asmtool.main([str(source), "-o", str(big), "--no-rvc"])
        assert big.stat().st_size >= small.stat().st_size


class TestRunTool:
    def test_run_exit_code_propagates(self, good_image):
        assert runtool.main([str(good_image)]) == 7

    def test_stats_output(self, good_image, capsys):
        runtool.main([str(good_image), "--stats"])
        out = capsys.readouterr().out
        assert "instructions" in out and "ROLoad checks" in out

    def test_trace_and_hot(self, good_image, capsys):
        runtool.main([str(good_image), "--trace", "5", "--hot", "3"])
        out = capsys.readouterr().out
        assert "trace" in out and "hottest" in out

    def test_baseline_profile_sigill(self, good_image, capsys):
        code = runtool.main([str(good_image), "--profile", "baseline"])
        assert code == 128 + 4  # SIGILL
        assert "SIGILL" in capsys.readouterr().out

    def test_missing_image(self, tmp_path):
        assert runtool.main([str(tmp_path / "nope.rex")]) == 1


class TestObjdump:
    def test_headers_default(self, good_image, capsys):
        assert objdump.main([str(good_image)]) == 0
        out = capsys.readouterr().out
        assert ".rodata.key.42" in out and "entry" in out

    def test_symbols(self, good_image, capsys):
        objdump.main([str(good_image), "-t"])
        assert "_start" in capsys.readouterr().out

    def test_disassembly_contains_ld_ro(self, good_image, capsys):
        objdump.main([str(good_image), "-d"])
        out = capsys.readouterr().out
        assert "ld.ro" in out
        assert "<_start>" in out


class TestAuditTool:
    def test_clean_image(self, good_image, capsys):
        assert audittool.main([str(good_image)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_dangling_key_fails(self, tmp_path, capsys):
        source = tmp_path / "d.s"
        source.write_text(DANGLING_KEY_SOURCE)
        out = tmp_path / "d.rex"
        asmtool.main([str(source), "-o", str(out)])
        assert audittool.main([str(out)]) == 2
        assert "E4" in capsys.readouterr().out

    def test_strict_warnings(self, tmp_path, capsys):
        source = tmp_path / "w.s"
        # Keyed section never loaded with ld.ro: W1 warning.
        source.write_text(
            ".globl _start\n_start: ebreak\n"
            ".section .rodata.key.5\nt: .quad 1\n")
        out = tmp_path / "w.rex"
        asmtool.main([str(source), "-o", str(out)])
        assert audittool.main([str(out)]) == 0
        assert audittool.main([str(out), "--strict"]) == 3


class TestConfigFlag:
    """The shared --config KEY=VAL surface (tools/cli.py)."""

    def test_runtool_accepts_field_and_env_spellings(self, good_image):
        assert runtool.main([str(good_image), "--config", "tier=slow",
                             "--config", "REPRO_TIER=tier1"]) == 7

    def test_overrides_do_not_leak_into_environ(self, good_image):
        before = os.environ.get("REPRO_TIER")
        runtool.main([str(good_image), "--config", "tier=tier1"])
        assert os.environ.get("REPRO_TIER") == before

    def test_unknown_knob_is_a_usage_error(self, good_image, capsys):
        assert runtool.main([str(good_image), "--config", "warp=9"]) == 1
        assert "unknown config knob" in capsys.readouterr().err

    def test_unknown_tier_is_a_usage_error(self, good_image, capsys):
        before = os.environ.get("REPRO_TIER")
        for tier in ("bogus", "tier2"):
            assert runtool.main([str(good_image), "--config",
                                 f"tier={tier}"]) == 1
            assert "(one of: slow, tier1, tier4)" in capsys.readouterr().err
        assert os.environ.get("REPRO_TIER") == before

    def test_missing_equals_is_a_usage_error(self, good_image, capsys):
        assert runtool.main([str(good_image), "--config", "tier"]) == 1
        assert "KEY=VAL" in capsys.readouterr().err

    def test_audittool_has_the_flag(self, good_image):
        assert audittool.main([str(good_image), "--config",
                               "tier=tier1"]) == 0


class TestInjectTool:
    def test_verify_deterministic_across_tiers(self, tmp_path, capsys):
        snap = tmp_path / "ref.snap"
        journal = tmp_path / "ref.journal"
        code = injecttool.main(
            ["verify", "--stop-after", "150",
             "--snapshot-out", str(snap), "--journal-out", str(journal)])
        out = capsys.readouterr().out
        assert code == 0
        ran = "slow, tier1, tier4" if LOWERS else "slow, tier1"
        assert f"replay deterministic across {ran}\n" in out
        assert "DIVERGED" not in out
        assert snap.exists() and journal.exists()

    def test_verify_honours_config_flag(self, capsys):
        code = injecttool.main(
            ["verify", "--stop-after", "150", "--tiers", "tier4",
             "--config", "tier=tier1"])
        assert code == 0

    def test_verify_refuses_an_unknown_tier(self, capsys, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("the reference ran before the check")

        monkeypatch.setattr("repro.replay.record_reference", refused)
        code = injecttool.main(
            ["verify", "--stop-after", "150", "--tiers", "slow,tier2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown tier 'tier2' (one of: slow, tier1, tier4)" in err

    def test_campaign_smoke_with_table(self, tmp_path, capsys):
        table = tmp_path / "table.json"
        code = injecttool.main(
            ["campaign", "--points", "1", "--quiet",
             "--table", str(table)])
        out = capsys.readouterr().out
        assert code == 0
        assert "escapes: 0" in out
        data = json.loads(table.read_text())
        assert data["ok"] is True
        assert data["injections"] == len(data["records"]) > 0

    def test_campaign_kind_filter(self, capsys):
        code = injecttool.main(
            ["campaign", "--points", "1", "--quiet",
             "--kinds", "pte-key"])
        assert code == 0
        assert "pte-key" in capsys.readouterr().out

    def test_campaign_writes_verifiable_audit_trail(self, tmp_path,
                                                    capsys):
        """--audit-out on a campaign seals per-injection verdicts and
        the campaign summary into a hash chain that verifies clean."""
        import json as _json
        from repro import obs
        from repro.obs import verify_file
        audit = tmp_path / "audit.jsonl"
        try:
            code = injecttool.main(
                ["campaign", "--points", "1", "--quiet",
                 "--kinds", "pte-key", "--audit-out", str(audit)])
        finally:
            obs.disable()
        assert code == 0
        assert "[audit:" in capsys.readouterr().out
        assert verify_file(audit) == []
        records = [_json.loads(line)
                   for line in audit.read_text().splitlines()]
        verdicts = [r for r in records if r["type"] == "inject.verdict"]
        assert len(verdicts) == 3          # one point x three key flips
        assert all(v["outcome"] == "detected" for v in verdicts)
        summary = next(r for r in records
                       if r["type"] == "inject.campaign")
        assert summary["ok"] is True and summary["escapes"] == 0
