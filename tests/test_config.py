"""The typed Config surface (repro.config) — DESIGN.md §11 satellite.

Covers: env round-trips for every knob (including the historical
empty-string flag semantics), the override stack, env_knobs restore,
parse_kv error handling, and the tier property driving the replay
checker.
"""

import os
import re
from pathlib import Path

import pytest

from repro import config
from repro.errors import ConfigError


class TestFromEnv:
    def test_defaults_with_empty_env(self):
        cfg = config.Config.from_env({})
        assert cfg == config.Config()
        assert cfg.fast_path and cfg.jit
        assert cfg.jit_threshold == 16
        assert not cfg.obs and not cfg.jit_debug
        assert cfg.jobs == 1 and cfg.bench_scale == 0.1

    def test_every_knob_round_trips_through_to_env(self):
        cfg = config.Config(fast_path=False, jit=False, jit_threshold=4,
                            jit_debug=True, obs=True, obs_events=128,
                            seclog_cap=32, jobs=3, bench_scale=0.5)
        assert config.Config.from_env(cfg.to_env()) == cfg

    def test_default_config_round_trips(self):
        cfg = config.Config()
        assert config.Config.from_env(cfg.to_env()) == cfg

    def test_historical_empty_string_flag_semantics(self):
        # REPRO_FASTPATH= (empty) historically meant ON; REPRO_OBS=
        # (empty) meant OFF. The typed layer must not change that.
        cfg = config.Config.from_env({"REPRO_FASTPATH": "", "REPRO_JIT": "",
                                      "REPRO_OBS": "", "REPRO_JIT_DEBUG": ""})
        assert cfg.fast_path and cfg.jit
        assert not cfg.obs and not cfg.jit_debug

    def test_false_words(self):
        for word in ("0", "off", "no", "false", "OFF", "No"):
            cfg = config.Config.from_env({"REPRO_JIT": word})
            assert not cfg.jit, word

    def test_invalid_ints_keep_defaults(self):
        cfg = config.Config.from_env({"REPRO_JIT_THRESHOLD": "banana",
                                      "REPRO_BENCH_SCALE": "soup"})
        assert cfg.jit_threshold == 16
        assert cfg.bench_scale == 0.1

    def test_jobs_auto_and_invalid(self):
        assert config.Config.from_env({"REPRO_JOBS": "auto"}).jobs == 0
        assert config.Config.from_env({"REPRO_JOBS": "0"}).jobs == 0
        with pytest.raises(ConfigError):
            config.Config.from_env({"REPRO_JOBS": "many"})

    def test_reads_process_environ_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT_THRESHOLD", "7")
        assert config.current().jit_threshold == 7


class TestTierProperty:
    def test_tiers_table_matches_tier_property(self):
        for name, changes in config.TIERS.items():
            assert config.Config(**changes).tier == name

    def test_jit_without_fastpath_is_inert(self):
        cfg = config.Config(fast_path=False, jit=True)
        assert not cfg.effective_jit
        assert cfg.tier == "slow"

    def test_one_region_tier_knob(self):
        """Four tiers, one region switch: REPRO_TIER4=0 pins tier 2,
        tier 4 needs jit, and the removed tier-3 knob is rejected."""
        assert tuple(config.TIERS) == ("slow", "tier1", "tier2", "tier4")
        cfg = config.Config.from_env({"REPRO_TIER4": "0"})
        assert cfg.tier == "tier2" and not cfg.effective_tier4
        assert not config.Config(jit=False).effective_tier4
        assert config.Config().tier == "tier4"
        with pytest.raises(ConfigError, match="REPRO_TIER3"):
            config.parse_kv(["REPRO_TIER3=0"])


class TestOverrides:
    def test_overrides_nest_and_restore(self):
        base = config.current()
        with config.overrides(jit=False):
            assert not config.current().jit
            with config.overrides(fast_path=False):
                inner = config.current()
                assert not inner.fast_path and not inner.jit
            assert not config.current().jit
            assert config.current().fast_path == base.fast_path
        assert config.current() == config.current()  # env-derived again

    def test_overrides_do_not_touch_environ(self):
        before = os.environ.get("REPRO_JIT")
        with config.overrides(jit=False):
            assert os.environ.get("REPRO_JIT") == before

    def test_set_override_and_clear(self):
        config.set_override(config.Config(jit_threshold=3))
        try:
            assert config.current().jit_threshold == 3
        finally:
            config.set_override(None)
        assert config.current().jit_threshold == 16

    def test_env_knobs_sets_and_restores_environ(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        with config.env_knobs(jit=False):
            assert os.environ["REPRO_JIT"] == "0"
            assert not config.current().jit
        assert "REPRO_JIT" not in os.environ

    def test_env_knobs_accepts_env_spelling(self):
        with config.env_knobs(REPRO_JIT_THRESHOLD=5):
            assert config.current().jit_threshold == 5

    def test_a_core_reads_the_environment_once(self, monkeypatch):
        from repro.cpu import Core
        from repro.mem import MMU, PhysicalMemory
        reads = []
        from_env = config.Config.from_env.__func__
        monkeypatch.setattr(config.Config, "from_env", classmethod(
            lambda cls, env=None: reads.append(env) or from_env(cls, env)))
        monkeypatch.setenv("REPRO_JIT_THRESHOLD", "7")
        memory = PhysicalMemory(1 << 20)
        core = Core(memory, MMU(memory))
        assert len(reads) == 1
        assert core.jit_threshold == 7
        with config.overrides(region_threshold=9):
            assert Core(memory, MMU(memory)).region_threshold == 9
        assert len(reads) == 2   # the override's base, not the core

    def test_env_knobs_unknown_name(self):
        with pytest.raises(ConfigError):
            with config.env_knobs(warp_factor=9):
                pass


class TestParseKv:
    def test_field_and_env_names(self):
        out = config.parse_kv(["jit=0", "REPRO_JIT_THRESHOLD=4",
                               "repro_bench_scale=0.3"])
        assert out == {"jit": False, "jit_threshold": 4,
                       "bench_scale": 0.3}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="KEY=VAL"):
            config.parse_kv(["jit"])

    def test_unknown_key_lists_fields(self):
        with pytest.raises(ConfigError, match="jit_threshold"):
            config.parse_kv(["warp=9"])


def test_knob_table_mentions_every_knob():
    table = config.knob_table()
    for knob in config.KNOBS:
        assert knob.env in table
        assert knob.field in table


def test_readme_knob_table_lists_exactly_the_knobs():
    # README's table is written by hand: a knob added or removed in
    # KNOBS must be added to or removed from it too.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(REPRO_\w+)=[^`]*` \| `(\w+)` \|", readme,
                      re.MULTILINE)
    assert set(rows) == {(knob.env, knob.field) for knob in config.KNOBS}


def test_module_docstring_knob_table_lists_exactly_the_knobs():
    rows = re.findall(r"^(REPRO_\w+)\s+(\w+)\s", config.__doc__,
                      re.MULTILINE)
    assert set(rows) == {(knob.env, knob.field) for knob in config.KNOBS}


def test_every_config_field_has_a_knob_and_vice_versa():
    # The knob table is the complete public surface: a Config field
    # without an env knob (or a knob without a field) is a docs bug.
    import dataclasses
    fields = {field.name for field in dataclasses.fields(config.Config)}
    knobs = {knob.field for knob in config.KNOBS}
    assert fields == knobs


class TestServeKnobs:
    def test_defaults(self):
        cfg = config.Config.from_env({})
        assert cfg.serve_workers == 2
        assert cfg.serve_sessions == 64
        assert cfg.serve_slice == 50_000
        assert cfg.serve_instret == 10_000_000
        assert cfg.serve_frames == 8192

    def test_env_round_trip(self):
        cfg = config.Config(serve_workers=4, serve_sessions=16,
                            serve_slice=1000, serve_instret=50_000,
                            serve_frames=64)
        assert config.Config.from_env(cfg.to_env()) == cfg

    def test_workers_auto_rule(self):
        auto = config.Config.from_env({"REPRO_SERVE_WORKERS": "auto"})
        assert auto.serve_workers == 0
        assert auto.resolve_serve_workers() >= 1
        assert config.Config().resolve_serve_workers(3) == 3

    def test_invalid_workers_raises(self):
        with pytest.raises(ConfigError, match="REPRO_SERVE_WORKERS"):
            config.Config.from_env({"REPRO_SERVE_WORKERS": "lots"})
