"""The typed Config surface (repro.config) — DESIGN.md §11 satellite.

Covers: env round-trips for every knob (including the historical
empty-string flag semantics), failing closed on an unknown tier or
``REPRO_*`` variable, the environment parsed once per process, the
override stack, and parse_kv error handling.
"""

import os
import re
from pathlib import Path

import pytest

from repro import config
from repro.errors import ConfigError


@pytest.fixture
def fresh(monkeypatch):
    """A process that has not read its configuration yet."""
    monkeypatch.setattr(config, "_FROM_ENV", None, raising=False)


def _env_of(cfg):
    """The ``REPRO_*`` environment that encodes ``cfg``."""
    return {knob.env: knob.to_env(getattr(cfg, knob.field))
            for knob in config.KNOBS}


class TestFromEnv:
    def test_defaults_with_empty_env(self):
        cfg = config.Config.from_env({})
        assert cfg == config.Config()
        assert cfg.tier == "tier4"
        assert not cfg.obs and not cfg.audit
        assert cfg.jobs == 1 and cfg.bench_scale == 0.1

    def test_every_knob_round_trips_through_to_env(self):
        cfg = config.Config(tier="tier1", obs=True, obs_events=128,
                            audit=True, seclog_cap=32, jobs=3,
                            bench_scale=0.5)
        assert config.Config.from_env(_env_of(cfg)) == cfg

    def test_default_config_round_trips(self):
        cfg = config.Config()
        assert config.Config.from_env(_env_of(cfg)) == cfg

    def test_historical_empty_string_flag_semantics(self):
        # REPRO_OBS= (empty) historically meant OFF. The typed layer
        # must not change that.
        cfg = config.Config.from_env({"REPRO_OBS": "", "REPRO_AUDIT": ""})
        assert not cfg.obs and not cfg.audit

    def test_false_words(self):
        for word in ("0", "off", "no", "false", "OFF", "No"):
            cfg = config.Config.from_env({"REPRO_OBS": word})
            assert not cfg.obs, word
        for word in ("1", "on", "yes", "true"):
            assert config.Config.from_env({"REPRO_OBS": word}).obs, word

    def test_invalid_ints_keep_defaults(self):
        cfg = config.Config.from_env({"REPRO_SECLOG_CAP": "banana",
                                      "REPRO_BENCH_SCALE": "soup"})
        assert cfg.seclog_cap == 4096
        assert cfg.bench_scale == 0.1

    def test_jobs_auto_and_invalid(self):
        assert config.Config.from_env({"REPRO_JOBS": "auto"}).jobs == 0
        assert config.Config.from_env({"REPRO_JOBS": "0"}).jobs == 0
        with pytest.raises(ConfigError):
            config.Config.from_env({"REPRO_JOBS": "many"})

    def test_reads_process_environ_by_default(self, fresh, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "tier1")
        assert config.current().tier == "tier1"


class TestFailClosed:
    def test_unknown_tier_is_rejected_everywhere(self, monkeypatch):
        """Every way in refuses a name outside TIERS, tier2 included:
        tier 4 lowers its blocks first, but no setting stops there. A
        refused environment is not kept, so every read refuses it."""
        names = r"\(one of: slow, tier1, tier4\)"
        for tier in ("bogus", "tier3", "tier2"):
            with pytest.raises(ConfigError, match=names):
                config.Config(tier=tier)
            with pytest.raises(ConfigError, match=names):
                config.Config.from_env({"REPRO_TIER": tier})
            with pytest.raises(ConfigError, match=names):
                with config.overrides(tier=tier):
                    pass
            with pytest.raises(ConfigError, match=names):
                with config.overrides(**config.parse_kv([f"tier={tier}"])):
                    pass
            monkeypatch.setattr(config, "_FROM_ENV", None)
            monkeypatch.setenv("REPRO_TIER", tier)
            for __ in range(2):
                with pytest.raises(ConfigError, match=names):
                    config.current()

    @pytest.mark.parametrize("name", ["REPRO_TIER3", "REPRO_WARP"])
    def test_unknown_repro_variable_is_rejected(self, fresh, monkeypatch,
                                                name):
        with pytest.raises(ConfigError, match=name):
            config.Config.from_env({name: "0"})
        monkeypatch.setenv(name, "0")
        for __ in range(2):     # at the first read and every later one
            with pytest.raises(ConfigError, match=name):
                config.current()
        with pytest.raises(ConfigError, match=name):
            config.parse_kv([f"{name}=0"])
        monkeypatch.delenv(name)
        assert config.current() == config.Config.from_env()

    def test_other_variables_are_ignored(self):
        cfg = config.Config.from_env({"PATH": "/bin", "REPRO": "x",
                                      "XREPRO_TIER3": "0"})
        assert cfg == config.Config()


class TestTierProperty:
    def test_tiers_table_matches_tier_property(self):
        assert config.TIERS == ("slow", "tier1", "tier4")
        for name in config.TIERS:
            assert config.Config(tier=name).tier == name
            assert config.Config.from_env({"REPRO_TIER": name}).tier \
                == name

    def test_one_region_tier_knob(self):
        """Three tiers, one knob: tier 4, the default, is the one tier
        that lowers (every block, then hot regions), and the removed
        tier-3 knob is rejected."""
        from repro.cpu import Core, flatcore
        from repro.mem import MMU, PhysicalMemory
        memory = PhysicalMemory(1 << 20)
        with config.overrides(tier="tier4"):
            core = Core(memory, MMU(memory))
        assert core.jit_enabled == (flatcore.runner() == "native")
        assert core.tier == ("tier4" if core.jit_enabled else "tier1")
        assert config.Config().tier == "tier4"
        with pytest.raises(ConfigError, match="REPRO_TIER3"):
            config.parse_kv(["REPRO_TIER3=0"])


class TestOverrides:
    def test_overrides_nest_and_restore(self):
        base = config.current()
        with config.overrides(tier="tier1"):
            assert config.current().tier == "tier1"
            with config.overrides(obs=True):
                inner = config.current()
                assert inner.obs and inner.tier == "tier1"
            assert config.current().tier == "tier1"
            assert config.current().obs == base.obs
        assert config.current() is base     # the environment's again

    def test_overrides_do_not_touch_environ(self):
        before = os.environ.get("REPRO_TIER")
        with config.overrides(tier="tier1"):
            assert os.environ.get("REPRO_TIER") == before

    def test_none_leaves_a_field_as_it_is(self):
        with config.overrides(tier="tier1"):
            with config.overrides(tier=None, serve_slice=None) as cfg:
                assert cfg == config.current()
                assert cfg.tier == "tier1"

    def test_a_core_reads_the_environment_once(self, fresh, monkeypatch):
        from repro.cpu import Core
        from repro.mem import MMU, PhysicalMemory
        reads = []
        from_env = config.Config.from_env.__func__
        monkeypatch.setattr(config.Config, "from_env", classmethod(
            lambda cls, env=None: reads.append(env) or from_env(cls, env)))
        monkeypatch.setenv("REPRO_TIER", "tier1")
        memory = PhysicalMemory(1 << 20)
        core = Core(memory, MMU(memory))
        assert len(reads) == 1
        assert core.tier == "tier1"
        with config.overrides(tier="slow"):
            assert Core(memory, MMU(memory)).tier == "slow"
        assert Core(memory, MMU(memory)).tier == "tier1"
        assert len(reads) == 1


class TestReadOnce:
    """The environment is parsed once per process; after that only
    :func:`config.overrides` changes what :func:`config.current`
    returns."""

    def test_setenv_after_the_first_read_changes_nothing(self,
                                                         monkeypatch):
        first = config.current()
        wider = first.serve_slice + 1
        monkeypatch.setenv("REPRO_SERVE_SLICE", str(wider))
        assert config.current() is first
        with config.overrides(serve_slice=wider):
            assert config.current().serve_slice == wider
        assert config.current() is first

    def test_a_guided_campaign_parses_the_environment_at_most_once(
            self, fresh, monkeypatch):
        from repro.fuzz import Campaign
        reads = []
        from_env = config.Config.from_env.__func__
        monkeypatch.setattr(config.Config, "from_env", classmethod(
            lambda cls, env=None: reads.append(env) or from_env(cls, env)))
        report = Campaign(mode="guided", executions=120, workers=1,
                          seed=1).run()
        assert report.executions == 120
        assert len(reads) <= 1

    def test_forked_campaign_workers_run_on_the_override(self):
        from repro.fuzz import Campaign
        with config.overrides(tier="tier1"):
            report = Campaign(mode="guided", executions=8, workers=2,
                              seed=7).run()
        assert report.errors == 0
        assert report.tier == "tier1"


class TestParseKv:
    def test_field_and_env_names(self):
        out = config.parse_kv(["tier=tier1", "REPRO_SERVE_SLICE=4",
                               "repro_bench_scale=0.3"])
        assert out == {"tier": "tier1", "serve_slice": 4,
                       "bench_scale": 0.3}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="KEY=VAL"):
            config.parse_kv(["tier"])

    def test_unknown_key_lists_fields(self):
        with pytest.raises(ConfigError, match="serve_slice"):
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
        assert config.Config.from_env(_env_of(cfg)) == cfg

    def test_workers_auto_rule(self):
        auto = config.Config.from_env({"REPRO_SERVE_WORKERS": "auto"})
        assert auto.serve_workers == 0
        assert auto.resolve_serve_workers() >= 1
        assert config.Config().resolve_serve_workers(3) == 3

    def test_invalid_workers_raises(self):
        with pytest.raises(ConfigError, match="REPRO_SERVE_WORKERS"):
            config.Config.from_env({"REPRO_SERVE_WORKERS": "lots"})
