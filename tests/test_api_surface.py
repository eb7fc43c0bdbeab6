"""The unified API surface — every public name importable, every
``__all__`` honest, and ``profile=`` as the one system-profile
keyword."""

import warnings

import pytest

import repro
import repro.fuzz
import repro.obs
import repro.replay
from repro.eval.measure import run_variant
from repro.workloads import build_workload
from repro.workloads import profile as workload_profile


@pytest.mark.parametrize("module",
                         [repro, repro.replay, repro.obs, repro.fuzz])
def test_all_names_resolve(module):
    missing = [name for name in module.__all__
               if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists {missing}"


def test_all_has_no_duplicates():
    for module in (repro, repro.replay, repro.obs, repro.fuzz):
        assert len(module.__all__) == len(set(module.__all__)), \
            module.__name__


def test_top_level_reexports_config_and_replay():
    assert repro.Config is __import__("repro.config",
                                      fromlist=["Config"]).Config
    assert repro.Snapshot is repro.replay.Snapshot
    assert repro.snapshot is repro.replay.snapshot
    assert repro.restore is repro.replay.restore
    for name in ("Config", "Snapshot", "snapshot", "restore"):
        assert name in repro.__all__


def test_top_level_reexports_eval_model_and_fuzz():
    from repro.eval_model import (CampaignResult, DetectionTable,
                                  RunResult, Verdict)
    assert repro.Verdict is Verdict
    assert repro.RunResult is RunResult
    assert repro.DetectionTable is DetectionTable
    assert repro.CampaignResult is CampaignResult
    assert repro.Campaign is repro.fuzz.Campaign
    assert repro.Corpus is repro.fuzz.Corpus
    assert repro.Mutator is repro.fuzz.Mutator
    assert repro.FuzzInput is repro.fuzz.FuzzInput
    assert repro.VictimSpec is repro.fuzz.VictimSpec
    assert repro.run_comparison is repro.fuzz.run_comparison
    for name in ("Verdict", "RunResult", "DetectionTable",
                 "CampaignResult", "Campaign", "Corpus", "Mutator",
                 "FuzzInput", "VictimSpec", "run_comparison"):
        assert name in repro.__all__


def test_replay_exports_injection_primitives():
    assert repro.replay.apply_injection \
        is __import__("repro.replay.inject",
                      fromlist=["apply_injection"]).apply_injection
    assert repro.replay.classify_outcome is not None
    assert repro.replay.ObsCapture is not None
    for name in ("apply_injection", "classify_outcome", "ObsCapture"):
        assert name in repro.replay.__all__


class TestProfileKeyword:
    @pytest.fixture(scope="class")
    def program(self):
        return build_workload(workload_profile("456.hmmer"), scale=0.02)

    def test_profile_keyword_is_canonical(self, program):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            measurement = run_variant(program, "base",
                                      profile="processor+kernel")
        assert measurement.system_profile == "processor+kernel"
        assert measurement.profile == "processor+kernel"
