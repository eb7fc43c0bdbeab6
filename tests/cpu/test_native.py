"""The flat core's native runner: build, cache and fallback.

Whether tier 4 runs is settled when repro.cpu.flatcore is
imported, from whether the C extension built and loaded
(repro.cpu.native); there is no knob. These tests hold the three
properties this rests on:

* on a host whose compiler works, the native runner is in use — so a
  silently failed build cannot leave CI or the benchmark measuring
  tier 1 alone;
* a build that fails (the compiler replaced by ``/bin/false``) leaves
  no runner, with no exception: the core runs tiers 0 and 1 only,
  lowers nothing, and gets identical results;
* a second import reuses the cached build and does not compile again.

The fallback and cache tests run in subprocesses over a private copy of
the package, whose build cache starts empty.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cpu import flatcore, native
from repro.eval.measure import run_variant
from repro.workloads import build_workload, profile

# One small tier-4 workload run, printed as JSON with the runner used.
PROBE = """
import dataclasses, json
from repro.cpu import flatcore, native
from repro.eval.measure import run_variant
from repro.workloads import build_workload, profile
measurement = run_variant(build_workload(profile("429.mcf"), scale=0.05),
                          "base")
print(json.dumps({"runner": flatcore.runner(),
                  "compiled_here": native.compiled_here,
                  "failure": native.failure,
                  "residency": measurement.tier_residency,
                  "result": dataclasses.asdict(measurement)}))
"""

TIER4 = {"REPRO_TIER": "tier4"}


def compiler_works(tmp_path) -> bool:
    """Whether the build command compiles a trivial extension source."""
    source = tmp_path / "probe.c"
    source.write_text("#include <Python.h>\nint probe(void) { return 0; }\n")
    try:
        subprocess.run(native.compile_command(tmp_path / "probe.so", source),
                       check=True, capture_output=True, timeout=120)
    except (OSError, subprocess.SubprocessError):
        return False
    return True


@pytest.fixture(scope="module")
def package_copy(tmp_path_factory):
    """A copy of the repro package with an empty build cache."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(Path(repro.__file__).parent, root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "_native_build"))
    return root


def empty_cache(package_copy):
    shutil.rmtree(package_copy / "repro" / "cpu" / "_native_build",
                  ignore_errors=True)


def run_probe(package_copy, **env):
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        timeout=600, check=True,
        env=dict(os.environ, PYTHONPATH=str(package_copy), **TIER4, **env))
    return json.loads(result.stdout.strip().splitlines()[-1])


def probe_in_process(monkeypatch):
    for name, value in TIER4.items():
        monkeypatch.setenv(name, value)
    return dataclasses.asdict(
        run_variant(build_workload(profile("429.mcf"), scale=0.05), "base"))


def test_native_runner_is_used_where_a_compiler_works(tmp_path):
    if not compiler_works(tmp_path):
        pytest.skip("no working C compiler for this interpreter")
    assert flatcore.runner() == "native", native.failure
    assert native.artifact().exists()


def test_native_source_compiles_warning_free(tmp_path):
    """-Wall -Werror against this interpreter's headers (CI runs the
    suite on each Python version of its matrix)."""
    if not compiler_works(tmp_path):
        pytest.skip("no working C compiler for this interpreter")
    result = subprocess.run(
        native.compile_command(tmp_path / "runner.so", extra=["-Werror"]),
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_failed_build_falls_back_with_identical_results(package_copy,
                                                        monkeypatch):
    empty_cache(package_copy)
    fallback = run_probe(package_copy, CC="/bin/false")
    assert fallback["runner"] == "none"
    assert not fallback["compiled_here"]
    residency = fallback["residency"]
    assert residency["tier2_retired"] == residency["tier4_retired"] == 0
    assert residency["jit_compiled"] == residency["regions_compiled"] == 0
    assert residency["tier1_retired"] > 0
    assert "compiler exited" in fallback["failure"]
    assert not list((package_copy / "repro" / "cpu").glob(
        "_native_build/*.so"))
    assert fallback["result"] == probe_in_process(monkeypatch)


def test_second_import_reuses_the_cached_build(package_copy, tmp_path,
                                               monkeypatch):
    if not compiler_works(tmp_path):
        pytest.skip("no working C compiler for this interpreter")
    empty_cache(package_copy)
    first = run_probe(package_copy)
    assert first["runner"] == "native" and first["compiled_here"]
    built, = (package_copy / "repro" / "cpu").glob("_native_build/*.so")
    stamp = built.stat().st_mtime_ns
    second = run_probe(package_copy)
    assert second["runner"] == "native" and not second["compiled_here"]
    assert built.stat().st_mtime_ns == stamp
    assert first["result"] == second["result"] \
        == probe_in_process(monkeypatch)
