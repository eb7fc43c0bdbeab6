"""Build and load the flat core's native runner (``_flatcore_native.c``).

:func:`load` runs once, when :mod:`repro.cpu.flatcore` is first
imported, never inside a simulation. It compiles the C source with the
interpreter's own compiler and include paths (``sysconfig``; a ``CC``
in the environment overrides the compiler, as for any C extension
build) and caches the result in ``_native_build/`` beside this file,
one file per source hash and extension suffix (``EXT_SUFFIX``), so
every later import in the same checkout, by any process, loads it
without compiling; that path imports nothing the build needs. Builds
are serialized by a lock file and installed with an atomic rename, so
concurrent serve or fuzz workers starting from a cold cache are safe.

Any failure — a big-endian host, no compiler, a failed compile, an
unwritable cache directory, a failed load — makes :func:`load` return
None. Then nothing is lowered: repro.cpu.core turns tiers 2 and 4 off
and runs tiers 0 and 1 only, with the same results, only slower.
There is deliberately no switch: which tiers run is a property of the
host, never of the experiment.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import zlib
from pathlib import Path

SOURCE = Path(__file__).with_name("_flatcore_native.c")
CACHE = Path(__file__).with_name("_native_build")
NAME = "_flatcore_native"
SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]  # sysconfig's EXT_SUFFIX

# Whether this process compiled the extension (False: loaded from the
# cache, or no native runner at all), and why the runner is missing
# when it is (None when it loaded).
compiled_here = False
failure = None


def artifact() -> Path:
    """The cached build for this source and interpreter ABI."""
    digest = zlib.crc32(SOURCE.read_bytes())
    return CACHE / f"{NAME}-{digest:08x}{SUFFIX}"


def compile_command(output, source=SOURCE, extra=()) -> list:
    """The command that builds ``source`` into the shared object
    ``output`` with the interpreter's compiler and headers."""
    import shlex
    import sysconfig
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    includes = {sysconfig.get_paths()["include"],
                sysconfig.get_paths()["platinclude"]}
    command = shlex.split(cc) + ["-shared", "-fPIC", "-O2", "-Wall"]
    if sys.platform == "darwin":
        command += ["-undefined", "dynamic_lookup"]
    for include in sorted(includes):
        command += ["-I", include]
    return command + list(extra) + [str(source), "-o", str(output)]


def _build(target: Path) -> None:
    import subprocess
    global compiled_here
    CACHE.mkdir(exist_ok=True)
    with open(CACHE / ".lock", "w") as lock:
        try:
            import fcntl
            fcntl.flock(lock, fcntl.LOCK_EX)
        except ImportError:     # no flock: the atomic rename still holds
            pass
        if target.exists():     # another process built it meanwhile
            return
        tmp = CACHE / f".{target.name}.{os.getpid()}.tmp"
        try:
            result = subprocess.run(
                compile_command(tmp), timeout=300, stdin=subprocess.DEVNULL,
                capture_output=True, text=True)
            if result.returncode:
                raise RuntimeError(f"compiler exited {result.returncode}: "
                                   f"{result.stderr.strip()[-2000:]}")
            os.replace(tmp, target)
            compiled_here = True
        finally:
            tmp.unlink(missing_ok=True)
        for stale in CACHE.glob(f"{NAME}-*{SUFFIX}"):
            if stale != target:     # this interpreter, an earlier source
                stale.unlink(missing_ok=True)


def _import(path: Path):
    name = f"repro.cpu.{NAME}"
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def load():
    """The native runner module, built if needed, or None (the reason
    is then in :data:`failure`)."""
    global failure
    if sys.byteorder != "little" or sys.implementation.name != "cpython":
        failure = "needs CPython on a little-endian host"
        return None
    try:
        target = artifact()
        if not target.exists():
            _build(target)
        return _import(target)
    except Exception as exc:    # any failure: tiers 2 and 4 stay off
        failure = f"{type(exc).__name__}: {exc}"
        return None
