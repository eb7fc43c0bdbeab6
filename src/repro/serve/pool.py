"""Warm snapshot pool: boot once per workload, fork in milliseconds.

The pool keys warm snapshots by everything that shapes the booted
machine — SoC profile, workload name, scale, hardening variant, and the
boot point — and builds each at most once per worker process:

1. generate the workload (deterministic in the profile seed),
2. compile and link it with the requested hardening,
3. boot it on a fresh system to ``boot`` retired instructions,
4. capture a quiesced :class:`~repro.replay.snapshot.Snapshot`.

Forking a session then *shares* the snapshot's frame bytes through the
copy-on-write layer (``restore(snap, cow=True)``) instead of copying
them, so session start is bookkeeping-bound: the cold boot is paid
once per key (inside ``bench/run.py``'s ``setup_s`` for the serve
workloads) and every create after it is a fork.

Each entry also holds the snapshot's shared translations
(:class:`~repro.cpu.translations.Translations`): a destroyed session
publishes the code it decoded and lowered onto its entry, and later
forks adopt it, so a session starts on warm code rather than
re-translating the snapshot's.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro import config as _config
from repro.cpu.translations import Translations, publish
from repro.errors import ServeError
from repro.replay.snapshot import Snapshot, restore, snapshot
from repro.soc.config import PROFILES as SOC_PROFILES
from repro.workloads.profiles import PROFILE_BY_NAME


@dataclass(frozen=True)
class PoolKey:
    """Identity of one warm snapshot."""

    profile: str
    workload: str
    scale: float
    variant: str
    boot: int

    def validate(self) -> "PoolKey":
        if self.profile not in SOC_PROFILES:
            raise ServeError(f"unknown SoC profile {self.profile!r} "
                             f"(one of: {', '.join(SOC_PROFILES)})")
        if self.workload not in PROFILE_BY_NAME:
            raise ServeError(
                f"unknown workload {self.workload!r} (one of: "
                f"{', '.join(sorted(PROFILE_BY_NAME))})")
        from repro.eval.measure import VARIANTS
        if self.variant not in VARIANTS:
            raise ServeError(f"unknown hardening variant "
                             f"{self.variant!r} (one of: "
                             f"{', '.join(VARIANTS)})")
        if not 0 < self.scale <= 100:
            raise ServeError(f"workload scale {self.scale!r} out of "
                             f"range (0, 100]")
        if self.boot <= 0:
            raise ServeError(f"boot point {self.boot!r} is not positive")
        return self


@dataclass
class WarmSnapshot:
    """A pooled snapshot plus the cold-boot cost it amortizes."""

    snapshot: Snapshot
    boot_seconds: float
    forks: int = 0
    translations: "Optional[Translations]" = None

    def publish(self, kernel) -> None:
        """Merge the translations of a finished fork's core (a no-op
        unless it passes the checks of repro.cpu.translations.publish)."""
        self.translations = publish(self.translations, kernel.system.core,
                                    self.snapshot)


def boot_workload(key: PoolKey, *, max_instructions: int = 50_000_000):
    """Cold path: generate, compile, load, and boot one workload.

    Returns the paused kernel/process pair at ``key.boot`` retired
    instructions; raises :class:`ServeError` if the program finishes
    before the boot point (nothing left to serve).
    """
    from repro.compiler import compile_module
    from repro.eval.measure import make_hardening
    from repro.kernel.kernel import Kernel
    from repro.soc.system import build_system
    from repro.workloads import build_workload
    from repro.workloads import profile as workload_profile

    program = build_workload(workload_profile(key.workload),
                             scale=key.scale)
    image = compile_module(program.module,
                           hardening=make_hardening(key.variant, program))
    system = build_system(key.profile)
    kernel = Kernel(system)
    process = kernel.create_process(image, name=key.workload)
    kernel.run(process, max_instructions=max_instructions,
               stop_after=key.boot)
    if not process.alive:
        raise ServeError(
            f"workload {key.workload} (scale {key.scale}) finished "
            f"before the boot point ({key.boot} instructions): "
            f"{process.status()}")
    return kernel, process


class SnapshotPool:
    """Per-worker warm snapshot store (share-nothing across workers)."""

    def __init__(self):
        self._warm: "Dict[PoolKey, WarmSnapshot]" = {}

    def __len__(self) -> int:
        return len(self._warm)

    def warm(self, key: PoolKey) -> "Tuple[WarmSnapshot, bool]":
        """Get (building if needed) the warm snapshot for ``key``.

        Returns ``(entry, built)`` — ``built`` tells the caller whether
        this call paid the cold boot.
        """
        key.validate()
        entry = self._warm.get(key)
        if entry is not None:
            return entry, False
        began = perf_counter()
        kernel, _ = boot_workload(key)
        snap = snapshot(kernel)
        entry = WarmSnapshot(snap, boot_seconds=perf_counter() - began)
        self._warm[key] = entry
        return entry, True

    def fork(self, key: PoolKey, *, tier: "Optional[str]" = None):
        """Fork a fresh machine copy-on-write from the warm snapshot.

        Returns ``(kernel, process, fork_seconds)``. The tier override
        must be active while the system is *built*, not only while it
        runs — the core reads the execution knobs at construction. The
        fork adopts the entry's shared translations that its tiers run.
        """
        entry, _ = self.warm(key)
        began = perf_counter()
        if tier is not None:
            _config.check_tier(tier, ServeError)
            with _config.overrides(tier=tier):
                kernel, process = restore(
                    entry.snapshot, cow=True,
                    translations=entry.translations)
        else:
            kernel, process = restore(entry.snapshot, cow=True,
                                      translations=entry.translations)
        entry.forks += 1
        return kernel, process, perf_counter() - began

    def stats(self) -> dict:
        return {
            "warm": len(self._warm),
            "entries": [
                {"profile": key.profile, "workload": key.workload,
                 "scale": key.scale, "variant": key.variant,
                 "boot": key.boot, "forks": entry.forks,
                 "boot_seconds": entry.boot_seconds,
                 "frames": len(entry.snapshot.state["memory"])}
                for key, entry in self._warm.items()],
        }
