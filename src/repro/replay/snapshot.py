"""Versioned snapshot/restore of full machine state (DESIGN.md §11).

A snapshot captures everything *architectural*: CPU registers and CSRs,
physical memory (sparse — all-zero frames dropped), page tables (they
live in physical memory; only the root is recorded), kernel state
(processes, signal dispositions, console, syscall counts, security log),
and the performance counters that the repo's differential tests prove
tier-independent (cycles, cache/TLB hit counts, MMU stats).

Derived state is deliberately *not* captured: TLB contents, L1 tag
stores, the tier-1 basic-block cache, tier-2 compiled code, and the
core's fetch/D-side page memos are all rebuilt on demand. To make that
sound, :func:`snapshot` first **quiesces** the machine — ``sfence.vma``
plus cache flushes — so the continuous run and any restored run proceed
from the same cold-translation point and stay bit-identical, *including
cycle counts*. The snapshot boundary is therefore also a tier boundary:
a run snapshotted under the tier-2 JIT restores and replays identically
under the slow interpreter, and vice versa.

Format: ``ROLOADSNAP`` magic, one format-version byte pair, then a
zlib-compressed pickle of a plain dict (only builtin types — no repro
classes — so old snapshots survive refactors as long as the version
matches).
"""

from __future__ import annotations

import hashlib
import pickle
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReplayError

MAGIC = b"ROLOADSNAP"
FORMAT_VERSION = 1

# Keys of Snapshot.state whose contents are interpreter-tier dependent
# (which tier retired an instruction, how often the JIT compiled) and so
# excluded from the architectural state hash.
_VOLATILE_KEYS = ("tiers",)


def _strip_volatile(state: dict) -> dict:
    """The hashed view: drop tier counters plus invalidation telemetry
    (MMU generation, TLB flush counts) that every quiesce bumps — their
    exclusion is what makes ``snapshot(); snapshot()`` hash-idempotent
    and ``state_hash(restore(snap))`` equal to ``snap.state_hash()``."""
    arch = {key: value for key, value in state.items()
            if key not in _VOLATILE_KEYS}
    mmu = dict(arch.get("mmu", {}))
    mmu.pop("generation", None)
    for side in ("itlb", "dtlb"):
        counters = mmu.get(side)
        if counters is not None:
            mmu[side] = {name: value for name, value in counters.items()
                         if name != "flushes"}
    arch["mmu"] = mmu
    return arch


def _signal_dict(signal) -> "Optional[dict]":
    if signal is None:
        return None
    return {"number": signal.number, "reason": signal.reason,
            "pc": signal.pc, "fault_address": signal.fault_address,
            "roload": bool(signal.roload)}


def _restore_signal(data: "Optional[dict]"):
    if data is None:
        return None
    from repro.kernel.signals import SignalInfo
    return SignalInfo(data["number"], data["reason"], pc=data["pc"],
                      fault_address=data["fault_address"],
                      roload=data["roload"])


def _canon(obj) -> str:
    """Canonical, key-sorted textual form for hashing."""
    if isinstance(obj, dict):
        inner = ",".join(f"{_canon(k)}:{_canon(v)}"
                         for k, v in sorted(obj.items(), key=lambda i:
                                            _canon(i[0])))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(item) for item in obj) + "]"
    if isinstance(obj, (bytes, bytearray)):
        return "b" + bytes(obj).hex()
    if isinstance(obj, bool) or obj is None:
        return repr(obj)
    if isinstance(obj, (int, float, str)):
        return repr(obj)
    raise ReplayError(f"non-canonical value in snapshot state: {obj!r}")


@dataclass
class Snapshot:
    """One captured machine state (see module docstring for the scope)."""

    state: dict

    @property
    def version(self) -> int:
        return self.state["version"]

    @property
    def profile(self) -> str:
        return self.state["profile"]

    @property
    def instret(self) -> int:
        """Architectural instructions retired at the capture point."""
        return self.state["timing"]["instructions"]

    def page_map(self) -> dict:
        """vpage -> frame address of the process :func:`restore` makes
        current (the map shared translations must have been made
        under, repro.cpu.translations.publish)."""
        return _current(self.state["processes"])["space"]["frames"]

    def state_hash(self) -> str:
        """SHA-256 over the canonical architectural state (tier-dependent
        counters and invalidation telemetry excluded) — the determinism
        checker's comparison key."""
        return hashlib.sha256(
            _canon(_strip_volatile(self.state)).encode()).hexdigest()

    # -- on-disk format -----------------------------------------------------

    def to_bytes(self) -> bytes:
        payload = pickle.dumps(self.state, protocol=4)
        return (MAGIC + FORMAT_VERSION.to_bytes(2, "little")
                + zlib.compress(payload, 6))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Snapshot":
        if not blob.startswith(MAGIC):
            raise ReplayError("not a ROLoad snapshot (bad magic)")
        version = int.from_bytes(blob[len(MAGIC):len(MAGIC) + 2], "little")
        if version != FORMAT_VERSION:
            raise ReplayError(f"snapshot format v{version} is not "
                              f"supported (expected v{FORMAT_VERSION})")
        try:
            state = pickle.loads(zlib.decompress(blob[len(MAGIC) + 2:]))
        except Exception as exc:
            raise ReplayError(f"corrupt snapshot payload: {exc}") from exc
        if state.get("version") != version:
            raise ReplayError("snapshot header/payload version mismatch")
        return cls(state)

    def save(self, path) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "Snapshot":
        try:
            with open(path, "rb") as handle:
                return cls.from_bytes(handle.read())
        except OSError as exc:
            raise ReplayError(f"cannot read snapshot {path}: {exc}") from exc


def quiesce(system) -> None:
    """Drop all derived microarchitectural state, keeping its counters.

    ``sfence.vma`` (bumps the MMU generation, so the core's block cache,
    tier-2 code, and fetch/D-side memos invalidate on the next dispatch)
    plus L1 flushes. Performed on the *live* machine before capture so a
    continuous run and a restored run share the same cold start.
    """
    mmu = system.mmu
    if hasattr(mmu, "flush"):
        mmu.flush()
    for cache in (system.icache, system.dcache):
        if cache is not None:
            cache.flush()


def _space_state(space) -> dict:
    return {
        "honour_keys": space.honour_keys,
        "page_table_root": space.page_table.root,
        "vmas": [{"start": v.start, "end": v.end, "prot": v.prot,
                  "key": v.key, "name": v.name} for v in space.vmas],
        "frames": dict(space._frames),
        "mmap_cursor": space._mmap_cursor,
        "brk_base": space.brk_base,
        "brk": space.brk,
    }


def _process_state(process) -> dict:
    return {
        "pid": process.pid,
        "name": process.name,
        "entry": process.entry,
        "stack_pointer": process.stack_pointer,
        "state": process.state.value,
        "exit_code": process.exit_code,
        "signal": _signal_dict(process.signal),
        "stdout": bytes(process.stdout),
        "stderr": bytes(process.stderr),
        "stdin": bytes(process.stdin),
        "saved_pc": process.saved_pc,
        "saved_regs": list(process.saved_regs),
        "space": _space_state(process.address_space),
    }


def snapshot(kernel) -> Snapshot:
    """Capture the kernel and its system at the current stop point.

    Call with no process running on the core (``Kernel.run`` returned —
    either finished or paused via ``stop_after``): the per-process
    context lives in the saved registers, which :meth:`Kernel.run`
    keeps current.
    """
    system = kernel.system
    quiesce(system)
    core = system.core
    mmu = system.mmu
    state = {
        "version": FORMAT_VERSION,
        "profile": system.config.profile,
        "memory": system.memory.snapshot_frames(),
        "allocator": {"next": kernel.allocator._next,
                      "allocated": kernel.allocator.allocated},
        "mmu": {
            "root_ppn": mmu.root_ppn,
            "bare": getattr(mmu, "bare", True),
            "user_mode": getattr(mmu, "user_mode", True),
            "generation": mmu.generation,
            "stats": {"roload_checks": mmu.stats.roload_checks,
                      "roload_faults": mmu.stats.roload_faults,
                      "walks": mmu.stats.walks,
                      "translations": mmu.stats.translations},
            "itlb": _tlb_counters(getattr(mmu, "itlb", None)),
            "dtlb": _tlb_counters(getattr(mmu, "dtlb", None)),
        },
        "caches": {"l1i": _cache_counters(system.icache),
                   "l1d": _cache_counters(system.dcache)},
        "timing": system.timing.stats.as_dict(),
        "core": {
            "pc": core.pc,
            "regs": list(core.regs),
            "csr_scratch": dict(core.csr._scratch),
            "reservation": core.reservation,
        },
        "tiers": {"tier0_retired": core.tier0_retired,
                  "tier1_retired": core.tier1_retired},
        "kernel": {
            "next_pid": kernel._next_pid,
            "console": bytes(kernel.console),
            "syscall_counts": dict(kernel.syscalls.counts),
            "seclog": {
                "capacity": kernel.security_log.capacity,
                "total": kernel.security_log.total,
                "dropped": kernel.security_log.dropped,
                "events": [{"pid": e.pid, "pc": e.pc,
                            "fault_address": e.fault_address,
                            "reason": e.reason, "insn_key": e.insn_key,
                            "page_key": e.page_key}
                           for e in kernel.security_log],
            },
        },
        "uart": bytes(system.uart.output),
        "processes": [_process_state(p) for p in kernel.processes],
    }
    return Snapshot(state)


def _tlb_counters(tlb) -> "Optional[dict]":
    if tlb is None:
        return None
    return {"hits": tlb.hits, "misses": tlb.misses, "flushes": tlb.flushes}


def _cache_counters(cache) -> "Optional[dict]":
    if cache is None:
        return None
    return {"hits": cache.hits, "misses": cache.misses}


def _current(processes: list) -> "Optional[dict]":
    """The saved process a restore resumes: the last runnable one,
    else the first."""
    current = None
    for saved in processes:
        if saved["state"] in ("ready", "running") or current is None:
            current = saved
    return current


def restore(snap: Snapshot, *, system=None, cow: bool = False,
            translations=None):
    """Rebuild a (kernel, process) pair from a snapshot.

    ``system`` defaults to a fresh :func:`build_system` of the
    snapshot's profile; pass one explicitly to restore onto a system
    with config overrides. Derived state (TLBs, caches, translation
    tiers) starts empty — exactly the quiesced state the capture left
    the original machine in. Returns the kernel and the process that
    was current at capture (the last runnable one, else the last).

    With ``cow=True`` the snapshot's frames are installed as a shared
    copy-on-write layer instead of being copied eagerly
    (:meth:`~repro.mem.physical.PhysicalMemory.restore_frames_cow`):
    restoring is then O(bookkeeping), not O(memory), and any number of
    machines forked from the same snapshot share its frame bytes — the
    ``repro.serve`` session-fork path. Requires a system whose memory
    has never been touched (the fresh default always qualifies).

    ``translations`` (a :class:`~repro.cpu.translations.Translations`
    published for this snapshot) starts the core warm: it adopts the
    shared decoded and lowered code instead of re-translating it, when
    its tiers and lowering inputs allow (``Kernel.adopt_translations``).
    Architectural state is the same either way.
    """
    from repro.kernel.address_space import AddressSpace
    from repro.kernel.fault import SecurityEvent
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process, ProcessState
    from repro.soc.system import build_system

    state = snap.state
    if system is None:
        system = build_system(state["profile"])
    elif system.config.profile != state["profile"]:
        raise ReplayError(
            f"snapshot was taken on profile {state['profile']!r}, "
            f"got a {system.config.profile!r} system")
    if cow:
        system.memory.restore_frames_cow(state["memory"])
    else:
        system.memory.restore_frames(state["memory"])
    kernel = Kernel(system)
    kernel.allocator._next = state["allocator"]["next"]
    kernel.allocator.allocated = state["allocator"]["allocated"]

    mmu, saved_mmu = system.mmu, state["mmu"]
    mmu.root_ppn = saved_mmu["root_ppn"]
    if hasattr(mmu, "bare"):
        mmu.bare = saved_mmu["bare"]
        mmu.user_mode = saved_mmu["user_mode"]
    mmu.generation = saved_mmu["generation"]
    for name, value in saved_mmu["stats"].items():
        setattr(mmu.stats, name, value)
    for side in ("itlb", "dtlb"):
        tlb = getattr(mmu, side, None)
        counters = saved_mmu[side]
        if tlb is not None and counters is not None:
            tlb.hits = counters["hits"]
            tlb.misses = counters["misses"]
            tlb.flushes = counters["flushes"]
    for name, cache in (("l1i", system.icache), ("l1d", system.dcache)):
        counters = state["caches"][name]
        if cache is not None and counters is not None:
            cache.hits = counters["hits"]
            cache.misses = counters["misses"]
    # Mutate the stats object in place: bound flat-core units hold it
    # by identity from the time they were bound.
    for name, value in state["timing"].items():
        setattr(system.timing.stats, name, value)

    core, saved_core = system.core, state["core"]
    core.pc = saved_core["pc"]
    core.regs[:] = saved_core["regs"]
    core.csr._scratch.clear()
    core.csr._scratch.update(saved_core["csr_scratch"])
    core.reservation = saved_core["reservation"]
    core.tier0_retired = state["tiers"]["tier0_retired"]
    core.tier1_retired = state["tiers"]["tier1_retired"]

    saved_kernel = state["kernel"]
    kernel._next_pid = saved_kernel["next_pid"]
    kernel.console[:] = saved_kernel["console"]
    kernel.syscalls.counts.update(saved_kernel["syscall_counts"])
    seclog = saved_kernel["seclog"]
    kernel.security_log.capacity = seclog["capacity"]
    for event in seclog["events"]:
        kernel.security_log.append(SecurityEvent(**event))
    kernel.security_log.total = seclog["total"]
    kernel.security_log.dropped = seclog["dropped"]
    system.uart.output[:] = state["uart"]

    resumed = _current(state["processes"])
    current = None
    for saved in state["processes"]:
        space_state = saved["space"]
        space = AddressSpace(system.memory, kernel.allocator,
                             honour_keys=space_state["honour_keys"],
                             page_table_root=space_state["page_table_root"])
        from repro.kernel.address_space import VMA
        space.vmas = [VMA(**vma) for vma in space_state["vmas"]]
        space._frames = dict(space_state["frames"])
        space._mmap_cursor = space_state["mmap_cursor"]
        space.brk_base = space_state["brk_base"]
        space.brk = space_state["brk"]
        process = Process(pid=saved["pid"], address_space=space,
                          entry=saved["entry"],
                          stack_pointer=saved["stack_pointer"],
                          name=saved["name"])
        process.state = ProcessState(saved["state"])
        process.exit_code = saved["exit_code"]
        process.signal = _restore_signal(saved["signal"])
        process.stdout[:] = saved["stdout"]
        process.stderr[:] = saved["stderr"]
        process.stdin = saved["stdin"]
        process.saved_pc = saved["saved_pc"]
        process.saved_regs = list(saved["saved_regs"])
        kernel.processes.append(process)
        if saved is resumed:
            current = process
    if current is None:
        raise ReplayError("snapshot contains no processes")
    if translations is not None:
        kernel.adopt_translations(current, translations)
    return kernel, current


def state_hash(kernel) -> str:
    """Architectural state hash of a live machine (quiesces it first —
    the same normal form :meth:`Snapshot.state_hash` uses)."""
    return snapshot(kernel).state_hash()
