"""Fault-injection primitives and the §V verdict classifier (DESIGN.md §11).

A hardened victim is perturbed mid-run — PTE key bits flipped, page
writability flipped, allowlist pointers corrupted — and run to
completion; every injection is classified with the shared
:class:`repro.eval_model.Verdict` taxonomy:

* ``detected`` — the run died with a ROLoad-discriminated SIGSEGV (the
  modified kernel logged a security event): the defense fired.
* ``benign``  — the run finished with the baseline exit code and the
  hijack marker clear: the corrupted state was never consumed (e.g. the
  flip landed after the last keyed load).
* ``crashed`` — the run died with a non-ROLoad signal: the corruption
  broke the program some other way, still fail-stop.
* ``escaped`` — the run finished but the hijack marker was set or the
  output changed: the corruption was consumed *without* detection. A
  correct ROLoad implementation produces zero of these for key- and
  permission-class injections.

This module holds only the perturbation primitive
(:func:`apply_injection`) and the classifier (:func:`classify_outcome`).
The one execution loop that snapshots, injects, runs and classifies is
:class:`repro.fuzz.executor.WarmVictimPool`; ``roload-inject campaign``
is :func:`repro.fuzz.campaign.stratified_campaign`, a fixed list of
single-entry fuzz inputs run through it.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ReplayError
from repro.eval_model import Verdict

# Key-bit patterns XORed into the PTE key field (10 bits), modelling
# single-bit upsets through full-field corruption.
KEY_FLIPS = (0x001, 0x155, 0x3FF)
POINTER_TARGETS = ("obj", "fp_slot")

# Distinct variants of each DEFAULT_KINDS class: one per key flip, the
# single writability flip, one per allowlist pointer.
KIND_VARIANTS = {"pte-key": len(KEY_FLIPS), "pte-writable": 1,
                 "allowlist-ptr": len(POINTER_TARGETS)}

# Fuzz-only class: redirect an allowlist pointer at unmapped memory, so
# the next keyed load dies of an ordinary translation fault. Not part of
# DEFAULT_KINDS — it exists to exercise the crashed-verdict path at scale.
WILD_ADDRESS = 0x7F00_0000


def _keyed_pages(process) -> "list[Tuple[int, int]]":
    """(vaddr, key) of the first page of every keyed mapping."""
    return [(vma.start, vma.key)
            for vma in process.address_space.vmas if vma.key]


def apply_injection(kernel, process, image, kind: str,
                    variant: int) -> str:
    """Perturb the live machine in place; returns the target description.

    One schedule entry of a fuzz input: ``pte-key`` / ``pte-writable``
    / ``allowlist-ptr`` from DEFAULT_KINDS, plus the fuzz-only
    ``wild-ptr`` (allowlist pointer aimed at unmapped memory — exercises
    the non-ROLoad crash path)."""
    space = process.address_space
    mmu = kernel.system.mmu

    if kind == "pte-key":
        keyed = _keyed_pages(process)
        if not keyed:
            raise ReplayError("victim has no keyed mappings to corrupt")
        vaddr, _old_key = keyed[variant % len(keyed)]
        flip = KEY_FLIPS[variant % len(KEY_FLIPS)]
        pte = space.page_table.lookup(vaddr)
        new_key = (pte.key ^ flip) & 0x3FF
        space.page_table.set_protection(vaddr, key=new_key)
        mmu.flush_page(vaddr)
        return f"key {pte.key}->{new_key} @ {vaddr:#x}"
    if kind == "pte-writable":
        keyed = _keyed_pages(process)
        if not keyed:
            raise ReplayError("victim has no keyed mappings to corrupt")
        vaddr, key = keyed[variant % len(keyed)]
        space.page_table.set_protection(vaddr, writable=True)
        mmu.flush_page(vaddr)
        return f"W bit set on keyed page @ {vaddr:#x} (key {key})"
    if kind == "allowlist-ptr":
        from repro.attacks.primitives import MemoryCorruption
        symbol = POINTER_TARGETS[variant % len(POINTER_TARGETS)]
        attacker = MemoryCorruption(kernel, process, image)
        decoy = image.symbol("attacker_buf")
        attacker.write_symbol(symbol, decoy,
                              note=f"redirect {symbol} to attacker_buf")
        return f"{symbol} -> attacker_buf ({decoy:#x})"
    if kind == "wild-ptr":
        from repro.attacks.primitives import MemoryCorruption
        symbol = POINTER_TARGETS[variant % len(POINTER_TARGETS)]
        attacker = MemoryCorruption(kernel, process, image)
        wild = WILD_ADDRESS + (variant // len(POINTER_TARGETS)) * 0x1000
        attacker.write_symbol(symbol, wild,
                              note=f"redirect {symbol} to unmapped")
        return f"{symbol} -> unmapped ({wild:#x})"
    raise ReplayError(f"unknown injection kind {kind!r}")


def classify_outcome(kernel, process, image, baseline_exit: int,
                     seclog_before: int) -> "Tuple[Verdict, str]":
    """Map the post-run machine state onto the §V verdict taxonomy.

    Fails closed: an exited run whose hijack marker (``pwned``) cannot
    be read raises instead of reading as clear."""
    if process.state.value == "killed":
        roload = bool(process.signal and process.signal.roload) \
            or kernel.security_log.total > seclog_before
        if roload:
            events = kernel.security_log[seclog_before:]
            reason = events[-1].reason if events else "roload"
            return Verdict.DETECTED, reason
        return Verdict.CRASHED, \
            process.signal.reason if process.signal else ""
    pwned = int.from_bytes(process.address_space.read_memory(
        image.symbol("pwned"), 8), "little")
    if pwned or process.exit_code != baseline_exit:
        return Verdict.ESCAPED, (f"pwned={pwned} exit={process.exit_code} "
                                 f"(baseline {baseline_exit})")
    return Verdict.BENIGN, "corruption never consumed"
