"""Fault-injection harness over snapshot/restore (DESIGN.md §11).

Regenerates a §V-style detection table: a hardened victim is run to a
chosen instruction count, snapshotted, perturbed — PTE key bits flipped,
page writability flipped, allowlist pointers corrupted — and replayed to
completion, classifying every injection with the shared
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

The victim is a straight-line unrolled program (no loops) doing ``reps``
vcall+icall rounds through keyed vtables and a keyed GFPT, so injection
points stratified over the run mostly land before a later keyed load.

The perturbation primitives (:func:`apply_injection`) and the verdict
classifier (:func:`classify_outcome`) are public: the coverage-guided
fuzzer (:mod:`repro.fuzz`) composes them into multi-entry injection
schedules over mutated victims. Results are the typed
:class:`~repro.eval_model.RunResult` / :class:`~repro.eval_model.CampaignResult`.
"""

from __future__ import annotations

from typing import Tuple

from repro.errors import ReplayError
from repro.eval_model import (CampaignResult, DEFAULT_KINDS, RunResult,
                              Verdict, VERDICTS)
from repro.obs import OBS as _OBS
from repro.replay.snapshot import Snapshot, restore, snapshot

KINDS = DEFAULT_KINDS
OUTCOMES = VERDICTS

# Key-bit patterns XORed into the PTE key field (10 bits), modelling
# single-bit upsets through full-field corruption.
KEY_FLIPS = (0x001, 0x155, 0x3FF)
POINTER_TARGETS = ("obj", "fp_slot")

# Fuzz-only class: redirect an allowlist pointer at unmapped memory, so
# the next keyed load dies of an ordinary translation fault. Not part of
# KINDS — it exists to exercise the crashed-verdict path at scale.
WILD_ADDRESS = 0x7F00_0000

BENIGN_VCALL = 13
BENIGN_ICALL = 29
GADGET_RETURN = 66


def build_inject_victim(reps: int = 8):
    """An unrolled victim: ``reps`` repetitions of one vcall through a
    keyed vtable plus one icall through the keyed GFPT; exits with the
    accumulated sum (mod 256)."""
    from repro.compiler import (GlobalVar, I64, IRBuilder, Module, VTable,
                                func_type, static_object)
    sig = func_type(ret=I64)
    m = Module("inject-victim")

    benign = m.function("Benign_get", func_type=sig, address_taken=True)
    b = IRBuilder(benign)
    b.ret(b.li(BENIGN_VCALL))

    callee = m.function("benign_callee", func_type=sig, address_taken=True)
    b = IRBuilder(callee)
    b.ret(b.li(BENIGN_ICALL))

    gadget = m.function("gadget", func_type=sig, address_taken=True)
    b = IRBuilder(gadget)
    marker = b.la("pwned")
    b.store(b.li(1), marker)
    b.ret(b.li(GADGET_RETURN))

    m.vtable(VTable("Benign", entries=["Benign_get"]))
    static_object(m, "obj", "Benign")
    m.global_var(GlobalVar("pwned", section=".data", init=[0]))
    m.global_var(GlobalVar("attacker_buf", section=".data", size=64))
    m.global_var(GlobalVar("fp_slot", section=".data",
                           init=[("quad", "benign_callee")]))

    main = m.function("main")
    b = IRBuilder(main)
    acc = b.li(0)
    obj = b.la("obj")
    slot = b.la("fp_slot")
    for _ in range(reps):
        acc = b.add(acc, b.vcall(obj, 0, "Benign", func_type=sig))
        fptr = b.load_fptr(slot, sig)
        acc = b.add(acc, b.icall(fptr, func_type=sig))
    b.ret(acc)
    return m


def build_inject_image(reps: int = 8):
    """The hardened victim executable (vcall protection + GFPT CFI)."""
    from repro.compiler import compile_module
    from repro.defenses import TypeBasedCFI, VCallProtection
    return compile_module(build_inject_victim(reps),
                          hardening=[VCallProtection(), TypeBasedCFI()])


def _keyed_pages(process) -> "list[Tuple[int, int]]":
    """(vaddr, key) of the first page of every keyed mapping."""
    return [(vma.start, vma.key)
            for vma in process.address_space.vmas if vma.key]


def _run_to(image, trigger: int, *, profile: str,
            max_instructions: int) -> Snapshot:
    """Fresh run paused at ``trigger`` retired instructions, snapshotted."""
    from repro.kernel.kernel import Kernel
    from repro.soc.system import build_system
    kernel = Kernel(build_system(profile))
    process = kernel.create_process(image, name="inject-victim")
    kernel.run(process, max_instructions=max_instructions,
               stop_after=trigger)
    if not process.alive:
        raise ReplayError(f"victim finished before injection point "
                          f"{trigger}")
    return snapshot(kernel)


def apply_injection(kernel, process, image, kind: str,
                    variant: int) -> str:
    """Perturb the live machine in place; returns the target description.

    The shared primitive under both the PR 5 campaign and the fuzzer's
    schedule entries: ``pte-key`` / ``pte-writable`` / ``allowlist-ptr``
    from KINDS, plus the fuzz-only ``wild-ptr`` (allowlist pointer aimed
    at unmapped memory — exercises the non-ROLoad crash path)."""
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
    """Map the post-run machine state onto the §V verdict taxonomy."""
    if process.state.value == "killed":
        roload = bool(process.signal and process.signal.roload) \
            or kernel.security_log.total > seclog_before
        if roload:
            events = kernel.security_log[seclog_before:]
            reason = events[-1].reason if events else "roload"
            return Verdict.DETECTED, reason
        return Verdict.CRASHED, \
            process.signal.reason if process.signal else ""
    pwned = 0
    try:
        addr = image.symbol("pwned")
        pwned = int.from_bytes(
            process.address_space.read_memory(addr, 8), "little")
    except Exception:
        pass
    if pwned or process.exit_code != baseline_exit:
        return Verdict.ESCAPED, (f"pwned={pwned} exit={process.exit_code} "
                                 f"(baseline {baseline_exit})")
    return Verdict.BENIGN, "corruption never consumed"


def _inject_and_run(snap: Snapshot, image, kind: str, variant: int,
                    baseline_exit: int,
                    max_instructions: int) -> RunResult:
    kernel, process = restore(snap)
    seclog_before = kernel.security_log.total
    target = apply_injection(kernel, process, image, kind, variant)
    kernel.run(process, max_instructions=max_instructions)
    verdict, detail = classify_outcome(kernel, process, image,
                                       baseline_exit, seclog_before)
    return RunResult(
        kind=kind, trigger=snap.instret, target=target, verdict=verdict,
        detail=detail, exit_code=process.exit_code,
        signal=process.signal.number if process.signal else None)


def run_campaign(*, reps: int = 8, points: int = 10,
                 kinds: "Tuple[str, ...]" = KINDS,
                 profile: str = "processor+kernel",
                 max_instructions: int = 10_000_000,
                 log=None) -> CampaignResult:
    """The full injection campaign: ``points`` stratified snapshot points
    x (3 key flips + 1 writability flip + 2 pointer corruptions) per
    point — 6 injections per point with the default kinds."""
    from repro.kernel.kernel import Kernel
    from repro.soc.system import build_system

    for kind in kinds:
        if kind not in KINDS:
            raise ReplayError(f"unknown injection class {kind!r}; choose "
                              f"from {', '.join(KINDS)}")
    image = build_inject_image(reps)

    # Baseline: the uncorrupted run fixes the expected exit code and the
    # instruction count over which injection points are stratified.
    kernel = Kernel(build_system(profile))
    process = kernel.create_process(image, name="inject-victim")
    kernel.run(process, max_instructions=max_instructions)
    if process.state.value != "exited":
        raise ReplayError(f"baseline victim did not exit cleanly: "
                          f"{process.status()}")
    baseline_exit = process.exit_code
    total = kernel.system.core.instret
    report = CampaignResult(baseline_exit=baseline_exit,
                            total_instructions=total)

    triggers = sorted({max(1, total * i // (points + 1))
                       for i in range(1, points + 1)})
    variants_by_kind = {"pte-key": len(KEY_FLIPS), "pte-writable": 1,
                        "allowlist-ptr": len(POINTER_TARGETS)}
    for trigger in triggers:
        snap = _run_to(image, trigger, profile=profile,
                       max_instructions=max_instructions)
        for kind in kinds:
            for variant in range(variants_by_kind[kind]):
                record = _inject_and_run(snap, image, kind, variant,
                                         baseline_exit, max_instructions)
                report.records.append(record)
                if _OBS.enabled:
                    _OBS.events.emit(
                        "inject.verdict", kind=kind,
                        trigger=record.trigger, target=record.target,
                        outcome=record.outcome)
                    if _OBS.audit is not None:
                        _OBS.audit.append(
                            "inject.verdict", kind=kind,
                            trigger=record.trigger, target=record.target,
                            outcome=record.outcome,
                            exit_code=record.exit_code,
                            signal=record.signal)
                if log is not None:
                    log(f"[{len(report.records):>3}] {kind:<14} "
                        f"@{record.trigger:<8} -> {record.outcome:<8} "
                        f"{record.detail}")
    if _OBS.enabled and _OBS.audit is not None:
        # The campaign summary is the record auditors care about: the
        # detection table's bottom line, sealed into the chain.
        _OBS.audit.append("inject.campaign",
                          injections=report.injections,
                          escapes=len(report.escapes), ok=report.ok,
                          baseline_exit=baseline_exit,
                          total_instructions=total)
    return report
