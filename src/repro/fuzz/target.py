"""Parameterized fuzz victims: the mutable half of a fuzz input.

Every injection in this repo runs against a :class:`VictimSpec` victim.
Each spec describes a hardened program over the same attack surface —
a keyed vtable (``obj``), a keyed GFPT slot (``fp_slot``), a hijack
marker (``pwned``) and an attacker-controlled decoy buffer — but varies
how many rounds run, how many keyed loads each round performs, how much
plain arithmetic pads the rounds apart, and whether the rounds are
unrolled straight-line code or a real counted loop (loops are what
drive the tier-2/4 compilers, so loop specs exercise keyed loads
*inside* compiled regions). ``roload-inject`` uses the default shape,
``VictimSpec(reps=n)``: ``n`` unrolled vcall+icall rounds. The fuzzer
mutates every field.

Specs are value objects: bounded, normalizable, hashable — the corpus
and the warm-snapshot pools key on them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

from repro.errors import ReplayError

# What the victim's three functions return: the vtable target, the
# GFPT target, and the gadget an escaped hijack reaches.
BENIGN_VCALL = 13
BENIGN_ICALL = 29
GADGET_RETURN = 66

# Inclusive bounds per spec field; mutation clamps into these.
REPS_RANGE = (1, 40)
CALLS_RANGE = (0, 3)      # vcalls / icalls per round
ARITH_RANGE = (0, 48)     # filler add-immediates per round

# Unrolled victims replicate the round body, and every temp lands in
# the frame, whose 12-bit stack offsets top out at 2 KiB. Loops reuse
# one round body, so only they get the full REPS_RANGE; unrolled reps
# are shrunk until the estimated frame-slot count fits.
UNROLLED_SLOT_BUDGET = 100


def _round_slots(vcalls: int, icalls: int, arith: int) -> int:
    """Frame temps one round body allocates (2 per vcall, 3 per icall
    counting the loaded pointer, 1 per add-immediate, plus slack)."""
    return 2 * vcalls + 3 * icalls + arith + 2


@dataclass(frozen=True)
class VictimSpec:
    """Shape of one hardened fuzz victim."""

    reps: int = 8         # rounds (loop iterations or unrolled copies)
    loop: bool = False    # counted loop instead of straight-line unroll
    vcalls: int = 1       # keyed vtable calls per round
    icalls: int = 1       # keyed GFPT calls per round
    arith: int = 0        # plain add-immediates per round

    def normalized(self) -> "VictimSpec":
        """Clamp every field into bounds; keep at least one keyed load
        per round (a victim with no keyed loads has no attack surface)."""
        reps = min(max(self.reps, REPS_RANGE[0]), REPS_RANGE[1])
        vcalls = min(max(self.vcalls, CALLS_RANGE[0]), CALLS_RANGE[1])
        icalls = min(max(self.icalls, CALLS_RANGE[0]), CALLS_RANGE[1])
        arith = min(max(self.arith, ARITH_RANGE[0]), ARITH_RANGE[1])
        if vcalls + icalls == 0:
            vcalls = 1
        if not self.loop:
            budget = UNROLLED_SLOT_BUDGET \
                // _round_slots(vcalls, icalls, arith)
            reps = min(reps, max(1, budget))
        return VictimSpec(reps=reps, loop=bool(self.loop),
                          vcalls=vcalls, icalls=icalls, arith=arith)

    def key(self) -> "Tuple":
        return (self.reps, self.loop, self.vcalls, self.icalls,
                self.arith)

    def to_dict(self) -> dict:
        return {"reps": self.reps, "loop": self.loop,
                "vcalls": self.vcalls, "icalls": self.icalls,
                "arith": self.arith}

    @classmethod
    def from_dict(cls, data: dict) -> "VictimSpec":
        return cls(reps=data.get("reps", 8),
                   loop=bool(data.get("loop", False)),
                   vcalls=data.get("vcalls", 1),
                   icalls=data.get("icalls", 1),
                   arith=data.get("arith", 0)).normalized()

    def replace(self, **changes) -> "VictimSpec":
        return replace(self, **changes).normalized()


def unrolled_spec(reps: int) -> VictimSpec:
    """``VictimSpec(reps=reps)``, refusing a ``reps`` that normalization
    would change rather than running a different victim."""
    spec = VictimSpec(reps=reps)
    if spec.normalized() != spec:
        bound = VictimSpec(reps=REPS_RANGE[1]).normalized().reps
        raise ReplayError(f"reps {reps} is outside the unrolled victim's "
                          f"bound: choose 1 to {bound}")
    return spec


def build_victim(spec: VictimSpec):
    """The victim module for ``spec``: keyed vtable + keyed GFPT +
    pwned marker + attacker_buf decoy."""
    from repro.compiler import (GlobalVar, I64, IRBuilder, Module, Mv,
                                VTable, func_type, static_object)
    spec = spec.normalized()
    sig = func_type(ret=I64)
    m = Module("fuzz-victim")

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

    def round_body(acc):
        for _ in range(spec.vcalls):
            acc = b.add(acc, b.vcall(obj, 0, "Benign", func_type=sig))
        for _ in range(spec.icalls):
            fptr = b.load_fptr(slot, sig)
            acc = b.add(acc, b.icall(fptr, func_type=sig))
        for k in range(spec.arith):
            acc = b.addi(acc, (k % 5) + 1)
        return acc

    obj = b.la("obj")
    slot = b.la("fp_slot")
    if spec.loop:
        # The generator's phi-less loop idiom: loop-carried values live
        # in fixed temps overwritten with explicit Mv at the bottom.
        acc0 = b.li(0)
        zero = b.li(0)
        counter = b.li(spec.reps)
        loop = b.fresh_label("loop")
        done = b.fresh_label("done")
        b.label(loop)
        b.cbr("eq", counter, zero, done)
        acc = round_body(acc0)
        main.ops.append(Mv(acc0, acc))
        step = b.addi(counter, -1)
        main.ops.append(Mv(counter, step))
        b.br(loop)
        b.label(done)
        b.ret(acc0)
    else:
        acc = b.li(0)
        for _ in range(spec.reps):
            acc = round_body(acc)
        b.ret(acc)
    return m


def build_image(spec: VictimSpec):
    """The hardened executable (vcall protection + GFPT CFI)."""
    from repro.compiler import compile_module
    from repro.defenses import TypeBasedCFI, VCallProtection
    return compile_module(build_victim(spec),
                          hardening=[VCallProtection(), TypeBasedCFI()])
