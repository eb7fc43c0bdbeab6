"""Flat core: compiled units lowered to pre-decoded arrays, no compile().

The only compiled backend. Tier 2 lowers one hot basic block as a
one-member, non-loop plan (:func:`compile_block`); the tier-4 region
tier plans superblocks over the tier-2 edge profile (repro.cpu.regions)
and lowers each plan (:func:`compile_region`). Either way nothing is
generated as code: every member instruction becomes one or more
entries in parallel integer arrays — opcode, rd/rs1/rs2, folded
immediates, and static per-site catch-up metadata — executed by one
shared dispatch loop, the native runner (``_flatcore_native.c``, built
at import by repro.cpu.native).

* lowering is pure data manipulation, but not free: one 41-execution
  guided fuzz campaign lowers 599 blocks (16,680 instructions) in
  about 88 ms on a shared 2-CPU Xeon host, ~150 us per block or ~5 us
  per instruction, 15% of the campaign's wall time. Tier 2 lowers
  every block on its first dispatch, so :func:`_lower` is paid once
  for every block a run reaches; that still costs less than the tier-1
  replays it replaces;
* the register file is ``core.regs`` indexed by pre-decoded operand
  numbers, stored back before every callout, exit and raise, so the
  architectural file is current when a fault propagates;
* branch/jump penalty cycles and muldiv latency are *statically
  deferred*: the lowering records cumulative penalty counts per site
  (``BP``/``MU``) exactly like the retire counter (``NI``), so the
  runner does not touch ``stats`` at all between syncs;
* deferred retire catch-up, deferred I-fetch hit credit (``PQ``), LRU
  change-lists replayed deduplicated by last occurrence (replay is
  invariant under collapsing consecutive duplicates, so the
  reconstructed order is the eager order), D-hit counters drained at
  exits and raises only, last-page cached frame views behind a
  page+alignment guard, warm-loop I-probe elision with rotation-table
  replay (``IRT``), side exits, the ``_block_abort`` SMC deopt, and the
  loop backedge budget check (so ``step_block(limit)`` never overshoots
  and the snapshot machinery's exact-pause contract holds).

``ld.ro`` (the ROLoad family) is never cached: every execution syncs
and takes the full ``Core.load`` -> ``MMU.translate`` path so the
read-only + key check actually runs (DESIGN.md paragraph 8), then drops
the cached views. Lowered blocks and regions are invalidated by
``Core._flush_blocks`` together with the tier-1 blocks.

Lowering (:func:`_lower`) and binding (:func:`bind`) are separate
steps: a :class:`Lowered` value depends on the code and on the inputs
named by :func:`lowering_key`, never on one core, so forks of one warm
snapshot share it and only bind (repro.cpu.translations). Binding makes
a native unit that holds the core; generic sites, ``ld.ro`` and the
eager ``Core.load``/``Core.store`` paths call back into Python, except
the D-TLB refills the runner serves itself (DESIGN.md §13.1). Where the
extension cannot be built, :func:`runner` reads ``"none"`` and the core
runs tiers 0 and 1 only; there is no switch (DESIGN.md §13.1).

Array layout (parallel, one slot per stream entry, packed in this
order as the uint64 columns of ``Lowered.PACKED``):

====  =====================================================
OPS   opcode (dispatch index; the ``OP_*`` constants below)
A     rd / handler slot / cond code / set index / width
B     rs1
C     rs2 / packed width|signed
IM    folded immediate / exit pc / line / vpn / key
X     expected branch direction / next pc / link / signed
NI    instructions retired before this site (static)
BP    penalty cycles charged before this site (static)
MU    muldiv cycles charged before this site (static)
PQ    fetch-line touches before+incl this site (static)
JX    warm-replay exit index at this site (static)
PCA   architectural pc at this site (sync sites)
====  =====================================================

Bit-identity is enforced by the differential suite
(tests/test_fastpath_equivalence.py): slow, tier1 and tier4, and tier 4
with regions held off (single tier-2 blocks only), all produce
identical architectural state, counters included.
"""

from __future__ import annotations

from array import array
from typing import NamedTuple

from repro.cpu import native
from repro.cpu.regions import (
    DEFER,
    MAX_REGION_ENTRIES,
    JITBlock,
    Region,
    _Member,
    _Plan,
    _plan,
)
from repro.cpu.trap import Cause, Trap
from repro.isa.opcodes import INLINE_MULDIV, LOAD_INFO, RO_INFO, STORE_INFO
from repro.utils.bits import sext, to_u64

_M64 = 0xFFFFFFFFFFFFFFFF
_H63 = 0x8000000000000000

# Alternate-entry heads defer (``DEFER``) until arrivals cross
# DEFER_FACTOR times the region threshold: past that the phase-shifted
# cycle really does execute without passing the live region's head,
# and lowering is cheap enough that the second copy pays after a few
# passes.
DEFER_FACTOR = 8

# The native runner module, or None where it could not be built: then
# nothing is lowered, because repro.cpu.core turns tier 4 off.
_native = native.load()
if _native is not None:
    _native.setup(Trap, Cause.LOAD_PAGE_FAULT, Cause.STORE_PAGE_FAULT)


def runner() -> str:
    """What runs bound units: ``"native"``, or ``"none"`` where the
    extension could not be built (:data:`repro.cpu.native.failure` says
    why) and the core runs tiers 0 and 1 only."""
    return "none" if _native is None else "native"


# Opcodes. The runner's ``switch`` in ``_flatcore_native.c`` uses the
# literal ints; keep this table and its case comments in sync.
OP_ADDI = 1
OP_LD8 = 2
OP_ADD = 3
OP_ST8 = 4
OP_IPROBE = 5
OP_BNE = 6
OP_BEQ = 7
OP_BLT = 8
OP_BGE = 9
OP_BLTU = 10
OP_BGEU = 11
OP_LD4S = 12
OP_LD1U = 13
OP_LDW = 14       # generic sub-8 load; C = width | signed << 8
OP_ST4 = 15
OP_ST1 = 16
OP_STW = 17       # generic sub-8 store; A = width
OP_CONST = 18     # lui/auipc, folded
OP_ANDI = 19
OP_ORI = 20
OP_XORI = 21
OP_SLLI = 22
OP_SRLI = 23
OP_SRAI = 24
OP_SLTI = 25      # IM = to_u64(imm) ^ H63
OP_SLTIU = 26
OP_ADDIW = 27
OP_SUB = 28
OP_AND = 29
OP_OR = 30
OP_XOR = 31
OP_SLL = 32
OP_SRL = 33
OP_SRA = 34
OP_SLT = 35
OP_SLTU = 36
OP_ADDW = 37
OP_SUBW = 38
OP_MUL = 39
OP_MULW = 40
OP_SLLIW = 41
OP_SRLIW = 42
OP_SRAIW = 43
OP_SLLW = 44
OP_SRLW = 45
OP_SRAW = 46
OP_JAL = 47       # mid-trace link write (rd != 0); penalty is static
OP_BACKEDGE = 48
OP_MEMCHK = 49
OP_HEADCHK = 50
OP_ROLOAD = 51
OP_GEN = 52
OP_LD_EAGER = 53
OP_ST_EAGER = 54
OP_RET = 55       # epilogue after a final alu/load/store/roload
OP_BR_F = 56
OP_JAL_F = 57
OP_JALR_F = 58
OP_GEN_F = 59

_IMM_OPS = {
    # name -> (opcode, immediate folding)
    "addi": (OP_ADDI, "raw"),
    "andi": (OP_ANDI, "u64"),
    "ori": (OP_ORI, "u64"),
    "xori": (OP_XORI, "u64"),
    "slli": (OP_SLLI, "raw"),
    "srli": (OP_SRLI, "raw"),
    "srai": (OP_SRAI, "raw"),
    "slti": (OP_SLTI, "sx"),
    "sltiu": (OP_SLTIU, "u64"),
    "addiw": (OP_ADDIW, "raw"),
    "slliw": (OP_SLLIW, "raw"),
    "srliw": (OP_SRLIW, "raw"),
    "sraiw": (OP_SRAIW, "raw"),
}

_REG_OPS = {
    "add": OP_ADD, "sub": OP_SUB, "and": OP_AND, "or": OP_OR,
    "xor": OP_XOR, "sll": OP_SLL, "srl": OP_SRL, "sra": OP_SRA,
    "slt": OP_SLT, "sltu": OP_SLTU, "addw": OP_ADDW, "subw": OP_SUBW,
    "sllw": OP_SLLW, "srlw": OP_SRLW, "sraw": OP_SRAW,
    "mul": OP_MUL, "mulw": OP_MULW,
}

_BR_MID = {"beq": OP_BEQ, "bne": OP_BNE, "blt": OP_BLT, "bge": OP_BGE,
           "bltu": OP_BLTU, "bgeu": OP_BGEU}
_BR_CODE = {"beq": 0, "bne": 1, "blt": 2, "bge": 3, "bltu": 4, "bgeu": 5}

_LD_OPS = {(8, True): OP_LD8, (4, True): OP_LD4S, (1, False): OP_LD1U}
_ST_OPS = {8: OP_ST8, 4: OP_ST4, 1: OP_ST1}


def _classify(name):
    """Lowering kind of a mnemonic; "generic" runs its core handler."""
    if name in _IMM_OPS or name in _REG_OPS or name in ("lui", "auipc"):
        return "alu"
    if name in LOAD_INFO:
        return "load"
    if name in STORE_INFO:
        return "store"
    if name in RO_INFO:
        return "roload"
    if name in _BR_CODE:
        return "branch"
    if name in ("jal", "jalr"):
        return name
    return "generic"


class Lowered(NamedTuple):
    """One lowered unit as a core-independent value.

    Everything :func:`bind` needs to rebuild the unit on any core whose
    :func:`lowering_key` matches the one it was lowered under: the unit
    shape, the code pages it was decoded from, the generic-site
    handlers and the twelve parallel arrays, packed into ``PACKED`` for
    the native runner. It holds no core, frame or closure — the
    generic-site handlers in ``GH`` are the module-level ones of
    repro.cpu.core — so forks of one warm snapshot share it
    (repro.cpu.translations); the bound native unit holds the core.
    """

    region: bool
    n: int              # instructions retired per full pass
    head_pc: int
    loop: bool
    pages: tuple        # ((vpn, ppn), ...) member code pages, head first
    end_pc: int         # tier-2 block: next pc of the final entry
    pcs: tuple          # region member start pcs, trace order
    spans: tuple        # region member (start, end) pc ranges
    dside: bool
    GH: tuple
    BPT: int
    MUT: int
    PQT: int
    IRT: tuple
    ILINES: tuple
    PACKED: bytes       # OPS A B C IM X NI BP MU PQ JX PCA, uint64 columns


def _dside(core) -> bool:
    """Whether loads and stores lower to the flat D-side fast path."""
    mmu = core.mmu
    return getattr(mmu, "dtlb", None) is not None and not mmu.bare


def lowering_key(core) -> tuple:
    """Every core input a lowered unit or tier-1 recipe bakes in:
    timing parameters, I-cache geometry, the D-side flag, and whether
    the core implements ``ld.ro`` (block boundaries depend on it)."""
    icache = core.icache
    geometry = None if icache is None else \
        (icache.line_shift, icache.num_sets)
    return (core.timing.params, geometry, _dside(core), core.roload_enabled)


def bind(core, lowered):
    """A runnable unit (:class:`JITBlock` or :class:`Region`) of
    ``lowered`` on ``core``."""
    fn = _bind(core, lowered)
    vpn = lowered.pages[0][0]
    if lowered.region:
        return Region(fn, lowered.n, vpn, lowered.head_pc, lowered.pcs,
                      lowered.loop, lowered.spans, lowered)
    return JITBlock(fn, lowered.n, vpn, lowered.head_pc, lowered.end_pc,
                    lowered)


def compile_block(core, block, start_pc):
    """Lower a hot tier-1 block to a :class:`JITBlock` (tier 2).

    A single block is a one-member, non-loop plan, run by the same
    dispatch loop as a region. A block longer than
    ``MAX_REGION_ENTRIES`` lowers only a prefix: control flow never
    leaves a straight line mid-block, so the prefix's fall-through pc
    is exact and the dispatch loop grows (and eventually lowers) the
    suffix as an ordinary block of its own.
    """
    entries = block[0][:MAX_REGION_ENTRIES]
    plan = _Plan(start_pc, (_Member(start_pc, entries, block[1]),), False)
    return bind(core, _lower(core, plan, False))


def compile_region(core, head_pc, arrivals=0):
    """Plan and lower a flat region anchored at ``head_pc``.

    Returns None when no viable region exists (the caller pins the pc
    so profiling does not retry it until the next flush), or ``DEFER``
    (the regions sentinel — the trampoline compares identity) for a
    lukewarm alternate entry of an already-lowered region.
    """
    # Overlap suppression: a head lying inside the instruction range of
    # a live region is an alternate entry split of code that is already
    # lowered (block splitting gives the same loop several head pcs).
    # Most such heads re-enter the live region within one pass and
    # never get hot; deferral keeps them in tier 2 meanwhile.
    if arrivals < core.region_threshold * DEFER_FACTOR:
        for region in core._regions.values():
            if region.covers(head_pc):
                return DEFER
    plan = _plan(core, head_pc)
    if plan is None:
        return None
    return bind(core, _lower(core, plan, True))


def _lower(core, plan, region):
    """Flatten a plan into the parallel arrays of a :class:`Lowered`."""
    # Generic sites run the module-level handler of their mnemonic, so
    # the value holds no closure. Imported here: repro.cpu.core imports
    # this module.
    from repro.cpu.core import _HANDLERS
    members = plan.members
    head_pc = plan.head_pc
    params = core.timing.params
    tbp = params.taken_branch_penalty
    jp = params.jump_penalty
    icache = core.icache
    dside = _dside(core)
    multi_page = len({m.vpn for m in members}) > 1
    warm_mach = plan.loop and icache is not None
    if icache is not None:
        ishift = icache.line_shift
        imask = icache.num_sets - 1

    ops = []
    aa = []
    bb = []
    cc = []
    im = []
    xx = []
    ni = []
    bp = []
    mu = []
    pq = []
    jx = []
    pca = []
    gh = []             # (handler, insn) pairs for generic sites
    k = 0               # architectural instruction index
    bpc = 0             # cumulative penalty cycles (branch/jump)
    muc = 0             # cumulative muldiv cycles
    pcum = 0            # cumulative fetch-line touches
    last_line = None
    isite_seq = []      # static per-iteration line sequence (changes)

    def emit(op, a=0, b=0, c=0, imv=0, x=0, pc=0):
        ops.append(op)
        aa.append(a)
        bb.append(b)
        cc.append(c)
        im.append(imv)
        xx.append(x)
        ni.append(k)
        bp.append(bpc)
        mu.append(muc)
        pq.append(pcum)
        jx.append(len(isite_seq))
        pca.append(pc)

    if plan.loop and multi_page:
        # Loop-top head-page check: later members can evict the head
        # page from the fetch cache on capacity; exit bare (everything
        # is drained at the loop top after a backedge).
        emit(OP_HEADCHK, imv=members[0].vpn, x=head_pc)

    flat = []
    gi = 0
    for m in members:
        for j, e in enumerate(m.entries):
            flat.append((m, j, gi, e))
            gi += 1

    prev_vpn = members[0].vpn
    for m, j, i, (_, insn, pc, next_pc, paddr, paddr2) in flat:
        kind = _classify(insn.name)
        member_last = j == len(m.entries) - 1
        final = member_last and not m.inline_next and not m.backedge
        if kind in ("branch", "jal", "jalr") and not member_last:
            raise ValueError("control flow before member end")
        if j == 0 and i and m.vpn != prev_vpn:
            # Member page transition whose code page fell out of the
            # fetch cache: exit to the trampoline, whose own recheck
            # retranslates identically and resumes at this pc through
            # the member's tier-2 block.
            emit(OP_MEMCHK, imv=m.vpn, x=pc)
        if j == 0:
            prev_vpn = m.vpn
        if icache is not None:
            for pa in (paddr,) if paddr2 is None else (paddr, paddr2):
                line = pa >> ishift
                pcum += 1
                if line != last_line:
                    emit(OP_IPROBE, a=line & imask, imv=line)
                    isite_seq.append(line)
                    last_line = line

        if kind == "alu":
            name = insn.name
            if insn.rd:
                if name == "lui":
                    emit(OP_CONST, a=insn.rd,
                         imv=to_u64(sext(insn.imm << 12, 32)))
                elif name == "auipc":
                    emit(OP_CONST, a=insn.rd,
                         imv=to_u64(pc + sext(insn.imm << 12, 32)))
                elif name in _IMM_OPS:
                    op, fold = _IMM_OPS[name]
                    v = insn.imm
                    if fold == "u64":
                        v = to_u64(v)
                    elif fold == "sx":
                        v = to_u64(v) ^ _H63
                    emit(op, a=insn.rd, b=insn.rs1, imv=v)
                else:
                    emit(_REG_OPS[name], a=insn.rd, b=insn.rs1,
                         c=insn.rs2)
            # rd == x0: the op is architecturally a no-op (registers
            # never change; retire/cycles ride the static counters) —
            # elide the entry entirely. Muldiv latency still charges.
            k += 1
            if name in INLINE_MULDIV:
                muc += params.mul_latency
            if final:
                emit(OP_RET, x=next_pc)

        elif kind == "load":
            width, signed = LOAD_INFO[insn.name]
            if not dside:
                emit(OP_LD_EAGER, a=insn.rd, b=insn.rs1, c=width,
                     imv=insn.imm, x=signed, pc=pc)
            elif (width, signed) in _LD_OPS:
                emit(_LD_OPS[(width, signed)], a=insn.rd, b=insn.rs1,
                     imv=insn.imm, pc=pc)
            else:
                emit(OP_LDW, a=insn.rd, b=insn.rs1,
                     c=width | (0x100 if signed else 0),
                     imv=insn.imm, pc=pc)
            k += 1
            if final:
                emit(OP_RET, x=next_pc)

        elif kind == "roload":
            width, signed = RO_INFO[insn.name]
            emit(OP_ROLOAD, a=insn.rd, b=insn.rs1, c=width,
                 imv=insn.key, x=signed, pc=pc)
            k += 1
            if final:
                emit(OP_RET, x=next_pc)

        elif kind == "store":
            width = STORE_INFO[insn.name]
            if not dside:
                emit(OP_ST_EAGER, a=width, b=insn.rs1, c=insn.rs2,
                     imv=insn.imm, x=next_pc, pc=pc)
            elif width in _ST_OPS:
                emit(_ST_OPS[width], b=insn.rs1, c=insn.rs2,
                     imv=insn.imm, x=next_pc, pc=pc)
            else:
                emit(OP_STW, a=width, b=insn.rs1, c=insn.rs2,
                     imv=insn.imm, x=next_pc, pc=pc)
            k += 1
            if final:
                emit(OP_RET, x=next_pc)

        elif kind == "branch":
            if final:
                emit(OP_BR_F, a=_BR_CODE[insn.name], b=insn.rs1,
                     c=insn.rs2, imv=m.taken_pc, x=m.fall_pc)
                k += 1
            else:
                # Specialize on the profiled direction: the cold side
                # becomes a guarded side exit (X = expected cond).
                target = m.fall_pc if m.chosen_taken else m.taken_pc
                emit(_BR_MID[insn.name], b=insn.rs1, c=insn.rs2,
                     imv=target, x=1 if m.chosen_taken else 0)
                k += 1
                if m.chosen_taken:
                    bpc += tbp

        elif kind == "jal":
            if final:
                emit(OP_JAL_F, a=insn.rd, imv=to_u64(pc + insn.imm),
                     x=pc + insn.length)
                k += 1
            else:
                if insn.rd:
                    emit(OP_JAL, a=insn.rd, imv=pc + insn.length)
                k += 1
                bpc += jp

        elif kind == "jalr":
            emit(OP_JALR_F, a=insn.rd, b=insn.rs1, imv=insn.imm,
                 x=pc + insn.length)
            k += 1

        else:   # generic
            slot = len(gh)
            gh.append((_HANDLERS[insn.name], insn))
            emit(OP_GEN_F if final else OP_GEN, a=slot, x=next_pc,
                 pc=pc)
            k += 1

        if member_last and m.backedge:
            emit(OP_BACKEDGE)

    if k != plan.n:
        raise ValueError("lowered instruction count mismatch")

    if warm_mach:
        msites = len(isite_seq)
        irt = []
        for j in range(msites + 1):
            order = isite_seq[j:] + isite_seq[:j]
            irt.append(tuple(reversed(dict.fromkeys(reversed(order)))))
        irt = tuple(irt)
        ilines = tuple(dict.fromkeys(isite_seq))
    else:
        irt = ()
        ilines = ()

    pages = tuple(dict.fromkeys((m.vpn, m.entries[0][4] >> 12)
                                for m in members))
    packed = array("Q", ops)
    for column in (aa, bb, cc, [v & _M64 for v in im], xx, ni, bp, mu, pq,
                   jx, pca):
        packed.extend(column)
    return Lowered(
        region, plan.n, head_pc, plan.loop, pages,
        0 if region else members[-1].entries[-1][3],
        tuple(m.pc for m in members) if region else (),
        tuple((m.pc, m.entries[-1][2] + 4) for m in members)
        if region else (),
        dside, tuple(gh), bpc, muc, pcum, irt, ilines, packed.tobytes())


def _bind(core, lowered):
    """The native unit that runs ``lowered`` on ``core``: a budget ->
    next-pc callable holding the core objects the runner reads and
    calls back into. It reaches the core itself through a weak
    reference, and calls the methods of the core's class with the core
    as their first argument, so the units a core caches hold no
    reference to it."""
    dside = lowered.dside
    mmu = core.mmu
    cls = type(core)
    if dside:
        dside_state = (mmu.dtlb, core._jload_memo, core._jstore_memo,
                       core.memory, mmu._walk_memo, core.mmio)
    else:
        dside_state = (None,) * 6
    return _native.bind(
        core, lowered.PACKED, lowered.GH, lowered.IRT, lowered.ILINES,
        lowered.n, lowered.head_pc, lowered.loop, dside, lowered.BPT,
        lowered.MUT, lowered.PQT, core.timing.params, mmu,
        core.timing.stats, cls.load, cls.store, core.icache,
        core.dcache if dside else None, *dside_state, core._fetch_pages,
        core._code_frames)
