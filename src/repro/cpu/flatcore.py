"""Flat core: compiled units lowered to pre-decoded arrays, no compile().

The only compiled backend. Tier 2 lowers one hot basic block as a
one-member, non-loop plan (:func:`compile_block`); the tier-4 region
tier plans superblocks over the tier-2 edge profile (repro.cpu.regions)
and lowers each plan (:func:`compile_region`). Either way nothing is
generated as code: every member instruction becomes one or more
entries in parallel integer arrays — opcode-handler index, rd/rs1/rs2, folded
immediates, and static per-site catch-up metadata — executed by one
shared dispatch loop (``_run``) whose hot state lives in function
locals.

* zero compile cost: lowering is pure data manipulation (a few us per
  region), so duplicate alternate-entry heads are worth lowering after
  few arrivals (``DEFER_FACTOR``) and region coverage regrows quickly
  after every flush — and in every freshly forked session;
* the register file is the live ``core.regs`` list indexed by
  pre-decoded operand numbers — no per-region register locals, no
  flush on exit, and the architectural file is always current when a
  fault propagates (the ``except`` repair only drains counters);
* branch/jump penalty cycles and muldiv latency are *statically
  deferred*: the lowering records cumulative penalty counts per site
  (``BP``/``MU``) exactly like the retire counter (``NI``), so the hot
  loop does not touch ``stats`` at all between syncs;
* deferred retire catch-up (``fc``), deferred I-fetch hit credit
  (``PQ``/``pf``), LRU change-lists replayed by ``_lf`` (dedup-by-last:
  replay is invariant under collapsing consecutive duplicates, so the
  reconstructed order is the eager order), numeric D-hit counters
  (``dh``/``ch``) drained at exits and raises only, last-page cached
  frame views behind a page+alignment guard, warm-loop I-probe elision
  with rotation-table replay (``_IRT``), side exits, the
  ``_block_abort`` SMC deopt, and the loop backedge budget check (so
  ``step_block(limit)`` never overshoots and the snapshot machinery's
  exact-pause contract holds).

``ld.ro`` (the ROLoad family) is never cached: every execution syncs
and takes the full ``Core.load`` -> ``MMU.translate`` path so the
read-only + key check actually runs (DESIGN.md paragraph 8), then drops
the cached views. Lowered blocks and regions are invalidated by
``Core._flush_blocks`` together with the tier-1 blocks.

Lowering (:func:`_lower`) and binding (:func:`bind`) are separate
steps: a :class:`Lowered` value depends on the code and on the inputs
named by :func:`lowering_key`, never on one core, so forks of one warm
snapshot share it and only bind (repro.cpu.translations).

Two runners execute a bound unit. The native runner
(``_flatcore_native.c``, built at import by repro.cpu.native) runs this
same dispatch ladder in C over ``Lowered.PACKED``, the arrays below
packed as uint64 columns; generic sites, ``ld.ro`` and the eager
``Core.load``/``Core.store`` paths call back into Python. The Python
loop (``_run`` in :func:`_bind_python`) is the reference, and it runs
wherever the extension cannot be built. :func:`runner` names the one in
use; there is no switch (DESIGN.md §13.1).

Array layout (parallel, one slot per stream entry):

====  =====================================================
OPS   opcode (dispatch ladder index; literals in ``_run``)
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

Bit-identity is enforced by the four-way differential suite
(tests/test_fastpath_equivalence.py): slow/tier1/tier2/tier4 all
produce identical architectural state, counters included.
"""

from __future__ import annotations

import sys
from array import array
from typing import NamedTuple

from repro import config as _config
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

# The flat cached-view arms index little-endian "Q" casts; big-endian
# hosts fall back to the eager (architectural) path for every access.
_NATIVE_LE = sys.byteorder == "little"

# "No value yet" marker for the load arms (0 and -1 are real values).
_S = object()

# The native runner module, or None where it could not be built: then
# every unit runs the Python loop.
_native = native.load()
if _native is not None:
    _native.setup(Trap, Cause.LOAD_PAGE_FAULT, Cause.STORE_PAGE_FAULT)


def runner() -> str:
    """Which loop runs bound units: ``"native"`` or ``"python"``."""
    return "python" if _native is None else "native"


# Opcodes. The dispatch ladder in _run tests literal ints (locals or
# globals would cost a LOAD per test); keep this table and the ladder
# comments in sync. Ordered roughly hottest-first.
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
    shape, the code pages it was decoded from, and the parallel arrays
    (``DC`` is the packed ``zip(OPS, A, B, C, IM, X)`` the Python loop
    reads; ``PACKED`` holds all twelve arrays as uint64 columns for the
    native runner). It holds no core, frame or closure — the
    generic-site handlers in ``GH`` are the module-level ones of
    repro.cpu.core — so forks of one warm snapshot share it
    (repro.cpu.translations).
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
    DC: tuple
    NI: tuple
    BP: tuple
    MU: tuple
    PQ: tuple
    JX: tuple
    PCA: tuple
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
    return bool(core._dside_cap) and getattr(mmu, "dtlb", None) is not None \
        and not mmu.bare and _NATIVE_LE


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
    suffix as an ordinary block of its own. Returns None when lowering
    fails (the caller pins the pc to tier 1).
    """
    entries = block[0][:MAX_REGION_ENTRIES]
    plan = _Plan(start_pc, (_Member(start_pc, entries, block[1]),), False)
    return _try_lower(core, plan, False)


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
    return _try_lower(core, plan, True)


def _try_lower(core, plan, region):
    """:func:`_lower` and :func:`bind`, or None on failure (re-raised
    under jit_debug)."""
    try:
        return bind(core, _lower(core, plan, region))
    except Exception:
        if _config.current().jit_debug:
            raise
        return None


def _lower(core, plan, region):
    """Flatten a plan into the parallel arrays of a :class:`Lowered`."""
    # Generic sites run the module-level handler of their mnemonic, never
    # the entry's (possibly core-specialized) one, so the value holds no
    # closure. Imported here: repro.cpu.core imports this module.
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
        dside, tuple(zip(ops, aa, bb, cc, im, xx)), tuple(ni), tuple(bp),
        tuple(mu), tuple(pq), tuple(jx), tuple(pca), tuple(gh),
        bpc, muc, pcum, irt, ilines, packed.tobytes())


def _bind(core, lowered):
    """The budget -> next-pc callable that runs ``lowered`` on ``core``,
    on the native runner when it is built."""
    if _native is None:
        return _bind_python(core, lowered)
    return _bind_native(core, lowered)


def _bind_native(core, lowered):
    """Bind the native runner to the same core objects
    :func:`_bind_python` closes over."""
    dside = lowered.dside
    mmu = core.mmu
    if dside:
        dside_state = (mmu.dtlb, core._dload_pages, core._jload_memo,
                       core._jload_fill, core._dstore_pages,
                       core._jstore_memo, core._jstore_fill)
    else:
        dside_state = (None,) * 7
    return _native.bind(
        core, lowered.PACKED, lowered.GH, lowered.IRT, lowered.ILINES,
        lowered.n, lowered.head_pc, lowered.loop, dside, lowered.BPT,
        lowered.MUT, lowered.PQT, core.timing.params, mmu,
        core.timing.stats, core.load, core.store, core.icache,
        core.dcache if dside else None, *dside_state, core._fetch_pages,
        core._code_frames)


def _bind_python(core, lowered):
    """Close the Python loop over one unit's arrays and the core's
    hot state. Everything the dispatch loop touches per instruction is
    a local of ``_run`` or an argument-free closure; ``stats`` and the
    cache objects are only reached at syncs, misses, and exits."""
    NT, HEAD, LOOP, dside = \
        lowered.n, lowered.head_pc, lowered.loop, lowered.dside
    DC, NI, BP, MU, PQ, JX, PCA, GH = (
        lowered.DC, lowered.NI, lowered.BP, lowered.MU, lowered.PQ,
        lowered.JX, lowered.PCA, lowered.GH)
    BPT, MUT, PQT, IRT, ILINES = (
        lowered.BPT, lowered.MUT, lowered.PQT, lowered.IRT, lowered.ILINES)
    mmu = core.mmu
    stats = core.timing.stats
    timing = core.timing.params
    CPI = timing.base_cpi
    PEN = timing.cache_miss_penalty
    TBP = timing.taken_branch_penalty
    JP = timing.jump_penalty
    load = core.load
    store = core.store
    icache = core.icache
    dcache = core.dcache
    ICH = icache is not None
    isets = icache.line_sets if ICH else None
    IMK = icache.num_sets - 1 if ICH else 0
    IWAYS = icache.ways if ICH else 0
    use_dc = dcache is not None and dside
    dsets = dcache.line_sets if use_dc else None
    DSH = dcache.line_shift if use_dc else 0
    DMK = dcache.num_sets - 1 if use_dc else 0
    DWAYS = dcache.ways if use_dc else 0
    WARM = LOOP and ICH
    fpages = core._fetch_pages
    cframes = core._code_frames
    if dside:
        dtlb = mmu.dtlb
        tent = dtlb.entry_map
        mmu_stats = mmu.stats
        dload = core._dload_pages
        jload = core._jload_memo
        jlget = jload.get
        jlf = core._jload_fill
        dstore = core._dstore_pages
        jstore = core._jstore_memo
        jsget = jstore.get
        jsf = core._jstore_fill
    else:
        dtlb = tent = mmu_stats = None
        dload = jload = jlget = jlf = None
        dstore = jstore = jsget = jsf = None
    mv = memoryview
    LPF = Cause.LOAD_PAGE_FAULT
    SPF = Cause.STORE_PAGE_FAULT

    # Packed decode (DC): one tuple fetch + unpack per dispatch instead
    # of four to six parallel-array subscripts. The static catch-up
    # arrays (NI/BP/MU/PQ/JX/PCA) stay separate — they are only read on
    # the cold sync/exit paths.
    NSITE = len(DC)
    # Per-site inline page caches: when the shared one-entry guard
    # misses (two streams alternating pages), the site's own last
    # page is tried before the memo fill. Entries are valid only for
    # the epoch they were filled in; the epoch is bumped wherever the
    # shared guard is reset (any callout that could remap) and once
    # per trampoline entry (anything may have happened outside).
    SGB = [-1] * NSITE      # guard base (page | alignment bits)
    SPT = [None] * NSITE    # cached _lfl/_sfl view tuple
    SVP = [0] * NSITE       # vpn of the cached page
    SEP = [0] * NSITE       # epoch the entry was filled in
    EPB = [0]               # persistent epoch box (monotonic)

    # Deferred LRU replay: the lists carry MOVES only; dedup-by-last
    # replay reconstructs the eager order.
    dl = []
    dla = dl.append
    cl = []
    cla = cl.append
    il = []
    ila = il.append

    def _lf():
        if dl:
            for _k in reversed(dict.fromkeys(reversed(dl))):
                tent.move_to_end(_k)
            dl.clear()
        if cl:
            for _k in reversed(dict.fromkeys(reversed(cl))):
                dsets[_k & DMK].move_to_end(_k)
            cl.clear()
        if il:
            for _k in reversed(dict.fromkeys(reversed(il))):
                isets[_k & IMK].move_to_end(_k)
            il.clear()

    def _fl(ti, tcy, tb2, tmd, tic):
        """Drain the iteration-deferred stat accumulators. The backedge
        banks whole completed iterations here instead of touching
        ``stats`` per loop; every sync/exit/raise drains first, so any
        observer (rdcycle through a generic handler, the trampoline
        after return, a propagating trap) sees exact totals."""
        stats.instructions += ti
        stats.cycles += tcy
        if tb2:
            stats.branch_penalty_cycles += tb2
        if tmd:
            stats.muldiv_cycles += tmd
        if tic:
            icache.hits += tic

    def _dmiss(ln, wy):
        _lf()
        dcache.misses += 1
        wy[ln] = True
        if len(wy) > DWAYS:
            wy.popitem(last=False)
        stats.dcache_misses += 1
        stats.cycles += PEN

    def _imiss(line, wy, pf):
        _lf()
        icache.misses += 1
        wy[line] = True
        if len(wy) > IWAYS:
            wy.popitem(last=False)
        stats.icache_misses += 1
        stats.cycles += PEN
        return pf + 1

    def _irp(j):
        for _k in IRT[j]:
            isets[_k & IMK].move_to_end(_k)

    def _wchk():
        for _k in ILINES:
            if _k not in isets[_k & IMK]:
                return False
        return True

    def _lfl(vp, um):
        """Load-page view fill: None = eager fallback, False = fault."""
        mo = jlget(vp)
        if mo is None:
            mo = jlf(vp)
            if mo is None:
                return None
        fb, okk, oku, pp = mo
        if not (okk if um else oku):
            del dload[vp]
            del jload[vp]
            return False
        return (vp << 12, pp << 12, mv(fb).cast("Q"), fb)

    def _sfl(vp, um):
        mo = jsget(vp)
        if mo is None:
            mo = jsf(vp)
            if mo is None:
                return None
        fb, okk, oku, pp = mo
        if not (okk if um else oku):
            del dstore[vp]
            del jstore[vp]
            return False
        return (vp << 12, pp << 12, pp, mv(fb).cast("Q"), fb)

    def _sy(i, fc, bc, mc, pf):
        """Cold-path sync: pc + deferred retire/penalty/fetch catch-up
        + LRU drain, from the static per-site arrays. ch/dh stay
        deferred (no mid-region observer; callouts commute)."""
        pc = PCA[i]
        core.pc = pc
        core._current_pc = pc
        kk = NI[i]
        bv = BP[i]
        uv = MU[i]
        qv = PQ[i]
        stats.instructions += kk - fc
        stats.cycles += (kk - fc) * CPI + (bv - bc) + (uv - mc)
        if bv != bc:
            stats.branch_penalty_cycles += bv - bc
        if uv != mc:
            stats.muldiv_cycles += uv - mc
        if ICH:
            icache.hits += qv - pf
        _lf()
        return kk, bv, uv, qv, JX[i]

    def _xt(i, extra, pen, tgt, ch, dh, warm, fc, bc, mc, pf):
        """Region exit: catch the architecture up through NI[i]+extra
        (+pen penalty cycles), drain everything, replay the warm
        I-side permutation for this exit point, return the exit pc."""
        kk = NI[i] + extra
        bpd = BP[i] - bc + pen
        mud = MU[i] - mc
        stats.instructions += kk - fc
        stats.cycles += (kk - fc) * CPI + bpd + mud
        if bpd:
            stats.branch_penalty_cycles += bpd
        if mud:
            stats.muldiv_cycles += mud
        if ICH:
            icache.hits += PQ[i] - pf
        if ch:
            dcache.hits += ch
        if dh:
            dtlb.hits += dh
            mmu_stats.translations += dh
        _lf()
        if warm:
            _irp(JX[i])
        return tgt

    def _run(b):
        R = core.regs
        i = 0
        fc = 0
        bc = 0
        mc = 0
        pf = 0
        warm = False
        ip = 0
        lvb = -1
        svb = -1
        ldp = -1
        lln = -1
        dh = 0
        ch = 0
        ti = 0
        tcy = 0
        tb2 = 0
        tmd = 0
        tic = 0
        ep = EPB[0] = EPB[0] + 1
        lvp = -1
        svp = -1
        lpb = 0
        spb = 0
        spp = 0
        mql = None
        fbl = None
        mqs = None
        fbs = None
        if dside:
            gen = mmu.generation
            dok = core._dside_generation == gen
            um = not mmu.user_mode
        else:
            gen = 0
            dok = False
            um = True
        try:
            while True:
                op, ad, rb, rc, imv, xv = DC[i]

                if op == 2:   # OP_LD8
                    va = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFF
                    if va & 0xFFFFFFFFFFFFF007 == lvb:
                        if lvp != ldp:
                            dla(lvp)
                            ldp = lvp
                        dh += 1
                        of = va & 0xFFF
                        if use_dc:
                            ln = (lpb | of) >> DSH
                            if ln == lln:
                                ch += 1
                            else:
                                wy = dsets[ln & DMK]
                                if ln in wy:
                                    cla(ln)
                                    ch += 1
                                else:
                                    _dmiss(ln, wy)
                                lln = ln
                        v = mql[of >> 3]
                    else:
                        v = _S
                        if va & 0xFFFFFFFFFFFFF007 == SGB[i] \
                                and SEP[i] == ep:
                            lvb, lpb, mql, fbl = SPT[i]
                            lvp = SVP[i]
                            if lvp != ldp:
                                dla(lvp)
                                ldp = lvp
                            dh += 1
                            of = va & 0xFFF
                            if use_dc:
                                ln = (lpb | of) >> DSH
                                if ln == lln:
                                    ch += 1
                                else:
                                    wy = dsets[ln & DMK]
                                    if ln in wy:
                                        cla(ln)
                                        ch += 1
                                    else:
                                        _dmiss(ln, wy)
                                    lln = ln
                            v = mql[of >> 3]
                        elif not va & 7 and dok:
                            vp = va >> 12
                            t = _lfl(vp, um)
                            if t is not None:
                                if vp != ldp:
                                    dla(vp)
                                    ldp = vp
                                dh += 1
                                if t is False:
                                    if ti:
                                        _fl(ti, tcy, tb2, tmd, tic)
                                        ti = tcy = tb2 = tmd = tic = 0
                                    fc, bc, mc, pf, ip = \
                                        _sy(i, fc, bc, mc, pf)
                                    raise Trap(LPF, PCA[i], tval=va)
                                lvb, lpb, mql, fbl = t
                                lvp = vp
                                SGB[i] = lvb
                                SPT[i] = t
                                SVP[i] = vp
                                SEP[i] = ep
                                of = va & 0xFFF
                                if use_dc:
                                    ln = (lpb | of) >> DSH
                                    if ln == lln:
                                        ch += 1
                                    else:
                                        wy = dsets[ln & DMK]
                                        if ln in wy:
                                            cla(ln)
                                            ch += 1
                                        else:
                                            _dmiss(ln, wy)
                                        lln = ln
                                v = mql[of >> 3]
                        if v is _S:
                            if ti:
                                _fl(ti, tcy, tb2, tmd, tic)
                                ti = tcy = tb2 = tmd = tic = 0
                            fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                            lvb = svb = ldp = lln = -1
                            ep = EPB[0] = ep + 1
                            v = load(va, 8, True)
                    if ad:
                        R[ad] = v

                elif op == 4:   # OP_ST8
                    va = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFF
                    if va & 0xFFFFFFFFFFFFF007 == svb:
                        if svp != ldp:
                            dla(svp)
                            ldp = svp
                        dh += 1
                        of = va & 0xFFF
                        if cframes and spp in cframes:
                            core._flush_blocks()
                        if use_dc:
                            ln = (spb | of) >> DSH
                            if ln == lln:
                                ch += 1
                            else:
                                wy = dsets[ln & DMK]
                                if ln in wy:
                                    cla(ln)
                                    ch += 1
                                else:
                                    _dmiss(ln, wy)
                                lln = ln
                        mqs[of >> 3] = R[rc]
                    else:
                        ok = False
                        if va & 0xFFFFFFFFFFFFF007 == SGB[i] \
                                and SEP[i] == ep:
                            svb, spb, spp, mqs, fbs = SPT[i]
                            svp = SVP[i]
                            if svp != ldp:
                                dla(svp)
                                ldp = svp
                            dh += 1
                            of = va & 0xFFF
                            if cframes and spp in cframes:
                                core._flush_blocks()
                            if use_dc:
                                ln = (spb | of) >> DSH
                                if ln == lln:
                                    ch += 1
                                else:
                                    wy = dsets[ln & DMK]
                                    if ln in wy:
                                        cla(ln)
                                        ch += 1
                                    else:
                                        _dmiss(ln, wy)
                                    lln = ln
                            mqs[of >> 3] = R[rc]
                            ok = True
                        elif not va & 7 and dok:
                            vp = va >> 12
                            t = _sfl(vp, um)
                            if t is not None:
                                if vp != ldp:
                                    dla(vp)
                                    ldp = vp
                                dh += 1
                                if t is False:
                                    if ti:
                                        _fl(ti, tcy, tb2, tmd, tic)
                                        ti = tcy = tb2 = tmd = tic = 0
                                    fc, bc, mc, pf, ip = \
                                        _sy(i, fc, bc, mc, pf)
                                    raise Trap(SPF, PCA[i], tval=va)
                                svb, spb, spp, mqs, fbs = t
                                svp = vp
                                SGB[i] = svb
                                SPT[i] = t
                                SVP[i] = vp
                                SEP[i] = ep
                                of = va & 0xFFF
                                if cframes and spp in cframes:
                                    core._flush_blocks()
                                if use_dc:
                                    ln = (spb | of) >> DSH
                                    if ln == lln:
                                        ch += 1
                                    else:
                                        wy = dsets[ln & DMK]
                                        if ln in wy:
                                            cla(ln)
                                            ch += 1
                                        else:
                                            _dmiss(ln, wy)
                                        lln = ln
                                mqs[of >> 3] = R[rc]
                                ok = True
                        if not ok:
                            if ti:
                                _fl(ti, tcy, tb2, tmd, tic)
                                ti = tcy = tb2 = tmd = tic = 0
                            fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                            lvb = svb = ldp = lln = -1
                            ep = EPB[0] = ep + 1
                            store(va, 8, R[rc])
                    if core._block_abort:
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, 0, xv, ch, dh, warm,
                                   fc, bc, mc, pf)

                elif op == 1:     # OP_ADDI
                    R[ad] = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFF

                elif op == 3:   # OP_ADD
                    R[ad] = (R[rb] + R[rc]) & 0xFFFFFFFFFFFFFFFF

                elif op == 5:   # OP_IPROBE
                    if not warm:
                        ln = imv
                        wy = isets[ad]
                        if ln in wy:
                            ila(ln)
                        else:
                            pf = _imiss(ln, wy, pf)

                elif op == 7:   # OP_BEQ
                    c_ = R[rb] == R[rc]
                    if c_ != xv:
                        core.region_side_exits += 1
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, TBP if c_ else 0, imv,
                                   ch, dh, warm, fc, bc, mc, pf)

                elif op == 6:   # OP_BNE
                    c_ = R[rb] != R[rc]
                    if c_ != xv:
                        core.region_side_exits += 1
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, TBP if c_ else 0, imv,
                                   ch, dh, warm, fc, bc, mc, pf)

                elif op == 29:  # OP_AND
                    R[ad] = R[rb] & R[rc]

                elif op == 18:  # OP_CONST
                    R[ad] = imv

                elif op == 32:  # OP_SLL
                    R[ad] = (R[rb] << (R[rc] & 63)) \
                        & 0xFFFFFFFFFFFFFFFF

                elif op == 27:  # OP_ADDIW
                    R[ad] = ((((R[rb] + imv) & 0xFFFFFFFF)
                                ^ 0x80000000) - 0x80000000) \
                        & 0xFFFFFFFFFFFFFFFF

                elif op == 48:  # OP_BACKEDGE
                    # Bank the finished iteration in locals; ``stats``
                    # is only touched at syncs/exits (_fl drains).
                    d = NT - fc
                    bpd = BPT - bc
                    mud = MUT - mc
                    ti += d
                    tcy += d * CPI + bpd + mud
                    tb2 += bpd
                    tmd += mud
                    if ICH:
                        tic += PQT - pf
                    if dl or cl or il:
                        _lf()
                    if WARM and not warm:
                        warm = _wchk()
                    fc = 0
                    bc = 0
                    mc = 0
                    pf = 0
                    b -= NT
                    if b < NT:
                        _fl(ti, tcy, tb2, tmd, tic)
                        if ch:
                            dcache.hits += ch
                        if dh:
                            dtlb.hits += dh
                            mmu_stats.translations += dh
                        if warm:
                            _irp(0)
                        return HEAD
                    if not dok:
                        dok = core._dside_generation == gen
                    i = 0
                    continue

                elif op == 33:  # OP_SRL
                    R[ad] = R[rb] >> (R[rc] & 63)

                elif op == 31:  # OP_XOR
                    R[ad] = R[rb] ^ R[rc]

                elif op == 28:  # OP_SUB
                    R[ad] = (R[rb] - R[rc]) & 0xFFFFFFFFFFFFFFFF

                elif op == 30:  # OP_OR
                    R[ad] = R[rb] | R[rc]

                elif op == 8:   # OP_BLT
                    c_ = (R[rb] ^ 0x8000000000000000) < \
                        (R[rc] ^ 0x8000000000000000)
                    if c_ != xv:
                        core.region_side_exits += 1
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, TBP if c_ else 0, imv,
                                   ch, dh, warm, fc, bc, mc, pf)

                elif op == 9:   # OP_BGE
                    c_ = (R[rb] ^ 0x8000000000000000) >= \
                        (R[rc] ^ 0x8000000000000000)
                    if c_ != xv:
                        core.region_side_exits += 1
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, TBP if c_ else 0, imv,
                                   ch, dh, warm, fc, bc, mc, pf)

                elif op == 10:  # OP_BLTU
                    c_ = R[rb] < R[rc]
                    if c_ != xv:
                        core.region_side_exits += 1
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, TBP if c_ else 0, imv,
                                   ch, dh, warm, fc, bc, mc, pf)

                elif op == 11:  # OP_BGEU
                    c_ = R[rb] >= R[rc]
                    if c_ != xv:
                        core.region_side_exits += 1
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, TBP if c_ else 0, imv,
                                   ch, dh, warm, fc, bc, mc, pf)

                elif op == 12:  # OP_LD4S
                    va = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFF
                    if va & 0xFFFFFFFFFFFFF003 == lvb:
                        if lvp != ldp:
                            dla(lvp)
                            ldp = lvp
                        dh += 1
                        of = va & 0xFFF
                        if use_dc:
                            ln = (lpb | of) >> DSH
                            if ln == lln:
                                ch += 1
                            else:
                                wy = dsets[ln & DMK]
                                if ln in wy:
                                    cla(ln)
                                    ch += 1
                                else:
                                    _dmiss(ln, wy)
                                lln = ln
                        w_ = (mql[of >> 3] >> ((of & 4) << 3)) \
                            & 0xFFFFFFFF
                        v = ((w_ ^ 0x80000000) - 0x80000000) \
                            & 0xFFFFFFFFFFFFFFFF
                    else:
                        v = _S
                        if va & 0xFFFFFFFFFFFFF003 == SGB[i] \
                                and SEP[i] == ep:
                            lvb, lpb, mql, fbl = SPT[i]
                            lvp = SVP[i]
                            if lvp != ldp:
                                dla(lvp)
                                ldp = lvp
                            dh += 1
                            of = va & 0xFFF
                            if use_dc:
                                ln = (lpb | of) >> DSH
                                if ln == lln:
                                    ch += 1
                                else:
                                    wy = dsets[ln & DMK]
                                    if ln in wy:
                                        cla(ln)
                                        ch += 1
                                    else:
                                        _dmiss(ln, wy)
                                    lln = ln
                            w_ = (mql[of >> 3] >> ((of & 4) << 3)) \
                                & 0xFFFFFFFF
                            v = ((w_ ^ 0x80000000) - 0x80000000) \
                                & 0xFFFFFFFFFFFFFFFF
                        elif not va & 3 and dok:
                            vp = va >> 12
                            t = _lfl(vp, um)
                            if t is not None:
                                if vp != ldp:
                                    dla(vp)
                                    ldp = vp
                                dh += 1
                                if t is False:
                                    if ti:
                                        _fl(ti, tcy, tb2, tmd, tic)
                                        ti = tcy = tb2 = tmd = tic = 0
                                    fc, bc, mc, pf, ip = \
                                        _sy(i, fc, bc, mc, pf)
                                    raise Trap(LPF, PCA[i], tval=va)
                                lvb, lpb, mql, fbl = t
                                lvp = vp
                                SGB[i] = lvb
                                SPT[i] = t
                                SVP[i] = vp
                                SEP[i] = ep
                                of = va & 0xFFF
                                if use_dc:
                                    ln = (lpb | of) >> DSH
                                    if ln == lln:
                                        ch += 1
                                    else:
                                        wy = dsets[ln & DMK]
                                        if ln in wy:
                                            cla(ln)
                                            ch += 1
                                        else:
                                            _dmiss(ln, wy)
                                        lln = ln
                                w_ = (mql[of >> 3] >> ((of & 4) << 3)) \
                                    & 0xFFFFFFFF
                                v = ((w_ ^ 0x80000000) - 0x80000000) \
                                    & 0xFFFFFFFFFFFFFFFF
                        if v is _S:
                            if ti:
                                _fl(ti, tcy, tb2, tmd, tic)
                                ti = tcy = tb2 = tmd = tic = 0
                            fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                            lvb = svb = ldp = lln = -1
                            ep = EPB[0] = ep + 1
                            v = load(va, 4, True)
                    if ad:
                        R[ad] = v

                elif op == 13:  # OP_LD1U
                    va = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFF
                    if va & 0xFFFFFFFFFFFFF000 == lvb:
                        if lvp != ldp:
                            dla(lvp)
                            ldp = lvp
                        dh += 1
                        of = va & 0xFFF
                        if use_dc:
                            ln = (lpb | of) >> DSH
                            if ln == lln:
                                ch += 1
                            else:
                                wy = dsets[ln & DMK]
                                if ln in wy:
                                    cla(ln)
                                    ch += 1
                                else:
                                    _dmiss(ln, wy)
                                lln = ln
                        v = fbl[of]
                    else:
                        v = _S
                        if va & 0xFFFFFFFFFFFFF000 == SGB[i] \
                                and SEP[i] == ep:
                            lvb, lpb, mql, fbl = SPT[i]
                            lvp = SVP[i]
                            if lvp != ldp:
                                dla(lvp)
                                ldp = lvp
                            dh += 1
                            of = va & 0xFFF
                            if use_dc:
                                ln = (lpb | of) >> DSH
                                if ln == lln:
                                    ch += 1
                                else:
                                    wy = dsets[ln & DMK]
                                    if ln in wy:
                                        cla(ln)
                                        ch += 1
                                    else:
                                        _dmiss(ln, wy)
                                    lln = ln
                            v = fbl[of]
                        elif dok:
                            vp = va >> 12
                            t = _lfl(vp, um)
                            if t is not None:
                                if vp != ldp:
                                    dla(vp)
                                    ldp = vp
                                dh += 1
                                if t is False:
                                    if ti:
                                        _fl(ti, tcy, tb2, tmd, tic)
                                        ti = tcy = tb2 = tmd = tic = 0
                                    fc, bc, mc, pf, ip = \
                                        _sy(i, fc, bc, mc, pf)
                                    raise Trap(LPF, PCA[i], tval=va)
                                lvb, lpb, mql, fbl = t
                                lvp = vp
                                SGB[i] = lvb
                                SPT[i] = t
                                SVP[i] = vp
                                SEP[i] = ep
                                of = va & 0xFFF
                                if use_dc:
                                    ln = (lpb | of) >> DSH
                                    if ln == lln:
                                        ch += 1
                                    else:
                                        wy = dsets[ln & DMK]
                                        if ln in wy:
                                            cla(ln)
                                            ch += 1
                                        else:
                                            _dmiss(ln, wy)
                                        lln = ln
                                v = fbl[of]
                        if v is _S:
                            if ti:
                                _fl(ti, tcy, tb2, tmd, tic)
                                ti = tcy = tb2 = tmd = tic = 0
                            fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                            lvb = svb = ldp = lln = -1
                            ep = EPB[0] = ep + 1
                            v = load(va, 1, False)
                    if ad:
                        R[ad] = v

                elif op == 14:  # OP_LDW (generic sub-8)
                    wd = rc & 0xFF
                    va = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFF
                    if va & (0xFFFFFFFFFFFFF000 | (wd - 1)) == lvb:
                        if lvp != ldp:
                            dla(lvp)
                            ldp = lvp
                        dh += 1
                        of = va & 0xFFF
                        if use_dc:
                            ln = (lpb | of) >> DSH
                            if ln == lln:
                                ch += 1
                            else:
                                wy = dsets[ln & DMK]
                                if ln in wy:
                                    cla(ln)
                                    ch += 1
                                else:
                                    _dmiss(ln, wy)
                                lln = ln
                        w_ = (mql[of >> 3] >> ((of & 7) << 3)) \
                            & ((1 << (wd << 3)) - 1)
                        if rc >> 8:
                            sb = 1 << ((wd << 3) - 1)
                            w_ = ((w_ ^ sb) - sb) & 0xFFFFFFFFFFFFFFFF
                        v = w_
                    else:
                        v = _S
                        if va & (0xFFFFFFFFFFFFF000 | (wd - 1)) == SGB[i] \
                                and SEP[i] == ep:
                            lvb, lpb, mql, fbl = SPT[i]
                            lvp = SVP[i]
                            if lvp != ldp:
                                dla(lvp)
                                ldp = lvp
                            dh += 1
                            of = va & 0xFFF
                            if use_dc:
                                ln = (lpb | of) >> DSH
                                if ln == lln:
                                    ch += 1
                                else:
                                    wy = dsets[ln & DMK]
                                    if ln in wy:
                                        cla(ln)
                                        ch += 1
                                    else:
                                        _dmiss(ln, wy)
                                    lln = ln
                            w_ = (mql[of >> 3] >> ((of & 7) << 3)) \
                                & ((1 << (wd << 3)) - 1)
                            if rc >> 8:
                                sb = 1 << ((wd << 3) - 1)
                                w_ = ((w_ ^ sb) - sb) \
                                    & 0xFFFFFFFFFFFFFFFF
                            v = w_
                        elif not va & (wd - 1) and dok:
                            vp = va >> 12
                            t = _lfl(vp, um)
                            if t is not None:
                                if vp != ldp:
                                    dla(vp)
                                    ldp = vp
                                dh += 1
                                if t is False:
                                    if ti:
                                        _fl(ti, tcy, tb2, tmd, tic)
                                        ti = tcy = tb2 = tmd = tic = 0
                                    fc, bc, mc, pf, ip = \
                                        _sy(i, fc, bc, mc, pf)
                                    raise Trap(LPF, PCA[i], tval=va)
                                lvb, lpb, mql, fbl = t
                                lvp = vp
                                SGB[i] = lvb
                                SPT[i] = t
                                SVP[i] = vp
                                SEP[i] = ep
                                of = va & 0xFFF
                                if use_dc:
                                    ln = (lpb | of) >> DSH
                                    if ln == lln:
                                        ch += 1
                                    else:
                                        wy = dsets[ln & DMK]
                                        if ln in wy:
                                            cla(ln)
                                            ch += 1
                                        else:
                                            _dmiss(ln, wy)
                                        lln = ln
                                w_ = (mql[of >> 3] >> ((of & 7) << 3)) \
                                    & ((1 << (wd << 3)) - 1)
                                if rc >> 8:
                                    sb = 1 << ((wd << 3) - 1)
                                    w_ = ((w_ ^ sb) - sb) \
                                        & 0xFFFFFFFFFFFFFFFF
                                v = w_
                        if v is _S:
                            if ti:
                                _fl(ti, tcy, tb2, tmd, tic)
                                ti = tcy = tb2 = tmd = tic = 0
                            fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                            lvb = svb = ldp = lln = -1
                            ep = EPB[0] = ep + 1
                            v = load(va, wd, bool(rc >> 8))
                    if ad:
                        R[ad] = v

                elif op == 15:  # OP_ST4
                    va = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFF
                    if va & 0xFFFFFFFFFFFFF003 == svb:
                        if svp != ldp:
                            dla(svp)
                            ldp = svp
                        dh += 1
                        of = va & 0xFFF
                        if cframes and spp in cframes:
                            core._flush_blocks()
                        if use_dc:
                            ln = (spb | of) >> DSH
                            if ln == lln:
                                ch += 1
                            else:
                                wy = dsets[ln & DMK]
                                if ln in wy:
                                    cla(ln)
                                    ch += 1
                                else:
                                    _dmiss(ln, wy)
                                lln = ln
                        idx = of >> 3
                        sh = (of & 4) << 3
                        mqs[idx] = (mqs[idx]
                                    & (0xFFFFFFFFFFFFFFFF
                                       ^ (0xFFFFFFFF << sh))) \
                            | ((R[rc] & 0xFFFFFFFF) << sh)
                    else:
                        ok = False
                        if va & 0xFFFFFFFFFFFFF003 == SGB[i] \
                                and SEP[i] == ep:
                            svb, spb, spp, mqs, fbs = SPT[i]
                            svp = SVP[i]
                            if svp != ldp:
                                dla(svp)
                                ldp = svp
                            dh += 1
                            of = va & 0xFFF
                            if cframes and spp in cframes:
                                core._flush_blocks()
                            if use_dc:
                                ln = (spb | of) >> DSH
                                if ln == lln:
                                    ch += 1
                                else:
                                    wy = dsets[ln & DMK]
                                    if ln in wy:
                                        cla(ln)
                                        ch += 1
                                    else:
                                        _dmiss(ln, wy)
                                    lln = ln
                            idx = of >> 3
                            sh = (of & 4) << 3
                            mqs[idx] = (mqs[idx]
                                        & (0xFFFFFFFFFFFFFFFF
                                           ^ (0xFFFFFFFF << sh))) \
                                | ((R[rc] & 0xFFFFFFFF) << sh)
                            ok = True
                        elif not va & 3 and dok:
                            vp = va >> 12
                            t = _sfl(vp, um)
                            if t is not None:
                                if vp != ldp:
                                    dla(vp)
                                    ldp = vp
                                dh += 1
                                if t is False:
                                    if ti:
                                        _fl(ti, tcy, tb2, tmd, tic)
                                        ti = tcy = tb2 = tmd = tic = 0
                                    fc, bc, mc, pf, ip = \
                                        _sy(i, fc, bc, mc, pf)
                                    raise Trap(SPF, PCA[i], tval=va)
                                svb, spb, spp, mqs, fbs = t
                                svp = vp
                                SGB[i] = svb
                                SPT[i] = t
                                SVP[i] = vp
                                SEP[i] = ep
                                of = va & 0xFFF
                                if cframes and spp in cframes:
                                    core._flush_blocks()
                                if use_dc:
                                    ln = (spb | of) >> DSH
                                    if ln == lln:
                                        ch += 1
                                    else:
                                        wy = dsets[ln & DMK]
                                        if ln in wy:
                                            cla(ln)
                                            ch += 1
                                        else:
                                            _dmiss(ln, wy)
                                        lln = ln
                                idx = of >> 3
                                sh = (of & 4) << 3
                                mqs[idx] = (mqs[idx]
                                            & (0xFFFFFFFFFFFFFFFF
                                               ^ (0xFFFFFFFF << sh))) \
                                    | ((R[rc] & 0xFFFFFFFF) << sh)
                                ok = True
                        if not ok:
                            if ti:
                                _fl(ti, tcy, tb2, tmd, tic)
                                ti = tcy = tb2 = tmd = tic = 0
                            fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                            lvb = svb = ldp = lln = -1
                            ep = EPB[0] = ep + 1
                            store(va, 4, R[rc])
                    if core._block_abort:
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, 0, xv, ch, dh, warm,
                                   fc, bc, mc, pf)

                elif op == 16:  # OP_ST1
                    va = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFF
                    if va & 0xFFFFFFFFFFFFF000 == svb:
                        if svp != ldp:
                            dla(svp)
                            ldp = svp
                        dh += 1
                        of = va & 0xFFF
                        if cframes and spp in cframes:
                            core._flush_blocks()
                        if use_dc:
                            ln = (spb | of) >> DSH
                            if ln == lln:
                                ch += 1
                            else:
                                wy = dsets[ln & DMK]
                                if ln in wy:
                                    cla(ln)
                                    ch += 1
                                else:
                                    _dmiss(ln, wy)
                                lln = ln
                        fbs[of] = R[rc] & 0xFF
                    else:
                        ok = False
                        if va & 0xFFFFFFFFFFFFF000 == SGB[i] \
                                and SEP[i] == ep:
                            svb, spb, spp, mqs, fbs = SPT[i]
                            svp = SVP[i]
                            if svp != ldp:
                                dla(svp)
                                ldp = svp
                            dh += 1
                            of = va & 0xFFF
                            if cframes and spp in cframes:
                                core._flush_blocks()
                            if use_dc:
                                ln = (spb | of) >> DSH
                                if ln == lln:
                                    ch += 1
                                else:
                                    wy = dsets[ln & DMK]
                                    if ln in wy:
                                        cla(ln)
                                        ch += 1
                                    else:
                                        _dmiss(ln, wy)
                                    lln = ln
                            fbs[of] = R[rc] & 0xFF
                            ok = True
                        elif dok:
                            vp = va >> 12
                            t = _sfl(vp, um)
                            if t is not None:
                                if vp != ldp:
                                    dla(vp)
                                    ldp = vp
                                dh += 1
                                if t is False:
                                    if ti:
                                        _fl(ti, tcy, tb2, tmd, tic)
                                        ti = tcy = tb2 = tmd = tic = 0
                                    fc, bc, mc, pf, ip = \
                                        _sy(i, fc, bc, mc, pf)
                                    raise Trap(SPF, PCA[i], tval=va)
                                svb, spb, spp, mqs, fbs = t
                                svp = vp
                                SGB[i] = svb
                                SPT[i] = t
                                SVP[i] = vp
                                SEP[i] = ep
                                of = va & 0xFFF
                                if cframes and spp in cframes:
                                    core._flush_blocks()
                                if use_dc:
                                    ln = (spb | of) >> DSH
                                    if ln == lln:
                                        ch += 1
                                    else:
                                        wy = dsets[ln & DMK]
                                        if ln in wy:
                                            cla(ln)
                                            ch += 1
                                        else:
                                            _dmiss(ln, wy)
                                        lln = ln
                                fbs[of] = R[rc] & 0xFF
                                ok = True
                        if not ok:
                            if ti:
                                _fl(ti, tcy, tb2, tmd, tic)
                                ti = tcy = tb2 = tmd = tic = 0
                            fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                            lvb = svb = ldp = lln = -1
                            ep = EPB[0] = ep + 1
                            store(va, 1, R[rc])
                    if core._block_abort:
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, 0, xv, ch, dh, warm,
                                   fc, bc, mc, pf)

                elif op == 17:  # OP_STW (generic sub-8)
                    wd = ad
                    va = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFF
                    if va & (0xFFFFFFFFFFFFF000 | (wd - 1)) == svb:
                        if svp != ldp:
                            dla(svp)
                            ldp = svp
                        dh += 1
                        of = va & 0xFFF
                        if cframes and spp in cframes:
                            core._flush_blocks()
                        if use_dc:
                            ln = (spb | of) >> DSH
                            if ln == lln:
                                ch += 1
                            else:
                                wy = dsets[ln & DMK]
                                if ln in wy:
                                    cla(ln)
                                    ch += 1
                                else:
                                    _dmiss(ln, wy)
                                lln = ln
                        idx = of >> 3
                        sh = (of & 7) << 3
                        wm = (1 << (wd << 3)) - 1
                        mqs[idx] = (mqs[idx]
                                    & (0xFFFFFFFFFFFFFFFF
                                       ^ (wm << sh))) \
                            | ((R[rc] & wm) << sh)
                    else:
                        ok = False
                        if va & (0xFFFFFFFFFFFFF000 | (wd - 1)) == SGB[i] \
                                and SEP[i] == ep:
                            svb, spb, spp, mqs, fbs = SPT[i]
                            svp = SVP[i]
                            if svp != ldp:
                                dla(svp)
                                ldp = svp
                            dh += 1
                            of = va & 0xFFF
                            if cframes and spp in cframes:
                                core._flush_blocks()
                            if use_dc:
                                ln = (spb | of) >> DSH
                                if ln == lln:
                                    ch += 1
                                else:
                                    wy = dsets[ln & DMK]
                                    if ln in wy:
                                        cla(ln)
                                        ch += 1
                                    else:
                                        _dmiss(ln, wy)
                                    lln = ln
                            idx = of >> 3
                            sh = (of & 7) << 3
                            wm = (1 << (wd << 3)) - 1
                            mqs[idx] = (mqs[idx]
                                        & (0xFFFFFFFFFFFFFFFF
                                           ^ (wm << sh))) \
                                | ((R[rc] & wm) << sh)
                            ok = True
                        elif not va & (wd - 1) and dok:
                            vp = va >> 12
                            t = _sfl(vp, um)
                            if t is not None:
                                if vp != ldp:
                                    dla(vp)
                                    ldp = vp
                                dh += 1
                                if t is False:
                                    if ti:
                                        _fl(ti, tcy, tb2, tmd, tic)
                                        ti = tcy = tb2 = tmd = tic = 0
                                    fc, bc, mc, pf, ip = \
                                        _sy(i, fc, bc, mc, pf)
                                    raise Trap(SPF, PCA[i], tval=va)
                                svb, spb, spp, mqs, fbs = t
                                svp = vp
                                SGB[i] = svb
                                SPT[i] = t
                                SVP[i] = vp
                                SEP[i] = ep
                                of = va & 0xFFF
                                if cframes and spp in cframes:
                                    core._flush_blocks()
                                if use_dc:
                                    ln = (spb | of) >> DSH
                                    if ln == lln:
                                        ch += 1
                                    else:
                                        wy = dsets[ln & DMK]
                                        if ln in wy:
                                            cla(ln)
                                            ch += 1
                                        else:
                                            _dmiss(ln, wy)
                                        lln = ln
                                idx = of >> 3
                                sh = (of & 7) << 3
                                wm = (1 << (wd << 3)) - 1
                                mqs[idx] = (mqs[idx]
                                            & (0xFFFFFFFFFFFFFFFF
                                               ^ (wm << sh))) \
                                    | ((R[rc] & wm) << sh)
                                ok = True
                        if not ok:
                            if ti:
                                _fl(ti, tcy, tb2, tmd, tic)
                                ti = tcy = tb2 = tmd = tic = 0
                            fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                            lvb = svb = ldp = lln = -1
                            ep = EPB[0] = ep + 1
                            store(va, wd, R[rc])
                    if core._block_abort:
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, 0, xv, ch, dh, warm,
                                   fc, bc, mc, pf)

                elif op == 19:  # OP_ANDI
                    R[ad] = R[rb] & imv

                elif op == 20:  # OP_ORI
                    R[ad] = R[rb] | imv

                elif op == 21:  # OP_XORI
                    R[ad] = R[rb] ^ imv

                elif op == 22:  # OP_SLLI
                    R[ad] = (R[rb] << imv) & 0xFFFFFFFFFFFFFFFF

                elif op == 23:  # OP_SRLI
                    R[ad] = R[rb] >> imv

                elif op == 24:  # OP_SRAI
                    R[ad] = (((R[rb] ^ 0x8000000000000000)
                                - 0x8000000000000000) >> imv) \
                        & 0xFFFFFFFFFFFFFFFF

                elif op == 25:  # OP_SLTI (IM pre-xored with H63)
                    R[ad] = 1 if (R[rb] ^ 0x8000000000000000) \
                        < imv else 0

                elif op == 26:  # OP_SLTIU
                    R[ad] = 1 if R[rb] < imv else 0

                elif op == 34:  # OP_SRA
                    R[ad] = (((R[rb] ^ 0x8000000000000000)
                                - 0x8000000000000000)
                               >> (R[rc] & 63)) & 0xFFFFFFFFFFFFFFFF

                elif op == 35:  # OP_SLT
                    R[ad] = 1 if (R[rb] ^ 0x8000000000000000) \
                        < (R[rc] ^ 0x8000000000000000) else 0

                elif op == 36:  # OP_SLTU
                    R[ad] = 1 if R[rb] < R[rc] else 0

                elif op == 37:  # OP_ADDW
                    R[ad] = ((((R[rb] + R[rc]) & 0xFFFFFFFF)
                                ^ 0x80000000) - 0x80000000) \
                        & 0xFFFFFFFFFFFFFFFF

                elif op == 38:  # OP_SUBW
                    R[ad] = ((((R[rb] - R[rc]) & 0xFFFFFFFF)
                                ^ 0x80000000) - 0x80000000) \
                        & 0xFFFFFFFFFFFFFFFF

                elif op == 39:  # OP_MUL (latency rides MU static)
                    R[ad] = (R[rb] * R[rc]) & 0xFFFFFFFFFFFFFFFF

                elif op == 40:  # OP_MULW
                    R[ad] = ((((R[rb] * R[rc]) & 0xFFFFFFFF)
                                ^ 0x80000000) - 0x80000000) \
                        & 0xFFFFFFFFFFFFFFFF

                elif op == 41:  # OP_SLLIW
                    R[ad] = ((((R[rb] << imv) & 0xFFFFFFFF)
                                ^ 0x80000000) - 0x80000000) \
                        & 0xFFFFFFFFFFFFFFFF

                elif op == 42:  # OP_SRLIW
                    R[ad] = (((((R[rb] & 0xFFFFFFFF) >> imv)
                                 & 0xFFFFFFFF) ^ 0x80000000)
                               - 0x80000000) & 0xFFFFFFFFFFFFFFFF

                elif op == 43:  # OP_SRAIW
                    R[ad] = ((((((R[rb] & 0xFFFFFFFF) ^ 0x80000000)
                                  - 0x80000000) >> imv) & 0xFFFFFFFF
                                 ^ 0x80000000) - 0x80000000) \
                        & 0xFFFFFFFFFFFFFFFF

                elif op == 44:  # OP_SLLW
                    R[ad] = ((((R[rb] << (R[rc] & 31))
                                 & 0xFFFFFFFF) ^ 0x80000000)
                               - 0x80000000) & 0xFFFFFFFFFFFFFFFF

                elif op == 45:  # OP_SRLW
                    R[ad] = (((((R[rb] & 0xFFFFFFFF)
                                  >> (R[rc] & 31)) & 0xFFFFFFFF)
                                ^ 0x80000000) - 0x80000000) \
                        & 0xFFFFFFFFFFFFFFFF

                elif op == 46:  # OP_SRAW
                    R[ad] = ((((((R[rb] & 0xFFFFFFFF) ^ 0x80000000)
                                  - 0x80000000) >> (R[rc] & 31))
                                 & 0xFFFFFFFF ^ 0x80000000)
                                - 0x80000000) & 0xFFFFFFFFFFFFFFFF

                elif op == 47:  # OP_JAL (mid; penalty is static)
                    R[ad] = imv

                elif op == 49:  # OP_MEMCHK
                    if imv not in fpages:
                        core.region_side_exits += 1
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 0, 0, xv, ch, dh, warm,
                                   fc, bc, mc, pf)

                elif op == 50:  # OP_HEADCHK
                    if imv not in fpages:
                        core.region_side_exits += 1
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 0, 0, xv, ch, dh, warm,
                                   fc, bc, mc, pf)

                elif op == 51:  # OP_ROLOAD — never cached (DESIGN.md 8)
                    if ti:
                        _fl(ti, tcy, tb2, tmd, tic)
                        ti = tcy = tb2 = tmd = tic = 0
                    fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                    v = load(R[rb], rc, xv, "read_ro", imv)
                    if ad:
                        R[ad] = v
                    lvb = svb = ldp = lln = -1
                    ep = EPB[0] = ep + 1

                elif op == 52:  # OP_GEN
                    if ti:
                        _fl(ti, tcy, tb2, tmd, tic)
                        ti = tcy = tb2 = tmd = tic = 0
                    fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                    h_, i_ = GH[ad]
                    h_(core, i_, PCA[i])
                    if dside:
                        um = not mmu.user_mode
                    lvb = svb = ldp = lln = -1
                    ep = EPB[0] = ep + 1
                    if core._block_abort:
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, 0, xv, ch, dh, warm,
                                   fc, bc, mc, pf)

                elif op == 53:  # OP_LD_EAGER (no D-side fast path)
                    if ti:
                        _fl(ti, tcy, tb2, tmd, tic)
                        ti = tcy = tb2 = tmd = tic = 0
                    fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                    v = load((R[rb] + imv) & 0xFFFFFFFFFFFFFFFF,
                             rc, xv)
                    if ad:
                        R[ad] = v

                elif op == 54:  # OP_ST_EAGER
                    if ti:
                        _fl(ti, tcy, tb2, tmd, tic)
                        ti = tcy = tb2 = tmd = tic = 0
                    fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                    store((R[rb] + imv) & 0xFFFFFFFFFFFFFFFF,
                          ad, R[rc])
                    if core._block_abort:
                        if ti:
                            _fl(ti, tcy, tb2, tmd, tic)
                        return _xt(i, 1, 0, xv, ch, dh, warm,
                                   fc, bc, mc, pf)

                elif op == 55:  # OP_RET
                    if ti:
                        _fl(ti, tcy, tb2, tmd, tic)
                    return _xt(i, 0, 0, xv, ch, dh, warm,
                               fc, bc, mc, pf)

                elif op == 56:  # OP_BR_F
                    cc2 = ad
                    x_ = R[rb]
                    y_ = R[rc]
                    if cc2 == 0:
                        c_ = x_ == y_
                    elif cc2 == 1:
                        c_ = x_ != y_
                    elif cc2 == 2:
                        c_ = (x_ ^ 0x8000000000000000) \
                            < (y_ ^ 0x8000000000000000)
                    elif cc2 == 3:
                        c_ = (x_ ^ 0x8000000000000000) \
                            >= (y_ ^ 0x8000000000000000)
                    elif cc2 == 4:
                        c_ = x_ < y_
                    else:
                        c_ = x_ >= y_
                    if ti:
                        _fl(ti, tcy, tb2, tmd, tic)
                    return _xt(i, 1, TBP if c_ else 0,
                               imv if c_ else xv,
                               ch, dh, warm, fc, bc, mc, pf)

                elif op == 57:  # OP_JAL_F
                    if ad:
                        R[ad] = xv
                    if ti:
                        _fl(ti, tcy, tb2, tmd, tic)
                    return _xt(i, 1, JP, imv, ch, dh, warm,
                               fc, bc, mc, pf)

                elif op == 58:  # OP_JALR_F
                    t = (R[rb] + imv) & 0xFFFFFFFFFFFFFFFE
                    if ad:
                        R[ad] = xv
                    if ti:
                        _fl(ti, tcy, tb2, tmd, tic)
                    return _xt(i, 1, JP, t, ch, dh, warm,
                               fc, bc, mc, pf)

                else:           # OP_GEN_F (59)
                    if ti:
                        _fl(ti, tcy, tb2, tmd, tic)
                        ti = tcy = tb2 = tmd = tic = 0
                    fc, bc, mc, pf, ip = _sy(i, fc, bc, mc, pf)
                    h_, i_ = GH[ad]
                    res = h_(core, i_, PCA[i])
                    stats.instructions += 1
                    stats.cycles += CPI
                    if ch:
                        dcache.hits += ch
                    if dh:
                        dtlb.hits += dh
                        mmu_stats.translations += dh
                    _lf()
                    return xv if res is None else res

                i += 1
        except BaseException:
            # Counters were synced at the raising site (which stamped
            # ``ip``); the register file is already current (written
            # in place). Drain the deferred hits and any banked
            # iterations, replay the LRU lists, and replay the warm
            # I-side permutation.
            if ti:
                _fl(ti, tcy, tb2, tmd, tic)
            if ch:
                dcache.hits += ch
            if dh:
                dtlb.hits += dh
                mmu_stats.translations += dh
            _lf()
            if warm:
                _irp(ip)
            raise

    return _run
