"""Tier-2 trace compiler: hot basic blocks become specialized functions.

The tier-1 fast path (``Core.step_block``) replays pre-decoded blocks
but still pays one Python call per instruction. Tier 2 compiles a block
that stayed hot past ``Core.jit_threshold`` dispatches into ONE Python
function via source generation + ``compile()``/``exec()``:

* register reads/writes become local-variable operations, flushed to
  the architectural register file at every block exit and before
  anything that can observe them (generic handlers, returns, raises);
* ALU/branch/jump semantics are inlined from the
  :mod:`repro.isa.codegen` templates with immediates and pc-derived
  constants folded into the source;
* loads/stores inline the D-side page/TLB/dcache hit path exactly as
  ``Core.load``/``Core.store`` do, falling back to those methods on any
  miss, misalignment, MMIO, or permission change, so faults and
  counters stay bit-identical. ROLoad (``ld.ro`` family) ALWAYS takes
  the full ``Core.load`` -> ``MMU.translate`` path: the read-only +
  key check is the security mechanism under test and is never cached
  (DESIGN.md §8);
* I-cache accounting is resolved statically where possible (a block's
  fetch paddrs are compile-time constants; consecutive same-line
  fetches are guaranteed hits) and coalesced; retirement/cycle
  counters and the ``core.pc`` mirror are deferred off the mainline
  entirely and caught up — with constant-folded arithmetic — at every
  point they are observable (fallback calls, handler calls, raise
  sites, block exits), so a mid-block trap still observes exactly the
  slow path's values;
* everything else (mulh/div/rem, LR/SC/AMO, csr*, ecall, ebreak,
  fence, fence.i) calls the block entry's existing handler closure
  with registers flushed around the call.

Compiled functions take no arguments and return the next pc. The
dispatch trampoline (``Core._run_jit``) chains directly from one
compiled block to the next without re-entering the dispatch loop;
chains break on the same invalidation events that flush tier-1 blocks
(fence.i, self-modifying stores, MMU generation bumps) because
``Core._flush_blocks`` clears every block's ``links`` memo.
"""

from __future__ import annotations

from repro import config as _config
from repro.cpu.trap import Cause, Trap
from repro.isa.codegen import (
    ALU_IMM,
    ALU_REG,
    BRANCH_COND,
    INLINE_MULDIV,
    LOAD_INFO,
    RO_INFO,
    STORE_INFO,
)
from repro.utils.bits import sext, to_u64

_M = "0xFFFFFFFFFFFFFFFF"

# Blocks past this size are compiled as a prefix plus an organically
# promoted suffix (see compile_block); the per-call register prologue
# makes smaller segments a net loss, so the cap stays high.
MAX_COMPILED_ENTRIES = 512

# Marks "the inline fast path did not produce a value" in generated code.
_SENTINEL = object()


class JITBlock:
    """One compiled block plus its direct-chaining memo."""

    __slots__ = ("fn", "n", "vpn", "start_pc", "end_pc", "links", "edges")

    region = False  # dispatch discriminator (Region.region is True)

    def __init__(self, fn, n, vpn, start_pc, end_pc):
        self.fn = fn            # () -> next pc
        self.n = n              # instructions retired per execution
        self.vpn = vpn          # code page, for the fetch-cache recheck
        self.start_pc = start_pc
        self.end_pc = end_pc    # next_pc of the final entry
        self.links = {}         # next-pc -> JITBlock; cleared on flush
        # Successor-pc arrival counts, recorded by the trampoline when
        # tier 4 is profiling: the branch-direction evidence the region
        # planner (repro.cpu.regions) specializes on. Cleared on flush.
        self.edges = {}


class _Src:
    """Tiny indented-source builder."""

    __slots__ = ("lines", "depth")

    def __init__(self):
        self.lines = []
        self.depth = 0

    def __call__(self, line):
        self.lines.append("    " * self.depth + line)

    def block(self, text):
        pad = "    " * self.depth
        for ln in text.splitlines():
            self.lines.append(pad + ln if ln else ln)

    def indent(self):
        self.depth += 1

    def dedent(self):
        self.depth -= 1

    def text(self):
        return "\n".join(self.lines) + "\n"


def _ind(text, levels):
    """Re-indent a chunk so it can be spliced into a template."""
    pad = "    " * levels
    return "".join(pad + ln + "\n" for ln in text.splitlines())


# Inlined Cache.access + timing.dcache on a dynamically-computed paddr
# (``(pp << 12) | of``). A hit only RECORDS the line (``cla``); the LRU
# reorder and the hit counter are applied by ``_lf`` (see _generate) the
# next time anything could observe or evict — membership tests are
# order-independent, so deferral cannot change hit/miss outcomes. A miss
# replays the deferred reorders first so the eviction victim is exact.
_DPROBE = """\
ln = ((pp << 12) | of) >> {dshift}
wy = dsets[ln & {dmask}]
if ln in wy:
    cla(ln)
else:
    _lf()
    dcache.misses += 1
    wy[ln] = True
    if len(wy) > {dways}:
        wy.popitem(last=False)
    stats.dcache_misses += 1
    stats.cycles += {penalty}"""

# Inlined Cache.access + timing.icache on a compile-time-constant line,
# with the same deferred-LRU scheme as _DPROBE.
_IPROBE = """\
wy = isets[{si}]
if {line} in wy:
    ila({line})
else:
    _lf()
    icache.misses += 1
    wy[{line}] = True
    if len(wy) > {iways}:
        wy.popitem(last=False)
    stats.icache_misses += 1
    stats.cycles += {penalty}"""

# D-side load hit path via the merged page memo (Core._jload_memo):
# one dict hit replaces the page-cache lookup, the D-TLB revalidation,
# and the frame fetch of Core.load's inline block. Memo residency
# PROVES the D-TLB entry it came from is still live and unreplaced
# (TLB shadow purging, see repro.mem.tlb) and that the vpn is still in
# the D-side page cache (every del/clear there purges the memo too), so
# replaying the probe's counters (``dla``; applied by ``_lf``) and
# trusting the snapshotted perms is exactly what the eager revalidation
# would compute. A miss calls ``_jload_fill`` — pure, fills only when
# the eager path would fully succeed — and otherwise falls back to
# ``Core.load``, whose own fast/slow paths count every outcome
# (TLB eviction, remap, never-written frame) bit-identically. ``gen``,
# ``dok``, ``um`` are loop-invariant hoists (``um`` refreshed after
# mid-block generic handlers); ``{fb}``/``{rp}`` splice in the
# observation-point catch-up (pc mirror, retire counters, deferred LRU)
# for the fallback call and the inline permission-fault raise.
_LOAD_FAST = """\
va = ({a} + {imm}) & {m}
v = _S
if {cond}:
    vp = va >> 12
    mo = jlget(vp)
    if mo is None:
        mo = jlf(vp)
    if mo is not None:
        dla(vp)
        fb, okk, oku, pp = mo
        if okk if um else oku:
            of = va & 0xFFF
{dc}            v = ifb(fb[of:of + {w}], "little")
{sg}        else:
{rp}            del dload[vp]
            del jload[vp]
            raise Trap(LPF, {pc}, tval=va)
if v is _S:
{fb}    v = load(va, {w}, {signed})"""

# D-side store hit path (see Core.store), same memo scheme as
# _LOAD_FAST. The code-frame check runs BEFORE the write, exactly as
# the interpreter does, so a store over cached code aborts the rest of
# this block's replay. No frame-creation branch: the memo only fills
# once the physical frame exists, and frames are never replaced.
_STORE_FAST = """\
va = ({a} + {imm}) & {m}
ok = False
if {cond}:
    vp = va >> 12
    mo = jsget(vp)
    if mo is None:
        mo = jsf(vp)
    if mo is not None:
        dla(vp)
        fb, okk, oku, pp = mo
        if okk if um else oku:
            of = va & 0xFFF
            if cframes and pp in cframes:
                core._flush_blocks()
{dc}            fb[of:of + {w}] = itb(({val}) & {wmask}, {w}, "little")
            ok = True
        else:
{rp}            del dstore[vp]
            del jstore[vp]
            raise Trap(SPF, {pc}, tval=va)
if not ok:
{fb}    store(va, {w}, {val})"""


def _classify(name):
    if name in ALU_IMM or name in ALU_REG or name in ("lui", "auipc"):
        return "alu"
    if name in LOAD_INFO:
        return "load"
    if name in STORE_INFO:
        return "store"
    if name in RO_INFO:
        return "roload"
    if name in BRANCH_COND:
        return "branch"
    if name in ("jal", "jalr"):
        return name
    return "generic"


def _operands(kind, name, insn):
    """(registers read, registers written) by an inline template."""
    if kind == "alu":
        if name in ALU_REG:
            return (insn.rs1, insn.rs2), (insn.rd,)
        if name in ALU_IMM:
            return (insn.rs1,), (insn.rd,)
        return (), (insn.rd,)           # lui, auipc
    if kind in ("load", "roload"):
        return (insn.rs1,), (insn.rd,)
    if kind in ("store", "branch"):
        return (insn.rs1, insn.rs2), ()
    if kind == "jal":
        return (), (insn.rd,)
    if kind == "jalr":
        return (insn.rs1,), (insn.rd,)
    return (), ()                       # generic: works on core.regs


def compile_block(core, block, start_pc):
    """Compile a cached tier-1 block into a :class:`JITBlock`.

    Returns None when the block cannot or should not be compiled
    (oversized, or source generation failed for any reason) — the
    caller then pins the pc to the tier-1 path.
    """
    entries = block[0]
    if not entries:
        return None
    if len(entries) > MAX_COMPILED_ENTRIES:
        # Compile only a prefix; control flow never leaves a straight
        # line mid-block, so the prefix's fall-through pc is exact and
        # the dispatch loop grows (and eventually compiles) the suffix
        # as an ordinary block of its own.
        entries = entries[:MAX_COMPILED_ENTRIES]
    try:
        source, ns, hs = _generate(core, entries)
        code = compile(source, f"<roload-jit@{start_pc:#x}>", "exec")
        exec(code, ns)
        fn = ns["_factory"](core, hs)
    except Exception:
        if _config.current().jit_debug:
            raise
        return None
    return JITBlock(fn, len(entries), block[1], start_pc, entries[-1][3])


def _generate(core, entries):
    n = len(entries)
    params = core.timing.params
    cpi = params.base_cpi
    penalty = params.cache_miss_penalty
    icache = core.icache
    dcache = core.dcache
    mmu = core.mmu
    dtlb = getattr(mmu, "dtlb", None)
    # Compile-time configuration. ``mmu.bare`` can only change together
    # with a generation bump, which flushes every compiled block.
    dside = bool(core._dside_cap) and dtlb is not None and not mmu.bare

    kinds = []
    reg_locals = set()
    written = set()
    hs = []       # (handler, insn) per generic entry, bound in order
    hidx = {}     # entry index -> slot in hs
    for i, (handler, insn, pc, next_pc, paddr, paddr2) in enumerate(entries):
        kind = _classify(insn.name)
        if kind in ("branch", "jal", "jalr") and i != n - 1:
            raise ValueError("control flow before block end")
        kinds.append(kind)
        reads, writes = _operands(kind, insn.name, insn)
        for r in reads:
            if r:
                reg_locals.add(r)
        for w in writes:
            if w:
                reg_locals.add(w)
                written.add(w)
        if kind == "generic":
            hidx[i] = len(hs)
            hs.append((handler, insn))
    wlist = sorted(written)

    def rx(k):
        return "0" if k == 0 else f"r{k}"

    any_load = any(k in ("load", "roload") for k in kinds)
    any_store = "store" in kinds
    use_ds = dside and (("load" in kinds) or any_store)
    use_dc = dcache is not None and use_ds
    # Whether this block defers LRU/hit-counter updates (see _lf below).
    use_lf = use_ds or icache is not None

    dc = _ind(_DPROBE.format(dshift=dcache.line_shift,
                             dmask=dcache.num_sets - 1,
                             dways=dcache.ways, penalty=penalty), 3) \
        if use_dc else ""
    if icache is not None:
        ishift = icache.line_shift
        imask = icache.num_sets - 1
        iways = icache.ways

    src = _Src()
    src("def _factory(core, _hs):")
    src.indent()
    src("regs = core.regs")
    src("mmu = core.mmu")
    src("stats = core.timing.stats")
    if any_load:
        src("load = core.load")
    if any_store:
        src("store = core.store")
    if use_ds:
        src("mmu_stats = mmu.stats")
        src("dtlb = mmu.dtlb")
        src("tent = dtlb.entry_map")
        src("ifb = int.from_bytes")
        if "load" in kinds:
            src("dload = core._dload_pages")
            src("jload = core._jload_memo")
            src("jlget = jload.get")
            src("jlf = core._jload_fill")
        if any_store:
            src("dstore = core._dstore_pages")
            src("jstore = core._jstore_memo")
            src("jsget = jstore.get")
            src("jsf = core._jstore_fill")
            src("cframes = core._code_frames")
            src("itb = int.to_bytes")
    if use_dc:
        src("dcache = core.dcache")
        src("dsets = dcache.line_sets")
    if icache is not None:
        src("icache = core.icache")
        src("isets = icache.line_sets")
    for k in range(len(hs)):
        src(f"H{k}, I{k} = _hs[{k}]")
    if use_lf:
        # Deferred LRU/hit bookkeeping. Fast-path hits only APPEND the
        # accessed key; _lf credits the batched hit (and translation)
        # counters and replays the LRU reorders. Deduplicating by LAST
        # occurrence and applying in that order yields exactly the final
        # order the eager per-access move_to_end sequence would — so
        # _lf runs before anything that can read an LRU order, evict,
        # or observe a counter: miss/fallback paths, generic handlers,
        # raises, and every block exit. The lists outlive _block calls
        # (they are factory state) but every exit path flushes, so they
        # are always empty between calls.
        if use_ds:
            src("dl = []")
            src("dla = dl.append")
        if use_dc:
            src("cl = []")
            src("cla = cl.append")
        if icache is not None:
            src("il = []")
            src("ila = il.append")
        src("def _lf():")
        src.indent()
        if use_ds:
            src("if dl:")
            src.indent()
            src("dtlb.hits += len(dl)")
            src("mmu_stats.translations += len(dl)")
            src("for _k in reversed(dict.fromkeys(reversed(dl))):")
            src("    tent.move_to_end(_k)")
            src("dl.clear()")
            src.dedent()
        if use_dc:
            src("if cl:")
            src.indent()
            src("dcache.hits += len(cl)")
            src("for _k in reversed(dict.fromkeys(reversed(cl))):")
            src(f"    dsets[_k & {dcache.num_sets - 1}].move_to_end(_k)")
            src("cl.clear()")
            src.dedent()
        if icache is not None:
            src("if il:")
            src.indent()
            src("icache.hits += len(il)")
            src("for _k in reversed(dict.fromkeys(reversed(il))):")
            src(f"    isets[_k & {imask}].move_to_end(_k)")
            src("il.clear()")
            src.dedent()
        src.dedent()
    src("def _block():")
    src.indent()
    if use_ds:
        src("gen = mmu.generation")
        src("dok = core._dside_generation == gen")
        src("um = not mmu.user_mode")
    src("fc = 0")
    if icache is not None:
        src("pf = 0")
    for k in sorted(reg_locals):
        src(f"r{k} = regs[{k}]")
    if wlist:
        src("try:")
        src.indent()

    def flush():
        for k in wlist:
            src(f"regs[{k}] = r{k}")

    def lf():
        # Apply deferred LRU/hit updates. Required before every external
        # call (they can evict, raise, or read counters) and before
        # every return (the lists must be empty between _block calls).
        if use_lf:
            src("_lf()")

    # Retirement/cycle counters, statically-proven fetch hits, and the
    # ``core.pc``/``core._current_pc`` mirror are all deferred off the
    # mainline: ``fc`` (entries credited to stats) and ``pf`` (fetch
    # hits credited) are runtime locals, and constant-folded catch-up
    # code runs only where the eager values are observable — fallback
    # calls, handler calls, raise sites, and block exits. Between those
    # points nothing reads stats or the pc mirror (the kernel only looks
    # between step_block calls, and traps carry their pc explicitly),
    # so the deferred totals are indistinguishable from eager ones.
    pcum = 0      # cumulative statically-proven icache hits
    last_line = None

    def catchup(i):
        lines = []
        if i:
            lines.append(f"stats.instructions += {i} - fc")
            if cpi == 1:
                lines.append(f"stats.cycles += {i} - fc")
            else:
                lines.append(f"stats.cycles += ({i} - fc) * {cpi}")
            lines.append(f"fc = {i}")
        if pcum:
            lines.append(f"icache.hits += {pcum} - pf")
            lines.append(f"pf = {pcum}")
        return lines

    def cflush(i):
        for line in catchup(i):
            src(line)

    def sync_chunk(i, pc, levels):
        # Everything an external call or raise can observe: the
        # faulting pc (the replay loop keeps core.pc at the executing
        # entry's pc), exact counters, and the deferred LRU state.
        lines = [f"core.pc = {pc}", f"core._current_pc = {pc}"]
        lines += catchup(i)
        if use_lf:
            lines.append("_lf()")
        return _ind("\n".join(lines), levels)

    def sync(i, pc):
        src.block(sync_chunk(i, pc, 0).rstrip("\n"))

    for i, (handler, insn, pc, next_pc, paddr, paddr2) in enumerate(entries):
        kind = kinds[i]
        final = i == n - 1
        if icache is not None:
            for pa in (paddr,) if paddr2 is None else (paddr, paddr2):
                line = pa >> ishift
                if line == last_line:
                    # Same line as the previous fetch in this block:
                    # resident and already MRU, so the probe is a no-op
                    # hit (mirrors step_block's last_line shortcut).
                    pcum += 1
                else:
                    src.block(_IPROBE.format(si=line & imask, line=line,
                                             iways=iways, penalty=penalty))
                    last_line = line
        if final and (kind in ("alu", "branch", "jal", "jalr")
                      or (kind in ("load", "store") and dside)):
            # Kinds that emit sync() on their mainline catch up there;
            # everything else needs the counters current before its
            # retire-and-return epilogue.
            cflush(i)

        if kind == "alu":
            name = insn.name
            if name in INLINE_MULDIV:
                src(f"stats.muldiv_cycles += {params.mul_latency}")
                src(f"stats.cycles += {params.mul_latency}")
            if insn.rd:
                if name == "lui":
                    src(f"r{insn.rd} = {to_u64(sext(insn.imm << 12, 32))}")
                elif name == "auipc":
                    src(f"r{insn.rd} = "
                        f"{to_u64(pc + sext(insn.imm << 12, 32))}")
                elif name in ALU_IMM:
                    src(f"r{insn.rd} = "
                        f"{ALU_IMM[name](rx(insn.rs1), insn.imm)}")
                else:
                    src(f"r{insn.rd} = "
                        f"{ALU_REG[name](rx(insn.rs1), rx(insn.rs2))}")

        elif kind == "load":
            width, signed = LOAD_INFO[insn.name]
            a = rx(insn.rs1)
            if not dside:
                sync(i, pc)
                src(f"v = load(({a} + {insn.imm}) & {_M}, "
                    f"{width}, {signed})")
            else:
                cond = "dok" if width == 1 else \
                    f"not va & {width - 1} and dok"
                sg = ""
                if signed and width < 8:
                    sbit = 1 << (width * 8 - 1)
                    src_sg = (f"if v >= {sbit}:\n"
                              f"    v = (v - {1 << (width * 8)}) & {_M}")
                    sg = _ind(src_sg, 3)
                src.block(_LOAD_FAST.format(a=a, imm=insn.imm, m=_M,
                                            cond=cond, dc=dc, sg=sg,
                                            w=width, signed=signed, pc=pc,
                                            fb=sync_chunk(i, pc, 1),
                                            rp=sync_chunk(i, pc, 3)))
            if insn.rd:
                src(f"r{insn.rd} = v")

        elif kind == "roload":
            # Never cached: every ROLoad takes the full MMU.translate
            # path so the read-only + key check actually runs.
            width, signed = RO_INFO[insn.name]
            sync(i, pc)
            src(f"v = load({rx(insn.rs1)}, {width}, {signed}, "
                f"\"read_ro\", {insn.key})")
            if insn.rd:
                src(f"r{insn.rd} = v")

        elif kind == "store":
            width = STORE_INFO[insn.name]
            a = rx(insn.rs1)
            val = rx(insn.rs2)
            if not dside:
                sync(i, pc)
                src(f"store(({a} + {insn.imm}) & {_M}, {width}, {val})")
            else:
                cond = "dok" if width == 1 else \
                    f"not va & {width - 1} and dok"
                src.block(_STORE_FAST.format(
                    a=a, imm=insn.imm, m=_M, cond=cond, dc=dc, w=width,
                    val=val, wmask=(1 << (width * 8)) - 1, pc=pc,
                    fb=sync_chunk(i, pc, 1),
                    rp=sync_chunk(i, pc, 3)))
            if not final:
                # The store may have hit cached code: the rest of this
                # block's entries are stale. Retire the store, make the
                # register file current, and bail to the trampoline
                # (which resets the flag), exactly like the replay loop.
                src("if core._block_abort:")
                src.indent()
                cflush(i)
                src("stats.instructions += 1")
                src(f"stats.cycles += {cpi}")
                flush()
                lf()
                src(f"return {next_pc}")
                src.dedent()

        elif kind == "generic":
            slot = hidx[i]
            sync(i, pc)
            flush()
            if final:
                src(f"res = H{slot}(core, I{slot}, {pc})")
                src("stats.instructions += 1")
                src(f"stats.cycles += {cpi}")
                src(f"return {next_pc} if res is None else res")
            else:
                src(f"H{slot}(core, I{slot}, {pc})")
                if insn.rd and insn.rd in reg_locals:
                    src(f"r{insn.rd} = regs[{insn.rd}]")
                if use_ds:
                    # Handlers may not change the privilege mode without
                    # ending the block, but a refresh here is cheap and
                    # keeps the hoist honest.
                    src("um = not mmu.user_mode")
                src("if core._block_abort:")
                src.indent()
                src("stats.instructions += 1")
                src(f"stats.cycles += {cpi}")
                src(f"return {next_pc}")
                src.dedent()

        elif kind == "branch":
            cond = BRANCH_COND[insn.name](rx(insn.rs1), rx(insn.rs2))
            tbp = params.taken_branch_penalty
            src(f"if {cond}:")
            src.indent()
            src(f"stats.branch_penalty_cycles += {tbp}")
            src("stats.instructions += 1")
            src(f"stats.cycles += {tbp + cpi}")
            flush()
            lf()
            src(f"return {to_u64(pc + insn.imm)}")
            src.dedent()
            src("stats.instructions += 1")
            src(f"stats.cycles += {cpi}")
            flush()
            lf()
            src(f"return {next_pc}")

        elif kind == "jal":
            jp = params.jump_penalty
            if insn.rd:
                src(f"r{insn.rd} = {pc + insn.length}")
            src(f"stats.branch_penalty_cycles += {jp}")
            src("stats.instructions += 1")
            src(f"stats.cycles += {jp + cpi}")
            flush()
            lf()
            src(f"return {to_u64(pc + insn.imm)}")

        elif kind == "jalr":
            jp = params.jump_penalty
            # Target before the link write: rd may alias rs1.
            src(f"t = ({rx(insn.rs1)} + {insn.imm}) & "
                f"0xFFFFFFFFFFFFFFFE")
            if insn.rd:
                src(f"r{insn.rd} = {pc + insn.length}")
            src(f"stats.branch_penalty_cycles += {jp}")
            src("stats.instructions += 1")
            src(f"stats.cycles += {jp + cpi}")
            flush()
            lf()
            src("return t")

        if final and kind in ("alu", "load", "store", "roload"):
            src("stats.instructions += 1")
            src(f"stats.cycles += {cpi}")
            flush()
            lf()
            src(f"return {next_pc}")

    if wlist:
        src.dedent()
        src("except BaseException:")
        src.indent()
        # Register locals mirror the architectural registers at every
        # point (counters were flushed before the trapping entry), so
        # this repair is exact and idempotent. Every raising call site
        # already ran _lf, so the extra flush here is a no-op backstop
        # (it only matters for asynchronous exceptions).
        if use_lf:
            src("_lf()")
        for k in wlist:
            src(f"regs[{k}] = r{k}")
        src("raise")
        src.dedent()
    src.dedent()
    src("return _block")

    ns = {
        "_S": _SENTINEL,
        "Trap": Trap,
        "LPF": Cause.LOAD_PAGE_FAULT,
        "SPF": Cause.STORE_PAGE_FAULT,
    }
    return src.text(), ns, hs
