"""In-order RV64IMAC core with ROLoad-family instruction support.

The execute engine is a functional interpreter with a cycle-accounting
timing model. ROLoad instructions (``ld.ro`` family and ``c.ld.ro``)
decode into a new memory-operation type (:data:`MemOp.READ_RO`) carrying
the instruction key, exactly as the paper adds a new entry to Rocket's
``MemoryOpConstants``; the MMU performs the read-only + key check.

When ``roload_enabled`` is False the core models the *baseline* (unmodified)
processor: the custom-0 opcode space is unimplemented and raises an
illegal-instruction trap. This is the hardware half of the three-system
comparison in §V-B.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Optional

from repro import config as _config
from repro.errors import DecodingError, SimulationError
from repro.isa.compressed import decode_compressed
from repro.isa.encoding import decode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    LOAD_INFO as _LOAD_INFO,
    RO_INFO as _RO_INFO,
    STORE_INFO as _STORE_INFO,
    MemOp,
)
from repro.cpu import flatcore as _flatcore, regions as _regions
from repro.cpu.csr import CSRFile
from repro.cpu.flatcore import (
    bind as _bind_unit,
    compile_block as _compile_block,
    compile_region as _compile_region,
    lowering_key as _lowering_key,
)
from repro.cpu.regions import DEFER as _REGION_DEFER
from repro.cpu.timing import TimingModel
from repro.cpu.trap import Cause, Trap
from repro.mem.cache import Cache
from repro.mem.faults import PageFault
from repro.obs import OBS as _OBS
from repro.utils.bits import (
    MASK64,
    sext,
    sext32_to_u64,
    to_s64,
    to_u64,
)

# Decode caches are keyed on raw instruction bits; bound them so large or
# self-modifying code cannot grow them without limit. Each core copies the
# caps into instance attributes, so a test can shrink them on one core.
DECODE_CACHE_CAP = 65536    # entries per decode cache (bits -> Instruction)
BLOCK_CACHE_CAP = 4096      # tier-1 blocks (start pc -> block)
REGION_BLOCKS = 16          # max member blocks of one tier-4 region

# Instructions that end a basic block: anything that can redirect the pc,
# trap by design, or change translation/decode state mid-stream.
_BLOCK_TERMINATORS = frozenset({
    "jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu",
    "ecall", "ebreak", "fence", "fence.i",
    "csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci",
})


class MMIORegion:
    """A memory-mapped device window (physical addresses)."""

    def __init__(self, base: int, size: int,
                 read: "Optional[Callable[[int, int], int]]" = None,
                 write: "Optional[Callable[[int, int, int], None]]" = None):
        self.base = base
        self.size = size
        self.read = read
        self.write = write

    def contains(self, paddr: int) -> bool:
        return self.base <= paddr < self.base + self.size


class Core:
    """Single-hart RV64IMAC core."""

    def __init__(self, memory, mmu, *, icache: "Cache | None" = None,
                 dcache: "Cache | None" = None,
                 timing: "TimingModel | None" = None,
                 roload_enabled: bool = True):
        self.memory = memory
        self.mmu = mmu
        self.icache = icache
        self.dcache = dcache
        self.timing = timing or TimingModel()
        self.roload_enabled = roload_enabled
        self.regs = [0] * 32
        self.pc = 0
        self.csr = CSRFile(self)
        self.reservation: "int | None" = None
        self.mmio: "list[MMIORegion]" = []
        self._decode_cache: "dict[int, Instruction]" = {}
        self._decode_cache_c: "dict[int, Instruction]" = {}
        self._decode_cache_cap = DECODE_CACHE_CAP
        self._block_cache_cap = BLOCK_CACHE_CAP
        self._current_pc = 0
        # Fetch fast path: vpn -> physical page base, valid for one MMU
        # generation (bounded by the I-TLB capacity to keep the reach
        # realistic).
        self._fetch_pages: "dict[int, int]" = {}
        self._fetch_generation = -1
        itlb = getattr(mmu, "itlb", None)
        self._fetch_cache_cap = itlb.capacity if itlb is not None else 32
        # Fast-path machinery (DESIGN.md "Simulation performance
        # architecture"). Purely an interpreter implementation detail:
        # architectural results are bit-identical in every tier
        # (REPRO_TIER, repro.config), which is read once, here.
        tier = _config.current().tier
        self.fast_path_enabled = tier != "slow"
        # Basic-block translation cache: start pc -> (entries, vpn, frame).
        self._blocks: "dict[int, tuple]" = {}
        self._block_generation = -1
        # Physical frames holding cached or adopted code; guest stores
        # into them invalidate the block cache (self-modifying code
        # without fence.i). The memory shares the set and raises
        # ``code_written`` when a host write lands in one of them
        # (DESIGN.md §8).
        self._code_frames: "set[int]" = set()
        memory.code_frames = self._code_frames
        # Shared translations adopted from a warm snapshot
        # (repro.cpu.translations), bound unit by unit on first dispatch.
        self._adopted = None
        # Set by _flush_blocks so an in-flight replay stops at the end of
        # the current instruction: its remaining pre-decoded entries may
        # be stale (a store patched code later in the same block).
        self._block_abort = False
        # D-side fast path: vpn -> frame base for pages proven plain
        # (non-MMIO) this MMU generation; permissions are re-checked
        # against the live D-TLB entry on every hit. A zero cap disables
        # it (MMU backends without a D-TLB, e.g. the keyed PMP).
        dtlb = getattr(mmu, "dtlb", None)
        self._dside_cap = dtlb.capacity if dtlb is not None else 0
        self._dload_pages: "dict[int, int]" = {}
        self._dstore_pages: "dict[int, int]" = {}
        self._dside_generation = -1
        # Tier 4 (DESIGN.md §9, §12-13). Every block is lowered to the
        # flat core on its first dispatch (a short run executes most
        # blocks once or twice, and a lowered block serves its loads and
        # stores natively), one block each
        # (repro.cpu.flatcore.compile_block), and chained directly; a pc
        # is lowered at most once per cache lifetime. These tier-2
        # blocks are what regions are planned from. Lowered units run on
        # the native runner only: where it could not be built, the core
        # runs tier 1 (DESIGN.md §13.1).
        self.jit_enabled = tier == "tier4" and _flatcore._native is not None
        self._jit_blocks: "dict[int, object]" = {}   # start pc -> JITBlock
        self.jit_compiled = 0   # blocks compiled (cumulative)
        self.jit_flushes = 0    # times the compiled cache was dropped
        self.jit_compile_seconds = 0.0   # host time lowering tier-2 blocks
        # Regions: pcs arrived at REGION_THRESHOLD times through the
        # compiled-block trampoline get a superblock planned around them
        # (repro.cpu.regions) and lowered to the flat representation
        # (repro.cpu.flatcore); the trampoline records block-successor
        # edge counts (JITBlock.edges) as the direction profile.
        self.region_threshold = _regions.REGION_THRESHOLD
        self.region_blocks = REGION_BLOCKS
        self._regions: "dict[int, object]" = {}      # head pc -> Region
        self._region_counts: "dict[int, int]" = {}   # arrival counters
        self._region_nojit: "set[int]" = set()       # pcs pinned to tier 2
        self.regions_compiled = 0       # regions lowered (cumulative)
        self.region_side_exits = 0      # cold-direction guard exits taken
        self.region_compile_seconds = 0.0  # host time in compile_region
        # Invalidation attribution: reason -> count of translation-cache
        # flushes that actually dropped cached state (DESIGN.md §10).
        self.flush_causes: "dict[str, int]" = {}
        # Tier-residency counters. Retirements are attributed to the
        # interpreter tier that executed them: tier 0 (step), tier 1
        # (step_block replay; batched at the same points the deferred
        # stats counters flush), and tier 2 derived as
        # instret - tier0 - tier1 (compiled code bumps the architectural
        # counters directly, so the derivation adds zero work there).
        self.tier0_retired = 0
        self.tier1_retired = 0
        # Tier-4 retirements are measured as the architectural-counter
        # delta across each region call (regions bump stats directly);
        # tier 2 stays the derived remainder.
        self.tier4_retired = 0
        # Flat-core merged page memos: vpn -> (frame, ok_kernel, ok_user,
        # ppn), collapsing the D-side page lookup + D-TLB revalidation +
        # frame fetch into one dict hit. An entry is valid only while
        # (a) the vpn stays in the matching _d*_pages map — every del/
        # clear below purges the memo too — and (b) the D-TLB entry it
        # was derived from is still resident and unreplaced, enforced by
        # registering the memos as TLB shadows (see TLB.insert/flush).
        self._jload_memo: "dict[int, tuple]" = {}
        self._jstore_memo: "dict[int, tuple]" = {}
        if dtlb is not None:
            dtlb.shadows = (self._jload_memo, self._jstore_memo)
        # Optional per-retired-instruction callback: (pc, insn) -> None.
        # Used by repro.cpu.tracer; None costs one attribute test/step.
        # Prefer add_retire_hook/remove_retire_hook, which compose
        # multiple observers and deoptimize the tiered caches so the
        # callback really sees every retired instruction.
        self.trace_hook = None
        self._retire_hooks: "list" = []
        # Flight-recorder / attribution taps (repro.obs.register_system
        # installs them). None costs one attribute test at the batch
        # observation points only — never per instruction.
        self._sampler = None
        self._attrib = None

    # Always 0 (there is no tier 3); kept because bench/suite.py reads it.
    tier3_retired = 0

    # -- observability -------------------------------------------------------

    def __del__(self):
        # Bound units reach this core only weakly, but the chain links
        # of a hot loop make a ring of them, and each holds this core's
        # memory, MMU and caches: break the ring so they go with the
        # core instead of waiting for a full collection.
        for rec in getattr(self, "_jit_blocks", {}).values():
            rec.links.clear()

    def retired_by_tier(self) -> dict:
        """Retired instructions per tier (``tier0`` to ``tier4``, no
        tier 3); tier 2 is the remainder of ``instret``."""
        tier0, tier1 = self.tier0_retired, self.tier1_retired
        tier4 = self.tier4_retired
        return {"tier0": tier0, "tier1": tier1,
                "tier2": self.instret - tier0 - tier1 - tier4,
                "tier4": tier4}

    def tier_residency(self) -> dict:
        """Retired-instruction attribution per interpreter tier."""
        total = self.instret
        tiers = self.retired_by_tier()
        out = {"retired": total}
        out.update((f"{tier}_retired", count) for tier, count in tiers.items())
        out.update(
            jit_compiled=self.jit_compiled,
            jit_flushes=self.jit_flushes,
            jit_compile_seconds=round(self.jit_compile_seconds, 6),
            regions_compiled=self.regions_compiled,
            region_side_exits=self.region_side_exits,
            region_compile_seconds=round(self.region_compile_seconds, 6),
            flush_causes=dict(self.flush_causes))
        if total:
            out.update((f"{tier}_frac", round(count / total, 6))
                       for tier, count in tiers.items())
        return out

    def add_retire_hook(self, hook) -> None:
        """Attach a per-retired-instruction observer ((pc, insn) -> None).

        Attaching deoptimizes execution to the slow path — ``trace_hook``
        set routes every step_block call through :meth:`step` — and
        flushes the tier-1/tier-2 translation caches, so an observer
        attached mid-run sees every retired instruction from the next
        one on (no compiled chain keeps running underneath it). Multiple
        hooks compose in attach order.
        """
        self._retire_hooks.append(hook)
        self._rebuild_trace_hook()

    def remove_retire_hook(self, hook) -> None:
        """Detach an observer; re-optimization resumes when none remain."""
        try:
            self._retire_hooks.remove(hook)
        except ValueError:
            pass
        self._rebuild_trace_hook()

    def _rebuild_trace_hook(self) -> None:
        hooks = tuple(self._retire_hooks)
        if not hooks:
            self.trace_hook = None
        elif len(hooks) == 1:
            self.trace_hook = hooks[0]
        else:
            def fanout(pc, insn, _hooks=hooks):
                for hook in _hooks:
                    hook(pc, insn)
            self.trace_hook = fanout
        # Either direction (attach or detach) invalidates the cached
        # translations: stale compiled chains must not outlive a tracing
        # session, and a fresh session must not start on them.
        self._flush_blocks("tracer")

    # -- architectural counters ---------------------------------------------

    @property
    def cycles(self) -> int:
        return self.timing.stats.cycles

    @property
    def instret(self) -> int:
        return self.timing.stats.instructions

    @property
    def tier(self) -> str:
        """The tier this core runs (one of ``repro.config.TIERS``);
        tier 1 where tier 4 lacks the native runner."""
        if self.jit_enabled:
            return "tier4"
        return "tier1" if self.fast_path_enabled else "slow"

    # -- register helpers ----------------------------------------------------

    def read_reg(self, index: int) -> int:
        return self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index:
            self.regs[index] = value & MASK64

    # -- memory interface ----------------------------------------------------

    def add_mmio(self, region: MMIORegion) -> None:
        self.mmio.append(region)
        # Pages memoised as plain RAM may now overlap a device window.
        self._dload_pages.clear()
        self._dstore_pages.clear()
        self._jload_memo.clear()
        self._jstore_memo.clear()

    def _mmio_for(self, paddr: int) -> "MMIORegion | None":
        for region in self.mmio:
            if region.contains(paddr):
                return region
        return None

    def _translate(self, vaddr: int, memop: str, key: int = 0):
        try:
            return self.mmu.translate(vaddr, memop, key)
        except PageFault as fault:
            raise Trap(fault.scause, self._current_pc, tval=vaddr,
                       roload=fault.roload, roload_reason=fault.reason,
                       insn_key=fault.insn_key,
                       page_key=fault.page_key) from None

    def load(self, vaddr: int, width: int, signed: bool,
             memop: str = MemOp.READ, key: int = 0) -> int:
        if vaddr & (width - 1):
            raise Trap(Cause.MISALIGNED_LOAD, self._current_pc, tval=vaddr)
        if memop == MemOp.READ and self.fast_path_enabled:
            mmu = self.mmu
            if self._dside_generation == mmu.generation:
                vpn = vaddr >> 12
                ppn = self._dload_pages.get(vpn)
                if ppn is not None:
                    # Inlined TLB.probe_hit: count the hit and refresh LRU
                    # when resident; record nothing on a miss (the full
                    # translate path below then counts it exactly once).
                    dtlb = mmu.dtlb
                    entries = dtlb._entries
                    entry = entries.get(vpn)
                    if entry is not None:
                        entries.move_to_end(vpn)
                        dtlb.hits += 1
                        if entry.ppn == ppn:
                            mmu.stats.translations += 1
                            if entry.readable and (not mmu.user_mode
                                                   or entry.user):
                                off = vaddr & 0xFFF
                                paddr = (ppn << 12) | off
                                dcache = self.dcache
                                if dcache is not None:
                                    # Inlined Cache.access + timing.dcache.
                                    line = paddr >> dcache._line_shift
                                    ways = dcache._sets[
                                        line & (dcache.num_sets - 1)]
                                    if line in ways:
                                        ways.move_to_end(line)
                                        dcache.hits += 1
                                    else:
                                        dcache.misses += 1
                                        ways[line] = True
                                        if len(ways) > dcache.ways:
                                            ways.popitem(last=False)
                                        stats = self.timing.stats
                                        stats.dcache_misses += 1
                                        stats.cycles += \
                                            self.timing.params \
                                                .cache_miss_penalty
                                # Inlined PhysicalMemory.read: the page was
                                # proven in range when this entry was
                                # filled, and alignment keeps off+width
                                # inside it.
                                fb = self.memory._frames.get(ppn)
                                value = 0 if fb is None else int.from_bytes(
                                    fb[off:off + width], "little")
                                if signed:
                                    bits = width << 3
                                    if value >> (bits - 1):
                                        value = (value - (1 << bits)) \
                                            & MASK64
                                return value
                            # Permission lost while the entry stayed
                            # cached: the same outcome MMU._check would
                            # produce.
                            del self._dload_pages[vpn]
                            self._jload_memo.pop(vpn, None)
                            raise Trap(Cause.LOAD_PAGE_FAULT,
                                       self._current_pc, tval=vaddr)
                    # Evicted from the D-TLB (or remapped): retranslate.
                    del self._dload_pages[vpn]
                    self._jload_memo.pop(vpn, None)
            else:
                self._dload_pages.clear()
                self._dstore_pages.clear()
                self._jload_memo.clear()
                self._jstore_memo.clear()
                self._dside_generation = mmu.generation
        tr = self._translate(vaddr, memop, key)
        if tr.walk_accesses:
            self.timing.tlb_walk(tr.walk_accesses, instruction_side=False)
        region = self._mmio_for(tr.paddr) if self.mmio else None
        if region is not None and region.read is not None:
            value = region.read(tr.paddr, width)
        else:
            if self.dcache is not None:
                self.timing.dcache(self.dcache.access(tr.paddr))
            value = self.memory.read(tr.paddr, width)
            if (region is None and memop == MemOp.READ and self._dside_cap
                    and self.fast_path_enabled and not self.mmu.bare):
                if len(self._dload_pages) >= self._dside_cap:
                    self._dload_pages.clear()
                    self._jload_memo.clear()
                self._dload_pages[vaddr >> 12] = tr.paddr >> 12
        if signed:
            return to_u64(sext(value, width * 8))
        return value

    def store(self, vaddr: int, width: int, value: int,
              memop: str = MemOp.WRITE) -> None:
        if vaddr & (width - 1):
            raise Trap(Cause.MISALIGNED_STORE, self._current_pc, tval=vaddr)
        if memop == MemOp.WRITE and self.fast_path_enabled:
            mmu = self.mmu
            if self._dside_generation == mmu.generation:
                vpn = vaddr >> 12
                ppn = self._dstore_pages.get(vpn)
                if ppn is not None:
                    # Inlined TLB.probe_hit (see load()).
                    dtlb = mmu.dtlb
                    entries = dtlb._entries
                    entry = entries.get(vpn)
                    if entry is not None:
                        entries.move_to_end(vpn)
                        dtlb.hits += 1
                        if entry.ppn == ppn:
                            mmu.stats.translations += 1
                            if entry.writable and (not mmu.user_mode
                                                   or entry.user):
                                off = vaddr & 0xFFF
                                paddr = (ppn << 12) | off
                                if self._code_frames \
                                        and ppn in self._code_frames:
                                    self._flush_blocks()
                                dcache = self.dcache
                                if dcache is not None:
                                    # Inlined Cache.access + timing.dcache.
                                    line = paddr >> dcache._line_shift
                                    ways = dcache._sets[
                                        line & (dcache.num_sets - 1)]
                                    if line in ways:
                                        ways.move_to_end(line)
                                        dcache.hits += 1
                                    else:
                                        dcache.misses += 1
                                        ways[line] = True
                                        if len(ways) > dcache.ways:
                                            ways.popitem(last=False)
                                        stats = self.timing.stats
                                        stats.dcache_misses += 1
                                        stats.cycles += \
                                            self.timing.params \
                                                .cache_miss_penalty
                                # Inlined PhysicalMemory.write (page in
                                # range, access alignment-contained).
                                frames = self.memory._frames
                                fb = frames.get(ppn)
                                if fb is None:
                                    fb = bytearray(4096)
                                    frames[ppn] = fb
                                fb[off:off + width] = \
                                    (value & ((1 << (width << 3)) - 1)) \
                                    .to_bytes(width, "little")
                                return
                            del self._dstore_pages[vpn]
                            self._jstore_memo.pop(vpn, None)
                            raise Trap(Cause.STORE_PAGE_FAULT,
                                       self._current_pc, tval=vaddr)
                    del self._dstore_pages[vpn]
                    self._jstore_memo.pop(vpn, None)
            else:
                self._dload_pages.clear()
                self._dstore_pages.clear()
                self._jload_memo.clear()
                self._jstore_memo.clear()
                self._dside_generation = mmu.generation
        tr = self._translate(vaddr, memop)
        if tr.walk_accesses:
            self.timing.tlb_walk(tr.walk_accesses, instruction_side=False)
        region = self._mmio_for(tr.paddr) if self.mmio else None
        if region is not None and region.write is not None:
            region.write(tr.paddr, width, value)
            return
        if self._code_frames and (tr.paddr >> 12) in self._code_frames:
            self._flush_blocks()
        if self.dcache is not None:
            self.timing.dcache(self.dcache.access(tr.paddr))
        self.memory.write(tr.paddr, width, value)
        if (region is None and memop == MemOp.WRITE and self._dside_cap
                and self.fast_path_enabled and not self.mmu.bare):
            if len(self._dstore_pages) >= self._dside_cap:
                self._dstore_pages.clear()
                self._jstore_memo.clear()
            self._dstore_pages[vaddr >> 12] = tr.paddr >> 12

    def _jload_fill(self, vpn: int) -> "tuple | None":
        """Populate the flat core's load memo for one page.

        Fills only when the full inline fast path would succeed right
        now: vpn in the D-side page cache, D-TLB entry resident with a
        matching ppn, physical frame materialized. Pure — no counter or
        LRU side effects; on None the compiled code falls back to
        :meth:`load`, whose eager path performs (and counts) the exact
        slow-path semantics.
        """
        ppn = self._dload_pages.get(vpn)
        if ppn is None:
            return None
        entry = self.mmu.dtlb._entries.get(vpn)
        if entry is None or entry.ppn != ppn:
            return None
        fb = self.memory._frames.get(ppn)
        if fb is None:
            # Keep never-written pages uncached: the frame object the
            # memo would pin doesn't exist yet.
            return None
        memo = (fb, entry.readable, entry.readable and entry.user, ppn)
        self._jload_memo[vpn] = memo
        return memo

    def _jstore_fill(self, vpn: int) -> "tuple | None":
        """Store-side twin of :meth:`_jload_fill`."""
        ppn = self._dstore_pages.get(vpn)
        if ppn is None:
            return None
        entry = self.mmu.dtlb._entries.get(vpn)
        if entry is None or entry.ppn != ppn:
            return None
        fb = self.memory._frames.get(ppn)
        if fb is None:
            return None
        memo = (fb, entry.writable, entry.writable and entry.user, ppn)
        self._jstore_memo[vpn] = memo
        return memo

    # -- fetch/decode --------------------------------------------------------

    def flush_decode_cache(self, reason: str = "fence.i") -> None:
        """Called on fence.i and address-space changes."""
        self._decode_cache.clear()
        self._decode_cache_c.clear()
        self._flush_blocks(reason)

    def adopt_translations(self, translations) -> bool:
        """Start from shared :class:`~repro.cpu.translations.Translations`.

        Only on a core that has translated nothing yet, runs the fast
        path, and lowers exactly as the value's units were lowered
        (:func:`~repro.cpu.flatcore.lowering_key`). The units are bound
        lazily, each on its first dispatch (:meth:`_bind_adopted`,
        :meth:`_build_block`), and only for the tiers this core runs.
        Their code frames join ``_code_frames`` at once, so a store or
        host write into adopted but unbound code invalidates it like
        bound code. Returns whether
        the value was adopted; the caller (the kernel) then treats the
        current MMU generation as the one the code was cached under.
        """
        if translations is None or not self.fast_path_enabled \
                or self._blocks or self._adopted is not None \
                or translations.key != _lowering_key(self):
            return False
        self._adopted = translations
        self._code_frames.update(translations.frames)
        self._block_generation = self.mmu.generation
        return True

    def keep_translations(self, generation: int) -> bool:
        """Carry decoded and lowered code across an MMU generation bump.

        For :meth:`Kernel._schedule <repro.kernel.kernel.Kernel._schedule>`
        only, after reinstalling the same, unchanged address space that
        was descheduled at MMU ``generation``. If the cached code was
        current then, its block generation is re-based onto the MMU's
        and True is returned; otherwise nothing changes and the caller
        flushes. The fetch-page cache and the D-side memos still follow
        the MMU generation, so kept code re-walks its pages exactly as a
        cold run would.
        """
        if self._block_generation != generation:
            return False
        self._block_generation = self.mmu.generation
        return True

    def _flush_blocks(self, reason: str = "smc") -> None:
        """Drop cached basic blocks (fence.i, SMC store, generation bump).

        Tier-2 blocks and their chain links go with them: a stale link
        could otherwise jump straight into code that no longer exists.
        Adopted translations not yet bound go too. ``reason`` attributes
        the invalidation (``flush_causes``) and is exported by the
        observability layer; causes are only charged for flushes that
        actually dropped cached state.
        """
        dropped_blocks = len(self._blocks)
        dropped_jit = len(self._jit_blocks)
        dropped_regions = len(self._regions)
        adopted = self._adopted is not None
        self._blocks.clear()
        self._code_frames.clear()
        self.memory.code_written = False
        self._adopted = None
        if dropped_jit:
            for rec in self._jit_blocks.values():
                rec.links.clear()
                rec.edges.clear()
            self._jit_blocks.clear()
            self.jit_flushes += 1
        # Regions are built FROM tier-2 blocks, so they can
        # never outlive them: the same flush drops regions, arrival
        # counters, and pins together.
        self._regions.clear()
        self._region_counts.clear()
        self._region_nojit.clear()
        self._block_abort = True
        if dropped_blocks or dropped_jit or adopted:
            self.flush_causes[reason] = \
                self.flush_causes.get(reason, 0) + 1
            if _OBS.enabled:
                # What a flush drops depends on the tier and on what was
                # cached or adopted, so it goes on the event stream only;
                # the audit chain records the guest's fence.i instead
                # (_h_fence_i).
                _OBS.events.emit("jit.flush" if dropped_jit
                                 else "block_cache.flush",
                                 reason=reason, blocks=dropped_blocks,
                                 compiled=dropped_jit,
                                 regions=dropped_regions, adopted=adopted)

    def _fetch_paddr(self, vaddr: int) -> int:
        """Translate a fetch address with a per-page fast path.

        The first access to each code page goes through the full MMU path
        (charging any TLB-walk cycles); later fetches from the same page
        reuse the cached frame until an sfence/satp change bumps the MMU
        generation. The cache is bounded by the I-TLB capacity so its
        reach stays architecturally honest.
        """
        if self._fetch_generation != self.mmu.generation:
            self._fetch_pages.clear()
            self._fetch_generation = self.mmu.generation
        vpn = vaddr >> 12
        base = self._fetch_pages.get(vpn)
        if base is None:
            tr = self._translate(vaddr, MemOp.FETCH)
            if tr.walk_accesses:
                self.timing.tlb_walk(tr.walk_accesses,
                                     instruction_side=True)
            base = tr.paddr & ~0xFFF
            if len(self._fetch_pages) >= self._fetch_cache_cap:
                self._fetch_pages.clear()
            self._fetch_pages[vpn] = base
        return base | (vaddr & 0xFFF)

    def _fetch_half(self, vaddr: int) -> int:
        paddr = self._fetch_paddr(vaddr)
        if self.icache is not None:
            self.timing.icache(self.icache.access(paddr))
        return self.memory.read(paddr, 2)

    def fetch(self, pc: int) -> Instruction:
        if pc & 1:
            raise Trap(Cause.MISALIGNED_FETCH, pc, tval=pc)
        if pc & 0xFFF <= 0xFFC:
            # Fast path: the whole (possible) 4-byte fetch stays in one
            # page — one translation, one read.
            paddr = self._fetch_paddr(pc)
            if self.icache is not None:
                self.timing.icache(self.icache.access(paddr))
            word = self.memory.read(paddr, 4)
            low = word & 0xFFFF
            compressed = (low & 0b11) != 0b11
            if not compressed and self.icache is not None \
                    and (pc & 63) == 62:
                # 4-byte instruction straddling a cache line.
                self.timing.icache(self.icache.access(paddr + 2))
        else:
            low = self._fetch_half(pc)
            compressed = (low & 0b11) != 0b11
            word = low if compressed else \
                low | (self._fetch_half(pc + 2) << 16)
        if compressed:
            insn = self._decode_cache_c.get(low)
            if insn is None:
                try:
                    insn = decode_compressed(low)
                except DecodingError:
                    raise Trap(Cause.ILLEGAL_INSTRUCTION, pc,
                               tval=low) from None
                if len(self._decode_cache_c) >= self._decode_cache_cap:
                    self._decode_cache_c.clear()
                self._decode_cache_c[low] = insn
        else:
            insn = self._decode_cache.get(word)
            if insn is None:
                try:
                    insn = decode(word)
                except DecodingError:
                    raise Trap(Cause.ILLEGAL_INSTRUCTION, pc,
                               tval=word) from None
                if len(self._decode_cache) >= self._decode_cache_cap:
                    self._decode_cache.clear()
                self._decode_cache[word] = insn
        if insn.semclass == "roload" and not self.roload_enabled:
            self._check_roload_implemented(insn, pc)
        return insn

    # [roload-begin: processor]
    def _check_roload_implemented(self, insn: Instruction, pc: int) -> None:
        if insn.semclass == "roload" and not self.roload_enabled:
            # Baseline processor: custom-0 space is not implemented.
            raise Trap(Cause.ILLEGAL_INSTRUCTION, pc, tval=insn.raw)
    # [roload-end]

    # -- execution -----------------------------------------------------------

    def step(self) -> None:
        """Fetch, decode, and execute one instruction.

        Raises :class:`Trap` for any synchronous exception (including
        ecall); the caller (the kernel model) handles it.
        """
        pc = self.pc
        self._current_pc = pc
        insn = self.fetch(pc)
        handler = _HANDLERS.get(insn.name)
        if handler is None:  # pragma: no cover - table is total
            raise Trap(Cause.ILLEGAL_INSTRUCTION, pc, tval=insn.raw)
        next_pc = handler(self, insn, pc)
        # Retirement is counted only for instructions that did not trap.
        self.timing.instruction()
        self.tier0_retired += 1
        if self.trace_hook is not None:
            self.trace_hook(pc, insn)
        self.pc = next_pc if next_pc is not None else \
            (pc + insn.length) & MASK64

    # -- basic-block fast path ----------------------------------------------

    def _build_block(self, pc: int) -> "tuple | None":
        """Decode the straight-line run starting at ``pc`` (one page max).

        Pure decode: nothing is charged here except the initial page
        translation, which the slow path would charge at the very same
        fetch. I-cache accesses are recorded per instruction and replayed
        in execution order by :meth:`step_block`. Returns None when the
        first instruction needs the slow path (misaligned pc, a fetch
        straddling the page, undecodable bits, or an unimplemented
        roload on the baseline core).
        """
        self._current_pc = pc
        frame = self._fetch_paddr(pc) & ~0xFFF
        if self._adopted is not None:
            recipe = self._adopted.blocks.get(pc)
            if recipe is not None and recipe[2] == frame:
                # Cached as it is: the fork skips the re-decode.
                self._cache_block(pc, recipe)
                return recipe
        vpn = pc >> 12
        memory = self.memory
        entries = []
        while True:
            off = pc & 0xFFF
            paddr = frame | off
            if off > 0xFFC:
                low = memory.read(paddr, 2)
                if low & 0b11 == 0b11:
                    break  # 32-bit fetch would straddle the page
                word = low
                compressed = True
            else:
                word = memory.read(paddr, 4)
                low = word & 0xFFFF
                compressed = (low & 0b11) != 0b11
            if compressed:
                insn = self._decode_cache_c.get(low)
                if insn is None:
                    try:
                        insn = decode_compressed(low)
                    except DecodingError:
                        break  # step() raises the illegal-instruction trap
                    if len(self._decode_cache_c) >= self._decode_cache_cap:
                        self._decode_cache_c.clear()
                    self._decode_cache_c[low] = insn
                paddr2 = None
            else:
                insn = self._decode_cache.get(word)
                if insn is None:
                    try:
                        insn = decode(word)
                    except DecodingError:
                        break
                    if len(self._decode_cache) >= self._decode_cache_cap:
                        self._decode_cache.clear()
                    self._decode_cache[word] = insn
                # A 4-byte instruction whose tail crosses an I-cache line
                # costs a second access, exactly as in fetch().
                paddr2 = paddr + 2 if (pc & 63) == 62 else None
            if insn.semclass == "roload" and not self.roload_enabled:
                break  # step() raises the illegal-instruction trap
            handler = _HANDLERS.get(insn.name)
            if handler is None:  # pragma: no cover - table is total
                break
            next_pc = (pc + insn.length) & MASK64
            entries.append((handler, insn, pc, next_pc, paddr, paddr2))
            if insn.name in _BLOCK_TERMINATORS:
                break
            if off + insn.length >= 0x1000:
                break  # the next instruction lives on another page
            pc = next_pc
        if not entries:
            return None
        block = (tuple(entries), vpn, frame)
        self._cache_block(entries[0][2], block)
        return block

    def _cache_block(self, pc: int, block: tuple) -> None:
        if len(self._blocks) >= self._block_cache_cap:
            self._flush_blocks("block_cache_capacity")
        self._blocks[pc] = block
        self._code_frames.add(block[2] >> 12)

    def _bind_adopted(self, pc: int):
        """Bind the adopted tier-2 block and region at ``pc`` on its
        first arrival, if this core lowers; returns the unit to dispatch
        (the region first), or None.

        Translates the fetch exactly as :meth:`_build_block` starts, and
        binds nothing unless the page still maps the frame the code was
        decoded from; a region's other pages are checked against the
        live page table. The tier-1 block is left to
        :meth:`_build_block`, which binds it only if it is replayed —
        unless a tier-2 block runs ``pc``; then it is cached at once,
        since the region planner reads it.
        """
        self._current_pc = pc
        frame = self._fetch_paddr(pc) & ~0xFFF
        adopted = self._adopted
        recipe = adopted.blocks.get(pc)
        if recipe is None or recipe[2] != frame or not self.jit_enabled:
            return None
        lowered = adopted.jit.get(pc)
        if lowered is not None:
            # The region planner reads tier-2 members' tier-1 blocks.
            self._cache_block(pc, recipe)
            if self._adopted is None:
                return None     # the capacity flush dropped the rest
        unit = self._jit_blocks.get(pc)
        if unit is None and lowered is not None:
            unit = self._jit_blocks[pc] = _bind_unit(self, lowered)
        region = self._regions.get(pc)
        if region is None:
            lowered = adopted.regions.get(pc)
            if lowered is not None \
                    and self._pages_mapped(lowered.pages[1:]):
                region = self._regions[pc] = _bind_unit(self, lowered)
        return unit if region is None else region

    def _pages_mapped(self, pages) -> bool:
        """Whether each (vpn, ppn) pair is the live page-table mapping
        (a walk with no architectural side effects)."""
        for vpn, ppn in pages:
            pte = self.mmu.probe(vpn << 12)
            if pte is None or pte.ppn != ppn:
                return False
        return True

    def step_block(self, limit: int = 1 << 62) -> None:
        """Execute up to ``limit`` (>= 1) instructions via the block cache.

        Falls back to :meth:`step` (one instruction, full fetch/decode
        path) whenever the fast path cannot apply. Architecturally
        indistinguishable from calling :meth:`step` in a loop.
        """
        if not self.fast_path_enabled or self.trace_hook is not None:
            self.step()
            return
        pc = self.pc
        if pc & 1:
            self.step()  # raises the misaligned-fetch trap
            return
        generation = self.mmu.generation
        if self._block_generation != generation:
            self._flush_blocks("mmu_generation")
            self._block_generation = generation
        elif self.memory.code_written:
            # A host write (a syscall copying into a code page) landed
            # in cached or adopted code since the last dispatch.
            self._flush_blocks("host_write")
        elif self._jit_blocks or self._regions:
            rec = self._regions.get(pc) if self._regions else None
            if rec is None:
                rec = self._jit_blocks.get(pc)
            if rec is not None and limit >= rec.n:
                self._run_jit(rec, pc, limit, generation)
                return
        block = self._blocks.get(pc)
        if block is None and self._adopted is not None:
            rec = self._bind_adopted(pc)
            if rec is not None and limit >= rec.n:
                self._run_jit(rec, pc, limit, generation)
                return
            block = self._blocks.get(pc)
        if block is None:
            block = self._build_block(pc)
            if block is None:
                self.step()
                return
        elif self._fetch_generation != generation \
                or block[1] not in self._fetch_pages:
            # The fetch page cache lost this page: retranslate exactly as
            # the slow path's next fetch would (charging any TLB walk).
            self._current_pc = pc
            self._fetch_paddr(pc)
        # A pc that has a tier-2 unit gets here only when the budget is
        # shorter than the unit to run: replay it, never lower it again.
        if self.jit_enabled and pc not in self._jit_blocks:
            began = perf_counter()
            rec = self._jit_blocks[pc] = _compile_block(self, block, pc)
            self.jit_compile_seconds += perf_counter() - began
            self.jit_compiled += 1
            if _OBS.enabled:
                _OBS.events.emit("jit.compile", pc=pc, instructions=rec.n,
                                 compiled_total=self.jit_compiled)
            if limit >= rec.n:
                self._run_jit(rec, pc, limit, generation)
                return
        timing = self.timing
        stats = timing.stats
        cpi = timing.params.base_cpi
        penalty = timing.params.cache_miss_penalty
        icache = self.icache
        entries = block[0]
        if limit < len(entries):
            entries = entries[:limit]
            if not entries:
                return
        if icache is not None:
            isets = icache._sets
            ishift = icache._line_shift
            imask = icache.num_sets - 1
            iways = icache.ways
        # Retirement counts for straight-line instructions are batched in
        # ``done`` (and I-cache hits in ``ihits``) and flushed before the
        # final entry executes — CSR reads of cycle/instret only happen in
        # terminators, which are always a block's last instruction — and
        # unconditionally on the way out (``finally``) when a handler
        # traps mid-block. Handlers' own penalty charges commute with the
        # deferred base-CPI additions, so the totals are bit-identical to
        # per-instruction accounting.
        done = 0
        ihits = 0
        last_line = -1
        attrib = self._attrib
        tier1_before = self.tier1_retired if attrib is not None else 0
        self._block_abort = False
        try:
            for handler, insn, ipc, next_pc, paddr, paddr2 in entries[:-1]:
                self._current_pc = ipc
                if icache is not None:
                    # Inlined timing.icache(icache.access(paddr)). When the
                    # line is the one this replay touched last, it is both
                    # resident and already most-recently-used, so the
                    # lookup and the LRU refresh are no-ops.
                    line = paddr >> ishift
                    if line == last_line:
                        ihits += 1
                    elif line in (ways := isets[line & imask]):
                        ways.move_to_end(line)
                        ihits += 1
                        last_line = line
                    else:
                        icache.misses += 1
                        ways[line] = True
                        if len(ways) > iways:
                            ways.popitem(last=False)
                        stats.icache_misses += 1
                        stats.cycles += penalty
                        last_line = line
                    if paddr2 is not None:
                        line = paddr2 >> ishift
                        ways = isets[line & imask]
                        if line in ways:
                            ways.move_to_end(line)
                            ihits += 1
                        else:
                            icache.misses += 1
                            ways[line] = True
                            if len(ways) > iways:
                                ways.popitem(last=False)
                            stats.icache_misses += 1
                            stats.cycles += penalty
                        last_line = line
                result = handler(self, insn, ipc)
                done += 1
                if result is not None:
                    self.pc = result
                    return
                self.pc = next_pc
                if self._block_abort:
                    # A store just invalidated cached code: the rest of
                    # this block's pre-decoded entries may be stale.
                    # Resume at next_pc through a fresh fetch/decode.
                    self._block_abort = False
                    return
            # Flush deferred counters so a terminator that reads the
            # architectural counters (rdcycle/rdinstret, any CSR op) sees
            # exact values.
            stats.instructions += done
            stats.cycles += done * cpi
            self.tier1_retired += done
            done = 0
            if ihits:
                icache.hits += ihits
                ihits = 0
            handler, insn, ipc, next_pc, paddr, paddr2 = entries[-1]
            self._current_pc = ipc
            if icache is not None:
                line = paddr >> ishift
                ways = isets[line & imask]
                if line in ways:
                    ways.move_to_end(line)
                    icache.hits += 1
                else:
                    icache.misses += 1
                    ways[line] = True
                    if len(ways) > iways:
                        ways.popitem(last=False)
                    stats.icache_misses += 1
                    stats.cycles += penalty
                if paddr2 is not None:
                    line = paddr2 >> ishift
                    ways = isets[line & imask]
                    if line in ways:
                        ways.move_to_end(line)
                        icache.hits += 1
                    else:
                        icache.misses += 1
                        ways[line] = True
                        if len(ways) > iways:
                            ways.popitem(last=False)
                        stats.icache_misses += 1
                        stats.cycles += penalty
            result = handler(self, insn, ipc)
            stats.instructions += 1
            stats.cycles += cpi
            self.tier1_retired += 1
            if result is not None:
                self.pc = result
            else:
                self.pc = next_pc
            if self._block_abort:
                self._block_abort = False
        finally:
            if done:
                stats.instructions += done
                stats.cycles += done * cpi
                self.tier1_retired += done
            if ihits:
                icache.hits += ihits
            if attrib is not None:
                retired = self.tier1_retired - tier1_before
                if retired:
                    attrib.record(1, pc, retired)

    def _run_jit(self, rec, pc: int, limit: int, generation: int) -> None:
        """Execute compiled code (tier-2 blocks and tier-4 regions),
        chaining from one unit to the next without re-entering the
        dispatch loop.

        Chaining stops when the budget cannot cover a whole successor,
        an invalidation fires (``_block_abort`` set by a self-modifying
        store or fence.i, or an MMU generation bump), or the successor
        is not compiled. The per-iteration fetch-page recheck mirrors
        step_block's cached-block dispatch: losing the code page from
        the fetch cache costs the same retranslation the slow path's
        next fetch would charge.

        Every unit takes the budget and retires a measured count, the
        architectural-counter delta across the call: a region's loop
        re-checks the budget at each backedge and a block can leave
        early (a store into its own code). That count is charged to the
        budget, to the unit's tier and to attribution.

        Every block-to-successor transition also feeds the region
        profile: the block's ``edges`` counters record observed
        successors (the branch-direction profile) and the per-pc arrival
        counters trigger ``compile_region`` past ``region_threshold``
        (:data:`repro.cpu.regions.REGION_THRESHOLD`).
        """
        mmu = self.mmu
        stats = self.timing.stats
        fetch_pages = self._fetch_pages
        jit_blocks = self._jit_blocks
        regions = self._regions
        counts = self._region_counts
        nojit = self._region_nojit
        threshold = self.region_threshold
        sampler = self._sampler
        attrib = self._attrib
        self._block_abort = False
        while True:
            if sampler is not None \
                    and stats.instructions >= sampler.next_at:
                sampler.sample(self)
            if self._fetch_generation != generation \
                    or rec.vpn not in fetch_pages:
                self._current_pc = pc
                self._fetch_paddr(pc)
            before = stats.instructions
            try:
                pc = rec.fn(limit)
            finally:
                retired = stats.instructions - before
                if rec.region:
                    self.tier4_retired += retired
            limit -= retired
            if attrib is not None:
                attrib.record(rec.tier, rec.start_pc, retired)
            self.pc = pc
            if self._block_abort:
                self._block_abort = False
                return
            if mmu.generation != generation:
                return
            if rec.region:
                nxt = regions.get(pc) or jit_blocks.get(pc)
                if nxt is None or limit < nxt.n:
                    return
                rec = nxt
                continue
            edges = rec.edges
            edges[pc] = edges.get(pc, 0) + 1
            nxt = regions.get(pc)
            if nxt is None and pc not in nojit:
                seen = counts.get(pc, 0) + 1
                if seen < threshold:
                    counts[pc] = seen
                else:
                    began = perf_counter()
                    nxt = _compile_region(self, pc, seen)
                    self.region_compile_seconds += perf_counter() - began
                    if nxt is _REGION_DEFER:
                        counts[pc] = seen
                        nxt = None
                    elif nxt is None:
                        counts.pop(pc, None)
                        nojit.add(pc)
                    else:
                        counts.pop(pc, None)
                        regions[pc] = nxt
                        self.regions_compiled += 1
                        if _OBS.enabled:
                            _OBS.events.emit(
                                "region.compile", pc=pc, blocks=len(nxt.pcs),
                                instructions=nxt.n, loop=nxt.loop,
                                compiled_total=self.regions_compiled)
            if nxt is not None:
                if limit < nxt.n:
                    return
                rec = nxt
                continue
            nxt = rec.links.get(pc)
            if nxt is None:
                nxt = jit_blocks.get(pc)
                if nxt is None:
                    return
                rec.links[pc] = nxt
            if limit < nxt.n:
                return
            rec = nxt

    def run(self, max_instructions: int,
            trap_handler: "Optional[Callable[[Trap], bool]]" = None) -> int:
        """Run until a trap goes unhandled or the budget is exhausted.

        ``trap_handler`` returns True to resume (it must fix up ``pc``) or
        False to stop. Returns the number of instructions retired.
        """
        start = self.instret
        while True:
            remaining = max_instructions - (self.instret - start)
            if remaining <= 0:
                raise SimulationError(
                    f"instruction budget ({max_instructions}) exhausted at "
                    f"pc={self.pc:#x}")
            try:
                self.step_block(remaining)
            except Trap as trap:
                if trap_handler is None or not trap_handler(trap):
                    return self.instret - start


# ---------------------------------------------------------------------------
# Instruction handlers. Each takes (core, insn, pc) and returns the next pc
# (or None for pc + length).
# ---------------------------------------------------------------------------


def _h_lui(core, insn, pc):
    core.write_reg(insn.rd, to_u64(sext(insn.imm << 12, 32)))


def _h_auipc(core, insn, pc):
    core.write_reg(insn.rd, to_u64(pc + sext(insn.imm << 12, 32)))


def _h_jal(core, insn, pc):
    core.write_reg(insn.rd, pc + insn.length)
    core.timing.jump()
    return to_u64(pc + insn.imm)


def _h_jalr(core, insn, pc):
    target = (core.regs[insn.rs1] + insn.imm) & MASK64 & ~1
    core.write_reg(insn.rd, pc + insn.length)
    core.timing.jump()
    return target


def _branch(core, insn, pc, taken):
    if taken:
        core.timing.taken_branch()
        return to_u64(pc + insn.imm)
    return None


def _h_beq(core, insn, pc):
    return _branch(core, insn, pc,
                   core.regs[insn.rs1] == core.regs[insn.rs2])


def _h_bne(core, insn, pc):
    return _branch(core, insn, pc,
                   core.regs[insn.rs1] != core.regs[insn.rs2])


def _h_blt(core, insn, pc):
    return _branch(core, insn, pc,
                   to_s64(core.regs[insn.rs1]) < to_s64(core.regs[insn.rs2]))


def _h_bge(core, insn, pc):
    return _branch(core, insn, pc,
                   to_s64(core.regs[insn.rs1]) >= to_s64(core.regs[insn.rs2]))


def _h_bltu(core, insn, pc):
    return _branch(core, insn, pc,
                   core.regs[insn.rs1] < core.regs[insn.rs2])


def _h_bgeu(core, insn, pc):
    return _branch(core, insn, pc,
                   core.regs[insn.rs1] >= core.regs[insn.rs2])


def _make_load(name):
    width, signed = _LOAD_INFO[name]

    def handler(core, insn, pc):
        vaddr = (core.regs[insn.rs1] + insn.imm) & MASK64
        core.write_reg(insn.rd, core.load(vaddr, width, signed))
    return handler


# [roload-begin: processor]
def _make_roload(name):
    width, signed = _RO_INFO[name]

    def handler(core, insn, pc):
        # No offset: the immediate field carries the key (paper §III-A).
        vaddr = core.regs[insn.rs1]
        core.write_reg(insn.rd, core.load(vaddr, width, signed,
                                          memop=MemOp.READ_RO,
                                          key=insn.key))
    return handler
# [roload-end]


def _make_store(name):
    width = _STORE_INFO[name]

    def handler(core, insn, pc):
        vaddr = (core.regs[insn.rs1] + insn.imm) & MASK64
        core.store(vaddr, width, core.regs[insn.rs2])
    return handler


# ALU — immediate forms.

def _h_addi(core, insn, pc):
    core.write_reg(insn.rd, (core.regs[insn.rs1] + insn.imm) & MASK64)


def _h_slti(core, insn, pc):
    core.write_reg(insn.rd,
                   1 if to_s64(core.regs[insn.rs1]) < insn.imm else 0)


def _h_sltiu(core, insn, pc):
    core.write_reg(insn.rd,
                   1 if core.regs[insn.rs1] < to_u64(insn.imm) else 0)


def _h_xori(core, insn, pc):
    core.write_reg(insn.rd, (core.regs[insn.rs1] ^ to_u64(insn.imm)))


def _h_ori(core, insn, pc):
    core.write_reg(insn.rd, (core.regs[insn.rs1] | to_u64(insn.imm)))


def _h_andi(core, insn, pc):
    core.write_reg(insn.rd, (core.regs[insn.rs1] & to_u64(insn.imm)))


def _h_slli(core, insn, pc):
    core.write_reg(insn.rd, (core.regs[insn.rs1] << insn.imm) & MASK64)


def _h_srli(core, insn, pc):
    core.write_reg(insn.rd, core.regs[insn.rs1] >> insn.imm)


def _h_srai(core, insn, pc):
    core.write_reg(insn.rd, to_u64(to_s64(core.regs[insn.rs1]) >> insn.imm))


def _h_addiw(core, insn, pc):
    core.write_reg(insn.rd, sext32_to_u64(core.regs[insn.rs1] + insn.imm))


def _h_slliw(core, insn, pc):
    core.write_reg(insn.rd, sext32_to_u64(core.regs[insn.rs1] << insn.imm))


def _h_srliw(core, insn, pc):
    value = core.regs[insn.rs1] & 0xFFFF_FFFF
    core.write_reg(insn.rd, sext32_to_u64(value >> insn.imm))


def _h_sraiw(core, insn, pc):
    value = sext(core.regs[insn.rs1], 32)
    core.write_reg(insn.rd, sext32_to_u64(value >> insn.imm))


# ALU — register forms.

def _h_add(core, insn, pc):
    core.write_reg(insn.rd,
                   (core.regs[insn.rs1] + core.regs[insn.rs2]) & MASK64)


def _h_sub(core, insn, pc):
    core.write_reg(insn.rd,
                   (core.regs[insn.rs1] - core.regs[insn.rs2]) & MASK64)


def _h_sll(core, insn, pc):
    shamt = core.regs[insn.rs2] & 63
    core.write_reg(insn.rd, (core.regs[insn.rs1] << shamt) & MASK64)


def _h_slt(core, insn, pc):
    core.write_reg(insn.rd, 1 if to_s64(core.regs[insn.rs1]) <
                   to_s64(core.regs[insn.rs2]) else 0)


def _h_sltu(core, insn, pc):
    core.write_reg(insn.rd,
                   1 if core.regs[insn.rs1] < core.regs[insn.rs2] else 0)


def _h_xor(core, insn, pc):
    core.write_reg(insn.rd, core.regs[insn.rs1] ^ core.regs[insn.rs2])


def _h_srl(core, insn, pc):
    shamt = core.regs[insn.rs2] & 63
    core.write_reg(insn.rd, core.regs[insn.rs1] >> shamt)


def _h_sra(core, insn, pc):
    shamt = core.regs[insn.rs2] & 63
    core.write_reg(insn.rd, to_u64(to_s64(core.regs[insn.rs1]) >> shamt))


def _h_or(core, insn, pc):
    core.write_reg(insn.rd, core.regs[insn.rs1] | core.regs[insn.rs2])


def _h_and(core, insn, pc):
    core.write_reg(insn.rd, core.regs[insn.rs1] & core.regs[insn.rs2])


def _h_addw(core, insn, pc):
    core.write_reg(insn.rd,
                   sext32_to_u64(core.regs[insn.rs1] + core.regs[insn.rs2]))


def _h_subw(core, insn, pc):
    core.write_reg(insn.rd,
                   sext32_to_u64(core.regs[insn.rs1] - core.regs[insn.rs2]))


def _h_sllw(core, insn, pc):
    shamt = core.regs[insn.rs2] & 31
    core.write_reg(insn.rd, sext32_to_u64(core.regs[insn.rs1] << shamt))


def _h_srlw(core, insn, pc):
    shamt = core.regs[insn.rs2] & 31
    value = core.regs[insn.rs1] & 0xFFFF_FFFF
    core.write_reg(insn.rd, sext32_to_u64(value >> shamt))


def _h_sraw(core, insn, pc):
    shamt = core.regs[insn.rs2] & 31
    value = sext(core.regs[insn.rs1], 32)
    core.write_reg(insn.rd, sext32_to_u64(value >> shamt))


# M extension.

def _h_mul(core, insn, pc):
    core.timing.muldiv(is_div=False)
    core.write_reg(insn.rd,
                   (core.regs[insn.rs1] * core.regs[insn.rs2]) & MASK64)


def _h_mulh(core, insn, pc):
    core.timing.muldiv(is_div=False)
    product = to_s64(core.regs[insn.rs1]) * to_s64(core.regs[insn.rs2])
    core.write_reg(insn.rd, to_u64(product >> 64))


def _h_mulhsu(core, insn, pc):
    core.timing.muldiv(is_div=False)
    product = to_s64(core.regs[insn.rs1]) * core.regs[insn.rs2]
    core.write_reg(insn.rd, to_u64(product >> 64))


def _h_mulhu(core, insn, pc):
    core.timing.muldiv(is_div=False)
    product = core.regs[insn.rs1] * core.regs[insn.rs2]
    core.write_reg(insn.rd, to_u64(product >> 64))


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _h_div(core, insn, pc):
    core.timing.muldiv(is_div=True)
    a, b = to_s64(core.regs[insn.rs1]), to_s64(core.regs[insn.rs2])
    if b == 0:
        result = MASK64
    elif a == -(1 << 63) and b == -1:
        result = to_u64(a)
    else:
        result = to_u64(_trunc_div(a, b))
    core.write_reg(insn.rd, result)


def _h_divu(core, insn, pc):
    core.timing.muldiv(is_div=True)
    a, b = core.regs[insn.rs1], core.regs[insn.rs2]
    core.write_reg(insn.rd, MASK64 if b == 0 else a // b)


def _h_rem(core, insn, pc):
    core.timing.muldiv(is_div=True)
    a, b = to_s64(core.regs[insn.rs1]), to_s64(core.regs[insn.rs2])
    if b == 0:
        result = to_u64(a)
    elif a == -(1 << 63) and b == -1:
        result = 0
    else:
        result = to_u64(a - _trunc_div(a, b) * b)
    core.write_reg(insn.rd, result)


def _h_remu(core, insn, pc):
    core.timing.muldiv(is_div=True)
    a, b = core.regs[insn.rs1], core.regs[insn.rs2]
    core.write_reg(insn.rd, a if b == 0 else a % b)


def _h_mulw(core, insn, pc):
    core.timing.muldiv(is_div=False)
    core.write_reg(insn.rd,
                   sext32_to_u64(core.regs[insn.rs1] * core.regs[insn.rs2]))


def _h_divw(core, insn, pc):
    core.timing.muldiv(is_div=True)
    a, b = sext(core.regs[insn.rs1], 32), sext(core.regs[insn.rs2], 32)
    if b == 0:
        result = MASK64
    elif a == -(1 << 31) and b == -1:
        result = to_u64(a)
    else:
        result = sext32_to_u64(_trunc_div(a, b))
    core.write_reg(insn.rd, result)


def _h_divuw(core, insn, pc):
    core.timing.muldiv(is_div=True)
    a = core.regs[insn.rs1] & 0xFFFF_FFFF
    b = core.regs[insn.rs2] & 0xFFFF_FFFF
    core.write_reg(insn.rd, MASK64 if b == 0 else sext32_to_u64(a // b))


def _h_remw(core, insn, pc):
    core.timing.muldiv(is_div=True)
    a, b = sext(core.regs[insn.rs1], 32), sext(core.regs[insn.rs2], 32)
    if b == 0:
        result = sext32_to_u64(a)
    elif a == -(1 << 31) and b == -1:
        result = 0
    else:
        result = sext32_to_u64(a - _trunc_div(a, b) * b)
    core.write_reg(insn.rd, result)


def _h_remuw(core, insn, pc):
    core.timing.muldiv(is_div=True)
    a = core.regs[insn.rs1] & 0xFFFF_FFFF
    b = core.regs[insn.rs2] & 0xFFFF_FFFF
    core.write_reg(insn.rd,
                   sext32_to_u64(a) if b == 0 else sext32_to_u64(a % b))


# A extension.

def _amo_width(name: str) -> int:
    return 4 if name.endswith(".w") else 8


def _make_lr(name):
    width = _amo_width(name)

    def handler(core, insn, pc):
        core.timing.amo()
        vaddr = core.regs[insn.rs1]
        value = core.load(vaddr, width, signed=True)
        core.reservation = vaddr
        core.write_reg(insn.rd, value)
    return handler


def _make_sc(name):
    width = _amo_width(name)

    def handler(core, insn, pc):
        core.timing.amo()
        vaddr = core.regs[insn.rs1]
        if core.reservation == vaddr:
            core.store(vaddr, width, core.regs[insn.rs2], memop=MemOp.AMO)
            core.write_reg(insn.rd, 0)
        else:
            core.write_reg(insn.rd, 1)
        core.reservation = None
    return handler


_AMO_OPS = {
    "amoswap": lambda old, src, w: src,
    "amoadd": lambda old, src, w: old + src,
    "amoxor": lambda old, src, w: old ^ src,
    "amoand": lambda old, src, w: old & src,
    "amoor": lambda old, src, w: old | src,
    "amomin": lambda old, src, w: min(sext(old, w * 8), sext(src, w * 8)),
    "amomax": lambda old, src, w: max(sext(old, w * 8), sext(src, w * 8)),
    "amominu": lambda old, src, w: min(old, src),
    "amomaxu": lambda old, src, w: max(old, src),
}


def _make_amo(base, name):
    width = _amo_width(name)
    op = _AMO_OPS[base]

    def handler(core, insn, pc):
        core.timing.amo()
        vaddr = core.regs[insn.rs1]
        if vaddr & (width - 1):
            raise Trap(Cause.MISALIGNED_STORE, pc, tval=vaddr)
        old_raw = core.load(vaddr, width, signed=False, memop=MemOp.AMO)
        src = core.regs[insn.rs2] & ((1 << (width * 8)) - 1)
        new = op(old_raw, src, width) & ((1 << (width * 8)) - 1)
        core.store(vaddr, width, new, memop=MemOp.AMO)
        result = sext(old_raw, width * 8) if width == 4 else old_raw
        core.write_reg(insn.rd, to_u64(result))
    return handler


# System.

def _h_ecall(core, insn, pc):
    raise Trap(Cause.ECALL_FROM_U, pc)


def _h_ebreak(core, insn, pc):
    raise Trap(Cause.BREAKPOINT, pc)


def _h_fence(core, insn, pc):
    return None


def _h_fence_i(core, insn, pc):
    # The guest's own invalidation is security-relevant (SMC is how
    # W^X gets probed), so it enters the audit chain — as a function of
    # guest state only: whatever the flush drops depends on the tier
    # and stays on the event stream (Core._flush_blocks).
    if _OBS.enabled and _OBS.audit is not None:
        _OBS.audit.append("cache.flush", reason="fence.i",
                          instret=core.instret)
    core.flush_decode_cache()


def _h_csrrw(core, insn, pc):
    old = core.csr.read(insn.csr, pc) if insn.rd else 0
    core.csr.write(insn.csr, core.regs[insn.rs1], pc)
    core.write_reg(insn.rd, old)


def _h_csrrs(core, insn, pc):
    old = core.csr.read(insn.csr, pc)
    if insn.rs1:
        core.csr.write(insn.csr, old | core.regs[insn.rs1], pc)
    core.write_reg(insn.rd, old)


def _h_csrrc(core, insn, pc):
    old = core.csr.read(insn.csr, pc)
    if insn.rs1:
        core.csr.write(insn.csr, old & ~core.regs[insn.rs1], pc)
    core.write_reg(insn.rd, old)


def _h_csrrwi(core, insn, pc):
    old = core.csr.read(insn.csr, pc) if insn.rd else 0
    core.csr.write(insn.csr, insn.imm, pc)
    core.write_reg(insn.rd, old)


def _h_csrrsi(core, insn, pc):
    old = core.csr.read(insn.csr, pc)
    if insn.imm:
        core.csr.write(insn.csr, old | insn.imm, pc)
    core.write_reg(insn.rd, old)


def _h_csrrci(core, insn, pc):
    old = core.csr.read(insn.csr, pc)
    if insn.imm:
        core.csr.write(insn.csr, old & ~insn.imm, pc)
    core.write_reg(insn.rd, old)


def _build_handlers():
    handlers = {
        "lui": _h_lui, "auipc": _h_auipc, "jal": _h_jal, "jalr": _h_jalr,
        "beq": _h_beq, "bne": _h_bne, "blt": _h_blt, "bge": _h_bge,
        "bltu": _h_bltu, "bgeu": _h_bgeu,
        "addi": _h_addi, "slti": _h_slti, "sltiu": _h_sltiu,
        "xori": _h_xori, "ori": _h_ori, "andi": _h_andi,
        "slli": _h_slli, "srli": _h_srli, "srai": _h_srai,
        "addiw": _h_addiw, "slliw": _h_slliw, "srliw": _h_srliw,
        "sraiw": _h_sraiw,
        "add": _h_add, "sub": _h_sub, "sll": _h_sll, "slt": _h_slt,
        "sltu": _h_sltu, "xor": _h_xor, "srl": _h_srl, "sra": _h_sra,
        "or": _h_or, "and": _h_and,
        "addw": _h_addw, "subw": _h_subw, "sllw": _h_sllw,
        "srlw": _h_srlw, "sraw": _h_sraw,
        "mul": _h_mul, "mulh": _h_mulh, "mulhsu": _h_mulhsu,
        "mulhu": _h_mulhu, "div": _h_div, "divu": _h_divu, "rem": _h_rem,
        "remu": _h_remu, "mulw": _h_mulw, "divw": _h_divw,
        "divuw": _h_divuw, "remw": _h_remw, "remuw": _h_remuw,
        "ecall": _h_ecall, "ebreak": _h_ebreak,
        "fence": _h_fence, "fence.i": _h_fence_i,
        "csrrw": _h_csrrw, "csrrs": _h_csrrs, "csrrc": _h_csrrc,
        "csrrwi": _h_csrrwi, "csrrsi": _h_csrrsi, "csrrci": _h_csrrci,
    }
    for name in _LOAD_INFO:
        handlers[name] = _make_load(name)
    for name in _RO_INFO:
        handlers[name] = _make_roload(name)
    for name in _STORE_INFO:
        handlers[name] = _make_store(name)
    for sfx in (".w", ".d"):
        handlers["lr" + sfx] = _make_lr("lr" + sfx)
        handlers["sc" + sfx] = _make_sc("sc" + sfx)
        for base in _AMO_OPS:
            handlers[base + sfx] = _make_amo(base, base + sfx)
    return handlers


_HANDLERS = _build_handlers()
