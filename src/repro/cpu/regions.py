"""Compiled units and the region planner.

Both compiled tiers run on the flat core (repro.cpu.flatcore). Tier 2
lowers one hot basic block into a :class:`JITBlock`; the trampoline
(``Core._run_jit``) chains blocks through their ``links`` memo, but
every block boundary still re-enters it. The region tier uses the
chain-transition counts the trampoline records on each
``JITBlock.edges`` as an edge profile and selects a hot single-entry
region: a loop body and its chained successors, or a straight
multi-block trace. Conditional branches are specialized on their
observed direction — the hot side continues inside the region, the
cold side becomes a side exit back to the trampoline.

Besides the two unit types, this module only *plans*: :func:`_plan`
returns the member blocks in trace order, and the flat core lowers the
plan (or a one-member plan for a single block) to pre-decoded arrays
run by one dispatch loop. Both kinds of unit are invalidated by
``Core._flush_blocks`` — the same fence.i / self-modifying-store /
MMU-generation events that flush tier 1.
"""

from __future__ import annotations

from repro.utils.bits import to_u64

# Total lowered entries per unit. A region stops growing here; a longer
# single block lowers as a prefix plus an organically promoted suffix
# (flatcore.compile_block). Past this the lowering cost and the
# side-exit bookkeeping stop paying for themselves.
MAX_REGION_ENTRIES = 1024

# Compiled-block arrivals at a pc (through the trampoline) before a
# region is planned around it. Each core copies it into
# ``region_threshold``, so a test can lower it on one core.
REGION_THRESHOLD = 16

# Conditional branches: the planner follows their profiled direction.
_BRANCHES = frozenset({"beq", "bne", "blt", "bge", "bltu", "bgeu"})

# Mnemonics that end a trace outright (side effects a region may not
# run past): indirect jumps and the generic terminators. Mirrors
# repro.cpu.core._BLOCK_TERMINATORS minus the direct jumps/branches,
# which the planner follows instead.
_TRACE_END = frozenset({
    "jalr", "ecall", "ebreak", "fence", "fence.i",
    "csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci",
})

# Sentinel: "head is an alternate-entry split of a live region — keep
# profiling instead of lowering or pinning". The trampoline keeps the
# arrival counter running until the lowering backend decides the head
# is hot in its own right (repro.cpu.flatcore.DEFER_FACTOR).
DEFER = object()


class JITBlock:
    """One lowered tier-2 block plus its direct-chaining memo."""

    __slots__ = ("fn", "n", "vpn", "start_pc", "end_pc", "lowered",
                 "links", "edges")

    region = False  # dispatch discriminator (Region.region is True)
    tier = 2        # the tier its retired instructions are attributed to

    def __init__(self, fn, n, vpn, start_pc, end_pc, lowered=None):
        self.fn = fn            # (budget) -> next pc
        self.n = n              # instructions retired per execution
        self.vpn = vpn          # code page, for the fetch-cache recheck
        self.start_pc = start_pc
        self.end_pc = end_pc    # next_pc of the final entry
        self.lowered = lowered  # the core-independent value fn runs
        self.links = {}         # next-pc -> JITBlock; cleared on flush
        # Successor-pc arrival counts, recorded by the trampoline when
        # the region tier is profiling: the branch-direction evidence
        # the planner specializes on. Cleared on flush.
        self.edges = {}


class Region:
    """One lowered superblock. Duck-types JITBlock for the trampoline."""

    __slots__ = ("fn", "n", "vpn", "start_pc", "pcs", "loop", "spans",
                 "lowered")

    region = True   # dispatch discriminator (JITBlock.region is False)
    tier = 4

    def __init__(self, fn, n, vpn, start_pc, pcs, loop, spans,
                 lowered=None):
        self.fn = fn            # (budget) -> next pc
        self.n = n              # instructions retired per full pass
        self.vpn = vpn          # head code page, for the fetch recheck
        self.start_pc = start_pc
        self.pcs = pcs          # member block start pcs, trace order
        self.loop = loop
        self.spans = spans      # member (start, end) pc ranges
        self.lowered = lowered  # the core-independent value fn runs

    def covers(self, pc) -> bool:
        """Whether ``pc`` lies inside any member's instruction range."""
        for start, end in self.spans:
            if start <= pc < end:
                return True
        return False


class _Member:
    """One member block of a planned trace (or a lone tier-2 block).

    The exit shape comes from the block's last entry: a conditional
    branch (both successors known), a direct ``jal``, a trace end
    (indirect jump or generic terminator), or a fall-through to the
    next straight-line pc (a page boundary, a decode break, or an
    oversized block's prefix cut).
    """

    __slots__ = ("pc", "entries", "vpn", "ctrl", "taken_pc", "fall_pc",
                 "chosen_taken", "inline_next", "backedge")

    def __init__(self, pc, entries, vpn):
        self.pc = pc
        self.entries = entries
        self.vpn = vpn
        handler, insn, epc, next_pc, paddr, paddr2 = entries[-1]
        name = insn.name
        if name in _BRANCHES:
            self.ctrl = "branch"
        elif name == "jal":
            self.ctrl = "jal"
        elif name in _TRACE_END:
            self.ctrl = "end"
        else:
            self.ctrl = "fall"
        self.taken_pc = to_u64(epc + insn.imm) \
            if self.ctrl in ("branch", "jal") else 0
        self.fall_pc = next_pc
        self.chosen_taken = False
        self.inline_next = False
        self.backedge = False


class _Plan:
    __slots__ = ("head_pc", "members", "loop", "n")

    def __init__(self, head_pc, members, loop):
        self.head_pc = head_pc
        self.members = members
        self.loop = loop
        self.n = sum(len(m.entries) for m in members)


def _member_of(core, pc):
    """The (jit record, tier-1 block) pair for ``pc``, or None when the
    pc cannot be a region member (not compiled, or an oversized block
    whose tier-2 prefix split makes its edge profile unusable)."""
    jrec = core._jit_blocks.get(pc)
    if jrec is None:
        return None
    block = core._blocks.get(pc)
    if block is None or len(block[0]) != jrec.n:
        return None
    return jrec, block


def _plan(core, head_pc):
    """Greedy superblock selection from ``head_pc`` along hot edges.

    Follows jal targets and the profiled-hot direction of conditional
    branches through compiled blocks; closes into a loop when the trace
    returns to the head; ends at indirect jumps, generic terminators,
    size caps, or any pc that is not a compiled full block. Viable
    plans are loops (any length) or straight traces of >= 2 blocks —
    a single non-loop block is exactly a tier-2 block already.
    """
    max_blocks = max(1, core.region_blocks)
    members = []
    visited = set()
    pc = head_pc
    total = 0
    loop = False
    while True:
        pair = _member_of(core, pc)
        if pair is None:
            break
        jrec, block = pair
        entries = block[0]
        if total + len(entries) > MAX_REGION_ENTRIES:
            break
        m = _Member(pc, entries, block[1])
        nxt = None
        if m.ctrl == "branch":
            edges = jrec.edges
            ct = edges.get(m.taken_pc, 0)
            cf = edges.get(m.fall_pc, 0)
            if ct == cf:
                # Unprofiled tie: prefer the backedge, else fall through.
                m.chosen_taken = m.taken_pc == head_pc
            else:
                m.chosen_taken = ct > cf
            nxt = m.taken_pc if m.chosen_taken else m.fall_pc
        elif m.ctrl == "jal":
            nxt = m.taken_pc
        elif m.ctrl == "fall":
            nxt = m.fall_pc
        members.append(m)
        visited.add(pc)
        total += len(entries)
        if nxt is None:
            break
        if nxt == head_pc:
            m.backedge = True
            loop = True
            break
        if nxt in visited or len(members) >= max_blocks \
                or _member_of(core, nxt) is None:
            break
        m.inline_next = True
        pc = nxt
    if not members:
        return None
    if not loop and len(members) < 2:
        return None
    return _Plan(head_pc, members, loop)
