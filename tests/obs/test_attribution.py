"""Guest perf attribution: histograms, symbol resolution, annotation.

Unit layer covers the histogram/flatten/format pipeline and the symbol
map; the integration layer runs real code under tiers 1/2 with the tap
installed and checks the retired instructions land on the right unit
heads, then drives ``annotate`` against a real linked image.
"""

from repro import obs
from repro.asm import assemble, link
from repro.errors import ReproError
from repro.kernel import Kernel
from repro.obs import Attribution
from repro.obs.attribution import (
    SymbolMap,
    annotate,
    flatten,
    format_top,
)
from repro.soc import build_system

from tests.conftest import needs_native, set_tier

from tests.cpu.test_jit import countdown_loop, jit_core, run_to_ebreak

import pytest


def test_record_accumulates_per_tier_and_pc():
    attrib = Attribution()
    attrib.record(2, 0x1000, 10)
    attrib.record(2, 0x1000, 5)
    attrib.record(4, 0x1000, 7)
    table = attrib.export()
    assert table == {"tier2": {"0x1000": 15}, "tier4": {"0x1000": 7}}
    attrib.clear()
    assert attrib.export() == {}


def test_flatten_ranks_hottest_first():
    table = {"tier1": {"0x2000": 5, "0x1000": 90},
             "tier2": {"0x3000": 90}}
    rows = flatten(table)
    assert rows[0] == ("tier1", 0x1000, 90)   # ties break by pc
    assert rows[1] == ("tier2", 0x3000, 90)
    assert rows[-1] == ("tier1", 0x2000, 5)


def test_symbol_map_resolves_nearest_preceding():
    symbols = SymbolMap({"f": 0x1000, "g": 0x1040})
    assert symbols.resolve(0x1000) == ("f", 0)
    assert symbols.resolve(0x1038) == ("f", 0x38)
    assert symbols.resolve(0x1040) == ("g", 0)
    assert symbols.resolve(0x0FFF) == (None, 0)


def test_format_top_report():
    assert "no attribution data" in format_top([])
    rows = [("tier2", 0x1000 + 16 * i, 100 - i) for i in range(25)]
    text = format_top(rows, SymbolMap({"hot": 0x1000}), limit=20)
    assert "25 attributed units" in text
    assert "hot" in text
    assert "5 colder units not shown" in text
    lines = text.splitlines()
    assert "hot" in lines[2] and "+0x" not in lines[2]   # exact head
    assert "hot+0x10" in lines[3]                        # offset form


@needs_native
def test_tier2_blocks_attribute_to_their_start_pc():
    core = jit_core()
    core._attrib = Attribution()
    loop_pc = countdown_loop(core, 50)
    run_to_ebreak(core)
    assert core._jit_blocks
    table = core._attrib.export()
    # The hot loop retired most of its instructions through compiled
    # units headed at the loop pc (tier 2 blocks first; with tier 4 on
    # by default the region takes over the same head).
    assert table["tier2"][f"{loop_pc:#x}"] > 0
    at_loop = sum(table.get(tier, {}).get(f"{loop_pc:#x}", 0)
                  for tier in ("tier2", "tier4"))
    assert at_loop > 100
    # Attribution observed, never perturbed: the counters balance.
    retired = sum(sum(pcs.values()) for pcs in table.values())
    assert retired <= core.instret


def test_tier1_blocks_attribute_when_jit_is_off():
    core = jit_core("tier1")
    core._attrib = Attribution()
    loop_pc = countdown_loop(core, 50)
    run_to_ebreak(core)
    table = core._attrib.export()
    assert "tier2" not in table
    assert table["tier1"][f"{loop_pc:#x}"] > 100


PROGRAM = r"""
.globl _start
_start:
    li t0, 300
loop:
    la a0, table
    ld.ro a1, (a0), 12
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
.section .rodata.key.12
table: .quad 1
"""


def test_enable_installs_the_tap_and_annotate_renders():
    obs.enable()
    system = build_system(memory_size=64 << 20)
    obs.register_system(system)
    assert system.core._attrib is obs.OBS.attribution
    image = link([assemble(PROGRAM)])
    kernel = Kernel(system)
    process = kernel.create_process(image)
    kernel.run(process)
    assert process.exit_code == 0

    table = obs.OBS.registry.collect()["attribution"]
    rows = flatten(table)
    assert rows, "a 300-iteration loop must attribute something"
    symbols = SymbolMap(image.symbols)
    name, __ = symbols.resolve(rows[0][1])
    assert name == "loop"             # the hot loop's own label

    text = annotate(image, "loop", table)
    assert "loop:" in text
    assert "ld.ro" in text            # the disassembly really rendered
    # The hottest unit head carries its retire count (summed across
    # tiers) in the margin.
    head = f"{rows[0][1]:#x}"
    at_head = sum(pcs.get(head, 0) for pcs in table.values())
    assert f"{at_head:,d}" in text

    with pytest.raises(ReproError):
        annotate(image, "no_such_symbol", table)


def test_slow_path_attributes_every_retire_to_tier0(monkeypatch):
    """Without the fast path there are no batch points: the retire hook
    register_system installs credits each instruction to the pc reached
    by the last control transfer, so the loop label is the hottest head
    and the histogram accounts for every retired instruction."""
    set_tier(monkeypatch, "slow")
    obs.enable()
    system = build_system(memory_size=64 << 20)
    obs.register_system(system)
    image = link([assemble(PROGRAM)])
    kernel = Kernel(system)
    process = kernel.create_process(image)
    kernel.run(process)
    assert process.exit_code == 0

    table = obs.OBS.attribution.export()
    assert set(table) == {"tier0"}
    rows = flatten(table)
    assert SymbolMap(image.symbols).resolve(rows[0][1]) == ("loop", 0)
    assert sum(row[2] for row in rows) == system.core.instret
