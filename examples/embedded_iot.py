#!/usr/bin/env python3
"""ROLoad on an MMU-less IoT device (§II-D) + backward edges (§IV-C).

Two of the paper's "this also works" claims, demonstrated:

1. **Keyed PMP instead of paging.** A bare-metal program on a flat
   physical memory map, with a RISC-V-PMP/ARM-MPU-style region table
   carrying keys. Same ``ld.ro`` semantics, no page tables at all.
2. **Return-site allowlists.** A protected function returns through a
   keyed read-only table of its legitimate return sites instead of
   trusting the on-stack return address: the firmware is compiled with
   the :class:`~repro.defenses.ReturnProtection` pass.

Run:  python examples/embedded_iot.py
"""

from repro.asm import assemble, link
from repro.compiler import IRBuilder, KeyAllocator, Module, \
    compile_to_assembly
from repro.cpu.trap import Trap
from repro.defenses import ReturnProtection, retsite_table_symbol
from repro.mem import PMPRegion
from repro.soc import build_embedded_system

# Bare-metal entry: no kernel to exit to, so halt for the demo harness.
START = """
.globl _start
_start:
    call main
    ebreak
"""


def build_firmware():
    """Bare-metal 'firmware' whose sensor read returns only through its
    keyed return-site table."""
    module = Module("firmware")
    b = IRBuilder(module.function("sensor_read"))
    b.ret(b.li(21))
    b = IRBuilder(module.function("main"))
    first = b.call("sensor_read")
    second = b.call("sensor_read")
    b.ret(b.add(first, second))     # accumulate both readings
    protection = ReturnProtection(["sensor_read"],
                                  allocator=KeyAllocator(first_key=900))
    source = compile_to_assembly(module, hardening=[protection])
    image = link([assemble(source, name="firmware.s"),
                  assemble(START, name="start.s")])
    return image, protection


def main() -> None:
    image, protection = build_firmware()

    regions = []
    for segment in image.segments:
        regions.append(PMPRegion(
            base=segment.vaddr, size=segment.memsize,
            readable=True, writable=segment.writable,
            executable=segment.executable, key=segment.key))
    print("PMP region table (flat physical memory, no MMU):")
    for region in regions:
        kind = "X" if region.executable else \
            ("RW" if region.writable else "RO")
        key = f" key={region.key}" if region.key else ""
        print(f"  {region.base:#08x}..{region.base + region.size:#08x} "
              f"{kind}{key}")

    system = build_embedded_system(regions)
    core = system.core
    for segment in image.segments:
        if segment.data:
            system.memory.write_bytes(segment.vaddr, segment.data)
    core.pc = image.entry
    core.regs[2] = 0x100000  # bare-metal stack

    try:
        for __ in range(10_000):
            core.step()
    except Trap as trap:
        if trap.cause == 3:  # ebreak: firmware finished
            print(f"\nfirmware halted normally, "
                  f"total reading = {core.regs[10]} (expected 42)")
        else:
            print(f"\nfirmware trapped: {trap}")

    print(f"\nreturn-site table '{retsite_table_symbol('sensor_read')}' "
          f"has {len(protection.sites['sensor_read'])} entries, sealed "
          f"with key {protection.keys['sensor_read']}.")
    print("A smashed stack cannot divert these returns: the target is")
    print("fetched with ld.ro from the keyed read-only table, never")
    print("from the stack.")


if __name__ == "__main__":
    main()
