"""Defense-pass tests: functional preservation + mechanism checks."""

import copy

import pytest

from repro.compiler import (
    IRBuilder,
    KeyAllocator,
    Load,
    Module,
    compile_module,
    compile_to_assembly,
)
from repro.defenses import (
    KeyedAllowlist,
    LabelCFIBaseline,
    ReturnProtection,
    TypeBasedCFI,
    VCallProtection,
    VTintBaseline,
    full_hardening,
    gfpt_symbol,
    id_word,
    type_id,
)
from repro.kernel import run_program

from .conftest import SIG, SIG2, make_test_module


def run(module, hardening=None):
    return run_program(compile_module(module, hardening=hardening))


def make_mixed_module():
    """The shared test module plus a keyed allowlist read through ld.ro
    and a directly called leaf that ReturnProtection can guard."""
    m = make_test_module()
    leaf = m.function("leaf", num_params=1)
    b = IRBuilder(leaf)
    b.ret(b.addi(b.param(0), 1))
    allowlist = KeyedAllowlist(m, "ops")
    slot = allowlist.add_symbol("inc")
    allowlist.seal()
    user = m.function("use_leaf", num_params=1)
    b = IRBuilder(user)
    target = allowlist.load_checked(b, b.la(slot))
    b.ret(b.icall(target, [b.call("leaf", [b.param(0)])],
                  func_type=SIG2))
    return m


# Every defense pass that rewrites the IR, alone and composed.
MUTATING_HARDENINGS = {
    "vcall": lambda: [VCallProtection()],
    "vtint": lambda: [VTintBaseline()],
    "icall": lambda: [TypeBasedCFI()],
    "cfi": lambda: [LabelCFIBaseline()],
    "retprotect": lambda: [ReturnProtection(["leaf"])],
    "full": lambda: full_hardening(hierarchies={"A": "h", "B": "h"},
                                   protect_returns=["leaf"]),
}


class TestFunctionalPreservation:
    """Every defense must preserve program behaviour (exit code 42)."""

    def test_plain(self, module):
        assert run(module).exit_code == 42

    @pytest.mark.parametrize("make_defense", [
        lambda: [VCallProtection()],
        lambda: [VTintBaseline()],
        lambda: [TypeBasedCFI()],
        lambda: [LabelCFIBaseline()],
    ], ids=["vcall", "vtint", "icall", "cfi"])
    def test_hardened(self, module, make_defense):
        assert run(module, make_defense()).exit_code == 42

    def test_module_not_mutated_by_compile(self):
        """Hardening works on a copy of the module: the caller's module
        stays equal to a deep copy taken before, and compiling it again
        gives the same image byte for byte."""
        for name, make_defense in MUTATING_HARDENINGS.items():
            module = make_mixed_module()
            before = copy.deepcopy(module)
            first = compile_module(module, hardening=make_defense())
            assert module == before, name
            second = compile_module(module, hardening=make_defense())
            assert module == before, name
            assert first.to_bytes() == second.to_bytes(), name
            assert all(t.section == ".rodata"
                       for t in module.vtables.values()), name
            assert run(module).exit_code == 42, name


class TestVCallMechanism:
    def test_vtables_moved_to_keyed_sections(self, module):
        defense = VCallProtection()
        asm = compile_to_assembly(module, hardening=[defense])
        assert defense.keys["A"] != defense.keys["B"]
        for cls in ("A", "B"):
            assert f".section .rodata.key.{defense.keys[cls]}" in asm

    def test_vtable_entry_loads_become_ld_ro(self, module):
        defense = VCallProtection()
        asm = compile_to_assembly(module, hardening=[defense])
        assert defense.loads_annotated == 2
        assert asm.count("ld.ro") >= 2

    def test_vptr_load_stays_plain(self, module):
        """Objects are writable; only the vtable-entry load is ROLoad."""
        defense = VCallProtection()
        compiled = compile_to_assembly(module, hardening=[defense])
        # The two vcalls contribute exactly two ld.ro (entry loads), not
        # four (vptr loads stay normal).
        assert compiled.count("ld.ro") == 2

    def test_hierarchy_grouping_shares_key(self, module):
        defense = VCallProtection(
            key_by_hierarchy={"A": "base", "B": "base"})
        compile_to_assembly(module, hardening=[defense])
        assert defense.keys["A"] == defense.keys["B"]


class TestVTintMechanism:
    def test_range_checks_inserted(self, module):
        defense = VTintBaseline()
        asm = compile_to_assembly(module, hardening=[defense])
        assert defense.checks_inserted == 2
        assert "__rodata_start" in asm and "__rodata_end" in asm
        assert "bltu" in asm and "bgeu" in asm

    def test_no_roload_instructions(self, module):
        """VTint is pure software: no ISA extension used."""
        asm = compile_to_assembly(module, hardening=[VTintBaseline()])
        assert "ld.ro" not in asm

    def test_code_larger_than_vcall(self, module):
        plain = compile_to_assembly(module)
        vtint = compile_to_assembly(module, hardening=[VTintBaseline()])
        vcall = compile_to_assembly(module, hardening=[VCallProtection()])
        assert len(vtint.splitlines()) > len(vcall.splitlines()) \
            >= len(plain.splitlines())


class TestICallMechanism:
    def test_gfpts_built_per_type(self, module):
        defense = TypeBasedCFI()
        asm = compile_to_assembly(module, hardening=[defense])
        sig_key = defense.key_of_type[SIG.signature()]
        sig2_key = defense.key_of_type[SIG2.signature()]
        assert sig_key != sig2_key
        assert gfpt_symbol(sig_key) in asm
        assert gfpt_symbol(sig2_key) in asm

    def test_address_taken_rewritten_to_slots(self, module):
        defense = TypeBasedCFI()
        asm = compile_to_assembly(module, hardening=[defense])
        # 'la ... double_it' must be gone, replaced by a GFPT slot ref.
        for line in asm.splitlines():
            if line.strip().startswith("la ") and "double_it" in line:
                pytest.fail(f"raw function address survived: {line}")
        assert defense.slot_of["double_it"][0].startswith("__gfpt_")

    def test_icalls_get_ld_ro(self, module):
        defense = TypeBasedCFI()
        asm = compile_to_assembly(module, hardening=[defense])
        assert defense.icalls_transformed == 2  # the two plain icalls
        # Two GFPT derefs + two vtable-entry loads, all ld.ro.
        assert asm.count("ld.ro") == 4

    def test_unified_vtable_key(self, module):
        defense = TypeBasedCFI()
        compile_to_assembly(module, hardening=[defense])
        assert defense.vtable_key is not None
        # Both classes in the SAME keyed section (the locality trick).
        asm = compile_to_assembly(module, hardening=[TypeBasedCFI()])
        assert asm.count(
            f".section .rodata.key.{defense.vtable_key}") == 2

    def test_gfpt_slots_deterministic(self, module):
        d1, d2 = TypeBasedCFI(), TypeBasedCFI()
        compile_to_assembly(module, hardening=[d1])
        compile_to_assembly(module, hardening=[d2])
        assert d1.slot_of == d2.slot_of
        assert d1.key_of_type == d2.key_of_type


class TestLabelCFIMechanism:
    def test_ids_at_function_entries(self, module):
        defense = LabelCFIBaseline()
        asm = compile_to_assembly(module, hardening=[defense])
        assert defense.ids_inserted == 4  # four address-taken functions
        assert f"lui zero, {type_id(SIG)}" in asm
        assert f"lui zero, {type_id(SIG2)}" in asm

    def test_checks_before_icalls(self, module):
        defense = LabelCFIBaseline()
        asm = compile_to_assembly(module, hardening=[defense])
        assert defense.checks_inserted == 4  # vcalls are icalls too here
        assert "lwu" in asm

    def test_id_word_is_nop_semantics(self):
        """The ID must write x0 only (architectural nop)."""
        from repro.isa import decode
        insn = decode(id_word(SIG))
        assert insn.name == "lui" and insn.rd == 0

    def test_ids_differ_by_type(self):
        assert type_id(SIG) != type_id(SIG2)

    def test_no_roload_instructions(self, module):
        asm = compile_to_assembly(module, hardening=[LabelCFIBaseline()])
        assert "ld.ro" not in asm


class TestSharedAllocator:
    def test_vcall_and_icall_can_share_key_space(self, module):
        allocator = KeyAllocator()
        vcall = VCallProtection(allocator)
        compile_to_assembly(module, hardening=[vcall])
        icall = TypeBasedCFI(allocator)
        compile_to_assembly(module, hardening=[icall])
        vcall_keys = set(vcall.keys.values())
        icall_keys = set(icall.key_of_type.values())
        assert not vcall_keys & icall_keys
