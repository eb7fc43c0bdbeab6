"""Compilation pipeline: Module -> (defense passes) -> asm -> Executable.

The ``hardening`` argument takes defense objects from
:mod:`repro.defenses`; each has an ``apply(module)`` IR pass (annotating
loads with ROLoad-md, re-sectioning vtables/GFPTs) and optionally an
``asm_transform(text)`` hook for baselines that instrument at the
assembly level (VTint range checks, label CFI).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.asm.assembler import assemble
from repro.asm.linker import DEFAULT_BASE, link
from repro.asm.objfile import Executable
from repro.compiler.codegen import generate_assembly
from repro.compiler.ir import Module
from repro.compiler.passes.verify import verify_module

# Minimal runtime: _start calls main and exits with its return value.
RUNTIME_ASM = """
.section .text
.globl _start
_start:
    call main
    li a7, 93
    ecall
"""


def compile_module(module: Module, *,
                   hardening: "Optional[Sequence]" = None,
                   base: int = DEFAULT_BASE, rvc: bool = True,
                   verify: bool = True,
                   extra_asm: "Optional[List[str]]" = None) -> Executable:
    """Compile an IR module into a runnable executable image."""
    asm = compile_to_assembly(module, hardening=hardening, verify=verify)
    objects = [assemble(asm, name=f"{module.name}.s", rvc=rvc),
               assemble(RUNTIME_ASM, name="runtime.s", rvc=rvc)]
    for index, text in enumerate(extra_asm or []):
        objects.append(assemble(text, name=f"extra{index}.s", rvc=rvc))
    metadata = {"module": module.name}
    if hardening:
        metadata["hardening"] = "+".join(type(h).__name__
                                         for h in hardening)
    return link(objects, base=base, metadata=metadata)


def compile_to_assembly(module: Module, *,
                        hardening: "Optional[Sequence]" = None,
                        verify: bool = True) -> str:
    """Compile to assembly text (the inspectable intermediate)."""
    if verify:
        verify_module(module)
    if hardening:
        # Defenses mutate the IR (metadata, sections); work on a copy so
        # one module can be compiled into many variants.
        module = module.copy()
    for defense in hardening or []:
        apply_pass = getattr(defense, "apply", None)
        if apply_pass is not None:
            apply_pass(module)
    if verify:
        verify_module(module)
    asm = generate_assembly(module)
    for defense in hardening or []:
        transform = getattr(defense, "asm_transform", None)
        if transform is not None:
            asm = transform(asm)
    return asm
