"""ReturnProtection: backward-edge pointee integrity as a compiler pass.

The §IV-C return-site-allowlist construction, applied by the compiler:

1. every call site of a protected function gets a *cookie* (its index in
   the callee's return-site table) passed in ``t6``, and a return-site
   label placed immediately after the call;
2. the labels are collected into ``__retsites_<fn>``, a read-only table
   in a keyed page;
3. the protected function's epilogue returns through
   ``ld.ro table[cookie]`` — the on-stack return address is never used,
   so stack smashing cannot divert the backward edge. A corrupted cookie
   can only select another *legitimate* return site of the same function
   (the same §V-D reuse residue as forward edges).

Constraints (checked): protected functions must be leaves (they must not
make calls, which would clobber the incoming cookie) and must not be
address-taken (indirect call sites cannot be rewritten to pass cookies).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import CompilerError
from repro.compiler.ir import Call, GlobalVar, ICall, Module
from repro.compiler.metadata import KeyAllocator
from repro.defenses.base import Defense


def retsite_table_symbol(function_name: str) -> str:
    return f"__retsites_{function_name}"


class ReturnProtection(Defense):
    """Harden the returns of selected (leaf) functions."""

    name = "retprotect"

    def __init__(self, protect: "List[str]",
                 allocator: "Optional[KeyAllocator]" = None):
        if not protect:
            raise CompilerError("ReturnProtection needs at least one "
                                "function name")
        self.protect = list(protect)
        self.allocator = allocator if allocator is not None \
            else KeyAllocator(first_key=800)
        self.keys: "dict[str, int]" = {}
        self.sites: "dict[str, List[str]]" = {}

    def apply(self, module: Module) -> None:
        for name in self.protect:
            self._check_protectable(module, name)
            self.keys[name] = self.allocator.key_for(f"retsites:{name}")
            self.sites[name] = []
        self._rewrite_call_sites(module)
        self._install_return_paths(module)
        self._emit_tables(module)

    # -- phases -----------------------------------------------------------------

    def _check_protectable(self, module: Module, name: str) -> None:
        function = module.functions.get(name)
        if function is None:
            raise CompilerError(f"cannot protect unknown function "
                                f"{name!r}")
        if function.address_taken:
            raise CompilerError(
                f"{name!r} is address-taken: indirect call sites cannot "
                f"pass return cookies")
        if any(isinstance(op, (Call, ICall)) for op in function.ops):
            raise CompilerError(
                f"{name!r} is not a leaf: nested calls would clobber the "
                f"return cookie in t6")

    def _rewrite_call_sites(self, module: Module) -> None:
        for function in module.functions.values():
            for index_in_fn, op in enumerate(function.ops):
                if isinstance(op, Call) and op.callee in self.keys:
                    index = len(self.sites[op.callee])
                    label = (f".Lretsite_{op.callee}_{index}_"
                             f"{function.name}")
                    self.sites[op.callee].append(label)
                    op.cookie = index
                    op.ret_label = label

    def _install_return_paths(self, module: Module) -> None:
        for name in self.protect:
            if not self.sites[name]:
                raise CompilerError(
                    f"{name!r} has no direct call sites to protect")
            module.functions[name].return_table = (
                retsite_table_symbol(name), self.keys[name])

    def _emit_tables(self, module: Module) -> None:
        for name in self.protect:
            module.global_var(GlobalVar(
                name=retsite_table_symbol(name),
                section=f".rodata.key.{self.keys[name]}",
                init=[("quad", label) for label in self.sites[name]]))
