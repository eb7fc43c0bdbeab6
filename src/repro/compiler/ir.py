"""LLVM-lite intermediate representation.

A :class:`Module` holds functions, global variables, and C++-style
vtables. Function bodies are linear op lists over *virtual registers*
(strings ``v0, v1, ...``); control flow uses labels + branches. This is a
register-transfer IR one small step above machine code — rich enough for
the defense passes to find sensitive loads (via the ``purpose`` tag and
``ROLoad-md`` metadata), simple enough to lower directly.

``Load.purpose`` identifies what a load means to the defenses:

* ``"vptr"`` — loading an object's vtable pointer (VCall's first target)
* ``"vtable_entry"`` — loading a function address out of a vtable
* ``"fptr"`` — loading a plain function pointer before an indirect call

These are exactly the loads whose corruption the paper's two applications
prevent.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import CompilerError
from repro.compiler.metadata import ROLoadMD
from repro.compiler.types import FuncType

BIN_OPS = ("add", "sub", "mul", "div", "divu", "rem", "remu", "and", "or",
           "xor", "sll", "srl", "sra", "slt", "sltu")
COND_OPS = ("eq", "ne", "lt", "ge", "ltu", "geu")
LOAD_WIDTHS = (1, 2, 4, 8)


@dataclass
class Op:
    """Base class for IR operations."""

    def copy(self) -> "Op":
        """A copy sharing no list (an op's only one is its call args)."""
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__)
        if isinstance(self, (Call, ICall)):
            new.args = list(self.args)
        return new


@dataclass
class Li(Op):
    dst: str
    value: int


@dataclass
class La(Op):
    """Load the address of a global symbol."""

    dst: str
    symbol: str


@dataclass
class Mv(Op):
    dst: str
    src: str


@dataclass
class Bin(Op):
    op: str
    dst: str
    a: str
    b: str

    def __post_init__(self):
        if self.op not in BIN_OPS:
            raise CompilerError(f"unknown binary op {self.op!r}")


@dataclass
class Load(Op):
    """Memory load; the instruction ROLoad-md metadata attaches to."""

    dst: str
    base: str
    offset: int = 0
    width: int = 8
    signed: bool = True
    purpose: "Optional[str]" = None        # "vptr"|"vtable_entry"|"fptr"
    class_name: "Optional[str]" = None     # for vptr/vtable_entry loads
    func_type: "Optional[FuncType]" = None  # for fptr loads
    roload_md: "Optional[ROLoadMD]" = None  # set by defense passes

    def __post_init__(self):
        if self.width not in LOAD_WIDTHS:
            raise CompilerError(f"bad load width {self.width}")


@dataclass
class Store(Op):
    src: str
    base: str
    offset: int = 0
    width: int = 8

    def __post_init__(self):
        if self.width not in LOAD_WIDTHS:
            raise CompilerError(f"bad store width {self.width}")


@dataclass
class Lea(Op):
    """Address of a stack local."""

    dst: str
    local: str


@dataclass
class Label(Op):
    name: str


@dataclass
class Br(Op):
    target: str


@dataclass
class CondBr(Op):
    cond: str
    a: str
    b: str
    target: str

    def __post_init__(self):
        if self.cond not in COND_OPS:
            raise CompilerError(f"unknown condition {self.cond!r}")


@dataclass
class Call(Op):
    """Direct call to a named function.

    ``cookie``/``ret_label`` are set by the ReturnProtection defense:
    the cookie is this call site's index in the callee's return-site
    table (passed in t6), and ``ret_label`` is emitted *immediately*
    after the call instruction — the exact address the table points at.
    """

    dst: "Optional[str]"
    callee: str
    args: "List[str]" = field(default_factory=list)
    cookie: "Optional[int]" = None
    ret_label: "Optional[str]" = None


@dataclass
class ICall(Op):
    """Indirect call through a function-pointer value (sensitive!)."""

    dst: "Optional[str]"
    target: str                      # vreg holding the code address
    args: "List[str]" = field(default_factory=list)
    func_type: "Optional[FuncType]" = None


@dataclass
class Ret(Op):
    src: "Optional[str]" = None


@dataclass
class Abort(Op):
    """Terminate the process immediately (lowers to ebreak).

    Software baselines (VTint range checks, label CFI) branch here when a
    check fails — the analogue of their __builtin_trap paths.
    """

    reason: str = "check failed"


@dataclass
class StackLocal:
    name: str
    size: int
    align: int = 8


@dataclass
class GlobalVar:
    """A module-level variable.

    ``init`` items are either ints (stored little-endian at ``width``
    bytes) or ``("quad", symbol_name)`` pairs for address initializers —
    the form vtables and GFPTs use.
    """

    name: str
    section: str = ".data"
    width: int = 8
    init: "List[Union[int, Tuple[str, str]]]" = field(default_factory=list)
    size: int = 0  # extra zero bytes beyond init
    align: int = 8


@dataclass
class VTable:
    """A C++-class virtual table: the canonical allowlist of §IV-A."""

    class_name: str
    entries: "List[str]" = field(default_factory=list)  # method symbols
    section: str = ".rodata"   # VCall moves this to .rodata.key.<k>

    @property
    def symbol(self) -> str:
        return vtable_symbol(self.class_name)


def vtable_symbol(class_name: str) -> str:
    return f"_ZTV_{class_name}"


@dataclass
class Function:
    name: str
    num_params: int = 0
    func_type: "Optional[FuncType]" = None
    ops: "List[Op]" = field(default_factory=list)
    locals: "List[StackLocal]" = field(default_factory=list)
    address_taken: bool = False
    is_global: bool = True
    # Set by ReturnProtection: (table_symbol, key). When present, the
    # epilogue returns through the keyed read-only table (indexed by the
    # t6 cookie) instead of trusting the on-stack return address.
    return_table: "Optional[Tuple[str, int]]" = None

    def labels(self) -> "set[str]":
        return {op.name for op in self.ops if isinstance(op, Label)}

    def copy(self) -> "Function":
        """A copy whose ops and locals can be rewritten independently."""
        return replace(self, ops=[op.copy() for op in self.ops],
                       locals=[replace(local) for local in self.locals])


@dataclass
class Module:
    name: str = "module"
    functions: "Dict[str, Function]" = field(default_factory=dict)
    globals: "Dict[str, GlobalVar]" = field(default_factory=dict)
    vtables: "Dict[str, VTable]" = field(default_factory=dict)

    def function(self, name: str, num_params: int = 0,
                 func_type: "Optional[FuncType]" = None,
                 address_taken: bool = False) -> Function:
        if name in self.functions:
            raise CompilerError(f"duplicate function {name!r}")
        fn = Function(name=name, num_params=num_params,
                      func_type=func_type, address_taken=address_taken)
        self.functions[name] = fn
        return fn

    def global_var(self, var: GlobalVar) -> GlobalVar:
        if var.name in self.globals:
            raise CompilerError(f"duplicate global {var.name!r}")
        self.globals[var.name] = var
        return var

    def vtable(self, table: VTable) -> VTable:
        if table.class_name in self.vtables:
            raise CompilerError(f"duplicate vtable for {table.class_name!r}")
        self.vtables[table.class_name] = table
        return table

    def copy(self) -> "Module":
        """A copy a defense pass can mutate without touching this module;
        frozen values (``FuncType``, ``ROLoadMD``) stay shared."""
        return replace(
            self, functions={n: f.copy() for n, f in self.functions.items()},
            globals={n: replace(v, init=list(v.init))
                     for n, v in self.globals.items()},
            vtables={n: replace(t, entries=list(t.entries))
                     for n, t in self.vtables.items()})

    def address_taken_functions(self) -> "List[Function]":
        """Functions whose address escapes (ICall's candidate targets)."""
        return [f for f in self.functions.values() if f.address_taken]

    def loads(self):
        """Iterate (function, index, Load) over every load in the module."""
        for fn in self.functions.values():
            for index, op in enumerate(fn.ops):
                if isinstance(op, Load):
                    yield fn, index, op
