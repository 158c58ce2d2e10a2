"""AST for the core Solidity subset.

Nodes are mutable records (`solverify.record`, `eq=False`); types are frozen
ones.  The typechecker annotates expressions in place (`ty`, plus binding
information on variables).  Equality ignores source positions and type
annotations so parse/print round-trip tests can compare structurally; nodes
still hash by identity.
"""

from __future__ import annotations

import copy
from collections.abc import Callable, Iterator

from solverify.record import field, record


# ---------------------------------------------------------------------------
# Types

class SolType:
    pass


@record(frozen=True)
class IntType(SolType):
    def __str__(self) -> str:
        return "int"


@record(frozen=True)
class BoolType(SolType):
    def __str__(self) -> str:
        return "bool"


@record(frozen=True)
class StringType(SolType):
    def __str__(self) -> str:
        return "string"


@record(frozen=True)
class AddressType(SolType):
    def __str__(self) -> str:
        return "address"


@record(frozen=True)
class ContractType(SolType):
    name: str

    def __str__(self) -> str:
        return self.name


@record(frozen=True)
class NamedType(SolType):
    """Unresolved identifier type from the parser; the typechecker replaces it
    with ContractType or (for enums) IntType."""

    name: str

    def __str__(self) -> str:
        return self.name


@record(frozen=True)
class MappingType(SolType):
    key: SolType  # elementary: int / string / address
    value: SolType
    # Declared with array syntax (T[]); not part of type identity.
    is_array: bool = field(default=False, compare=False)

    def __str__(self) -> str:
        if self.is_array:
            return f"{self.value}[]"
        return f"mapping({self.key} => {self.value})"


INT = IntType()
BOOL = BoolType()
STRING = StringType()
ADDRESS = AddressType()


def is_elementary(ty: SolType) -> bool:
    return isinstance(ty, (IntType, StringType, AddressType))


def is_array_type(ty: SolType) -> bool:
    """Arrays are integer-keyed mappings; `.length` and `.push` apply."""
    return isinstance(ty, MappingType) and isinstance(ty.key, IntType)


# ---------------------------------------------------------------------------
# Expressions

@record(eq=False)
class SolExpr:
    pass


@record(eq=False)
class IntLit(SolExpr):
    value: int
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    STRUCT_FIELDS = ("value",)


@record(eq=False)
class BoolLit(SolExpr):
    value: bool
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    STRUCT_FIELDS = ("value",)


@record(eq=False)
class StringLit(SolExpr):
    value: str
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    STRUCT_FIELDS = ("value",)


@record(eq=False)
class AddressLit(SolExpr):
    """Hex literal; only the null address 0x0 is meaningful in the subset."""

    value: int
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    STRUCT_FIELDS = ("value",)


@record(eq=False)
class Var(SolExpr):
    name: str
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    binding: str | None = None  # local | param | state | return
    owner: str | None = None  # declaring contract for state vars
    STRUCT_FIELDS = ("name",)


@record(eq=False)
class EnumMember(SolExpr):
    enum: str
    member: str
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    value: int | None = None  # member index, filled by the typechecker
    STRUCT_FIELDS = ("enum", "member")


@record(eq=False)
class Op(SolExpr):
    op: str
    args: list[SolExpr]
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    STRUCT_FIELDS = ("op", "args")


@record(eq=False)
class Index(SolExpr):
    base: SolExpr
    key: SolExpr
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    STRUCT_FIELDS = ("base", "key")


@record(eq=False)
class MsgSender(SolExpr):
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    STRUCT_FIELDS = ()


@record(eq=False)
class LengthOf(SolExpr):
    base: SolExpr
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    STRUCT_FIELDS = ("base",)


@record(eq=False)
class ExprCall(SolExpr):
    """Expression-position call; only definition-free boolean functions
    (the nondeterministic-choice declaration) typecheck here."""

    fn: str
    args: list[SolExpr]
    pos: tuple[int, int] = (0, 0)
    ty: SolType | None = None
    STRUCT_FIELDS = ("fn", "args")


# ---------------------------------------------------------------------------
# Statements

@record(eq=False)
class SolStmt:
    pass


def _stmt_eq(a, b) -> bool:
    """Structural equality ignoring positions and annotations: the fields in
    STRUCT_FIELDS are compared with `==`, which for child nodes, and for the
    nodes in a list, is this function again."""
    return type(a) is type(b) and all(
        getattr(a, name) == getattr(b, name) for name in a.STRUCT_FIELDS)


SolExpr.__eq__ = SolStmt.__eq__ = _stmt_eq  # type: ignore[method-assign]


@record(eq=False)
class DeclStmt(SolStmt):
    name: str
    ty: SolType
    init: SolExpr | None
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("name", "ty", "init")


@record(eq=False)
class Assign(SolStmt):
    lhs: SolExpr  # Var or Index chain
    rhs: SolExpr
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("lhs", "rhs")


@record(eq=False)
class Require(SolStmt):
    cond: SolExpr
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("cond",)


@record(eq=False)
class Assert(SolStmt):
    cond: SolExpr
    pos: tuple[int, int] = (0, 0)
    label: str | None = None  # conformance context, set by the instrumenter
    STRUCT_FIELDS = ("cond",)


@record(eq=False)
class If(SolStmt):
    cond: SolExpr
    then: list[SolStmt]
    els: list[SolStmt]
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("cond", "then", "els")


@record(eq=False)
class While(SolStmt):
    cond: SolExpr
    body: list[SolStmt]
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("cond", "body")


@record(eq=False)
class Push(SolStmt):
    base: SolExpr
    value: SolExpr
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("base", "value")


@record(eq=False)
class Return(SolStmt):
    value: SolExpr | None
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("value",)


@record(eq=False)
class InternalCall(SolStmt):
    target: SolExpr | None  # lvalue or None
    fn: str
    args: list[SolExpr]
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("target", "fn", "args")


@record(eq=False)
class ExternalCall(SolStmt):
    target: SolExpr | None
    receiver: SolExpr
    fn: str
    args: list[SolExpr]
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("target", "receiver", "fn", "args")


@record(eq=False)
class NewContract(SolStmt):
    target: SolExpr
    contract: str
    args: list[SolExpr]
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("target", "contract", "args")


@record(eq=False)
class NewArray(SolStmt):
    target: SolExpr
    elem_ty: SolType
    size: SolExpr
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("target", "elem_ty", "size")


@record(eq=False)
class NewMap(SolStmt):
    target: SolExpr
    map_ty: MappingType
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("target", "map_ty")


# ---------------------------------------------------------------------------
# Declarations

@record(eq=False)
class ModifierDef:
    name: str
    pre_stmts: list[SolStmt]
    post_stmts: list[SolStmt]
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("name", "pre_stmts", "post_stmts")
    __eq__ = _stmt_eq


@record(eq=False)
class SolFunction:
    name: str
    params: list[tuple[str, SolType]]
    body: list[SolStmt] | None  # None for definition-free declarations
    returns: SolType | None = None
    applied_modifiers: list[str] = field(default_factory=list)
    visibility: str = "public"
    is_constructor: bool = False
    pos: tuple[int, int] = (0, 0)
    STRUCT_FIELDS = ("name", "params", "body", "returns", "applied_modifiers",
                     "visibility", "is_constructor")
    __eq__ = _stmt_eq


@record(eq=False)
class SolContract:
    name: str
    bases: list[str]
    state_vars: list[tuple[str, SolType]]
    enums: dict[str, list[str]]
    constructor: SolFunction | None
    functions: list[SolFunction]
    modifiers: list[ModifierDef]
    pos: tuple[int, int] = (0, 0)
    # name -> enum name, for state vars declared with an enum type
    enum_vars: dict[str, str] = field(default_factory=dict)

    def state_var(self, name: str) -> SolType | None:
        for n, t in self.state_vars:
            if n == name:
                return t
        return None

    def function(self, name: str) -> SolFunction | None:
        for f in self.functions:
            if f.name == name:
                return f
        return None

    def modifier(self, name: str) -> ModifierDef | None:
        for m in self.modifiers:
            if m.name == name:
                return m
        return None

    def enum(self, name: str) -> list[str] | None:
        """The members of the enum `name` declared here."""
        return self.enums.get(name)

    def all_functions(self) -> list[SolFunction]:
        """The functions, then the constructor."""
        return self.functions + ([self.constructor] if self.constructor else [])

    STRUCT_FIELDS = ("name", "bases", "state_vars", "enums", "constructor",
                     "functions", "modifiers")
    __eq__ = _stmt_eq


@record(eq=False)
class SolProgram:
    contracts: list[SolContract]
    # contract name -> its C3 linearization, most-derived first; set once by
    # `parse_contract`, after which no contract or base is added
    order: dict[str, list[str]] = field(default_factory=dict)

    def contract(self, name: str) -> SolContract | None:
        for c in self.contracts:
            if c.name == name:
                return c
        return None

    def resolve(self, contract: str, kind: str, name: str):
        """`(owner, member)` for the first contract along `contract`'s
        linearization that declares `name` as a `kind` ("function",
        "state_var", "modifier" or "enum"); None when none does."""
        for owner in self.order[contract]:
            member = getattr(self.contract(owner), kind)(name)
            if member is not None:
                return owner, member
        return None

    STRUCT_FIELDS = ("contracts",)
    __eq__ = _stmt_eq


# ---------------------------------------------------------------------------
# Traversal.  The children of a node are the expressions and statements in
# its STRUCT_FIELDS, held directly or in a list, in field order.

def _is_node(x) -> bool:
    return isinstance(x, (SolExpr, SolStmt))


def children(node) -> list:
    out = []
    for name in node.STRUCT_FIELDS:
        v = getattr(node, name)
        out.extend(x for x in (v if isinstance(v, list) else [v]) if _is_node(x))
    return out


def map_children(node, f: Callable):
    """Replace every child of `node` by `f(child)`, in place; returns `node`."""
    for name in node.STRUCT_FIELDS:
        v = getattr(node, name)
        if _is_node(v):
            setattr(node, name, f(v))
        elif isinstance(v, list):
            v[:] = [f(x) if _is_node(x) else x for x in v]
    return node


def walk(root) -> Iterator:
    """`root` (a node or a list of nodes) and every statement and expression
    below it, pre-order.  A node's children are read after the node is
    handed out, so the consumer may replace them first."""
    stack = list(reversed(root)) if isinstance(root, list) else [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def statements(root) -> Iterator:
    """The statements of `walk(root)`, in its order, without descending
    into expressions."""
    stack = list(reversed(root)) if isinstance(root, list) else [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed([c for c in children(node) if isinstance(c, SolStmt)]))


def bodies(program: SolProgram) -> Iterator[list[SolStmt]]:
    """Every top-level statement list, contract by contract: the function
    bodies, the constructor body, then each modifier's pre- and
    post-statements."""
    for c in program.contracts:
        for fn in c.all_functions():
            if fn.body is not None:
                yield fn.body
        for m in c.modifiers:
            yield m.pre_stmts
            yield m.post_stmts


def copy_tree(root):
    """`copy.deepcopy` of a node, a list of nodes or a program, without one
    level of recursion per level of nesting: the nodes below are copied
    first, deepest first, so each copy finds its children in the memo."""
    memo: dict = {}
    for part in bodies(root) if isinstance(root, SolProgram) else [root]:
        for node in reversed(list(walk(part))):
            copy.deepcopy(node, memo)
    return copy.deepcopy(root, memo)
