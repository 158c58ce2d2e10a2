"""IR syntax: two base sorts (int, Ref) plus booleans and curried maps.

Contract names are program-level integer constants; booleans are kept as a
distinct type for clarity but carry no arithmetic.  Statements are standard:
havoc, assignment, map store, assume/assert, calls, structured control flow,
and the allocation of a contract instance or of a (nested) map.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator

from solverify.record import field, record


# -- types ------------------------------------------------------------------

class IrType:
    pass


@record(frozen=True)
class IntT(IrType):
    def __str__(self) -> str:
        return "int"


@record(frozen=True)
class BoolT(IrType):
    def __str__(self) -> str:
        return "bool"


@record(frozen=True)
class RefT(IrType):
    def __str__(self) -> str:
        return "Ref"


@record(frozen=True)
class MapType(IrType):
    key: IrType
    value: IrType

    def __str__(self) -> str:
        return f"[{self.key}]{self.value}"


INT = IntT()
BOOL = BoolT()
REF = RefT()


# -- expressions --------------------------------------------------------------

@record(frozen=True)
class IrExpr:
    pass


@record(frozen=True)
class IConst(IrExpr):
    value: int


@record(frozen=True)
class BConst(IrExpr):
    value: bool


@record(frozen=True)
class RConst(IrExpr):
    """Reference literal; 0 is the null address."""

    value: int


@record(frozen=True)
class NamedConst(IrExpr):
    """Program-level integer constant (contract name codes)."""

    name: str


@record(frozen=True)
class Var(IrExpr):
    name: str


@record(frozen=True)
class Op(IrExpr):
    op: str
    args: tuple[IrExpr, ...]


@record(frozen=True)
class Select(IrExpr):
    base: IrExpr
    keys: tuple[IrExpr, ...]


def op(name: str, *args: IrExpr) -> Op:
    return Op(name, tuple(args))


def select(base: IrExpr, *keys: IrExpr) -> Select:
    return Select(base, tuple(keys))


# -- statements ---------------------------------------------------------------

class IrStmt:
    pass


@record(frozen=True)
class Skip(IrStmt):
    pass


@record(frozen=True)
class Havoc(IrStmt):
    var: str


@record(frozen=True)
class Assign(IrStmt):
    var: str
    expr: IrExpr


@record(frozen=True)
class Store(IrStmt):
    base: str
    keys: tuple[IrExpr, ...]
    value: IrExpr


@record(frozen=True)
class Assume(IrStmt):
    cond: IrExpr


@record(frozen=True)
class Assert(IrStmt):
    cond: IrExpr
    label: str = ""


@record(frozen=True)
class Call(IrStmt):
    proc: str
    args: tuple[IrExpr, ...]
    results: tuple[str, ...] = ()


@record(frozen=True)
class Alloc(IrStmt):
    """`var` := a fresh allocated reference.  With `contract`, the name of a
    contract constant, it is an instance whose `DType` is that contract;
    else it is a map with key types `keys` and leaf type `leaf`, every inner
    map fresh and every leaf zero, whose `Length` is `length`, or 0 when
    that is None."""

    var: str
    keys: tuple[IrType, ...] = ()
    leaf: IrType | None = None
    length: IrExpr | None = None
    contract: str | None = None


@record(frozen=True)
class Seq(IrStmt):
    stmts: tuple[IrStmt, ...]


@record(frozen=True)
class If(IrStmt):
    cond: IrExpr
    then: IrStmt
    els: IrStmt


@record(frozen=True)
class While(IrStmt):
    cond: IrExpr
    body: IrStmt


def seq(*stmts: IrStmt) -> IrStmt:
    flat: list[IrStmt] = []
    for s in stmts:
        if isinstance(s, Seq):
            flat.extend(s.stmts)
        elif not isinstance(s, Skip):
            flat.append(s)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))


def seq_list(s: IrStmt) -> list[IrStmt]:
    if isinstance(s, Seq):
        return list(s.stmts)
    if isinstance(s, Skip):
        return []
    return [s]


# -- traversal -----------------------------------------------------------------

def children(e: IrExpr) -> tuple[IrExpr, ...]:
    """The direct subexpressions of `e`: operator arguments, a select's base
    then keys."""
    if isinstance(e, Op):
        return e.args
    if isinstance(e, Select):
        return (e.base,) + e.keys
    return ()


def map_expr(e: IrExpr, f: Callable[[IrExpr], IrExpr | None]) -> IrExpr:
    """Rebuild `e` top-down: where `f` returns an expression it replaces the
    node outright, elsewhere the node is rebuilt from its mapped children."""
    out = f(e)
    if out is not None:
        return out
    if isinstance(e, Op):
        return Op(e.op, tuple(map_expr(a, f) for a in e.args))
    if isinstance(e, Select):
        return Select(map_expr(e.base, f), tuple(map_expr(k, f) for k in e.keys))
    return e


def _same(x):
    return x


def map_stmt(s: IrStmt, f: Callable[[IrStmt], IrStmt | None] = lambda s: None,
             expr: Callable[[IrExpr], IrExpr] = _same,
             var: Callable[[str], str] = _same) -> IrStmt:
    """Rebuild `s` top-down, in source order.  Where `f` returns a statement
    it replaces the node outright; elsewhere sequences (re-flattened by
    `seq`), branches and loops are rebuilt from their mapped parts, every
    expression goes through `expr` and every assigned variable through
    `var`."""
    out = f(s)
    if out is not None:
        return out
    if isinstance(s, Seq):
        return seq(*(map_stmt(x, f, expr, var) for x in s.stmts))
    if isinstance(s, If):
        return If(expr(s.cond), map_stmt(s.then, f, expr, var),
                  map_stmt(s.els, f, expr, var))
    if isinstance(s, While):
        return While(expr(s.cond), map_stmt(s.body, f, expr, var))
    if expr is _same and var is _same:  # a simple statement maps to itself
        return s
    if isinstance(s, Havoc):
        return Havoc(var(s.var))
    if isinstance(s, Assign):
        return Assign(var(s.var), expr(s.expr))
    if isinstance(s, Store):
        return Store(var(s.base), tuple(expr(k) for k in s.keys), expr(s.value))
    if isinstance(s, Assume):
        return Assume(expr(s.cond))
    if isinstance(s, Assert):
        return Assert(expr(s.cond), s.label)
    if isinstance(s, Call):
        return Call(s.proc, tuple(expr(a) for a in s.args),
                    tuple(var(r) for r in s.results))
    if isinstance(s, Alloc):
        return Alloc(var(s.var), s.keys, s.leaf,
                     None if s.length is None else expr(s.length), s.contract)
    return s


def iter_stmt(s: IrStmt) -> Iterator[IrStmt]:
    """`s` and every statement nested in it, pre-order, in source order."""
    stack = [s]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, Seq):
            stack.extend(reversed(x.stmts))
        elif isinstance(x, If):
            stack += (x.els, x.then)
        elif isinstance(x, While):
            stack.append(x.body)


# -- procedures and programs ---------------------------------------------------

@record
class IrProcedure:
    name: str
    params: list[tuple[str, IrType]]
    returns: list[tuple[str, IrType]]
    locals: list[tuple[str, IrType]]
    body: IrStmt

    def local_type(self, name: str) -> IrType | None:
        for n, t in self.params + self.returns + self.locals:
            if n == name:
                return t
        return None


@record
class IrProgram:
    globals: dict[str, IrType] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)
    procedures: dict[str, IrProcedure] = field(default_factory=dict)

    def add_proc(self, proc: IrProcedure):
        if proc.name in self.procedures:
            raise ValueError(f"duplicate procedure {proc.name}")
        self.procedures[proc.name] = proc

    def var_type(self, proc: IrProcedure | None, name: str) -> IrType | None:
        if proc is not None:
            t = proc.local_type(name)
            if t is not None:
                return t
        return self.globals.get(name)
