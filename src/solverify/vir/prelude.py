"""Program-independent IR prelude.

Declares the allocation bookkeeping (Alloc, Length, DType), the string
interning function, the per-level lookup maps of each reachable map
signature, and the allocation procedures: New returns a fresh unallocated
reference, and NewUnbounded models allocating an unbounded set of fresh
references at once.  `chain_select` and `foralls` build the facts the
translator assumes when it allocates a (nested) map; `new_instance`
allocates a contract instance, and `NOTHING_ALLOCATED` is the start state.
"""

from __future__ import annotations

from solverify.vir.ast import (
    BOOL, INT, REF, Assign, Assume, BConst, Call, Forall, Havoc, IrExpr,
    IrProcedure, IrProgram, IrStmt, IrType, MapType, NamedConst, Store, Var,
    op, select, seq,
)

ALLOC = "Alloc"
LENGTH = "Length"
DTYPE = "DType"
STR_TO_INT = "StrToInt"

# The state every run starts from: no reference is allocated.
NOTHING_ALLOCATED = Forall("r0", REF, op("!", select(Var(ALLOC), Var("r0"))))


def type_tag(ty: IrType) -> str:
    if ty == INT:
        return "int"
    if ty == REF:
        return "Ref"
    if ty == BOOL:
        return "bool"
    raise ValueError(f"no tag for {ty}")


def lookup_map_name(key: IrType, value: IrType) -> str:
    return f"M_{type_tag(key)}_{type_tag(value)}"


def chain_select(base, chain: tuple[IrType, ...], leaf: IrType, idx_vars: list) -> IrExpr:
    """The lookup of base[i1]...[ij] through the per-level maps: every level
    before the last reads a Ref, the last reads the leaf type."""
    cur = base
    for j, key_ty in enumerate(chain[:len(idx_vars)]):
        value_ty = leaf if j == len(chain) - 1 else REF
        cur = select(Var(lookup_map_name(key_ty, value_ty)), cur, idx_vars[j])
    return cur


def foralls(vars_tys: list[tuple[str, IrType]], body) -> Forall:
    """`body` under one forall per (name, type), the first outermost."""
    out = body
    for name, ty in reversed(vars_tys):
        out = Forall(name, ty, out)
    return out


def new_proc() -> IrProcedure:
    ret = Var("ret")
    body = seq(
        Havoc("ret"),
        Assume(op("!", select(Var(ALLOC), ret))),
        Store(ALLOC, (ret,), BConst(True)),
    )
    return IrProcedure(name="New", params=[], returns=[("ret", REF)],
                       locals=[], body=body)


def new_instance(var: str, contract: str) -> list[IrStmt]:
    """Allocate a fresh reference into `var`, then assume its dynamic type
    is `contract`."""
    return [Call("New", (), (var,)),
            Assume(op("==", select(Var(DTYPE), Var(var)), NamedConst(contract)))]


def new_unbounded_proc() -> IrProcedure:
    i = Var("i")
    body = seq(
        Assign("oldAlloc", Var(ALLOC)),
        Havoc(ALLOC),
        Assume(Forall("i", REF, op("==>", select(Var("oldAlloc"), i),
                                   select(Var(ALLOC), i)))),
    )
    return IrProcedure(name="NewUnbounded", params=[], returns=[],
                       locals=[("oldAlloc", MapType(REF, BOOL))], body=body)


def emit_prelude(map_sigs=()) -> IrProgram:
    """The prelude fragment; `map_sigs` holds the reachable map signatures
    (key-type chain, leaf type) that need lookup maps."""
    program = IrProgram()
    program.globals[ALLOC] = MapType(REF, BOOL)
    program.globals[LENGTH] = MapType(REF, INT)
    program.globals[DTYPE] = MapType(REF, INT)
    program.ufs[STR_TO_INT] = ((INT,), INT)
    program.add_proc(new_proc())
    program.add_proc(new_unbounded_proc())
    # the order of globals numbers their fresh symbols in a query
    for chain, leaf in sorted(map_sigs, key=lambda s: "_".join(
            type_tag(t) for t in (*s[0], s[1]))):
        for j, key_ty in enumerate(chain):
            value_ty = leaf if j == len(chain) - 1 else REF
            program.globals[lookup_map_name(key_ty, value_ty)] = \
                MapType(REF, MapType(key_ty, value_ty))
    return program
