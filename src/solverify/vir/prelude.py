"""Program-independent IR prelude.

Declares the allocation bookkeeping (Alloc, Length, DType), the string
interning function, the per-level lookup maps of each reachable map
signature, and `New`, which returns a fresh unallocated reference.
`alloc_facts` states what an `alloc` statement guarantees, for the encoder;
`new_instance` allocates a contract instance, and `NOTHING_ALLOCATED` is the
start state.
"""

from __future__ import annotations

from collections.abc import Iterator

from solverify.vir.ast import (
    BOOL, INT, REF, AllocMap, Assign, Assume, BConst, Call, Forall, Havoc,
    IConst, IrExpr, IrProcedure, IrProgram, IrStmt, IrType, MapType,
    NamedConst, RConst, Store, Var, op, select, seq,
)

ALLOC = "Alloc"
LENGTH = "Length"
DTYPE = "DType"
STR_TO_INT = "StrToInt"

# The state every run starts from: no reference is allocated.
NOTHING_ALLOCATED = Forall("r0", REF, op("!", select(Var(ALLOC), Var("r0"))))
# Alloc before the unbounded allocation of one level of an `alloc`; `$`
# keeps it apart from every source and translator name.
ALLOC_SNAPSHOT = "Alloc$old"


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


def _chain_select(base, chain: tuple[IrType, ...], leaf: IrType, idx_vars: list) -> IrExpr:
    """The lookup of base[i1]...[ij] through the per-level maps: every level
    before the last reads a Ref, the last reads the leaf type."""
    cur = base
    for j, key_ty in enumerate(chain[:len(idx_vars)]):
        value_ty = leaf if j == len(chain) - 1 else REF
        cur = select(Var(lookup_map_name(key_ty, value_ty)), cur, idx_vars[j])
    return cur


def _foralls(vars_tys: list[tuple[str, IrType]], body) -> Forall:
    """`body` under one forall per (name, type), the first outermost."""
    out = body
    for name, ty in reversed(vars_tys):
        out = Forall(name, ty, out)
    return out


def _fresh(var: str) -> list[IrStmt]:
    """`var` := a reference not yet allocated, which is then allocated."""
    ref = Var(var)
    return [Havoc(var), Assume(op("!", select(Var(ALLOC), ref))),
            Store(ALLOC, (ref,), BConst(True))]


def new_proc() -> IrProcedure:
    return IrProcedure(name="New", params=[], returns=[("ret", REF)],
                       locals=[], body=seq(*_fresh("ret")))


def new_instance(var: str, const: str) -> list[IrStmt]:
    """Allocate a fresh reference into `var`, then assume its dynamic type
    is the contract whose IR constant is `const`."""
    return [Call("New", (), (var,)),
            Assume(op("==", select(Var(DTYPE), Var(var)), NamedConst(const)))]


def alloc_facts(s: AllocMap) -> Iterator[IrStmt]:
    """What `s` guarantees, as statements the encoder executes in its place:
    `New`'s facts for `s.var`; its length; for each inner level j, over the
    lookup chains c(i1..ij) from `s.var`, zero length and no allocation, an
    unbounded allocation (Alloc havocked, only growing, the old one in
    `ALLOC_SNAPSHOT`, null still unallocated) that allocates every
    c(i1..ij), and distinctness of c within a row; then zero leaves."""
    chain, leaf, ref = s.keys, s.leaf, Var(s.var)
    yield from _fresh(s.var)
    if s.length is not None:
        yield Store(LENGTH, (ref,), s.length)
    else:
        yield Assume(op("==", select(Var(LENGTH), ref), IConst(0)))
    idx = [(f"i{k}", key_ty) for k, key_ty in enumerate(chain, 1)]
    idx_vars = [Var(name) for name, _ in idx]
    for j in range(1, len(chain)):
        level = _chain_select(ref, chain, leaf, idx_vars[:j])
        yield Assume(_foralls(idx[:j], op("==", select(Var(LENGTH), level), IConst(0))))
        yield Assume(_foralls(idx[:j], op("!", select(Var(ALLOC), level))))
        yield Assign(ALLOC_SNAPSHOT, Var(ALLOC))
        yield Havoc(ALLOC)
        yield Assume(Forall("i", REF, op("==>", select(Var(ALLOC_SNAPSHOT), Var("i")),
                                         select(Var(ALLOC), Var("i")))))
        yield Assume(op("!", select(Var(ALLOC), RConst(0))))
        yield Assume(_foralls(idx[:j], select(Var(ALLOC), level)))
        primed = Var(f"i{j}_")
        other = _chain_select(ref, chain, leaf, idx_vars[:j - 1] + [primed])
        yield Assume(_foralls(idx[:j] + [(primed.name, chain[j - 1])], op(
            "||", op("==", idx_vars[j - 1], primed), op("!=", level, other))))
    zero: IrExpr = BConst(False) if leaf == BOOL else \
        (RConst(0) if leaf == REF else IConst(0))
    yield Assume(_foralls(idx, op("==", _chain_select(ref, chain, leaf, idx_vars), zero)))


def emit_prelude(map_sigs=()) -> IrProgram:
    """The prelude fragment; `map_sigs` holds the reachable map signatures
    (key-type chain, leaf type) that need lookup maps."""
    program = IrProgram()
    program.globals[ALLOC] = MapType(REF, BOOL)
    program.globals[LENGTH] = MapType(REF, INT)
    program.globals[DTYPE] = MapType(REF, INT)
    program.ufs[STR_TO_INT] = ((INT,), INT)
    program.add_proc(new_proc())
    # the order of globals numbers their fresh symbols in a query
    for chain, leaf in sorted(map_sigs, key=lambda s: "_".join(
            type_tag(t) for t in (*s[0], s[1]))):
        for j, key_ty in enumerate(chain):
            value_ty = leaf if j == len(chain) - 1 else REF
            program.globals[lookup_map_name(key_ty, value_ty)] = \
                MapType(REF, MapType(key_ty, value_ty))
    return program
