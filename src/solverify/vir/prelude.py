"""Program-independent IR prelude.

Declares the allocation bookkeeping (Alloc, Length, DType) and the
per-level lookup maps of each reachable map signature, and `dtype_is`, the
dynamic-type test.  What an `alloc` statement guarantees is stated by the
encoder (`engine.queries`).
"""

from __future__ import annotations

from solverify.vir.ast import (
    BOOL, INT, REF, IrExpr, IrProgram, IrType, MapType, NamedConst, Var, op, select,
)

ALLOC = "Alloc"
LENGTH = "Length"
DTYPE = "DType"


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


def dtype_is(ref: IrExpr, contract: str) -> IrExpr:
    """The dynamic type of `ref` is the contract whose constant is `contract`."""
    return op("==", select(Var(DTYPE), ref), NamedConst(contract))


def emit_prelude(map_sigs=()) -> IrProgram:
    """The prelude fragment; `map_sigs` holds the reachable map signatures
    (key-type chain, leaf type) that need lookup maps."""
    program = IrProgram()
    program.globals[ALLOC] = MapType(REF, BOOL)
    program.globals[LENGTH] = MapType(REF, INT)
    program.globals[DTYPE] = MapType(REF, INT)
    # the order of globals numbers their fresh symbols in a query
    for chain, leaf in sorted(map_sigs, key=lambda s: "_".join(
            type_tag(t) for t in (*s[0], s[1]))):
        for j, key_ty in enumerate(chain):
            value_ty = leaf if j == len(chain) - 1 else REF
            program.globals[lookup_map_name(key_ty, value_ty)] = \
                MapType(REF, MapType(key_ty, value_ty))
    return program
