"""Property tests over randomized inputs."""

import json

from hypothesis import given, settings, strategies as st

from solverify.engine.queries import QueryBuilder
from solverify.instrument import NONDET_FN, runtime_check_condition
from solverify.policy import parse_policy, serialize_policy
from solverify.sol import ast
from solverify.vir import ast as I
from solverify.vir.interp import Interp
from solverify.vir.parser import parse_ir
from solverify.vir.printer import print_ir

ident = st.from_regex(r"[A-Z][a-zA-Z0-9]{0,6}", fullmatch=True)


@st.composite
def policies(draw):
    roles = draw(st.lists(ident, min_size=1, max_size=3, unique=True))
    states = draw(st.lists(ident, min_size=1, max_size=4, unique=True))
    fn_names = draw(st.lists(ident, min_size=0, max_size=3, unique=True))
    properties = [{"Name": f"P{i}", "Type": draw(st.sampled_from(
        ["int", "string", "address"] + roles))} for i in range(draw(st.integers(0, 2)))]
    instance_roles = [p["Name"] for p in properties if p["Type"] in roles]
    transitions = []
    for fn in fn_names:
        if draw(st.booleans()):
            transitions.append({
                "StartState": draw(st.sampled_from(states)),
                "Function": fn,
                "AllowedRoles": draw(st.lists(st.sampled_from(roles),
                                              max_size=2, unique=True)),
                "AllowedInstanceRoles": draw(st.lists(
                    st.sampled_from(instance_roles), max_size=2, unique=True))
                if instance_roles else [],
                "NextStates": draw(st.lists(st.sampled_from(states),
                                            min_size=1, max_size=2,
                                            unique=True)),
            })
    doc = {
        "ApplicationName": "App",
        "ApplicationRoles": [{"Name": r} for r in roles],
        "Workflows": [{
            "Name": "W",
            "Initiators": draw(st.lists(st.sampled_from(roles), max_size=2,
                                        unique=True)),
            "StartState": states[0],
            "States": states,
            "Properties": properties,
            "Constructor": {"Parameters": []},
            "Functions": [{"Name": fn, "Parameters": []} for fn in fn_names],
            "Transitions": transitions,
        }],
    }
    return json.dumps(doc)


@given(policies())
@settings(max_examples=60, deadline=None)
def test_policy_serialize_parse_identity(text):
    policy = parse_policy(text)
    assert parse_policy(serialize_policy(policy)) == policy


@st.composite
def bool_exprs(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.integers(0, 2))
        if kind == 0:
            e = ast.ExprCall(fn=NONDET_FN, args=[])
        elif kind == 1:
            e = ast.Op(op="==", args=[ast.Var(draw(st.sampled_from("abc"))),
                                      ast.IntLit(draw(st.integers(0, 2)))])
        else:
            e = ast.BoolLit(draw(st.booleans()))
        e.ty = ast.BOOL
        return e
    op = draw(st.sampled_from(["&&", "||", "==>", "!"]))
    if op == "!":
        e = ast.Op(op="!", args=[draw(bool_exprs(depth=depth + 1))])
    else:
        e = ast.Op(op=op, args=[draw(bool_exprs(depth=depth + 1)),
                                draw(bool_exprs(depth=depth + 1))])
    e.ty = ast.BOOL
    return e


def _count_nondets(e):
    if isinstance(e, ast.ExprCall):
        return 1
    if isinstance(e, ast.Op):
        return sum(_count_nondets(a) for a in e.args)
    return 0


@given(bool_exprs())
@settings(max_examples=80, deadline=None)
def test_runtime_check_weakening_sound(expr):
    from test_instrument import assert_weakening_sound
    if _count_nondets(expr) > 4:
        return
    assert_weakening_sound(expr)


@given(bool_exprs())
@settings(max_examples=60, deadline=None)
def test_runtime_check_has_no_nondets(expr):
    out = runtime_check_condition(expr)
    assert _count_nondets(out) == 0


@st.composite
def ir_programs(draw):
    from solverify.vir import ast as I
    from solverify.vir.prelude import emit_prelude
    program = emit_prelude([((I.INT,), I.INT)])
    n = draw(st.integers(1, 6))
    stmts = []
    for i in range(n):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            stmts.append(I.Assign("x", I.op("+", I.Var("x"), I.IConst(draw(st.integers(-3, 3))))))
        elif kind == 1:
            stmts.append(I.Havoc("b"))
        elif kind == 2:
            stmts.append(I.If(I.Var("b"), I.Assign("x", I.IConst(1)), I.Skip()))
        elif kind == 3:
            stmts.append(I.Assume(I.op("<", I.Var("x"), I.IConst(10))))
        else:
            stmts.append(I.Store("m", (I.Var("x"),), I.IConst(draw(st.integers(0, 5)))))
    program.globals["m"] = I.MapType(I.INT, I.INT)
    program.add_proc(I.IrProcedure("t", [], [], [("x", I.INT), ("b", I.BOOL)],
                                   I.seq(*stmts)))
    return program


@given(ir_programs())
@settings(max_examples=40, deadline=None)
def test_ir_print_parse_round_trip(program):
    text = print_ir(program)
    assert print_ir(parse_ir(text)) == text


def _smtlib_value(t):
    """A ground integer term's value as SMT-LIB defines it: `(div a b)` and
    `(mod a b)` are q and r with a = b * q + r and 0 <= r < |b|."""
    if t.op == "intval":
        return t.value
    args = [_smtlib_value(a) for a in t.args]
    if t.op == "ite":
        return args[1] if args[0] else args[2]
    if t.op == ">=":
        return args[0] >= args[1]
    if t.op == "neg":
        return -args[0]
    a, b = args
    r = next(r for r in range(abs(b)) if (a - r) % b == 0)
    return {"div": (a - r) // b, "mod": r}[t.op]


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-300, 300).filter(bool),
       st.sampled_from(["/", "%"]))
@settings(max_examples=300, deadline=None)
def test_division_encoding_agrees_with_ir_interpreter(a, b, op):
    e = I.op(op, I.IConst(a), I.IConst(b))
    encoded = QueryBuilder(I.IrProgram()).term(e)
    assert _smtlib_value(encoded) == Interp(I.IrProgram()).eval(e, {})
