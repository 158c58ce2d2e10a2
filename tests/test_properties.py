"""Property tests over randomized inputs."""

import json

from hypothesis import given, settings, strategies as st

from conftest import serialize_policy
from solverify.engine.queries import QueryBuilder
from solverify.instrument import NONDET_FN, runtime_check_condition
from solverify.policy import parse_policy
from solverify.sol import ast
from solverify.vir import ast as I
from solverify.vir.interp import Interp
from solverify.vir.printer import print_ir
from vir_parser import parse_ir

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
    out = runtime_check_condition(expr, False)
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


# -- invented names --------------------------------------------------------------

# Underscore-joined pieces, and spellings the translation invents itself.
NAME_PIECES = ["A", "B_A", "x", "x_B", "F", "F_B", "Ctor", "int_bool", "M",
               "tmp0", "len0", "msg_sender", "__ret"]


@st.composite
def name_clash_programs(draw):
    """2-3 contracts, each maybe derived from the one before, whose contract,
    state-variable, function, parameter and local names are drawn from
    NAME_PIECES; function bodies read and write state, call a function
    (a temporary takes the result) and push to arrays."""
    n = draw(st.integers(2, 3))
    contracts = draw(st.lists(st.sampled_from(NAME_PIECES), min_size=n,
                              max_size=n, unique=True))
    others = [p for p in NAME_PIECES if p not in contracts]
    state = iter(draw(st.permutations(NAME_PIECES)))  # unique program-wide
    sources, visible_fns = [], []
    for i, c in enumerate(contracts):
        derived = i > 0 and draw(st.booleans())
        scalar = next(state)
        arrays = [next(state) for _ in range(draw(st.integers(0, 1)))]
        fns = draw(st.lists(st.sampled_from(others), min_size=1, max_size=2, unique=True))
        visible_fns = (visible_fns if derived else []) + fns
        members = [f"int {scalar};"] + [f"int[] {a};" for a in arrays]
        members.append(f"constructor() public {{ int {draw(st.sampled_from(others))} = 1; }}")
        for fn in fns:
            locals_pool = [p for p in others if p not in arrays]  # push needs them
            param, *locals_ = draw(st.lists(st.sampled_from(locals_pool), min_size=2,
                                            max_size=3, unique=True))
            body = [f"int {loc} = {param};" for loc in locals_]
            body.append(f"{scalar} = {locals_[-1]};")
            body.append(f"{scalar} = {draw(st.sampled_from(visible_fns))}({locals_[0]});")
            body += [f"{a}.push({locals_[0]});" for a in arrays]
            body.append(f"return {locals_[-1]};")
            members.append(f"function {fn}(int {param}) public returns (int) "
                           f"{{ {' '.join(body)} }}")
        head = f"contract {c} is {contracts[i - 1]}" if derived else f"contract {c}"
        sources.append(head + " {\n    " + "\n    ".join(members) + "\n}")
    return "\n".join(sources), contracts[-1]


@given(name_clash_programs())
@settings(max_examples=60, deadline=None)
def test_invented_names_are_distinct(case):
    from solverify.sol import desugar_modifiers, parse_contract, typecheck
    from solverify.translate import generate_harness, translate_program
    src, root = case
    program = desugar_modifiers(typecheck(parse_contract(src)))
    tr = translate_program(program)
    generate_harness(tr, root)
    for proc in tr.ir.procedures.values():
        names = [n for n, _ in proc.params + proc.returns + proc.locals]
        assert len(names) == len(set(names)), (proc.name, names)
        assert not set(names) & set(tr.ir.globals), proc.name  # no shadowing
    declared = [(c.name, n) for c in program.contracts for n, _ in c.state_vars]
    assert sorted(tr.state_maps) == sorted(declared)
    assert len(set(tr.state_maps.values())) == len(declared)
    assert set(tr.state_maps.values()) <= set(tr.ir.globals)
    assert len(set(tr.procs.values())) == len(tr.procs)
    assert set(tr.procs.values()) <= set(tr.ir.procedures)


@given(st.sets(st.sampled_from(["constructor_checker", "constructor_checker_1",
                                "SendRequest_checker", "SendRequest_checker_1",
                                "SendResponse_checker"])))
@settings(max_examples=30, deadline=None)
def test_checker_modifiers_keep_apart_from_user_modifiers(user_modifiers):
    """Each checker is a modifier of its own, and the one each function (and
    the constructor) applies first."""
    from conftest import fixture_text
    from solverify.instrument import instrument_for_conformance
    from solverify.sol import desugar_modifiers, parse_contract, typecheck
    decls = "".join(f"    modifier {m}() {{ _; }}\n" for m in sorted(user_modifiers))
    src = fixture_text("helloblockchain.sol").replace(
        "    function SendRequest(", decls + "    function SendRequest(")
    program = desugar_modifiers(typecheck(parse_contract(src)))
    out = instrument_for_conformance(program, parse_policy(fixture_text("helloblockchain.json")))
    c = out.contract("HelloBlockchain")
    names = [m.name for m in c.modifiers]
    assert len(names) == len(set(names))
    for fn in (c.constructor, c.function("SendRequest"), c.function("SendResponse")):
        checker = c.modifier(fn.applied_modifiers[0])
        assert checker.name not in user_modifiers
        assert any(isinstance(s, ast.Assert) for s in checker.post_stmts)
