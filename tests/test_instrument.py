import itertools

import pytest

from solverify.instrument import (
    NONDET_FN, access_predicate, instrument_for_conformance,
    make_runtime_checks, runtime_check_condition, state_predicate,
)
from solverify.policy import AccessSet, parse_policy
from solverify.sol import ast, desugar_modifiers, parse_contract, typecheck
from solverify.sol.printer import print_expr


def count_nondet_calls(program: ast.SolProgram) -> int:
    return sum(isinstance(x, ast.ExprCall) and x.fn == NONDET_FN
               for body in ast.bodies(program) for x in ast.walk(body))


@pytest.fixture(scope="module")
def hb(hb_source, hb_policy_text):
    policy = parse_policy(hb_policy_text)
    program = typecheck(parse_contract(hb_source))
    return program, policy


# -- predicate builders -----------------------------------------------------------

def test_access_predicate_empty():
    assert print_expr(access_predicate(AccessSet(), NONDET_FN, {})) == "false"


def test_access_predicate_instance_role():
    e = access_predicate(AccessSet(instance_roles=frozenset({"Requestor"})),
                         NONDET_FN, {"Requestor": "Requestor"})
    assert print_expr(e) == "msg.sender == Requestor"


def test_access_predicate_global_role():
    e = access_predicate(AccessSet(global_roles=frozenset({"Responder"})),
                         NONDET_FN, {})
    assert print_expr(e) == "nondet()"


def test_access_predicate_union_sorted():
    # expanding the union case by hand: global RESPONDER sorts before the
    # instance role Requestor, so the nondet disjunct comes first
    e = access_predicate(AccessSet(global_roles=frozenset({"RESPONDER"}),
                                   instance_roles=frozenset({"Requestor"})),
                         NONDET_FN, {"Requestor": "Requestor"})
    assert print_expr(e) == "nondet() || msg.sender == Requestor"


def test_state_predicate_singleton():
    e = state_predicate({"Request"}, "StateType", "State")
    assert print_expr(e) == "State == StateType.Request"


def test_state_predicate_empty():
    assert print_expr(state_predicate(set(), "StateType", "State")) == "false"


def test_state_predicate_union_sorted():
    e = state_predicate({"Respond", "Request"}, "StateType", "State")
    assert print_expr(e) == \
        "State == StateType.Request || State == StateType.Respond"


# -- whole-program instrumentation --------------------------------------------------

def test_helloblockchain_checker_modifiers(hb):
    program, policy = hb
    inst = instrument_for_conformance(program, policy)
    c = inst.contracts[0]
    assert [m.name for m in c.modifiers] == [
        "constructor_checker", "SendRequest_checker", "SendResponse_checker"]
    assert c.constructor.applied_modifiers[0] == "constructor_checker"
    assert c.function("SendRequest").applied_modifiers[0] == "SendRequest_checker"
    assert c.function(NONDET_FN).body is None

    ctor_checker = c.modifier("constructor_checker")
    assert ctor_checker.pre_stmts == []
    assert len(ctor_checker.post_stmts) == 1
    assert print_expr(ctor_checker.post_stmts[0].cond) == \
        "nondet() ==> State == StateType.Request"

    sr = c.modifier("SendRequest_checker")
    snapshot_names = [s.name for s in sr.pre_stmts]
    assert snapshot_names == ["oldState", "oldRequestor", "oldResponder"]
    assert print_expr(sr.post_stmts[0].cond) == \
        ("msg.sender == oldRequestor && oldState == StateType.Respond "
         "==> State == StateType.Request")

    resp = c.modifier("SendResponse_checker")
    assert print_expr(resp.post_stmts[0].cond) == \
        ("nondet() && oldState == StateType.Request "
         "==> State == StateType.Respond")


def test_zero_transition_workflow_only_ctor_assert(hb_source, hb_policy_text):
    import json
    doc = json.loads(hb_policy_text)
    doc["Workflows"][0]["Transitions"] = []
    policy = parse_policy(json.dumps(doc))
    program = typecheck(parse_contract(hb_source))
    inst = instrument_for_conformance(program, policy)
    assert [m.name for m in inst.contracts[0].modifiers] == ["constructor_checker"]


def test_two_transitions_two_asserts():
    policy = parse_policy(open("tests/fixtures/assettransfer.json").read())
    program = typecheck(parse_contract(
        open("tests/fixtures/assettransfer_fixed.sol").read()))
    inst = instrument_for_conformance(program, policy)
    accept = inst.contracts[0].modifier("Accept_checker")
    # four transitions drive Accept, one assert each
    assert len(accept.post_stmts) == 4
    assert all(isinstance(s, ast.Assert) for s in accept.post_stmts)


def test_assertion_count_matches_transitions():
    policy = parse_policy(open("tests/fixtures/assettransfer.json").read())
    program = typecheck(parse_contract(
        open("tests/fixtures/assettransfer_fixed.sol").read()))
    inst = instrument_for_conformance(program, policy)
    w = policy.workflows[0]
    total = sum(1 for m in inst.contracts[0].modifiers
                for s in m.post_stmts if isinstance(s, ast.Assert))
    assert total == len(w.transitions) + 1  # one per transition + constructor


def test_snapshots_assigned_once_at_entry(hb):
    program, policy = hb
    inst = desugar_modifiers(instrument_for_conformance(program, policy))
    fn = inst.contracts[0].function("SendResponse")
    decls = [i for i, s in enumerate(fn.body) if isinstance(s, ast.DeclStmt)
             and s.name.startswith("old")]
    assert decls == list(range(len(decls)))  # all at the start, once each


def test_inserted_predicates_are_pure(hb):
    program, policy = hb
    inst = instrument_for_conformance(program, policy)

    def check_pure(e):
        assert not isinstance(e, (ast.Index,)) or True
        if isinstance(e, ast.ExprCall):
            assert e.fn == NONDET_FN
        for name in e.STRUCT_FIELDS:
            v = getattr(e, name)
            if isinstance(v, ast.SolExpr):
                check_pure(v)
            elif isinstance(v, list):
                for x in v:
                    if isinstance(x, ast.SolExpr):
                        check_pure(x)

    for m in inst.contracts[0].modifiers:
        for s in m.post_stmts:
            assert isinstance(s, ast.Assert)
            check_pure(s.cond)


# -- runtime-check transformation ------------------------------------------------

def test_runtime_drops_true_checks_and_unread_snapshots(hb):
    """A check that weakens to true checks nothing, and a snapshot that no
    remaining check reads is never used: both go from the runtime variant."""
    program, policy = hb
    runtime = make_runtime_checks(instrument_for_conformance(program, policy))
    c = runtime.contracts[0]
    for name in ("constructor_checker", "SendResponse_checker"):
        assert c.modifier(name).pre_stmts == c.modifier(name).post_stmts == []
    request = c.modifier("SendRequest_checker")
    assert [s.name for s in request.pre_stmts] == ["oldState", "oldRequestor"]
    assert len(request.post_stmts) == 1


def test_runtime_keeps_nondet_free_check(hb):
    program, policy = hb
    runtime = make_runtime_checks(instrument_for_conformance(program, policy))
    sr = runtime.contracts[0].modifier("SendRequest_checker")
    text = print_expr(sr.post_stmts[0].cond)
    assert "nondet" not in text
    assert "State == StateType.Request" in text


def test_runtime_has_zero_nondet_calls(hb):
    program, policy = hb
    runtime = make_runtime_checks(instrument_for_conformance(program, policy))
    assert count_nondet_calls(runtime) == 0


def test_nnf_only_transformation_preserves_nondet_free():
    e = ast.Op(op="==>", args=[
        ast.Op(op="==", args=[ast.Var("a"), ast.IntLit(1)]),
        ast.Op(op="==", args=[ast.Var("b"), ast.IntLit(2)])])
    out = runtime_check_condition(e, False)
    # logically unchanged modulo negation-normal form
    assert print_expr(out) == "!(a == 1) || b == 2"


def test_runtime_call_inside_an_atom_makes_the_atom_true():
    """The whole atom goes, not just the call: `nondet() == false` with the
    call replaced would be `true == false`, which the original does not
    imply."""
    atom = ast.Op(op="==", args=[ast.ExprCall(fn="nondet", args=[]), ast.BoolLit(False)])
    assert print_expr(runtime_check_condition(atom, False)) == "true"
    assert print_expr(runtime_check_condition(atom, True)) == "true"
    cond = ast.Op(op="&&", args=[atom, ast.Op(op="==", args=[ast.Var("a"), ast.IntLit(1)])])
    assert print_expr(runtime_check_condition(cond, False)) == "a == 1"


def test_runtime_drops_every_definition_free_function():
    """Every expression call goes, whatever the function's name: a check
    weakens, and a call elsewhere takes false."""
    program = typecheck(parse_contract(
        "contract C { int s; constructor() public { s = 0; }\n"
        "    function coin() public returns (bool);\n"
        "    function F() public { require(!coin() || s == 0); bool b = coin();\n"
        "        if (coin()) { s = 1; } } }"))
    runtime = make_runtime_checks(program)
    c = runtime.contracts[0]
    assert c.function("coin") is None
    assert not any(isinstance(x, ast.ExprCall) for body in ast.bodies(runtime)
                   for x in ast.walk(body))
    body = c.function("F").body  # the require weakened to true is dropped
    assert print_expr(body[0].init) == "false"
    assert print_expr(body[1].cond) == "false"
    assert len(body) == 2


def test_runtime_drops_true_checks_in_blocks_and_keeps_other_declarations():
    """A check nested in a block goes once it is true; a modifier's unread
    declaration stays unless it copies a variable (its initializer may
    revert)."""
    program = typecheck(parse_contract(
        "contract C { int s; constructor() public { s = 0; }\n"
        "    function coin() public returns (bool);\n"
        "    modifier m() { int copy = s; int q = 1 / s; _; }\n"
        "    function F() m() public { if (s == 0) { require(coin()); s = 1; }"
        " else { assert(s > 0); } } }"))
    c = make_runtime_checks(program).contracts[0]
    assert [d.name for d in c.modifier("m").pre_stmts] == ["q"]
    branch = c.function("F").body[0]
    assert [type(x).__name__ for x in branch.then + branch.els] == ["Assign", "Assert"]


# -- weakening soundness by truth tables ----------------------------------------

def boolean_atoms(e, out):
    if isinstance(e, ast.Op) and e.op in ("&&", "||", "!", "==>"):
        for a in e.args:
            boolean_atoms(a, out)
        return
    if isinstance(e, ast.BoolLit):
        return
    key = print_expr(e)
    if key != "nondet()":
        out.setdefault(key, e)


def eval_bool(e, env, nondet_values):
    if isinstance(e, ast.BoolLit):
        return e.value
    if isinstance(e, ast.ExprCall) and e.fn == NONDET_FN:
        return nondet_values.pop(0)
    if isinstance(e, ast.Op):
        if e.op == "&&":
            return eval_bool(e.args[0], env, nondet_values) and \
                eval_bool(e.args[1], env, nondet_values)
        if e.op == "||":
            return eval_bool(e.args[0], env, nondet_values) or \
                eval_bool(e.args[1], env, nondet_values)
        if e.op == "==>":
            return (not eval_bool(e.args[0], env, nondet_values)) or \
                eval_bool(e.args[1], env, nondet_values)
        if e.op == "!":
            return not eval_bool(e.args[0], env, nondet_values)
    return env[print_expr(e)]


def count_nondets(e):
    if isinstance(e, ast.ExprCall) and e.fn == NONDET_FN:
        return 1
    if isinstance(e, ast.Op):
        return sum(count_nondets(a) for a in e.args)
    return 0


def assert_weakening_sound(original):
    """phi[sigma] implies phi' for every nondet valuation sigma and every
    atom valuation: checked by full truth-table enumeration."""
    emitted = runtime_check_condition(original, False)
    k = count_nondets(original)
    assert k <= 4
    atoms: dict = {}
    boolean_atoms(original, atoms)
    boolean_atoms(emitted, atoms)
    names = sorted(atoms)
    for sigma in itertools.product([False, True], repeat=k):
        for values in itertools.product([False, True], repeat=len(names)):
            env = dict(zip(names, values))
            lhs = eval_bool(original, env, list(sigma))
            rhs = eval_bool(emitted, env, [])
            assert (not lhs) or rhs, (sigma, env)


def test_weakening_sound_on_hb_checkers(hb):
    program, policy = hb
    inst = instrument_for_conformance(program, policy)
    for m in inst.contracts[0].modifiers:
        for s in m.post_stmts:
            assert_weakening_sound(s.cond)


def test_weakening_sound_synthetic():
    nd = ast.ExprCall(fn=NONDET_FN, args=[])
    p = ast.Op(op="==", args=[ast.Var("p"), ast.IntLit(1)])
    q = ast.Op(op="==", args=[ast.Var("q"), ast.IntLit(2)])
    cases = [
        ast.Op(op="==>", args=[nd, q]),
        ast.Op(op="||", args=[ast.Op(op="!", args=[nd]), q]),
        ast.Op(op="&&", args=[ast.Op(op="==>", args=[nd, p]),
                              ast.Op(op="==>", args=[ast.Op(op="!", args=[nd]), q])]),
        ast.Op(op="==>", args=[ast.Op(op="&&", args=[nd, p]), q]),
    ]
    import copy
    for case in cases:
        assert_weakening_sound(copy.deepcopy(case))


def test_runtime_checks_enforce_at_execution(hb_source, hb_policy_text):
    """The emitted runtime variant actually fires on a violating execution
    and stays quiet on a conforming one."""
    from solverify.policy import parse_policy
    from solverify.sol.desugar import desugar_modifiers
    from sol_semantics import SolAssertFail, make_world

    policy = parse_policy(hb_policy_text)
    buggy_src = hb_source.replace(
        "RequestMessage = requestMessage;\n        State = StateType.Request;",
        "RequestMessage = requestMessage;\n        State = StateType.Respond;")

    def runtime_world(src):
        program = typecheck(parse_contract(src))
        runtime = make_runtime_checks(instrument_for_conformance(program, policy))
        return make_world(desugar_modifiers(runtime))

    requestor = ("eoa", 1)
    responder = ("eoa", 2)

    world = runtime_world(hb_source)
    inst = world.new_instance("HelloBlockchain", [world.intern("hi")], requestor)
    world.call_function(inst, "SendResponse", [world.intern("yo")], responder)
    world.call_function(inst, "SendRequest", [world.intern("again")], requestor)

    world = runtime_world(buggy_src)
    inst = world.new_instance("HelloBlockchain", [world.intern("hi")], requestor)
    world.call_function(inst, "SendResponse", [world.intern("yo")], responder)
    with pytest.raises(SolAssertFail):
        # the requestor sends from Respond; the buggy body lands in Respond
        world.call_function(inst, "SendRequest", [world.intern("x")], requestor)
