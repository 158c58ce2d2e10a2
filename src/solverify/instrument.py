"""Conformance instrumentation.

Builds checker modifiers from the policy and attaches them to the contract:
the constructor gains a trailing assertion that an authorized creation ends
in the initial state, and every function driven by at least one transition
gains entry snapshots of the state variable and all instance-role variables
plus one trailing assertion per transition.  Global-role membership is not
on-chain, so it is modeled by a definition-free boolean function whose value
is unconstrained at each call.

A checker is built from untyped nodes, as the parser would produce them, and
typed by `typecheck_modifier`, so its names bind as its printed source reads
them.  The names it invents (the checker, the choice function, the
snapshots) are claimed apart from those the workflow contract can see.  A
separate rewrite turns the instrumented program into an executable
runtime-check variant with every expression call eliminated and every check
that this leaves true dropped.
"""

from __future__ import annotations

from solverify import claim
from solverify.policy import AccessSet, Policy, transitions_for_function
from solverify.sol import ast
from solverify.sol.conformance import STATE_VAR
from solverify.sol.typecheck import typecheck_modifier

NONDET_FN = "nondet"


def _disjoin(parts: list[ast.SolExpr]) -> ast.SolExpr:
    out = parts[0] if parts else ast.BoolLit(False)
    for p in parts[1:]:
        out = ast.Op(op="||", args=[out, p])
    return out


def access_predicate(ac: AccessSet, nondet_fn: str,
                     role_vars: dict[str, str]) -> ast.SolExpr:
    """Membership of msg.sender in the access set.  Empty sets are false, a
    global role is a call of the choice function `nondet_fn` (off-chain
    membership), an instance role compares msg.sender with the variable
    `role_vars` names for it.  Disjuncts come out sorted by name, globals
    before instance roles on ties."""
    entries = sorted([(name, False) for name in ac.global_roles]
                     + [(name, True) for name in ac.instance_roles])
    return _disjoin([ast.Op(op="==", args=[ast.MsgSender(), ast.Var(role_vars[name])])
                     if instance else ast.ExprCall(fn=nondet_fn, args=[])
                     for name, instance in entries])


def state_predicate(states, enum_name: str, state_var: str) -> ast.SolExpr:
    """Membership of `state_var` in a set of policy states of the enum
    `enum_name`, as a sorted disjunction of equalities; false for the empty
    set."""
    return _disjoin([ast.Op(op="==", args=[ast.Var(state_var), ast.EnumMember(enum_name, s)])
                     for s in sorted(states)])


def instrument_for_conformance(program: ast.SolProgram, policy: Policy) -> ast.SolProgram:
    """Attach checker modifiers per workflow to a copy of a syntactically
    conformant program (`check_syntactic_conformance` finds nothing).  The
    result still carries the modifiers (printable artifact); run
    desugar_modifiers before translating.
    """
    program = ast.copy_tree(program)
    for workflow in policy.workflows:
        contract = program.contract(workflow.name)
        visible = [program.contract(c) for c in program.order[workflow.name]]
        owner, _ = program.resolve(workflow.name, "state_var", STATE_VAR)
        enum_name = program.contract(owner).enum_vars[STATE_VAR]
        roles = workflow.instance_role_names()

        # Invented names are claimed apart from those the contract can see.
        modifiers = {m.name for c in visible for m in c.modifiers}
        nondet = claim(NONDET_FN, {f.name for c in visible for f in c.functions})
        state_vars = {n for c in visible for n, _ in c.state_vars}
        old_state = claim("oldState", state_vars)
        old_roles = {q: claim("old" + q, state_vars) for q in roles}
        contract.functions.append(ast.SolFunction(
            name=nondet, params=[], body=None, returns=ast.BOOL))

        def attach(fn: ast.SolFunction, spelling: str, pre, post):
            checker = ast.ModifierDef(name=claim(spelling, modifiers),
                                      pre_stmts=pre, post_stmts=post)
            typecheck_modifier(program, contract, checker)
            contract.modifiers.append(checker)
            fn.applied_modifiers.insert(0, checker.name)

        # Constructor: an authorized creation must end in the initial state.
        initiators = AccessSet(global_roles=workflow.initiator_roles)
        attach(contract.constructor, "constructor_checker", [], [ast.Assert(
            cond=ast.Op(op="==>", args=[
                access_predicate(initiators, nondet, {}),
                state_predicate({workflow.initial_state}, enum_name, STATE_VAR)]),
            label=f"{workflow.name}.{workflow.name}: initial state must be "
                  f"{workflow.initial_state}")])

        # Transition functions: snapshot entry state, assert per transition.
        for sig in workflow.functions:
            taus = transitions_for_function(workflow, sig.name)
            if not taus:
                continue
            pre = [ast.DeclStmt(name=old_state, ty=ast.INT, init=ast.Var(STATE_VAR))]
            pre += [ast.DeclStmt(name=old_roles[q], ty=ast.ADDRESS, init=ast.Var(q))
                    for q in roles]
            post = [ast.Assert(
                cond=ast.Op(op="==>", args=[
                    ast.Op(op="&&", args=[
                        access_predicate(tau.access, nondet, old_roles),
                        state_predicate({tau.start}, enum_name, old_state)]),
                    state_predicate(set(tau.successors), enum_name, STATE_VAR)]),
                label=f"{workflow.name}.{sig.name}: transition "
                      f"{tau.start} -> {{{', '.join(sorted(tau.successors))}}}")
                for tau in taus]
            attach(contract.function(sig.name), f"{sig.name}_checker", pre, post)
    return program


# ---------------------------------------------------------------------------
# Runtime-check variant

def runtime_check_condition(cond: ast.SolExpr, negate: bool) -> ast.SolExpr:
    """`cond`, negated if `negate`, in negation-normal form, with every atom
    that contains an expression call replaced by true and the constants
    folded, in one recursion.  Such an atom becomes true under either
    polarity; NNF is monotone in its literals, so the result is implied by
    the original under every value of the calls.  In a require a
    global-role call occurs positively (so the guard passes); in a checker
    assert it occurs only in the antecedent, so the check weakens and any
    failure is a genuine violation."""
    if isinstance(cond, ast.Op) and cond.op == "!":
        return runtime_check_condition(cond.args[0], not negate)
    if isinstance(cond, ast.Op) and cond.op in ("&&", "||", "==>"):
        # a ==> b is !a || b; negation swaps && and || (De Morgan).
        conj = (cond.op == "&&") != negate
        a = runtime_check_condition(cond.args[0], negate != (cond.op == "==>"))
        b = runtime_check_condition(cond.args[1], negate)
        values = [x.value if isinstance(x, ast.BoolLit) else None for x in (a, b)]
        if (not conj) in values:
            return ast.BoolLit(not conj)
        if values[0] is conj:
            return b
        if values[1] is conj:
            return a
        return ast.Op(op="&&" if conj else "||", args=[a, b])
    if isinstance(cond, ast.BoolLit):
        return ast.BoolLit(cond.value != negate)
    if any(isinstance(x, ast.ExprCall) for x in ast.walk(cond)):
        return ast.BoolLit(True)
    cond = ast.copy_tree(cond)
    return ast.Op(op="!", args=[cond]) if negate else cond


def _checks_something(s: ast.SolStmt) -> bool:
    return not (isinstance(s, (ast.Require, ast.Assert))
                and isinstance(s.cond, ast.BoolLit) and s.cond.value)


def make_runtime_checks(program: ast.SolProgram) -> ast.SolProgram:
    """Executable variant of an instrumented program: every expression call
    is eliminated and every definition-free function dropped.  Each check is
    rewritten by `runtime_check_condition`, so it is implied by the original
    one under every value of the calls; a call anywhere else takes false,
    one of the values the choice may take.  A check that becomes true is
    dropped, and so is each snapshot (a modifier's copy of a variable) that
    nothing left reads."""
    program = ast.copy_tree(program)
    for body in ast.bodies(program):
        for x in ast.walk(body):
            if isinstance(x, (ast.Require, ast.Assert)):
                x.cond = runtime_check_condition(x.cond, False)
            ast.map_children(x, lambda e: ast.BoolLit(False)
                             if isinstance(e, ast.ExprCall) else e)
        for stmts in [body, *(getattr(s, f) for s in ast.statements(body)
                              for f in s.STRUCT_FIELDS)]:
            if isinstance(stmts, list):
                stmts[:] = filter(_checks_something, stmts)
    for c in program.contracts:
        c.functions = [f for f in c.functions if f.body is not None]
        for m in c.modifiers:
            read = {x.name for x in ast.walk(m.pre_stmts + m.post_stmts)
                    if isinstance(x, ast.Var)}
            m.pre_stmts = [s for s in m.pre_stmts if not (
                isinstance(s, ast.DeclStmt) and isinstance(s.init, ast.Var)
                and s.name not in read)]
    return program
