"""Conformance instrumentation.

Builds checker modifiers from the policy and attaches them to the contract:
the constructor gains a trailing assertion that an authorized creation ends
in the initial state, and every function driven by at least one transition
gains entry snapshots of the state variable and all instance-role variables
plus one trailing assertion per transition.  Global-role membership is not
on-chain, so it is modeled by a definition-free boolean function whose value
is unconstrained at each call; a separate rewrite turns the instrumented
program into an executable runtime-check variant with those calls
eliminated.
"""

from __future__ import annotations

from solverify import InputError, claim
from solverify.policy import AccessSet, Policy, Workflow, transitions_for_function
from solverify.sol import ast
from solverify.sol.conformance import STATE_VAR, check_syntactic_conformance

NONDET_FN = "nondet"


class NotSyntacticallyConformant(InputError):
    def __init__(self, diagnostics):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


class UnknownAccessEntry(InputError):
    pass


class UnknownState(InputError):
    pass


def _disjoin(parts: list[ast.SolExpr]) -> ast.SolExpr:
    if not parts:
        e = ast.BoolLit(False)
        e.ty = ast.BOOL
        return e
    out = parts[0]
    for p in parts[1:]:
        out = ast.Op(op="||", args=[out, p])
        out.ty = ast.BOOL
    return out


def _typed_var(name: str, ty: ast.SolType, binding: str, owner: str | None = None) -> ast.Var:
    v = ast.Var(name=name)
    v.ty = ty
    v.binding = binding
    v.owner = owner
    return v


def _nondet_call() -> ast.ExprCall:
    e = ast.ExprCall(fn=NONDET_FN, args=[])
    e.ty = ast.BOOL
    return e


def access_predicate(ac: AccessSet, workflow: Workflow,
                     role_var: dict[str, tuple[str, str]] | None = None) -> ast.SolExpr:
    """Membership of msg.sender in the access set.  Empty sets are false,
    global roles are unconstrained (off-chain membership), instance roles
    compare against the role variable.  Disjuncts come out sorted by name,
    globals before instance roles on ties."""
    inst_names = set(workflow.instance_role_names())
    for r in ac.instance_roles:
        if r not in inst_names:
            raise UnknownAccessEntry(f"unknown instance role {r!r}")

    entries = sorted([(name, "0g") for name in ac.global_roles]
                     + [(name, "1i") for name in ac.instance_roles],
                     key=lambda e: (e[0], e[1]))
    parts: list[ast.SolExpr] = []
    for name, kind in entries:
        if kind == "0g":
            parts.append(_nondet_call())
        else:
            owner = role_var.get(name, (None, None))[0] if role_var else None
            eq = ast.Op(op="==", args=[ast.MsgSender(),
                                       _typed_var(name, ast.ADDRESS, "state", owner)])
            eq.args[0].ty = ast.ADDRESS
            eq.ty = ast.BOOL
            parts.append(eq)
    return _disjoin(parts)


def state_predicate(states, workflow: Workflow, enum_name: str = "StateType",
                    members: list[str] | None = None,
                    state_var: str = STATE_VAR, owner: str | None = None) -> ast.SolExpr:
    """Membership of the contract state in a set of policy states, as a
    sorted disjunction of equalities; false for the empty set."""
    members = members if members is not None else list(workflow.states)
    parts = []
    for s in sorted(states):
        if s not in workflow.state_set():
            raise UnknownState(f"unknown state {s!r}")
        member = ast.EnumMember(enum=enum_name, member=s)
        member.value = members.index(s)
        member.ty = ast.INT
        eq = ast.Op(op="==", args=[_typed_var(state_var, ast.INT, "state", owner), member])
        eq.ty = ast.BOOL
        parts.append(eq)
    return _disjoin(parts)


def _substitute_old(e: ast.SolExpr, mapping: dict[str, str]) -> ast.SolExpr:
    """Replace state-variable reads with their entry snapshots."""
    e = ast.copy_tree(e)
    for x in ast.walk(e):
        if isinstance(x, ast.Var) and x.binding == "state" and x.name in mapping:
            x.name = mapping[x.name]
            x.binding = "local"
            x.owner = None
    return e


def _implies(ante: ast.SolExpr, cons: ast.SolExpr) -> ast.SolExpr:
    e = ast.Op(op="==>", args=[ante, cons])
    e.ty = ast.BOOL
    return e


def _conj(a: ast.SolExpr, b: ast.SolExpr) -> ast.SolExpr:
    e = ast.Op(op="&&", args=[a, b])
    e.ty = ast.BOOL
    return e


def _workflow_context(program: ast.SolProgram, workflow: Workflow):
    contract = program.contract(workflow.name)
    owner, _ = program.resolve(workflow.name, "state_var", STATE_VAR)
    enum_name = program.contract(owner).enum_vars[STATE_VAR]
    _, members = program.resolve(workflow.name, "enum", enum_name)
    role_var = {}
    for q, _r in workflow.instance_roles:
        qowner, _ = program.resolve(workflow.name, "state_var", q)
        role_var[q] = (qowner, q)
    return contract, owner, enum_name, members, role_var


def instrument_for_conformance(program: ast.SolProgram, policy: Policy) -> ast.SolProgram:
    """Attach checker modifiers per workflow.  The result still carries the
    modifiers (printable artifact); run desugar_modifiers before translating.
    """
    diags = check_syntactic_conformance(program, policy)
    if diags:
        raise NotSyntacticallyConformant(diags)

    program = ast.copy_tree(program)
    for workflow in policy.workflows:
        contract, owner, enum_name, members, role_var = _workflow_context(program, workflow)

        if contract.function(NONDET_FN) is None:
            contract.functions.append(ast.SolFunction(
                name=NONDET_FN, params=[], body=None, returns=ast.BOOL))

        def spred(states):
            return state_predicate(states, workflow, enum_name, members,
                                   state_var=STATE_VAR, owner=owner)

        # Constructor: an authorized creation must end in the initial state.
        ctor_assert = ast.Assert(
            cond=_implies(access_predicate(AccessSet(global_roles=workflow.initiator_roles),
                                           workflow, role_var),
                          spred({workflow.initial_state})),
            label=f"{workflow.name}.{workflow.name}: initial state must be "
                  f"{workflow.initial_state}")
        # Checkers are named apart from every modifier the contract can see.
        taken = {m.name for c in program.order[workflow.name]
                 for m in program.contract(c).modifiers}
        checker = claim("constructor_checker", taken)
        contract.modifiers.append(ast.ModifierDef(
            name=checker, pre_stmts=[], post_stmts=[ctor_assert]))
        contract.constructor.applied_modifiers.insert(0, checker)

        # Transition functions: snapshot entry state, assert per transition.
        old_names = {STATE_VAR: "oldState"}
        for q in workflow.instance_role_names():
            old_names[q] = "old" + q

        for sig in workflow.functions:
            taus = transitions_for_function(workflow, sig.name)
            if not taus:
                continue
            pre: list[ast.SolStmt] = [
                ast.DeclStmt(name="oldState", ty=ast.INT,
                             init=_typed_var(STATE_VAR, ast.INT, "state", owner))]
            for q in workflow.instance_role_names():
                pre.append(ast.DeclStmt(
                    name="old" + q, ty=ast.ADDRESS,
                    init=_typed_var(q, ast.ADDRESS, "state", role_var[q][0])))
            post: list[ast.SolStmt] = []
            for tau in taus:
                ante = _conj(access_predicate(tau.access, workflow, role_var),
                             spred({tau.start}))
                ante = _substitute_old(ante, old_names)
                cons = spred(set(tau.successors))
                post.append(ast.Assert(
                    cond=_implies(ante, cons),
                    label=f"{workflow.name}.{sig.name}: transition "
                          f"{tau.start} -> {{{', '.join(sorted(tau.successors))}}}"))
            checker = claim(f"{sig.name}_checker", taken)
            contract.modifiers.append(ast.ModifierDef(
                name=checker, pre_stmts=pre, post_stmts=post))
            contract.function(sig.name).applied_modifiers.insert(0, checker)
    return program


# ---------------------------------------------------------------------------
# Runtime-check variant

def _nnf(e: ast.SolExpr, negate: bool = False) -> ast.SolExpr:
    """Negation-normal form over the boolean skeleton; atoms are left alone
    (or wrapped in a single negation)."""
    if isinstance(e, ast.Op) and e.op == "!":
        return _nnf(e.args[0], not negate)
    if isinstance(e, ast.Op) and e.op == "==>":
        a, b = e.args
        # a ==> b is !a || b
        if negate:
            return _conj(_nnf(a, False), _nnf(b, True))
        out = ast.Op(op="||", args=[_nnf(a, True), _nnf(b, False)])
        out.ty = ast.BOOL
        return out
    if isinstance(e, ast.Op) and e.op in ("&&", "||"):
        op = e.op
        if negate:
            op = "||" if op == "&&" else "&&"
        out = ast.Op(op=op, args=[_nnf(e.args[0], negate), _nnf(e.args[1], negate)])
        out.ty = ast.BOOL
        return out
    if isinstance(e, ast.BoolLit):
        out = ast.BoolLit(value=(not e.value) if negate else e.value)
        out.ty = ast.BOOL
        return out
    e = ast.copy_tree(e)
    if negate:
        out = ast.Op(op="!", args=[e])
        out.ty = ast.BOOL
        return out
    return e


def _replace_nondet(e: ast.SolExpr) -> ast.SolExpr:
    """On an NNF expression, replace positive occurrences of the
    nondeterministic call with true and negated ones with false.  Either way
    the literal becomes true; NNF is monotone in its literals, so the result
    is implied by the original under every nondet valuation."""
    if isinstance(e, ast.ExprCall) and e.fn == NONDET_FN:
        out = ast.BoolLit(value=True)
        out.ty = ast.BOOL
        return out
    if isinstance(e, ast.Op) and e.op == "!" and \
            isinstance(e.args[0], ast.ExprCall) and e.args[0].fn == NONDET_FN:
        out = ast.BoolLit(value=True)  # the call itself becomes false
        out.ty = ast.BOOL
        return out
    if isinstance(e, ast.Op):
        out = ast.Op(op=e.op, args=[_replace_nondet(a) for a in e.args])
        out.ty = e.ty
        return out
    return e


def _fold_bools(e: ast.SolExpr) -> ast.SolExpr:
    if not isinstance(e, ast.Op):
        return e
    args = [_fold_bools(a) for a in e.args]
    out = ast.Op(op=e.op, args=args)
    out.ty = e.ty

    def lit(x):
        return x.value if isinstance(x, ast.BoolLit) else None

    if e.op == "&&":
        a, b = lit(args[0]), lit(args[1])
        if a is False or b is False:
            return ast.BoolLit(value=False)
        if a is True:
            return args[1]
        if b is True:
            return args[0]
    elif e.op == "||":
        a, b = lit(args[0]), lit(args[1])
        if a is True or b is True:
            return ast.BoolLit(value=True)
        if a is False:
            return args[1]
        if b is False:
            return args[0]
    elif e.op == "!":
        a = lit(args[0])
        if a is not None:
            return ast.BoolLit(value=not a)
    return out


def runtime_check_condition(cond: ast.SolExpr) -> ast.SolExpr:
    """NNF plus nondet elimination: positive occurrences of the unconstrained
    call become true, negated ones false.  In a require the call occurs
    positively (so the guard passes); in a checker assert it occurs only in
    the antecedent, so the check weakens and any failure is a genuine
    violation."""
    nnf = _nnf(cond)
    return _fold_bools(_replace_nondet(nnf))


def make_runtime_checks(program: ast.SolProgram) -> ast.SolProgram:
    """Executable variant of an instrumented program: no nondet calls remain,
    and every transformed check is implied by the original one under every
    valuation of the nondet atoms."""
    program = ast.copy_tree(program)
    for body in ast.bodies(program):
        for s in ast.statements(body):
            if isinstance(s, (ast.Require, ast.Assert)):
                s.cond = runtime_check_condition(s.cond)
    for c in program.contracts:
        c.functions = [f for f in c.functions if f.name != NONDET_FN or f.body is not None]
    return program
