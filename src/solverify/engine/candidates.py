"""Candidate contract-invariant predicates.

The template is e1 op e2 with op equality or disequality, instantiated over
the instance-role variables, the state variable, the null address, and the
policy's state constants, all read at the root instance.  Arbitrary integer
constants are excluded; this pool sufficed for the conformance workloads."""

from __future__ import annotations

import itertools

from solverify.policy import Policy
from solverify.record import record
from solverify.sol.conformance import STATE_VAR
from solverify.translate import Translation
from solverify.vir import ast as I


@record(frozen=True)
class CandidatePredicate:
    expr: I.IrExpr        # over the instance variable `inst`
    text: str             # human-readable form


def generate_candidates(tr: Translation, policy: Policy, root: str) -> list[CandidatePredicate]:
    """Deterministic pool: role-variable pairs, null comparisons, and state
    constants, each with both polarities.  `tr` translates a program that
    conforms to `policy` syntactically, so `State` is enum-typed."""
    workflow = policy.workflow(root)

    def owner_of(var: str) -> str:
        resolved = tr.source.resolve(root, "state_var", var)
        if resolved is None:
            raise ValueError(f"{root} lacks state variable {var}")
        return resolved[0]

    def read(var: str) -> I.IrExpr:
        return I.select(I.Var(tr.state_maps[owner_of(var), var]), I.Var("inst"))

    role_vars = sorted(workflow.instance_role_names())
    out: list[CandidatePredicate] = []
    for x, y in itertools.combinations(role_vars, 2):
        for op in ("==", "!="):
            out.append(CandidatePredicate(I.op(op, read(x), read(y)), f"{x} {op} {y}"))
    for x in role_vars:
        for op in ("==", "!="):
            out.append(CandidatePredicate(I.op(op, read(x), I.RConst(0)), f"{x} {op} 0x0"))

    enum_name = tr.source.contract(owner_of(STATE_VAR)).enum_vars[STATE_VAR]
    _, members = tr.source.resolve(root, "enum", enum_name)
    for idx, member in enumerate(members):
        for op in ("==", "!="):
            out.append(CandidatePredicate(I.op(op, read(STATE_VAR), I.IConst(idx)),
                                          f"{STATE_VAR} {op} {enum_name}.{member}"))
    return out
