"""Candidate contract-invariant predicates.

The template is e1 op e2 with op equality or disequality, instantiated over
the instance-role variables, the state variable, the null address, and the
policy's state constants, all read at the root instance.  Arbitrary integer
constants are excluded; this pool sufficed for the conformance workloads."""

from __future__ import annotations

import itertools

from solverify.policy import Policy
from solverify.record import record
from solverify.smt import terms as T
from solverify.sol.conformance import STATE_VAR
from solverify.translate import Translation, state_map_name


@record(frozen=True)
class CandidatePredicate:
    lhs_map: str          # global map name of the left state variable
    op: str               # "==" or "!="
    rhs_kind: str         # "statevar" | "null" | "stateconst"
    rhs: object           # map name | None | int
    text: str             # human-readable form

    def to_term(self, qb, global_env: dict, inst: "T.Term") -> "T.Term":
        bank = qb.bank
        lhs_map = global_env[self.lhs_map]
        lhs = bank.mk("select", (lhs_map, inst), sort=lhs_map.sort[2])
        if self.rhs_kind == "statevar":
            rhs_map = global_env[self.rhs]
            rhs = bank.mk("select", (rhs_map, inst), sort=rhs_map.sort[2])
        elif self.rhs_kind == "null":
            rhs = qb.null
        else:
            rhs = bank.intval(self.rhs)
        eq = bank.mk("=", (lhs, rhs), sort=T.BOOL_S)
        if self.op == "==":
            return eq
        return bank.mk("not", (eq,), sort=T.BOOL_S)


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

    role_vars = sorted(workflow.instance_role_names())
    role_maps = {q: state_map_name(q, owner_of(q)) for q in role_vars}
    out: list[CandidatePredicate] = []

    for x, y in itertools.combinations(role_vars, 2):
        for op in ("==", "!="):
            out.append(CandidatePredicate(
                lhs_map=role_maps[x], op=op, rhs_kind="statevar",
                rhs=role_maps[y], text=f"{x} {op} {y}"))
    for x in role_vars:
        for op in ("==", "!="):
            out.append(CandidatePredicate(
                lhs_map=role_maps[x], op=op, rhs_kind="null", rhs=None,
                text=f"{x} {op} 0x0"))

    state_owner = owner_of(STATE_VAR)
    state_map = state_map_name(STATE_VAR, state_owner)
    enum_name = tr.source.contract(state_owner).enum_vars[STATE_VAR]
    _, members = tr.source.resolve(root, "enum", enum_name)
    for idx, member in enumerate(members):
        for op in ("==", "!="):
            out.append(CandidatePredicate(
                lhs_map=state_map, op=op, rhs_kind="stateconst", rhs=idx,
                text=f"{STATE_VAR} {op} {enum_name}.{member}"))

    seen = set()
    unique = []
    for c in out:
        key = (c.lhs_map, c.op, c.rhs_kind, c.rhs)
        if key not in seen:
            seen.add(key)
            unique.append(c)
    return unique
