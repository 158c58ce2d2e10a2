"""Syntactic conformance between a typed program and a policy.

For each workflow the program must supply a contract of the same name with:
the `State` variable ranging over the workflow's states, an address-typed
state variable per instance role, a matching member for every declared
property, and a constructor and public functions matching the policy
signatures by name, parameter names, and compatible types.
"""

from __future__ import annotations

from solverify.policy import Diagnostic, Policy
from solverify.sol import ast

STATE_VAR = "State"


def _policy_type_matches(policy: Policy, workflow_names: set[str],
                         ptype: str, sol_ty: ast.SolType) -> bool:
    if ptype == "int":
        return isinstance(sol_ty, ast.IntType)
    if ptype == "string":
        return isinstance(sol_ty, ast.StringType)
    if ptype == "address":
        return isinstance(sol_ty, ast.AddressType)
    if ptype in policy.roles:
        return isinstance(sol_ty, ast.AddressType)
    if ptype in workflow_names:
        return isinstance(sol_ty, ast.ContractType) and sol_ty.name == ptype
    return False


def check_syntactic_conformance(program: ast.SolProgram, policy: Policy) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    workflow_names = {w.name for w in policy.workflows}

    for w in policy.workflows:
        contract = program.contract(w.name)
        if contract is None:
            out.append(Diagnostic("MissingContract", w.name,
                                  f"no contract named {w.name!r}"))
            continue
        loc = f"contract {w.name}"

        # State variable over the workflow's state set.
        resolved = program.resolve(w.name, "state_var", STATE_VAR)
        if resolved is None:
            out.append(Diagnostic("MissingStateVar", loc,
                                  f"no state variable named {STATE_VAR!r}"))
        else:
            owner, _ = resolved
            enum_name = program.contract(owner).enum_vars.get(STATE_VAR)
            enum = (program.resolve(w.name, "enum", enum_name)
                    if enum_name is not None else None)
            if enum is None:
                out.append(Diagnostic("StateSetMismatch", loc,
                                      f"{STATE_VAR} is not declared with an enum type"))
            elif set(enum[1]) != set(w.states):
                out.append(Diagnostic("StateSetMismatch", loc,
                                      f"enum members {sorted(enum[1])} do not match "
                                      f"policy states {sorted(w.states)}"))

        # Instance roles must be address-typed state variables.
        for q, _role in w.instance_roles:
            resolved = program.resolve(w.name, "state_var", q)
            if resolved is None:
                out.append(Diagnostic("MissingInstanceRole", loc,
                                      f"no state variable for instance role {q!r}"))
            elif not isinstance(resolved[1], ast.AddressType):
                out.append(Diagnostic("InstanceRoleType", loc,
                                      f"instance role {q!r} must be address-typed"))

        # Every declared property needs a compatible member.
        inst_names = set(w.instance_role_names())
        for pname, ptype in w.properties:
            if pname in inst_names:
                continue  # covered above
            resolved = program.resolve(w.name, "state_var", pname)
            if pname == STATE_VAR:
                continue
            if resolved is None:
                out.append(Diagnostic("MissingProperty", loc,
                                      f"no state variable for property {pname!r}"))
            elif not _policy_type_matches(policy, workflow_names, ptype, resolved[1]):
                out.append(Diagnostic("PropertyTypeMismatch", loc,
                                      f"property {pname!r} expects policy type "
                                      f"{ptype!r}, found {resolved[1]}"))

        # Constructor signature.
        ctor = contract.constructor
        if ctor is None:
            out.append(Diagnostic("MissingConstructor", loc, "no constructor"))
        else:
            out += _check_signature(policy, workflow_names, loc, "constructor",
                                    w.constructor.params, ctor.params)

        # Policy functions.
        for sig in w.functions:
            resolved = program.resolve(w.name, "function", sig.name)
            if resolved is None:
                out.append(Diagnostic("MissingFunction", loc,
                                      f"no function named {sig.name!r}"))
                continue
            _, fn = resolved
            if fn.visibility != "public":
                out.append(Diagnostic("FunctionVisibility", loc,
                                      f"{sig.name} must be public"))
            out += _check_signature(policy, workflow_names, loc, sig.name,
                                    sig.params, fn.params)
    return out


def _check_signature(policy, workflow_names, loc, fname, want, have) -> list[Diagnostic]:
    out = []
    if len(want) != len(have):
        out.append(Diagnostic("SignatureMismatch", f"{loc}.{fname}",
                              f"expected {len(want)} parameters, found {len(have)}"))
        return out
    for (wname, wtype), (hname, htype) in zip(want, have):
        if wname != hname:
            out.append(Diagnostic("ParameterName", f"{loc}.{fname}",
                                  f"expected parameter {wname!r}, found {hname!r}"))
        elif not _policy_type_matches(policy, workflow_names, wtype, htype):
            out.append(Diagnostic("ParameterType", f"{loc}.{fname}",
                                  f"parameter {wname!r} expects policy type "
                                  f"{wtype!r}, found {htype}"))
    return out


def functions_without_transitions(program: ast.SolProgram, policy: Policy) -> list[str]:
    """Policy functions never used by a transition, plus public contract
    functions outside the policy; reported, never instrumented."""
    names = []
    for w in policy.workflows:
        used = {t.function for t in w.transitions}
        for sig in w.functions:
            if sig.name not in used:
                names.append(f"{w.name}.{sig.name}")
        contract = program.contract(w.name)
        if contract is None:
            continue
        policy_fns = set(w.function_names())
        for fn in contract.functions:
            if fn.visibility == "public" and fn.name not in policy_fns and fn.body is not None:
                names.append(f"{w.name}.{fn.name} (not in policy)")
    return names
