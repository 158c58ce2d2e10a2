"""Application policy model: roles, workflows, states, and guarded transitions.

A policy document is a JSON file describing, per workflow, a finite set of
states with an initial state, the functions that drive transitions between
states, and the roles (global or per-instance) allowed to invoke each
transition.  This module parses, validates, and serializes that document; the
rest of the pipeline consumes the immutable objects built here.
"""

from __future__ import annotations

import json

from solverify import InputError
from solverify.record import record


class PolicyError(InputError):
    pass


class SchemaError(PolicyError):
    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class DuplicateName(PolicyError):
    def __init__(self, kind: str, name: str):
        self.kind = kind
        self.name = name
        super().__init__(f"duplicate {kind} name: {name!r}")


class UnknownFunction(PolicyError):
    pass


@record(frozen=True)
class Diagnostic:
    """A validation finding; `code` names the violated invariant."""

    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.location}: {self.message}"


@record(frozen=True)
class AccessSet:
    """Roles allowed to drive a transition: global role names plus names of
    instance-role state variables."""

    global_roles: frozenset[str] = frozenset()
    instance_roles: frozenset[str] = frozenset()


@record(frozen=True)
class FunctionSig:
    name: str
    params: tuple[tuple[str, str], ...] = ()  # (identifier, policy type)


@record(frozen=True)
class Transition:
    start: str
    function: str
    access: AccessSet
    successors: tuple[str, ...]  # non-empty, document order


@record(frozen=True)
class Workflow:
    name: str
    states: tuple[str, ...]  # document order; treated as a set
    initial_state: str
    properties: tuple[tuple[str, str], ...]  # all declared data members
    instance_roles: tuple[tuple[str, str], ...]  # (identifier, role name)
    functions: tuple[FunctionSig, ...]
    constructor: FunctionSig
    initiator_roles: frozenset[str]
    transitions: tuple[Transition, ...]

    def state_set(self) -> frozenset[str]:
        return frozenset(self.states)

    def instance_role_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.instance_roles)

    def function_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.functions)


@record(frozen=True)
class Policy:
    name: str
    roles: frozenset[str]
    workflows: tuple[Workflow, ...]

    def workflow(self, name: str) -> Workflow:
        for w in self.workflows:
            if w.name == name:
                return w
        raise KeyError(name)


def _require(doc: dict, key: str, path: str, want: type):
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "missing required field")
    value = doc[key]
    if not isinstance(value, want):
        raise SchemaError(f"{path}.{key}", f"expected {want.__name__}")
    return value


def _name_list(items, path: str, kind: str) -> list[str]:
    out = []
    for i, item in enumerate(items):
        if not isinstance(item, str) or not item:
            raise SchemaError(f"{path}[{i}]", "expected non-empty string")
        if item in out:
            raise DuplicateName(kind, item)
        out.append(item)
    return out


def _parse_params(items, path: str) -> tuple[tuple[str, str], ...]:
    params = []
    seen = set()
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise SchemaError(f"{path}[{i}]", "expected object")
        name = _require(item, "Name", f"{path}[{i}]", str)
        ptype = _require(item, "Type", f"{path}[{i}]", str)
        if name in seen:
            raise DuplicateName("parameter", name)
        seen.add(name)
        params.append((name, ptype))
    return tuple(params)


def _parse_workflow(doc: dict, path: str, roles: list[str]) -> Workflow:
    name = _require(doc, "Name", path, str)
    initiators = _name_list(_require(doc, "Initiators", path, list), f"{path}.Initiators", "initiator")
    start_state = _require(doc, "StartState", path, str)
    states = _name_list(_require(doc, "States", path, list), f"{path}.States", "state")

    properties = []
    instance_roles = []
    for i, item in enumerate(_require(doc, "Properties", path, list)):
        ppath = f"{path}.Properties[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(ppath, "expected object")
        pname = _require(item, "Name", ppath, str)
        ptype = _require(item, "Type", ppath, str)
        if any(pname == existing for existing, _ in properties):
            raise DuplicateName("property", pname)
        properties.append((pname, ptype))
        if ptype in roles:
            instance_roles.append((pname, ptype))

    ctor_doc = _require(doc, "Constructor", path, dict)
    constructor = FunctionSig(
        name=name,
        params=_parse_params(_require(ctor_doc, "Parameters", f"{path}.Constructor", list),
                             f"{path}.Constructor.Parameters"),
    )

    functions = []
    fn_names = set()
    for i, item in enumerate(_require(doc, "Functions", path, list)):
        fpath = f"{path}.Functions[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(fpath, "expected object")
        fname = _require(item, "Name", fpath, str)
        if fname in fn_names:
            raise DuplicateName("function", fname)
        fn_names.add(fname)
        functions.append(FunctionSig(
            name=fname,
            params=_parse_params(_require(item, "Parameters", fpath, list), f"{fpath}.Parameters"),
        ))

    transitions = []
    for i, item in enumerate(_require(doc, "Transitions", path, list)):
        tpath = f"{path}.Transitions[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(tpath, "expected object")
        t_start = _require(item, "StartState", tpath, str)
        t_fn = _require(item, "Function", tpath, str)
        allowed = _require(item, "AllowedRoles", tpath, list)
        allowed_inst = _require(item, "AllowedInstanceRoles", tpath, list)
        next_states = _require(item, "NextStates", tpath, list)
        if not next_states:
            raise SchemaError(f"{tpath}.NextStates", "must be non-empty")
        for lst, lpath in ((allowed, "AllowedRoles"), (allowed_inst, "AllowedInstanceRoles"),
                           (next_states, "NextStates")):
            for j, entry in enumerate(lst):
                if not isinstance(entry, str):
                    raise SchemaError(f"{tpath}.{lpath}[{j}]", "expected string")
        transitions.append(Transition(
            start=t_start,
            function=t_fn,
            access=AccessSet(global_roles=frozenset(allowed),
                             instance_roles=frozenset(allowed_inst)),
            successors=tuple(next_states),
        ))

    return Workflow(
        name=name,
        states=tuple(states),
        initial_state=start_state,
        properties=tuple(properties),
        instance_roles=tuple(instance_roles),
        functions=tuple(functions),
        constructor=constructor,
        initiator_roles=frozenset(initiators),
        transitions=tuple(transitions),
    )


def parse_policy(text: str) -> Policy:
    """Parse a policy document.  Raises SchemaError/DuplicateName on malformed
    input; referential problems (unknown states, roles...) surface as
    diagnostics from validate_policy, except those the schema itself forbids.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("$", "JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected top-level object")

    app_name = _require(doc, "ApplicationName", "$", str)
    roles = []
    for i, item in enumerate(_require(doc, "ApplicationRoles", "$", list)):
        rpath = f"$.ApplicationRoles[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(rpath, "expected object")
        rname = _require(item, "Name", rpath, str)
        if not rname:
            raise SchemaError(rpath, "role name must be non-empty")
        if rname in roles:
            raise DuplicateName("role", rname)
        roles.append(rname)

    workflows = []
    wf_names = set()
    for i, item in enumerate(_require(doc, "Workflows", "$", list)):
        wpath = f"$.Workflows[{i}]"
        if not isinstance(item, dict):
            raise SchemaError(wpath, "expected object")
        wf = _parse_workflow(item, wpath, roles)
        if wf.name in wf_names:
            raise DuplicateName("workflow", wf.name)
        wf_names.add(wf.name)
        workflows.append(wf)

    policy = Policy(name=app_name, roles=frozenset(roles), workflows=tuple(workflows))
    problems = validate_policy(policy)
    if problems:
        # Referential integrity is part of the schema contract for parsing.
        first = problems[0]
        raise SchemaError(first.location, f"{first.code}: {first.message}")
    return policy


def validate_policy(policy: Policy) -> list[Diagnostic]:
    """Check every structural invariant; an empty list means the policy is
    well-formed.  Diagnostics are data, not exceptions."""
    out: list[Diagnostic] = []

    for w in policy.workflows:
        loc = f"workflow {w.name}"
        states = w.state_set()
        if w.initial_state not in states:
            out.append(Diagnostic("InitialStateUnknown", loc,
                                  f"initial state {w.initial_state!r} not in declared states"))
        for pname, role in w.instance_roles:
            if role not in policy.roles:
                out.append(Diagnostic("UnknownRole", f"{loc}.{pname}",
                                      f"instance role type {role!r} not a declared role"))
        for r in w.initiator_roles:
            if r not in policy.roles:
                out.append(Diagnostic("UnknownInitiatorRole", loc,
                                      f"initiator {r!r} not a declared role"))
        fn_names = set(w.function_names())
        inst_names = set(w.instance_role_names())
        for i, t in enumerate(w.transitions):
            tloc = f"{loc}.transitions[{i}]"
            if t.start not in states:
                out.append(Diagnostic("UnknownState", tloc,
                                      f"start state {t.start!r} not declared"))
            for s in t.successors:
                if s not in states:
                    out.append(Diagnostic("UnknownState", tloc,
                                          f"successor state {s!r} not declared"))
            if t.function not in fn_names:
                out.append(Diagnostic("UnknownTransitionFunction", tloc,
                                      f"function {t.function!r} not declared"))
            for r in t.access.global_roles:
                if r not in policy.roles:
                    out.append(Diagnostic("UnknownAccessEntry", tloc,
                                          f"global role {r!r} not declared"))
            for q in t.access.instance_roles:
                if q not in inst_names:
                    out.append(Diagnostic("UnknownAccessEntry", tloc,
                                          f"instance role {q!r} not declared"))
    return out


def transitions_for_function(workflow: Workflow, fn: str) -> list[Transition]:
    """All transitions driven by `fn`, in document order."""
    if fn not in workflow.function_names():
        raise UnknownFunction(f"{fn!r} is not a function of workflow {workflow.name}")
    return [t for t in workflow.transitions if t.function == fn]


def serialize_policy(policy: Policy) -> str:
    """Inverse of parse_policy on validated policies (round-trip identity)."""
    def sig_doc(sig: FunctionSig) -> dict:
        return {"Parameters": [{"Name": n, "Type": t} for n, t in sig.params]}

    doc = {
        "ApplicationName": policy.name,
        "ApplicationRoles": [{"Name": r} for r in sorted(policy.roles)],
        "Workflows": [
            {
                "Name": w.name,
                "Initiators": sorted(w.initiator_roles),
                "StartState": w.initial_state,
                "States": list(w.states),
                "Properties": [{"Name": n, "Type": t} for n, t in w.properties],
                "Constructor": sig_doc(w.constructor),
                "Functions": [{"Name": f.name, **sig_doc(f)} for f in w.functions],
                "Transitions": [
                    {
                        "StartState": t.start,
                        "Function": t.function,
                        "AllowedRoles": sorted(t.access.global_roles),
                        "AllowedInstanceRoles": sorted(t.access.instance_roles),
                        "NextStates": list(t.successors),
                    }
                    for t in w.transitions
                ],
            }
            for w in policy.workflows
        ],
    }
    return json.dumps(doc, indent=2)
