"""Application policy model: roles, workflows, states, and guarded transitions.

A policy document is a JSON file describing, per workflow, a finite set of
states with an initial state, the functions that drive transitions between
states, and the roles (global or per-instance) allowed to invoke each
transition.  This module parses and validates that document; the rest of
the pipeline consumes the immutable objects built here.

`SCHEMA` is the one statement of the document's shape; keys it does not name
are ignored.  A fault of shape, a repeated name or an undeclared one raises
SchemaError at the `$`-rooted JSON path of the value at fault.
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


class DuplicateName(SchemaError):
    def __init__(self, path: str, kind: str, name: str):
        super().__init__(path, f"duplicate {kind} name {name!r}")


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


NAME = "non-empty string"

# A dict is an object with those required fields, a one-item list a list of
# such items, `str` a string and NAME a non-empty one.
SCHEMA = {
    "ApplicationName": str,
    "ApplicationRoles": [{"Name": NAME}],
    "Workflows": [{
        "Name": str,
        "Initiators": [NAME],
        "StartState": str,
        "States": [NAME],
        "Properties": [{"Name": str, "Type": str}],
        "Constructor": {"Parameters": [{"Name": str, "Type": str}]},
        "Functions": [{"Name": str, "Parameters": [{"Name": str, "Type": str}]}],
        "Transitions": [{"StartState": str, "Function": str, "AllowedRoles": [str],
                         "AllowedInstanceRoles": [str], "NextStates": [str]}],
    }],
}


def _check(doc, shape, path: str) -> None:
    """Raise SchemaError at the path of the first value in `doc` that does
    not fit `shape`; the recursion goes no deeper than SCHEMA."""
    if isinstance(shape, dict):
        if not isinstance(doc, dict):
            raise SchemaError(path, "expected object")
        for key, inner in shape.items():
            if key not in doc:
                raise SchemaError(f"{path}.{key}", "missing required field")
            _check(doc[key], inner, f"{path}.{key}")
    elif isinstance(shape, list):
        if not isinstance(doc, list):
            raise SchemaError(path, "expected array")
        for i, item in enumerate(doc):
            _check(item, shape[0], f"{path}[{i}]")
    elif not isinstance(doc, str) or (shape is NAME and not doc):
        raise SchemaError(path, f"expected {'string' if shape is str else NAME}")


def _unique(names: list[str], path: str, kind: str) -> list[str]:
    """`names`, one per item of the list at `path`; DuplicateName at the
    first item whose name repeats an earlier one."""
    for i, name in enumerate(names):
        if names.index(name) != i:
            raise DuplicateName(f"{path}[{i}]", kind, name)
    return names


def _declared(doc: dict, key: str, known, path: str, code: str, what: str) -> None:
    """SchemaError, its reason led by `code`, at the first name under `key`
    (one name or a list of them) that is not in `known`."""
    value = doc[key]
    named = [("", value)] if isinstance(value, str) else \
        [(f"[{i}]", name) for i, name in enumerate(value)]
    for at, name in named:
        if name not in known:
            raise SchemaError(f"{path}.{key}{at}", f"{code}: {what} {name!r} not declared")


def _pairs(doc: dict, key: str, path: str, kind: str) -> tuple[tuple[str, str], ...]:
    """The name and type of each item of the list under `key`, names unique."""
    _unique([item["Name"] for item in doc[key]], f"{path}.{key}", kind)
    return tuple((item["Name"], item["Type"]) for item in doc[key])


def _workflow(doc: dict, path: str, roles: list[str]) -> Workflow:
    """The workflow of a document that fits SCHEMA, once its names are
    unique and every name it refers to is declared."""
    states = _unique(doc["States"], f"{path}.States", "state")
    _declared(doc, "StartState", states, path, "InitialStateUnknown", "initial state")
    initiators = _unique(doc["Initiators"], f"{path}.Initiators", "initiator")
    _declared(doc, "Initiators", roles, path, "UnknownInitiatorRole", "initiator")
    properties = _pairs(doc, "Properties", path, "property")
    instance_roles = tuple(p for p in properties if p[1] in roles)
    functions = tuple(FunctionSig(f["Name"], _pairs(f, "Parameters", f"{path}.Functions[{i}]",
                                                    "parameter"))
                      for i, f in enumerate(doc["Functions"]))
    fn_names = _unique([f.name for f in functions], f"{path}.Functions", "function")

    transitions = []
    for i, t in enumerate(doc["Transitions"]):
        tpath = f"{path}.Transitions[{i}]"
        if not t["NextStates"]:
            raise SchemaError(f"{tpath}.NextStates", "must be non-empty")
        for key, known, code, what in (
                ("StartState", states, "UnknownState", "start state"),
                ("Function", fn_names, "UnknownTransitionFunction", "function"),
                ("NextStates", states, "UnknownState", "successor state"),
                ("AllowedRoles", roles, "UnknownAccessEntry", "global role"),
                ("AllowedInstanceRoles", [n for n, _ in instance_roles],
                 "UnknownAccessEntry", "instance role")):
            _declared(t, key, known, tpath, code, what)
        transitions.append(Transition(
            t["StartState"], t["Function"],
            AccessSet(frozenset(t["AllowedRoles"]), frozenset(t["AllowedInstanceRoles"])),
            tuple(t["NextStates"])))

    constructor = FunctionSig(doc["Name"], _pairs(doc["Constructor"], "Parameters",
                                                  f"{path}.Constructor", "parameter"))
    return Workflow(name=doc["Name"], states=tuple(states), initial_state=doc["StartState"],
                    properties=properties, instance_roles=instance_roles,
                    functions=functions, constructor=constructor,
                    initiator_roles=frozenset(initiators), transitions=tuple(transitions))


def parse_policy(text: str) -> Policy:
    """Parse a policy document; a malformed one raises SchemaError (or its
    subclass DuplicateName) at the JSON path of its first fault."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError("$", "JSON nested too deeply") from None
    _check(doc, SCHEMA, "$")
    roles = _unique([r["Name"] for r in doc["ApplicationRoles"]],
                    "$.ApplicationRoles", "role")
    workflows = [_workflow(w, f"$.Workflows[{i}]", roles)
                 for i, w in enumerate(doc["Workflows"])]
    _unique([w.name for w in workflows], "$.Workflows", "workflow")
    return Policy(name=doc["ApplicationName"], roles=frozenset(roles),
                  workflows=tuple(workflows))


def transitions_for_function(workflow: Workflow, fn: str) -> list[Transition]:
    """All transitions driven by `fn`, in document order."""
    if fn not in workflow.function_names():
        raise UnknownFunction(f"{fn!r} is not a function of workflow {workflow.name}")
    return [t for t in workflow.transitions if t.function == fn]
