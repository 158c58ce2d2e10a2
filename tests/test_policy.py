import json

import pytest

from conftest import serialize_policy
from solverify.policy import (
    AccessSet, Diagnostic, DuplicateName, FunctionSig, SchemaError, Transition,
    UnknownFunction, Workflow, parse_policy, transitions_for_function,
)


def test_parse_helloblockchain(hb_policy_text):
    policy = parse_policy(hb_policy_text)
    assert policy.roles == {"Requestor", "Responder"}
    w = policy.workflows[0]
    assert set(w.states) == {"Request", "Respond"}
    assert w.initial_state == "Request"
    assert len(w.transitions) == 2
    assert w.instance_role_names() == ("Requestor", "Responder")
    assert w.constructor.params == (("message", "string"),)


def _minimal_doc(**overrides):
    doc = {
        "ApplicationName": "App",
        "ApplicationRoles": [{"Name": "R"}],
        "Workflows": [{
            "Name": "W",
            "Initiators": ["R"],
            "StartState": "S",
            "States": ["S"],
            "Properties": [],
            "Constructor": {"Parameters": []},
            "Functions": [],
            "Transitions": [],
        }],
    }
    doc.update(overrides)
    return doc


def test_degenerate_policy_valid():
    policy = parse_policy(json.dumps(_minimal_doc()))
    assert policy.workflows[0].transitions == ()


def test_unknown_state_in_transition_rejected():
    doc = _minimal_doc()
    doc["Workflows"][0]["Functions"] = [{"Name": "F", "Parameters": []}]
    doc["Workflows"][0]["Transitions"] = [{
        "StartState": "S", "Function": "F", "AllowedRoles": [],
        "AllowedInstanceRoles": [], "NextStates": ["X"],
    }]
    with pytest.raises(SchemaError):
        parse_policy(json.dumps(doc))


def test_missing_field_rejected():
    doc = _minimal_doc()
    del doc["Workflows"][0]["StartState"]
    with pytest.raises(SchemaError):
        parse_policy(json.dumps(doc))


def test_empty_successors_rejected():
    doc = _minimal_doc()
    doc["Workflows"][0]["Functions"] = [{"Name": "F", "Parameters": []}]
    doc["Workflows"][0]["Transitions"] = [{
        "StartState": "S", "Function": "F", "AllowedRoles": [],
        "AllowedInstanceRoles": [], "NextStates": [],
    }]
    with pytest.raises(SchemaError):
        parse_policy(json.dumps(doc))


def test_duplicate_role_rejected():
    doc = _minimal_doc(ApplicationRoles=[{"Name": "R"}, {"Name": "R"}])
    with pytest.raises(DuplicateName):
        parse_policy(json.dumps(doc))


def _raw_workflow(**overrides):
    fields = dict(
        name="W", states=("A", "B"), initial_state="A", properties=(),
        instance_roles=(), functions=(FunctionSig("F"),),
        constructor=FunctionSig("W"), initiator_roles=frozenset(),
        transitions=())
    fields.update(overrides)
    return Workflow(**fields)


def test_validate_initial_state_unknown():
    doc = _minimal_doc()
    doc["Workflows"][0]["StartState"] = "X"
    with pytest.raises(SchemaError) as err:
        parse_policy(json.dumps(doc))
    assert err.value.path == "$.Workflows[0].StartState"
    assert err.value.reason.startswith("InitialStateUnknown: ")


def test_validate_unknown_access_entry():
    doc = _minimal_doc()
    doc["Workflows"][0]["Functions"] = [{"Name": "F", "Parameters": []}]
    doc["Workflows"][0]["Transitions"] = [{
        "StartState": "S", "Function": "F", "AllowedRoles": [],
        "AllowedInstanceRoles": ["Nobody"], "NextStates": ["S"],
    }]
    with pytest.raises(SchemaError) as err:
        parse_policy(json.dumps(doc))
    assert err.value.path == "$.Workflows[0].Transitions[0].AllowedInstanceRoles[0]"
    assert err.value.reason.startswith("UnknownAccessEntry: ")


def test_validated_policy_passes_exhaustive_scan(hb_policy_text):
    policy = parse_policy(hb_policy_text)
    for w in policy.workflows:
        states = w.state_set()
        for t in w.transitions:
            assert t.start in states
            assert set(t.successors) <= states
            assert t.access.global_roles <= policy.roles
            assert t.access.instance_roles <= set(w.instance_role_names())


def test_transitions_for_function(hb_policy_text):
    policy = parse_policy(hb_policy_text)
    w = policy.workflows[0]
    taus = transitions_for_function(w, "SendResponse")
    assert len(taus) == 1
    assert taus[0].start == "Request"
    assert taus[0].successors == ("Respond",)
    assert taus[0].access.global_roles == {"Responder"}


def test_transitions_for_function_empty(hb_policy_text):
    policy = parse_policy(hb_policy_text)
    w = policy.workflows[0]
    w2 = _raw_workflow(functions=w.functions + (FunctionSig("Ghost"),),
                       states=w.states, initial_state=w.initial_state,
                       transitions=w.transitions,
                       instance_roles=w.instance_roles)
    assert transitions_for_function(w2, "Ghost") == []


def test_transitions_for_function_unknown(hb_policy_text):
    policy = parse_policy(hb_policy_text)
    with pytest.raises(UnknownFunction):
        transitions_for_function(policy.workflows[0], "Nope")


def test_transitions_preserve_document_order():
    # two transitions on the same function from different states; the filter
    # oracle is the list comprehension itself
    t1 = Transition("A", "F", AccessSet(), ("B",))
    t2 = Transition("B", "F", AccessSet(), ("A", "B"))
    w = _raw_workflow(transitions=(t1, t2))
    assert transitions_for_function(w, "F") == [t1, t2]


def test_partition_property(hb_policy_text):
    policy = parse_policy(hb_policy_text)
    for w in policy.workflows:
        union = []
        for sig in w.functions:
            union.extend(transitions_for_function(w, sig.name))
        assert sorted(map(id, union)) == sorted(map(id, w.transitions))


def test_serialize_round_trip(hb_policy_text):
    policy = parse_policy(hb_policy_text)
    again = parse_policy(serialize_policy(policy))
    assert again == policy


def test_diagnostic_str():
    d = Diagnostic("Code", "loc", "msg")
    assert "Code" in str(d) and "loc" in str(d)
