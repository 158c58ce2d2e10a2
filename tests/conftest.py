import io
import json
import os

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def fixture_text(name: str) -> str:
    with open(fixture_path(name)) as fh:
        return fh.read()


def alloc_smt(program, alloc, *after, params=()) -> list[str]:
    """The define-fun and assert lines `vc_gen` renders for a procedure
    taking `params` and holding the allocation `alloc`, then `after`: the
    start state, the allocation's facts in order, then what `after` states."""
    from solverify.engine.queries import vc_gen
    from solverify.vir import ast as I
    proc = I.IrProcedure("alloc", list(params), [], [(alloc.var, I.REF)],
                         I.seq(alloc, *after))
    return [line for line in vc_gen(program, proc)[1].text.splitlines()
            if line.startswith(("(define-fun", "(assert"))]


def fresh_facts(ref: str, alloc: str = "Alloc!0") -> list[str]:
    """The facts every allocation of the reference `ref` states first, under
    no guard: it is non-null and not yet allocated in `alloc`, the array that
    afterwards reads as `(store alloc ref true)`."""
    return [f"(assert (=> true (not (select {alloc} {ref}))))",
            f"(assert (=> true (not (= {ref} null))))"]


def run_smt(text: str) -> str:
    """The bundled solver's answers to the script `text`, one per line."""
    from solverify.smt.cli import serve
    out = io.StringIO()
    serve(io.StringIO(text), out)
    return out.getvalue().strip()


def serialize_policy(policy) -> str:
    """Inverse of `parse_policy` on validated policies (round-trip identity)."""
    def sig_doc(sig) -> dict:
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


def get_value_replying_solver(tmp_path, reply: str) -> str:
    """The command line of the bundled solver with every `get-value`
    answered by `reply` (a solver that withholds its models)."""
    import sys

    import solverify
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(solverify.__file__)))
    script = tmp_path / "get_value_solver.py"
    script.write_text(
        "import sys\n"
        f"sys.path.insert(0, {src_dir!r})\n"
        "from solverify.smt import cli\n"
        "handle = cli.Session.handle\n"
        "def withhold(self, sx):\n"
        "    if isinstance(sx, list) and sx and sx[0] == 'get-value':\n"
        f"        self.emit({reply!r})\n"
        "        return True\n"
        "    return handle(self, sx)\n"
        "cli.Session.handle = withhold\n"
        "cli.serve(sys.stdin, sys.stdout)\n")
    return f"{sys.executable} {script}"


@pytest.fixture(scope="session")
def hb_policy_text():
    return fixture_text("helloblockchain.json")


@pytest.fixture(scope="session")
def hb_source():
    return fixture_text("helloblockchain.sol")


@pytest.fixture(scope="session", autouse=True)
def _close_solver_sessions():
    yield
    from solverify.engine.smtio import close_sessions
    close_sessions()

