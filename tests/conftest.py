import os

import pytest

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def fixture_text(name: str) -> str:
    with open(fixture_path(name)) as fh:
        return fh.read()


def fresh_facts(var: str) -> list:
    """The facts every allocation into `var` states first: a non-null
    reference not yet allocated, which is then allocated."""
    from solverify.vir import ast as I
    ref = I.Var(var)
    return [I.Havoc(var), I.Assume(I.op("!", I.select(I.Var("Alloc"), ref))),
            I.Assume(I.op("!=", ref, I.RConst(0))), I.Store("Alloc", (ref,), I.BConst(True))]


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

