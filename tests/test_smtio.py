"""The solver session: the bundled solver served from a fork of the verifier,
external solvers as subprocesses, the per-query read deadline, and the
modules a run imports."""

import json
import os
import subprocess
import sys
import threading
import time

import pytest

from conftest import fixture_path
from solverify.cli import EXIT_FULLY_VERIFIED, EXIT_INTERNAL_ERROR, main
from solverify.engine import smtio
from solverify.engine.queries import SmtQuery
from test_smt_corpus import BUNDLED, INVOCATIONS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HELLO = ["verify", "--policy", fixture_path("helloblockchain.json"),
         "--sol", fixture_path("helloblockchain.sol")]


@pytest.fixture(autouse=True)
def _bundled_solver(monkeypatch):
    monkeypatch.delenv("SMT_SOLVER", raising=False)


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SMT_SOLVER"}
    env["PYTHONPATH"] = SRC
    return env


def _run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args], env=_env(),
                          capture_output=True, text=True, timeout=120)


def _pigeonhole(pigeons: int) -> str:
    """Boolean pigeonhole, `pigeons` into one hole fewer: unsat, and seconds
    of search for the bundled solver from 9 pigeons on."""
    holes = range(pigeons - 1)
    p = [[f"p_{i}_{j}" for j in holes] for i in range(pigeons)]
    lines = [f"(declare-const {v} Bool)" for row in p for v in row]
    lines += [f"(assert (or {' '.join(row)}))" for row in p]
    lines += [f"(assert (or (not {p[a][j]}) (not {p[b][j]})))"
              for j in holes for a in range(pigeons) for b in range(a + 1, pigeons)]
    return "\n".join(lines) + "\n(check-sat)\n(exit)\n"


def _check(text: str, timeout: float) -> str:
    query = SmtQuery(text=text, slots={}, selectors=[])
    return smtio.check_smt(query, smtio.SolverConfig(timeout=timeout)).status


def test_timeout_kills_the_forked_solver_and_the_next_query_forks_afresh():
    session = smtio._session_for(smtio.solver_argv())
    assert _check("(assert true)(check-sat)", 30) == "sat"
    first = session.proc
    assert isinstance(first, smtio.ForkedSolver)
    assert _check(_pigeonhole(9), 0.3) == "unknown"
    assert session.proc is None
    with pytest.raises(ChildProcessError):  # killed and reaped: no zombie
        os.waitpid(first.pid, os.WNOHANG)
    assert threading.active_count() == 1
    assert _check("(declare-const x Int)(assert (> x 2))(assert (< x 2))"
                  "(check-sat)", 30) == "unsat"
    assert session.proc.pid != first.pid


def test_closing_a_forked_session_waits_without_sleeping(monkeypatch):
    """`close` waits for the solver to close its output, then reaps it: no
    polling loop with sleeps between `waitpid` calls."""
    import solverify.smt.cli as smt_cli
    serve = smt_cli.serve

    def slow_to_exit(inp, out):  # runs in the forked child
        serve(inp, out)
        time.sleep(0.05)

    smtio.close_sessions()
    monkeypatch.setattr(smt_cli, "serve", slow_to_exit)
    assert _check("(assert true)(check-sat)", 30) == "sat"
    pid = smtio._session_for(smtio.solver_argv()).proc.pid
    sleeps = []
    monkeypatch.setattr(time, "sleep", sleeps.append)
    smtio.close_sessions()
    assert sleeps == []
    with pytest.raises(ChildProcessError):  # reaped: no zombie
        os.waitpid(pid, os.WNOHANG)


def test_closing_a_solver_that_ignores_exit_kills_it_at_the_deadline():
    session = smtio.SolverSession([sys.executable, "-c",
                                   "import time; time.sleep(60)"])
    session._ensure()
    pid = session.proc.pid
    started = time.monotonic()
    session.close()  # its output never closes: killed after two seconds
    assert 1.5 < time.monotonic() - started < 30
    with pytest.raises(ChildProcessError):  # reaped: no zombie
        os.waitpid(pid, os.WNOHANG)


ATEXIT_ONCE = """
import atexit, sys
atexit.register(lambda: open(sys.argv[1], "a").write("atexit\\n"))
from solverify.cli import main
from solverify.engine.smtio import close_sessions
code = main(sys.argv[2:])
close_sessions()  # waits for the forked solver to exit
sys.exit(code)
"""


def test_forked_solver_never_runs_the_verifiers_atexit_hooks(tmp_path):
    log = tmp_path / "log"
    proc = _run_python(ATEXIT_ONCE, str(log), *HELLO)
    assert proc.returncode == 0, proc.stderr
    assert log.read_text() == "atexit\n"


SERVE_RAISES = """
import sys
import solverify.cli as cli
import solverify.smt.cli as smt_cli

def serve(inp, out):
    raise RuntimeError("serve failed in the child")

def counted(*args):
    open(sys.argv[1], "a").write("report\\n")
    write_report(*args)

smt_cli.serve = serve
write_report, cli._write_error_report = cli._write_error_report, counted
sys.exit(cli.main(sys.argv[2:]))
"""


def test_failure_in_the_forked_solver_reaches_the_verifier_as_a_crash(tmp_path):
    log, report = tmp_path / "log", tmp_path / "report.json"
    proc = _run_python(SERVE_RAISES, str(log), *HELLO, "--report-json", str(report))
    assert proc.returncode == EXIT_INTERNAL_ERROR
    assert proc.stderr.startswith("internal error: SolverCrashed")
    assert "RuntimeError: serve failed in the child" in proc.stderr  # its stderr tail
    assert log.read_text() == "report\n"  # the child wrote none
    assert json.loads(report.read_text())["verdict"] == "InternalError"


LAZY = ("solverify.vir.interp", "solverify.vir.parser", "solverify.vir.printer",
        "solverify.sol.printer", "solverify.sol.interp", "solverify.smt.solver",
        "solverify.smt.sat")


def _modules_loaded_by(module: str) -> set[str]:
    proc = _run_python(f"import sys, {module}\nprint(*sorted(sys.modules))")
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_cli_loads_no_solver_printer_or_interpreter():
    loaded = _modules_loaded_by("solverify.cli")
    assert "solverify.engine.smtio" in loaded
    assert not loaded & set(LAZY)
    # records come from solverify.record, which needs neither of these;
    # subprocess (external solvers) and traceback (crashes) load when used
    assert not loaded & {"dataclasses", "inspect", "subprocess", "traceback"}
    assert not _modules_loaded_by("solverify.smt.cli") & {"dataclasses", "inspect"}


RUN_AND_LIST_MODULES = """
import sys
import solverify.cli as cli
code = cli.main(sys.argv[1:])
print("exit", code, *sorted(sys.modules))
"""


def _modules_loaded_by_run(*argv: str) -> tuple[int, set[str]]:
    proc = _run_python(RUN_AND_LIST_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr
    _, code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), set(modules)


def test_a_run_loads_only_the_modules_its_mode_uses():
    code, loaded = _modules_loaded_by_run(
        "verify", "--mode", "assertions", "--sol", fixture_path("nested_maps.sol"),
        "--root", "C", "--k", "2")
    assert code == EXIT_FULLY_VERIFIED
    assert not loaded & {"solverify.policy", "solverify.instrument",
                         "solverify.engine.candidates", "solverify.engine.trace"}
    # a conformance run that proves its contract never replays a trace
    code, loaded = _modules_loaded_by_run(*HELLO)
    assert code == EXIT_FULLY_VERIFIED
    assert "solverify.engine.candidates" in loaded
    assert "solverify.engine.trace" not in loaded


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_external_and_forked_solver_give_the_same_report(name, tmp_path):
    """The bundled solver as a subprocess (`--solver`) and as a fork: same
    exit code, same report up to timings, same dumped queries."""
    runs = []
    for label, extra in (("forked", []), ("external", ["--solver", BUNDLED])):
        report, dump = tmp_path / f"{label}.json", tmp_path / label
        code = main(["verify", *INVOCATIONS[name], *extra,
                     "--report-json", str(report), "--dump-smt", str(dump)])
        doc = json.loads(report.read_text())
        doc.pop("seconds")
        doc.pop("timings", None)
        queries = {f: (dump / f).read_bytes() for f in sorted(os.listdir(dump))}
        runs.append((code, doc, queries))
    assert runs[0] == runs[1]
