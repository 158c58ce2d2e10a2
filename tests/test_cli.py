import json
import os
import random
import re
import subprocess
import sys

import pytest

from conftest import fixture_path, fixture_text, get_value_replying_solver
from sol_semantics import SolAssertFail, make_world
from solverify.cli import (
    EXIT_FULLY_VERIFIED, EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, EXIT_PARTIAL,
    EXIT_REFUTED, main, render_trace,
)
from solverify.engine.trace import CounterexampleTrace, Transaction
from solverify.sol import desugar_modifiers, parse_contract, typecheck


def run_cli(*args) -> int:
    return main(list(args))


def test_fully_verified_exit_zero(capsys, tmp_path):
    report = tmp_path / "report.json"
    code = run_cli("verify", "--mode", "conformance",
                   "--policy", fixture_path("helloblockchain.json"),
                   "--sol", fixture_path("helloblockchain.sol"),
                   "--root", "HelloBlockchain", "--k", "3",
                   "--report-json", str(report))
    assert code == EXIT_FULLY_VERIFIED
    out = capsys.readouterr().out
    assert "FullyVerified" in out
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "FullyVerified"
    assert doc["root"] == "HelloBlockchain"
    assert "invariant" in doc


def test_refuted_exit_one_with_trace(capsys, tmp_path):
    report = tmp_path / "report.json"
    code = run_cli("verify", "--mode", "conformance",
                   "--policy", fixture_path("digitallocker.json"),
                   "--sol", fixture_path("digitallocker_buggy.sol"),
                   "--root", "DigitalLocker", "--k", "3",
                   "--report-json", str(report))
    assert code == EXIT_REFUTED
    out = capsys.readouterr().out
    assert "Refuted" in out and "tx1: DigitalLocker(" in out
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "Refuted"
    assert len(doc["trace"]) == 1
    assert "initial state" in doc["failing_assertion"]


def test_module_entry_point_exits_with_the_verdict_code(tmp_path):
    report = tmp_path / "report.json"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "SMT_SOLVER"}
    env["PYTHONPATH"] = src
    proc = subprocess.run(
        [sys.executable, "-m", "solverify.cli", "verify",
         "--policy", fixture_path("digitallocker.json"),
         "--sol", fixture_path("digitallocker_buggy.sol"), "--k", "3",
         "--report-json", str(report)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_REFUTED, proc.stderr
    assert proc.stdout.startswith("verdict: Refuted\n")
    assert json.loads(report.read_text())["verdict"] == "Refuted"


def test_missing_policy_exit_three(capsys):
    code = run_cli("verify", "--mode", "conformance",
                   "--sol", fixture_path("helloblockchain.sol"))
    assert code == EXIT_INPUT_ERROR


def test_unreadable_file_exit_three(capsys):
    code = run_cli("verify", "--mode", "conformance",
                   "--policy", "/nonexistent/app.json",
                   "--sol", fixture_path("helloblockchain.sol"))
    assert code == EXIT_INPUT_ERROR


def test_unwritable_report_after_a_verdict_is_an_input_error(capsys, tmp_path):
    """A verdict's exit code is returned only with its report written."""
    report = tmp_path / "missing" / "report.json"
    code = run_cli("verify", "--policy", fixture_path("helloblockchain.json"),
                   "--sol", fixture_path("helloblockchain.sol"),
                   "--report-json", str(report))
    assert code == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {report}: ")
    assert "\n" not in captured.err.strip()
    assert "verdict" not in captured.out
    assert not report.parent.exists()


@pytest.mark.parametrize("policy, code, message", [
    ("/nonexistent/app.json", EXIT_INPUT_ERROR,
     "error: cannot read /nonexistent/app.json"),
    (None, EXIT_INTERNAL_ERROR, "internal error: RuntimeError: verifier broken"),
], ids=["input-error", "internal-error"])
def test_unwritable_report_keeps_the_exit_code_of_a_failed_run(
        policy, code, message, monkeypatch, capsys, tmp_path):
    import solverify.engine.verify as engine_verify

    def boom(*args, **kwargs):
        raise RuntimeError("verifier broken")

    monkeypatch.setattr(engine_verify, "verify", boom)
    report = tmp_path / "missing" / "report.json"
    assert run_cli("verify", "--policy", policy or fixture_path("helloblockchain.json"),
                   "--sol", fixture_path("helloblockchain.sol"),
                   "--report-json", str(report)) == code
    first, second = capsys.readouterr().err.strip().split("\n")
    assert first.startswith(message)
    assert second.startswith(f"error: cannot write {report}: ")


def test_nonconformant_exit_three(capsys, tmp_path):
    bad = tmp_path / "bad.sol"
    bad.write_text(open(fixture_path("helloblockchain.sol")).read()
                   .replace("function SendResponse", "function SendOther"))
    report = tmp_path / "report.json"
    code = run_cli("verify", "--mode", "conformance",
                   "--policy", fixture_path("helloblockchain.json"),
                   "--sol", str(bad), "--root", "HelloBlockchain",
                   "--report-json", str(report))
    assert code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "MissingFunction" in err
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "InputError"
    assert [d.split()[0] for d in doc["syntactic_diagnostics"]] == ["MissingFunction"]
    assert all(d in doc["error"] for d in doc["syntactic_diagnostics"])


def test_assertions_mode_refutes_assert_as_require(capsys, tmp_path):
    code = run_cli("verify", "--mode", "assertions",
                   "--sol", fixture_path("poa_validators.sol"),
                   "--root", "Validators", "--k", "4")
    assert code == EXIT_REFUTED
    out = capsys.readouterr().out
    assert "InitiateRemove" in out


def test_partially_verified_exit_two(tmp_path):
    toggle = tmp_path / "toggle.sol"
    toggle.write_text("""
    contract T {
        int s;
        constructor() public { s = 0; }
        function Toggle() public { s = 1 - s; }
        function Check() public { assert(s == 0 || s == 1); }
    }
    """)
    code = run_cli("verify", "--mode", "assertions", "--sol", str(toggle),
                   "--root", "T", "--k", "2")
    assert code == EXIT_PARTIAL


def test_emit_artifacts(tmp_path, capsys):
    inst = tmp_path / "inst.sol"
    ir = tmp_path / "prog.vir"
    smt_dir = tmp_path / "smt"
    code = run_cli("verify", "--mode", "conformance",
                   "--policy", fixture_path("digitallocker.json"),
                   "--sol", fixture_path("digitallocker_buggy.sol"),
                   "--root", "DigitalLocker", "--k", "1",
                   "--emit-instrumented", str(inst),
                   "--emit-ir", str(ir), "--dump-smt", str(smt_dir))
    assert code == EXIT_REFUTED
    text = inst.read_text()
    assert "constructor_checker" in text and "nondet()" in text
    # the emitted instrumented source re-parses
    from solverify.sol import parse_contract
    parse_contract(text)
    ir_text = ir.read_text()
    assert "procedure DigitalLocker_Ctor" in ir_text
    from vir_parser import parse_ir
    parse_ir(ir_text)
    dumps = os.listdir(smt_dir)
    assert any(name.endswith(".smt2") for name in dumps)


def test_runtime_checks_artifact(tmp_path, capsys):
    inst = tmp_path / "runtime.sol"
    code = run_cli("verify", "--mode", "instrument-only",
                   "--policy", fixture_path("helloblockchain.json"),
                   "--sol", fixture_path("helloblockchain.sol"),
                   "--root", "HelloBlockchain",
                   "--emit-instrumented", str(inst), "--runtime-checks")
    assert code == EXIT_FULLY_VERIFIED
    text = inst.read_text()
    assert "SendResponse_checker" in text  # instrumented
    assert "nondet" not in text            # with the unconstrained calls gone
    assert "assert(true)" not in text      # the weakened global-role check, dropped
    from solverify.sol import parse_contract
    parse_contract(text)


def test_reports_are_deterministic(tmp_path):
    reports = []
    for i in range(2):
        path = tmp_path / f"r{i}.json"
        run_cli("verify", "--mode", "conformance",
                "--policy", fixture_path("digitallocker.json"),
                "--sol", fixture_path("digitallocker_buggy.sol"),
                "--root", "DigitalLocker", "--k", "2",
                "--report-json", str(path))
        doc = json.loads(path.read_text())
        doc.pop("timings", None)
        doc.pop("seconds", None)
        reports.append(json.dumps(doc, sort_keys=True))
    assert reports[0] == reports[1]


def test_render_trace_golden():
    trace = CounterexampleTrace(
        transactions=[
            Transaction(fn="DigitalLocker", sender=0x2775, args=[3], nondets=[True]),
            Transaction(fn="Accept", sender=0x2711, args=[], nondets=[]),
        ],
        failing_label="DigitalLocker.DigitalLocker: initial state must be Requested",
    )
    assert render_trace(trace).splitlines() == [
        "tx1: DigitalLocker(3) sender=0x2775",
        "tx2: Accept() sender=0x2711",
        "violates: DigitalLocker.DigitalLocker: initial state must be Requested",
    ]


def test_bool_argument_is_printed_in_solidity_spelling(tmp_path, capsys):
    code, doc = _verify_function(tmp_path, "", "assert(!b);", params="bool b")
    assert code == EXIT_REFUTED
    assert "  tx2: f(true) sender=" in capsys.readouterr().out
    assert doc["trace"][1]["args"] == [True]


def test_report_lists_functions_without_transitions(tmp_path):
    report = tmp_path / "r.json"
    run_cli("verify", "--mode", "instrument-only",
            "--policy", fixture_path("helloblockchain.json"),
            "--sol", fixture_path("helloblockchain.sol"),
            "--root", "HelloBlockchain", "--report-json", str(report))
    doc = json.loads(report.read_text())
    assert doc["functions_without_transitions"] == []


def test_dump_smt_covers_invariant_phase(tmp_path):
    smt_dir = tmp_path / "smt"
    run_cli("verify", "--mode", "conformance",
            "--policy", fixture_path("helloblockchain.json"),
            "--sol", fixture_path("helloblockchain.sol"),
            "--root", "HelloBlockchain", "--k", "1",
            "--dump-smt", str(smt_dir))
    names = os.listdir(smt_dir)
    assert any("houdini" in n for n in names)


def test_assertions_mode_proves_nested_mapping_program():
    code = run_cli("verify", "--mode", "assertions",
                   "--sol", fixture_path("nested_maps.sol"),
                   "--root", "C", "--k", "2")
    assert code == EXIT_FULLY_VERIFIED


@pytest.mark.parametrize("fn", [
    "function g(mapping(int => bool) m, int i) public returns (bool) { return m[i]; }",
    "function g(mapping(int => int[]) m, int i) public { m[i].push(1); }",
])
def test_map_signature_only_in_a_parameter(tmp_path, fn):
    # no state variable, local or allocation has the mapping type, so only
    # the parameter's type makes its lookup maps reachable
    src = tmp_path / "c.sol"
    src.write_text(f"contract C {{\n    constructor() public {{ }}\n    {fn}\n}}\n")
    code = run_cli("verify", "--mode", "assertions", "--k", "2", "--sol", str(src))
    assert code == EXIT_FULLY_VERIFIED


def test_multiple_source_files(tmp_path):
    part1 = tmp_path / "a.sol"
    part2 = tmp_path / "b.sol"
    part1.write_text("contract A { int x; constructor() public { x = 1; } }")
    part2.write_text("""
    contract B is A {
        constructor() public { assert(x == 1); }
    }
    """)
    code = run_cli("verify", "--mode", "assertions",
                   "--sol", str(part1), "--sol", str(part2), "--root", "B",
                   "--k", "1")
    assert code == EXIT_FULLY_VERIFIED


def test_deep_store_chain_contract_fully_verified(tmp_path, capsys):
    # 400 straight-line stores to symbolic keys used to die with a
    # RecursionError in the term walkers
    n = 400
    chain = tmp_path / "chain.sol"
    chain.write_text("contract StoreChain {\n"
                     "    mapping(int => int) m;\n"
                     "    constructor() public { }\n"
                     "    function Fill(int x) public {\n"
                     + "".join(f"        m[x + {i}] = {i + 1};\n" for i in range(n))
                     + "        assert(m[x] == 1);\n    }\n}\n")
    report = tmp_path / "r.json"
    code = run_cli("verify", "--mode", "assertions", "--k", "1",
                   "--sol", str(chain), "--report-json", str(report))
    assert code == EXIT_FULLY_VERIFIED
    assert json.loads(report.read_text())["verdict"] == "FullyVerified"


@pytest.mark.parametrize("params, pre, goal", [
    # constant offset: decided by the simplifier
    ("int x", "", "z == x + 3000"),
    # not constant offset: goes through congruence closure in the theory
    ("int x, int w", "        require(w == x);\n", "z != w"),
], ids=["constant-offset", "congruence"])
def test_deep_arithmetic_contract_fully_verified(tmp_path, params, pre, goal):
    # 3000 increments used to die with a RecursionError in `linearize`
    # and in congruence closure
    src = tmp_path / "inc.sol"
    src.write_text("contract Inc {\n"
                   "    constructor() public { }\n"
                   f"    function Bump({params}) public {{\n{pre}"
                   "        int z = x;\n"
                   + "        z = z + 1;\n" * 3000
                   + f"        assert({goal});\n    }}\n}}\n")
    report = tmp_path / "r.json"
    code = run_cli("verify", "--mode", "assertions", "--k", "1",
                   "--sol", str(src), "--report-json", str(report))
    assert code == EXIT_FULLY_VERIFIED
    assert json.loads(report.read_text())["verdict"] == "FullyVerified"


@pytest.mark.parametrize("depth, code, verdict", [
    (200, EXIT_FULLY_VERIFIED, "FullyVerified"),
    # used to exit 4 with a RecursionError in the parser
    (1000, EXIT_INPUT_ERROR, "InputError"),
])
def test_deeply_nested_ifs(tmp_path, capsys, depth, code, verdict):
    body = "assert(a > 0);"
    for i in range(depth):
        body = f"if (a > {i}) {{ {body} }}"
    src = tmp_path / "nested.sol"
    src.write_text(f"contract C {{\n    function f(int a) public {{\n"
                   f"        {body}\n    }}\n}}\n")
    report = tmp_path / "r.json"
    assert run_cli("verify", "--mode", "assertions", "--sol", str(src),
                   "--report-json", str(report)) == code
    assert json.loads(report.read_text())["verdict"] == verdict
    if code == EXIT_INPUT_ERROR:
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: 3:") and "nested" in err and "\n" not in err


def test_recursive_contract_is_an_input_error(tmp_path, capsys):
    src = tmp_path / "rec.sol"
    src.write_text("contract R {\n    int x;\n"
                   "    function F() public { G(); }\n"
                   "    function G() public { F(); }\n}\n")
    report = tmp_path / "r.json"
    assert run_cli("verify", "--mode", "assertions", "--k", "1", "--sol", str(src),
                   "--report-json", str(report)) == EXIT_INPUT_ERROR
    assert json.loads(report.read_text())["verdict"] == "InputError"
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "recursive" in err and "\n" not in err


@pytest.mark.parametrize("src, message", [
    ("contract A is B { int x; }\ncontract B is A { int y; }\n",
     "inheritance cycle"),
    ("contract A is Z { int x; }\n", "unknown base contract Z"),
    ("contract X { int x; }\ncontract Y { int y; }\n"
     "contract A is X, Y { }\ncontract B is Y, X { }\n"
     "contract C is A, B { }\n", "no valid C3 linearization"),
    ("contract A {\n    int x;\n"
     "    function F() public onlyOwner() { x = 1; }\n}\n",
     "no modifier named 'onlyOwner'"),
], ids=["cycle", "unknown_base", "ambiguous_diamond", "unknown_modifier"])
def test_inheritance_and_modifier_errors_are_input_errors(tmp_path, capsys,
                                                          src, message):
    path = tmp_path / "c.sol"
    path.write_text(src)
    report = tmp_path / "r.json"
    assert run_cli("verify", "--mode", "assertions", "--k", "1", "--root", "A",
                   "--sol", str(path), "--report-json", str(report)) \
        == EXIT_INPUT_ERROR
    assert json.loads(report.read_text())["verdict"] == "InputError"
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and message in err and "\n" not in err


def _sum(n: int) -> str:
    return " + ".join(["a"] * n)


@pytest.mark.parametrize("stmts, code", [
    (f"bool b = {'!' * 300}true; assert(b);", EXIT_FULLY_VERIFIED),
    (f"int x = 0; x = {_sum(150)}; assert(x == x);", EXIT_FULLY_VERIFIED),
    (f"int x = {_sum(200)}; assert(x == x);", EXIT_FULLY_VERIFIED),
    (f"int y = {'- ' * 300}a; assert(y == y);", EXIT_FULLY_VERIFIED),
    # used to exit 4 with a RecursionError in copy.deepcopy (translation)
    (f"int x = 0; x = {_sum(200)}; assert(x == x);", EXIT_FULLY_VERIFIED),
    # used to exit 4 with a RecursionError in the typechecker
    (f"int x = {_sum(400)}; assert(x == x);", EXIT_FULLY_VERIFIED),
    # 401 levels, one past the parser's expression bound; used to exit 4
    (f"bool b = {'!' * 400}true; assert(b);", EXIT_INPUT_ERROR),
    (f"int x = {_sum(401)}; assert(x == x);", EXIT_INPUT_ERROR),
], ids=["not300", "assign150", "decl200", "neg300", "assign200", "decl400",
        "not400", "decl401"])
def test_deep_expressions(tmp_path, capsys, stmts, code):
    src = tmp_path / "deep.sol"
    src.write_text(f"contract C {{\n    function f(int a) public {{\n"
                   f"        {stmts}\n    }}\n}}\n")
    assert run_cli("verify", "--mode", "assertions", "--k", "2",
                   "--sol", str(src)) == code
    if code == EXIT_INPUT_ERROR:
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: 3:") and "nested" in err and "\n" not in err


@pytest.mark.parametrize("stmts", [
    "int x = \u00b2;",  # a superscript digit: str.isdigit, but not int()
    "int x = \u0661\u0662; assert(x == 12);",  # Arabic-Indic digits
    "int \u00e9 = 1; assert(\u00e9 == 1);",  # a Latin-1 letter
], ids=["superscript", "arabic_indic", "latin1_letter"])
def test_non_ascii_outside_strings_is_a_lex_error(tmp_path, capsys, stmts):
    src = tmp_path / "u.sol"
    src.write_text(f"contract C {{\n    function f() public {{ {stmts} }}\n}}\n",
                   encoding="utf-8")
    assert run_cli("verify", "--mode", "assertions", "--k", "1",
                   "--sol", str(src)) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: 2:") and "unexpected character" in err


def test_address_literal_other_than_null_is_an_input_error(tmp_path, capsys):
    """The encoding read 0x1 and 0x2 as unconstrained references that a
    model may make equal, while the interpreter keeps them apart, so this
    input exited 4 (`ReplayMismatch`)."""
    src = tmp_path / "hex.sol"
    src.write_text("contract C { address a; constructor() public { a = 0x1; } "
                   "function F() public { assert(a != 0x2); } }\n")
    assert run_cli("verify", "--mode", "assertions", "--k", "2",
                   "--sol", str(src)) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: 1:") and "0x0" in err and "\n" not in err


def _verify_function(tmp_path, ctor: str, body: str, params: str = "int a"):
    """Exit code and report of `contract C { int x; constructor() { ctor }
    function f(params) { body } }` in assertions mode at k = 3."""
    src = tmp_path / "c.sol"
    src.write_text(f"contract C {{\n    int x;\n    constructor() public {{ {ctor} }}\n"
                   f"    function f({params}) public {{ {body} }}\n}}\n")
    report = tmp_path / "r.json"
    code = run_cli("verify", "--mode", "assertions", "--k", "3",
                   "--sol", str(src), "--report-json", str(report))
    return code, json.loads(report.read_text())


def test_division_truncates_toward_zero(tmp_path):
    # -7 / 2 is -3 in Solidity; SMT-LIB's div gives -4, which would prove it
    code, doc = _verify_function(
        tmp_path, "", "require(a == -7); x = a / 2; assert(x != -3);")
    assert code == EXIT_REFUTED
    assert [tx["fn"] for tx in doc["trace"]] == ["C", "f"]
    assert doc["trace"][1]["args"] == [-7]


def test_model_with_a_wrong_quotient_is_not_a_counterexample(tmp_path):
    # the solver leaves `div` opaque: a model with 7 / 2 = 4 is checked and
    # answered `unknown`; it used to end in a ReplayMismatch (exit 4)
    code, doc = _verify_function(
        tmp_path, "", "require(a == 7); x = a / 2; assert(x != 4);")
    assert code == EXIT_PARTIAL and doc["bound"] == 0


def test_zero_divisor_reverts(tmp_path):
    # every run reverts in the constructor, so no assertion can fail; it
    # used to exit 4 with `IrRuntimeError: modulo by zero` on replay
    code, doc = _verify_function(tmp_path, "x = 1 % 0;", "assert(x == 0);", params="")
    assert code == EXIT_PARTIAL and doc["bound"] == 3


def test_zero_divisor_assumed_only_where_the_division_runs(tmp_path):
    code, doc = _verify_function(
        tmp_path, "", "if (a == 0 || 10 / a == 10 / a + 1) { assert(false); }")
    assert code == EXIT_REFUTED
    assert [(tx["fn"], tx["args"]) for tx in doc["trace"]] == [("C", []), ("f", [0])]


def _holds_in_source_semantics(path, fn: str) -> bool:
    """Whether `fn` of the one contract `C` in `path`, called once after its
    constructor, runs without a failing assertion in `tests/sol_semantics.py`."""
    program = desugar_modifiers(typecheck(parse_contract(path.read_text())))
    world = make_world(program)
    inst = world.new_instance("C", [], sender=("eoa", 1))
    try:
        world.call_function(inst, fn, [], sender=("eoa", 1))
    except SolAssertFail:
        return False
    return True


@pytest.mark.parametrize("body", [
    "int y; assert(y == 0);",
    "bool b; address a; assert(!b && a == 0x0);",
    "int i = 0; while (i < 2) { int y; assert(y == 0); y = 1; i = i + 1; }",
    "int[] a; a.push(1); int[] b; b.push(2); assert(a[0] == 1 && a.length == 1);",
], ids=["int", "bool_and_address", "in_a_loop_body", "arrays"])
def test_a_local_declared_without_an_initializer_starts_at_its_default(tmp_path, body):
    # each run of the declaration resets the local, as in the source
    # semantics; the query used to leave it unconstrained (exit 4 on the
    # first two, a wrong Refuted on the last two)
    code, doc = _verify_function(tmp_path, "", body, params="")
    assert (code, doc["verdict"]) == (EXIT_FULLY_VERIFIED, "FullyVerified")
    assert _holds_in_source_semantics(tmp_path / "c.sol", "f")


def test_a_function_that_ends_without_return_returns_its_default(tmp_path):
    src = tmp_path / "c.sol"
    src.write_text("contract C { int x; constructor() public { }\n"
                   "    function G() public returns (int) { x = 1; }\n"
                   "    function F() public { x = G(); assert(x == 0); } }\n")
    assert run_cli("verify", "--mode", "assertions", "--k", "2",
                   "--sol", str(src)) == EXIT_FULLY_VERIFIED
    assert _holds_in_source_semantics(src, "F")


def _assert_internal_error(code, capsys, report):
    assert code == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err.strip()
    assert err.startswith("internal error: ") and "\n" not in err
    assert json.loads(report.read_text())["verdict"] == "InternalError"
    return err


def test_internal_failure_exits_four(monkeypatch, capsys, tmp_path):
    import solverify.engine.verify as engine_verify

    def boom(*args, **kwargs):
        raise RuntimeError("invariant broken\nsecond line")

    monkeypatch.setattr(engine_verify, "verify", boom)
    report = tmp_path / "r.json"
    code = run_cli("verify", "--mode", "assertions",
                   "--sol", fixture_path("nested_maps.sol"), "--root", "C",
                   "--report-json", str(report))
    err = _assert_internal_error(code, capsys, report)
    assert "RuntimeError: invariant broken second line" in err


def _run_fake_solver(tmp_path, replies: dict) -> int:
    """Verify nested_maps.sol with a solver that answers each command
    containing a key of `replies` with that line."""
    from solverify.engine.smtio import close_sessions
    fake = tmp_path / "fake_solver.py"
    fake.write_text("import sys\n"
                    f"replies = {replies!r}\n"
                    "for line in sys.stdin:\n"
                    "    if '(exit)' in line:\n"
                    "        break\n"
                    "    for key, reply in replies.items():\n"
                    "        if key in line:\n"
                    "            print(reply, flush=True)\n"
                    "    if 'echo' in line:\n"
                    "        print('<<query-done>>', flush=True)\n")
    try:
        return run_cli("verify", "--mode", "assertions",
                       "--sol", fixture_path("nested_maps.sol"), "--root", "C",
                       "--solver", f"{sys.executable} {fake}",
                       "--report-json", str(tmp_path / "r.json"))
    finally:
        close_sessions()


def test_solver_error_exits_four(capsys, tmp_path):
    code = _run_fake_solver(
        tmp_path, {"check-sat": '(error "maximum recursion depth exceeded")'})
    err = _assert_internal_error(code, capsys, tmp_path / "r.json")
    assert "maximum recursion depth exceeded" in err


def test_unparsable_model_exits_four(capsys, tmp_path):
    """A get-value reply that does not parse is a solver failure, not an
    empty model."""
    code = _run_fake_solver(tmp_path, {"check-sat": "sat", "get-value": "((sel!0 true)"})
    err = _assert_internal_error(code, capsys, tmp_path / "r.json")
    assert "unparsable get-value reply" in err


def test_get_value_error_exits_four(capsys, tmp_path):
    """A `sat` whose `get-value` reply is a solver error is a solver
    failure, not an empty model that the trace then fails to replay."""
    from solverify.engine.smtio import close_sessions
    buggy = tmp_path / "hb_buggy.sol"
    buggy.write_text(fixture_text("helloblockchain.sol").replace(
        "State = StateType.Respond;", "State = StateType.Request;"))
    try:
        code = run_cli("verify", "--mode", "conformance",
                       "--policy", fixture_path("helloblockchain.json"),
                       "--sol", str(buggy), "--root", "HelloBlockchain", "--k", "3",
                       "--solver", get_value_replying_solver(
                           tmp_path, '(error "model withheld")'),
                       "--report-json", str(tmp_path / "r.json"))
    finally:
        close_sessions()
    err = _assert_internal_error(code, capsys, tmp_path / "r.json")
    assert "model withheld" in err and "ReplayMismatch" not in err


def _assert_input_error(code, capsys):
    assert code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ") and "\n" not in err
    return err


@pytest.mark.parametrize("argv", [
    ["verify", "--k", "abc"], ["verify", "--bogus"], [],
    ["verify", "--mode", "nope"],
], ids=["k_not_int", "unknown_flag", "no_subcommand", "bad_mode"])
def test_usage_errors_exit_three(capsys, argv):
    err = _assert_input_error(run_cli(*argv), capsys)
    assert "usage:" not in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("verify", "--help")
    assert exc.value.code == 0
    assert "--timeout" in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--sol", "--policy"])
def test_undecodable_input_exits_three(tmp_path, capsys, flag):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe contract")
    paths = {"--sol": fixture_path("helloblockchain.sol"),
             "--policy": fixture_path("helloblockchain.json"), flag: str(bad)}
    err = _assert_input_error(
        run_cli("verify", "--sol", paths["--sol"], "--policy", paths["--policy"]),
        capsys)
    assert "bad.bin" in err and "decode" in err


def test_policy_nested_too_deeply_exits_three(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    err = _assert_input_error(
        run_cli("verify", "--policy", str(deep),
                "--sol", fixture_path("helloblockchain.sol")), capsys)
    assert "nested too deeply" in err


def _set(path: str, value):
    """A mutation of the helloblockchain policy: `value` at `path`, a key
    path into the document (`None` deletes the key, a callable receives
    the old value and returns the new one)."""
    *parents, last = [int(k) if k.isdigit() else k for k in path.split("/")]

    def mutate(doc):
        for key in parents:
            doc = doc[key]
        if value is None:
            del doc[last]
        else:
            doc[last] = value(doc[last]) if callable(value) else value
    return mutate


W0, T0, T1 = "$.Workflows[0]", "$.Workflows[0].Transitions[0]", "$.Workflows[0].Transitions[1]"


@pytest.mark.parametrize("mutate, error", [
    (_set("Workflows/0/StartState", None), f"{W0}.StartState: missing required field"),
    (_set("Workflows/0/Constructor", []), f"{W0}.Constructor: expected object"),
    (_set("ApplicationRoles", {"Name": "R"}), "$.ApplicationRoles: expected array"),
    (_set("Workflows/0/Transitions/0/NextStates", [1]),
     f"{T0}.NextStates[0]: expected string"),
    (_set("Workflows/0/States/1", ""), f"{W0}.States[1]: expected non-empty string"),
    (_set("ApplicationRoles", lambda roles: roles + roles[1:]),
     "$.ApplicationRoles[2]: duplicate role name 'Responder'"),
    (_set("Workflows/0/States", lambda states: states + states[:1]),
     f"{W0}.States[2]: duplicate state name 'Request'"),
    (_set("Workflows/0/Functions", lambda fns: fns + fns[:1]),
     f"{W0}.Functions[2]: duplicate function name 'SendRequest'"),
    (_set("Workflows/0/StartState", "Nowhere"),
     f"{W0}.StartState: InitialStateUnknown: initial state 'Nowhere' not declared"),
    (_set("Workflows/0/Transitions/1/StartState", "Nowhere"),
     f"{T1}.StartState: UnknownState: start state 'Nowhere' not declared"),
    (_set("Workflows/0/Transitions/0/NextStates", ["Request", "Nowhere"]),
     f"{T0}.NextStates[1]: UnknownState: successor state 'Nowhere' not declared"),
    (_set("Workflows/0/Transitions/0/Function", "Nope"),
     f"{T0}.Function: UnknownTransitionFunction: function 'Nope' not declared"),
    (_set("Workflows/0/Initiators", ["Nobody"]),
     f"{W0}.Initiators[0]: UnknownInitiatorRole: initiator 'Nobody' not declared"),
    (_set("Workflows/0/Transitions/0/AllowedRoles", ["Nobody"]),
     f"{T0}.AllowedRoles[0]: UnknownAccessEntry: global role 'Nobody' not declared"),
    (_set("Workflows/0/Transitions/1/AllowedInstanceRoles", ["Nobody"]),
     f"{T1}.AllowedInstanceRoles[0]: UnknownAccessEntry: instance role 'Nobody' not declared"),
    (_set("Workflows/0/Transitions/0/NextStates", []), f"{T0}.NextStates: must be non-empty"),
    (_set("Workflows/0/DisplayName", "Hello"), None),
], ids=["missing_field", "object_type", "list_type", "string_type", "empty_name",
        "duplicate_role", "duplicate_state", "duplicate_function", "unknown_start_state",
        "unknown_transition_start", "unknown_successor", "unknown_function",
        "unknown_initiator", "unknown_global_role", "unknown_instance_role",
        "empty_next_states", "extra_key"])
def test_malformed_policy_is_reported_at_the_path_of_its_fault(
        tmp_path, capsys, mutate, error):
    doc = json.loads(fixture_text("helloblockchain.json"))
    mutate(doc)
    policy, report = tmp_path / "p.json", tmp_path / "r.json"
    policy.write_text(json.dumps(doc))
    code = run_cli("verify", "--policy", str(policy), "--k", "2",
                   "--sol", fixture_path("helloblockchain.sol"), "--report-json", str(report))
    verdict = json.loads(report.read_text())["verdict"]
    if error is None:  # keys the schema does not name are ignored
        assert (code, verdict) == (EXIT_FULLY_VERIFIED, "FullyVerified")
        return
    assert _assert_input_error(code, capsys) == f"error: {error}"
    assert verdict == "InputError"


@pytest.mark.parametrize("argv", [
    ["--k", "-1"], ["--timeout", "0"], ["--timeout", "-5"], ["--timeout", "inf"],
], ids=["negative_k", "zero_timeout", "negative_timeout", "infinite_timeout"])
def test_out_of_range_bounds_exit_three(capsys, argv):
    err = _assert_input_error(
        run_cli("verify", "--mode", "assertions",
                "--sol", fixture_path("counter.sol"), *argv), capsys)
    assert argv[0] in err


W_POLICY = {
    "ApplicationName": "W",
    "ApplicationRoles": [{"Name": "Admin"}],
    "Workflows": [{
        "Name": "W", "Initiators": ["Admin"], "StartState": "S0",
        "States": ["S0", "S1", "S2"], "Properties": [],
        "Constructor": {"Parameters": []},
        "Functions": [{"Name": f, "Parameters": []} for f in ("Bump", "Go", "Finish")],
        "Transitions": [
            {"StartState": start, "Function": fn, "AllowedRoles": ["Admin"],
             "AllowedInstanceRoles": [], "NextStates": [end]}
            for start, fn, end in (("S2", "Bump", "S1"), ("S0", "Go", "S1"),
                                   ("S1", "Finish", "S2"))],
    }],
}


@pytest.mark.parametrize("field, go", [
    ("bool never;", "if (never) { Bump(); }"),
    ("int n;", "int i = 0; while (i < n) { Bump(); i = i + 1; }"),
], ids=["call_under_if", "call_in_loop"])
def test_trace_skips_nondets_of_calls_not_made(tmp_path, capsys, field, go):
    """`Go` calls the checked `Bump` only on a path the counterexample does
    not take; the trace holds just the nondets that ran, so it replays."""
    policy = tmp_path / "w.json"
    policy.write_text(json.dumps(W_POLICY))
    src = tmp_path / "w.sol"
    src.write_text(
        "contract W {\n    enum StateType {S0, S1, S2}\n    StateType public State;\n"
        f"    {field}\n"
        "    function W() public { State = StateType.S0; }\n"
        "    function Bump() public { State = StateType.S1; }\n"
        f"    function Go() public {{ {go} State = StateType.S1; }}\n"
        "    function Finish() public { State = StateType.S0; }\n}\n")
    report = tmp_path / "r.json"
    assert run_cli("verify", "--policy", str(policy), "--sol", str(src), "--k", "3",
                   "--report-json", str(report)) == EXIT_REFUTED
    doc = json.loads(report.read_text())
    assert [tx["fn"] for tx in doc["trace"]] == ["W", "Go", "Finish"]
    assert doc["failing_assertion"] == "W.Finish: transition S1 -> {S2}"


# -- invented names never share a spelling with a source name ----------------

def _fails_in_source(src: str, trace: list) -> bool:
    """Whether the calls of `trace` fail an assertion in the source-level
    semantics.  A string argument is the text of a source value, which the
    semantics interns as it interns literals."""
    from solverify.sol import desugar_modifiers, parse_contract, typecheck
    from sol_semantics import SolAssertFail, make_world

    def sender(value):
        return None if value == 0 else ("addr", value)

    def args(tx):
        return [world.intern(a) if isinstance(a, str) else a for a in tx["args"]]

    world = make_world(desugar_modifiers(typecheck(parse_contract(src))))
    ctor, *calls = trace
    try:
        inst = world.new_instance(ctor["fn"], args(ctor), sender(ctor["sender"]))
        for tx in calls:
            world.call_function(inst, tx["fn"], args(tx), sender(tx["sender"]))
    except SolAssertFail:
        return True
    return False


@pytest.mark.parametrize("src, root, code, key, value, fns", [
    # two state variables, one global map: x_B of A and x of B_A
    ("contract A { int x_B; constructor() { x_B = 1; } }\n"
     "contract B_A is A { int x; constructor() { x = 2; }\n"
     "    function F() public { assert(x_B == 2); } }",
     "B_A", EXIT_REFUTED, "k", 1, ["B_A", "F"]),
    # two procedures F_B_A: F_B of A and F of B_A
    ("contract A { int y; constructor() { y = 1; } function F_B() public { y = 3; } }\n"
     "contract B_A is A { constructor() { } function F() public { assert(y == 1); } }",
     "B_A", EXIT_REFUTED, "k", 2, ["B_A", "F_B", "F"]),
    # two procedures F_Ctor: the constructor of F and F of Ctor
    ("contract F { int s; constructor() { s = 1; } }\n"
     "contract Ctor { int t; constructor() { t = 0; } function F() public { t = 1; } }",
     "Ctor", EXIT_FULLY_VERIFIED, None, None, None),
    # the state map of M is the lookup map M_int_bool
    ("contract int_bool { int M; mapping(int => bool) m; constructor() { M = 1; }\n"
     "    function F(int i) public { m[i] = true; assert(M == 1); } }",
     None, EXIT_PARTIAL, "bound", 2, None),
    # a local msg_sender is the sender parameter
    ("contract C { int s; constructor() { s = 0; } function F() public {\n"
     "    address msg_sender = 0x0; assert(msg.sender == msg_sender); } }",
     None, EXIT_REFUTED, "k", 1, ["C", "F"]),
    # a local tmp0 is the temporary that receives G's result
    ("contract C { int s; constructor() { s = 0; }\n"
     "    function G() public returns (int) { return 5; }\n"
     "    function F() public { int tmp0 = 1; s = G(); assert(tmp0 == 1); } }",
     None, EXIT_FULLY_VERIFIED, None, None, None),
    # a local x_C is the state map of x, which the same procedure reads
    ("contract C { int x; constructor() { x = 1; }\n"
     "    function F() public { int x_C = 5; assert(x == 1); } }",
     None, EXIT_PARTIAL, "bound", 2, None),
    # the state map of ctor in contract sender is the harness's ctor_sender
    ("contract sender { address ctor; constructor() { ctor = msg.sender; } }\n"
     "contract R is sender { constructor() { } function F() public { assert(ctor != 0x0); } }",
     "R", EXIT_REFUTED, "k", 1, ["R", "F"]),
], ids=["state_map", "procedure", "constructor_procedure", "lookup_map",
        "sender_local", "temporary_local", "global_local", "harness_local"])
def test_source_names_keep_apart_from_invented_names(tmp_path, src, root, code,
                                                      key, value, fns):
    path = tmp_path / "c.sol"
    path.write_text(src)
    report = tmp_path / "r.json"
    argv = ["verify", "--mode", "assertions", "--k", "2", "--sol", str(path),
            "--report-json", str(report)]
    assert run_cli(*argv, *(["--root", root] if root else [])) == code
    doc = json.loads(report.read_text())
    assert doc["verdict"] == {EXIT_FULLY_VERIFIED: "FullyVerified",
                              EXIT_REFUTED: "Refuted",
                              EXIT_PARTIAL: "PartiallyVerified"}[code]
    if key is not None:
        assert doc[key] == value
    if fns is not None:
        assert [tx["fn"] for tx in doc["trace"]] == fns
        assert _fails_in_source(src, doc["trace"])


def test_user_modifier_named_like_a_checker_keeps_the_check(tmp_path):
    """An unused `SendResponse_checker` of the contract's own must not stand in
    for the instrumentation's checker of `SendResponse`, whose transition
    the source now breaks."""
    src = fixture_text("helloblockchain.sol") \
        .replace("State = StateType.Respond;", "State = StateType.Request;") \
        .replace("    function SendResponse(",
                 "    modifier SendResponse_checker() { _; }\n\n    function SendResponse(")
    path = tmp_path / "hb.sol"
    path.write_text(src)
    report = tmp_path / "r.json"
    assert run_cli("verify", "--policy", fixture_path("helloblockchain.json"),
                   "--sol", str(path), "--k", "3",
                   "--report-json", str(report)) == EXIT_REFUTED
    doc = json.loads(report.read_text())
    assert doc["verdict"] == "Refuted" and doc["k"] == 1
    assert [tx["fn"] for tx in doc["trace"]] == ["HelloBlockchain", "SendResponse"]


def test_choice_function_is_named_apart_from_source_functions(tmp_path):
    """A source function `nondet(int x)` keeps its name; the checkers call
    the choice function `nondet_1`, which the emitted source declares."""
    src = fixture_text("helloblockchain.sol").replace(
        "    function SendResponse(",
        "    function nondet(int x) public { Responder = msg.sender; }\n\n"
        "    function SendResponse(")
    path = tmp_path / "hb.sol"
    path.write_text(src)
    instrumented = tmp_path / "i.sol"
    assert run_cli("verify", "--policy", fixture_path("helloblockchain.json"),
                   "--sol", str(path), "--k", "3",
                   "--emit-instrumented", str(instrumented)) == EXIT_FULLY_VERIFIED
    text = instrumented.read_text()
    assert "assert(nondet_1() ==> State == StateType.Request);" in text
    assert "function nondet_1() public returns (bool);" in text
    assert "nondet()" not in text


def test_snapshots_are_named_apart_from_state_variables(tmp_path):
    """With a state variable `oldRequestor`, the snapshot of `Requestor` is
    `oldRequestor_1`, so the snapshot of `oldRequestor` reads the state
    variable, as the emitted source says."""
    doc = json.loads(fixture_text("helloblockchain.json"))
    workflow = doc["Workflows"][0]
    for prop in workflow["Properties"]:
        if prop["Name"] == "Responder":
            prop["Name"] = "oldRequestor"
    for tau in workflow["Transitions"]:
        if tau["Function"] == "SendResponse":
            tau["AllowedRoles"], tau["AllowedInstanceRoles"] = [], ["oldRequestor"]
    policy = tmp_path / "hb.json"
    policy.write_text(json.dumps(doc))
    path = tmp_path / "hb.sol"
    path.write_text(fixture_text("helloblockchain.sol").replace("Responder", "oldRequestor"))
    instrumented = tmp_path / "i.sol"
    assert run_cli("verify", "--policy", str(policy), "--sol", str(path), "--k", "3",
                   "--emit-instrumented", str(instrumented)) == EXIT_FULLY_VERIFIED
    text = instrumented.read_text()
    assert "address oldRequestor_1 = Requestor;" in text
    assert "address oldoldRequestor = oldRequestor;" in text
    assert "msg.sender == oldoldRequestor && oldState == StateType.Request" in text


def test_runtime_checks_eliminate_calls_inside_atoms(tmp_path):
    """A call inside an atom makes the whole atom true: `nondet() == false`
    becomes `true`, a guard that is dropped, not `true == false`, a guard
    that never passes."""
    src = fixture_text("helloblockchain.sol").replace(
        "    function SendRequest(string requestMessage) public {\n",
        "    function nondet() public returns (bool);\n\n"
        "    function SendRequest(string requestMessage) public {\n"
        "        require(nondet() == false);\n")
    path = tmp_path / "hb.sol"
    path.write_text(src)
    runtime = tmp_path / "runtime.sol"
    assert run_cli("verify", "--mode", "instrument-only", "--runtime-checks",
                   "--policy", fixture_path("helloblockchain.json"),
                   "--sol", str(path),
                   "--emit-instrumented", str(runtime)) == EXIT_FULLY_VERIFIED
    text = runtime.read_text()
    assert "require(" not in text
    assert "nondet" not in text


def test_conformance_is_checked_once_per_run(tmp_path):
    """The CLI checks syntactic conformance; the instrumenter does not check
    it again.  Calls are counted by code object, whatever name a module
    imported the function under."""
    from solverify.sol.conformance import check_syntactic_conformance
    code = check_syntactic_conformance.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame)

    sys.setprofile(profile)
    try:
        result = run_cli("verify", "--policy", fixture_path("helloblockchain.json"),
                         "--sol", fixture_path("helloblockchain.sol"), "--k", "1")
    finally:
        sys.setprofile(None)
    assert result == EXIT_FULLY_VERIFIED
    assert len(calls) == 1


def test_new_instance_is_never_null(tmp_path, capsys):
    """A contract created by `new` is a non-null reference in the encoding
    as in the replay; the encoding used to let it be null, and the replay
    rejected that model (exit 4)."""
    path = tmp_path / "c.sol"
    path.write_text("contract A { constructor() public { } }\n"
                    "contract C { A a; constructor() public { a = new A(); }\n"
                    "    function F() public { assert(a != 0x0); } }\n")
    code = run_cli("verify", "--mode", "assertions", "--root", "C", "--k", "2",
                   "--sol", str(path))
    assert code == EXIT_PARTIAL
    assert "safe up to 2 transactions" in capsys.readouterr().out


def _string_contract(check: str) -> str:
    return ("contract C {\n    string m;\n"
            "    constructor() public { m = \"a\"; }\n"
            "    function Set() public { m = \"b\"; }\n"
            f"    function Check() public {{ {check} }}\n}}\n")


def test_distinct_string_literals_differ(tmp_path):
    """\"a\" and \"b\" are distinct literals, so `Set` breaks `m == \"a\"`."""
    src = _string_contract('assert(m == "a");')
    path = tmp_path / "c.sol"
    path.write_text(src)
    report = tmp_path / "r.json"
    assert run_cli("verify", "--mode", "assertions", "--k", "3", "--sol", str(path),
                   "--report-json", str(report)) == EXIT_REFUTED
    doc = json.loads(report.read_text())
    assert [tx["fn"] for tx in doc["trace"]] == ["C", "Set", "Check"]
    assert doc["failing_assertion"] == "C: assert at line 5"
    assert _fails_in_source(src, doc["trace"])


def test_unstored_string_literal_is_never_equal(tmp_path, capsys):
    """Only \"a\" and \"b\" are ever stored, so `m != \"c\"` always holds."""
    path = tmp_path / "c.sol"
    path.write_text(_string_contract('assert(m != "c");'))
    assert run_cli("verify", "--mode", "assertions", "--k", "3",
                   "--sol", str(path)) == EXIT_PARTIAL
    assert "safe up to 3 transactions" in capsys.readouterr().out


def test_unset_string_equals_the_empty_literal(tmp_path, capsys):
    """An unset `string` is `""`: both are the code 0."""
    path = tmp_path / "c.sol"
    path.write_text('contract C { string m; constructor() public { } '
                    'function F() public { assert(m == ""); } }')
    assert run_cli("verify", "--mode", "assertions", "--k", "2",
                   "--sol", str(path)) == EXIT_PARTIAL
    assert "safe up to 2 transactions" in capsys.readouterr().out


@pytest.mark.parametrize("check, spelling", [
    ('assert(m != "a");', r'"a"'),
    # a string distinct from both literals, which no literal spells
    ('assert(m == "" || m == "a");', r'"#-?[0-9]+"'),
], ids=["literal", "no_literal"])
def test_string_argument_is_printed_in_solidity_spelling(tmp_path, capsys, check,
                                                        spelling):
    src = ("contract C { string m; constructor() public { }\n"
           "    function Set(string s) public { m = s; }\n"
           f"    function F() public {{ {check} }} }}\n")
    path = tmp_path / "c.sol"
    path.write_text(src)
    report = tmp_path / "r.json"
    assert run_cli("verify", "--mode", "assertions", "--k", "3", "--sol", str(path),
                   "--report-json", str(report)) == EXIT_REFUTED
    assert re.search(rf"\n  tx2: Set\({spelling}\) sender=", capsys.readouterr().out)
    doc = json.loads(report.read_text())
    [arg] = doc["trace"][1]["args"]
    assert re.fullmatch(spelling, json.dumps(arg))
    assert _fails_in_source(src, doc["trace"])


def test_modifier_post_statement_runs_after_a_tail_return(tmp_path):
    """`Get` returns x, then its modifier increments x; the desugared body
    assigns the result before the post-statement instead of returning."""
    path = tmp_path / "c.sol"
    path.write_text(
        "contract C {\n    int x;\n    constructor() public { x = 0; }\n"
        "    modifier bump() { _; x = x + 1; }\n"
        "    function Get() public bump() returns (int) { return x; }\n"
        "    function F() public {\n        int r;\n        r = Get();\n"
        "        assert(r + 1 == x);\n        assert(r == 0);\n    }\n}\n")
    report = tmp_path / "r.json"
    instrumented = tmp_path / "i.sol"
    assert run_cli("verify", "--mode", "assertions", "--k", "3", "--sol", str(path),
                   "--report-json", str(report),
                   "--emit-instrumented", str(instrumented)) == EXIT_REFUTED
    doc = json.loads(report.read_text())
    assert [tx["fn"] for tx in doc["trace"]] == ["C", "F", "F"]
    assert doc["failing_assertion"] == "C: assert at line 10"
    text = instrumented.read_text()
    assert "__ret = x;\n        x = x + 1;\n" in text and "return x;" not in text


# -- inner maps are fresh at every depth --------------------------------------

def _map_contract(state: str, body: str) -> str:
    return ("contract C {\n    %s m;\n    constructor() public { }\n"
            "    function F(int a, int b) public {\n        %s\n    }\n}\n" % (state, body))


def _verify_map_contract(tmp_path, src: str) -> tuple[int, dict]:
    path = tmp_path / "c.sol"
    path.write_text(src)
    report = tmp_path / "r.json"
    code = run_cli("verify", "--mode", "assertions", "--root", "C", "--k", "2",
                   "--sol", str(path), "--report-json", str(report))
    return code, json.loads(report.read_text())


def test_depth_three_maps_under_distinct_keys_are_distinct(tmp_path):
    """m[a][0] and m[b][0] are different maps, so the write through m[a] is
    not seen through m[b].  The replay used to read both as null, and
    rejected this real counterexample (exit 4)."""
    src = _map_contract("mapping(int => mapping(int => mapping(int => int)))",
                        "require(a != b); m[a][0][0] = 1; int v = m[b][0][0]; "
                        "assert(v == 1);")
    code, doc = _verify_map_contract(tmp_path, src)
    assert code == EXIT_REFUTED and doc["verdict"] == "Refuted" and doc["k"] == 1
    assert [tx["fn"] for tx in doc["trace"]] == ["C", "F"]
    assert _fails_in_source(src, doc["trace"])


def test_depth_three_aliased_model_is_not_confirmed(tmp_path):
    """No call F(a, b) fails this assertion in Solidity.  The encoding lets
    level-2 maps under different level-1 keys alias (CHANGES.md, the FOUND
    on `prelude.alloc_facts`), so bounded checking finds a model with
    m[0][1] and m[1][1] one map; the replay used to confirm it as
    `Refuted` with F(1, 1)."""
    src = _map_contract("mapping(int => mapping(int => mapping(int => bool)))",
                        "m[b][a][b] = false; m[b][b][a] = true; "
                        "assert(m[0][b][a] == false || b == 0);")
    _, doc = _verify_map_contract(tmp_path, src)
    assert doc["verdict"] != "Refuted"


def _random_map_contract(seed: int) -> str:
    """A map of depth 1-3 with an int or bool leaf, written 1-3 times and
    then asserted on once, at keys drawn from a, b, 0, 1 and 2."""
    rng = random.Random(seed)
    depth = rng.randint(1, 3)
    leaf = rng.choice(("int", "bool"))
    values = ("0", "1") if leaf == "int" else ("false", "true")
    state = leaf
    for _ in range(depth):
        state = f"mapping(int => {state})"

    def cell() -> str:
        return "m" + "".join(f"[{rng.choice(('a', 'b', '0', '1', '2'))}]"
                             for _ in range(depth))

    writes = [f"{cell()} = {rng.choice(values)};" for _ in range(rng.randint(1, 3))]
    return _map_contract(state, " ".join(writes + [f"assert({cell()} == {rng.choice(values)});"]))


@pytest.mark.parametrize("seed", range(40))
def test_map_verdicts_agree_with_source_semantics(tmp_path, seed):
    """Differential testing against the Solidity reference semantics, in the
    style of Csmith (Yang et al., PLDI 2011): a refutation fails there, and
    after a safe verdict no call F(a, b) with a, b in -2..2 does.  Exit 4 is
    allowed: the encoding may alias inner maps, and the replay then rejects
    the model (CHANGES.md, the FOUND on `prelude.alloc_facts`)."""
    src = _random_map_contract(seed)
    code, doc = _verify_map_contract(tmp_path, src)
    assert code in (EXIT_FULLY_VERIFIED, EXIT_REFUTED, EXIT_PARTIAL, EXIT_INTERNAL_ERROR)
    if code == EXIT_REFUTED:
        assert _fails_in_source(src, doc["trace"]), src
    elif code != EXIT_INTERNAL_ERROR:
        ctor = {"fn": "C", "args": [], "sender": 1}
        for a in range(-2, 3):
            for b in range(-2, 3):
                call = {"fn": "F", "args": [a, b], "sender": 1}
                assert not _fails_in_source(src, [ctor, call]), (src, a, b)
