import json
import os
import subprocess
import sys

import pytest

from conftest import fixture_path, fixture_text, get_value_replying_solver
from solverify.cli import (
    EXIT_FULLY_VERIFIED, EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, EXIT_PARTIAL,
    EXIT_REFUTED, main, render_trace,
)
from solverify.engine.trace import CounterexampleTrace, Transaction


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


def test_nonconformant_exit_three(capsys, tmp_path):
    bad = tmp_path / "bad.sol"
    bad.write_text(open(fixture_path("helloblockchain.sol")).read()
                   .replace("function SendResponse", "function SendOther"))
    code = run_cli("verify", "--mode", "conformance",
                   "--policy", fixture_path("helloblockchain.json"),
                   "--sol", str(bad), "--root", "HelloBlockchain")
    assert code == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert "MissingFunction" in err


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
    from solverify.vir.parser import parse_ir
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
    assert "assert(true)" in text          # the weakened global-role check
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


def _assert_internal_error(code, capsys, report):
    assert code == EXIT_INTERNAL_ERROR
    err = capsys.readouterr().err.strip()
    assert err.startswith("internal error: ") and "\n" not in err
    assert json.loads(report.read_text())["verdict"] == "InternalError"
    return err


def test_internal_failure_exits_four(monkeypatch, capsys, tmp_path):
    import solverify.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("invariant broken\nsecond line")

    monkeypatch.setattr(cli, "engine_verify", boom)
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
