"""Units for the bundled SMT solver and the process interface."""

import itertools
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from solverify.engine.queries import _render_shared
from solverify.smt import solver
from solverify.smt.cli import run
from solverify.smt.solver import _sat_solve
from solverify.smt.terms import (
    BOOL_S, INT_S, TermBank, array_sort, parse_script, read_sexprs,
)


def answer(script: str) -> str:
    return run(script).splitlines()[0]


# -- basics --------------------------------------------------------------------

def test_trivial():
    assert answer("(assert true)(check-sat)") == "sat"
    assert answer("(assert false)(check-sat)") == "unsat"


def test_propositional():
    assert answer("""
    (declare-const p Bool)(declare-const q Bool)
    (assert (or p q))(assert (not p))(assert (not q))
    (check-sat)""") == "unsat"
    assert answer("""
    (declare-const p Bool)(declare-const q Bool)
    (assert (or p q))(assert (not p))
    (check-sat)""") == "sat"


def test_arithmetic_chains():
    assert answer("""
    (declare-const x Int)(declare-const y Int)
    (assert (= x (+ y 1)))(assert (<= x y))
    (check-sat)""") == "unsat"
    assert answer("""
    (declare-const x Int)
    (assert (< x 3))(assert (> x 1))(assert (not (= x 2)))
    (check-sat)""") == "unsat"


def test_congruence():
    assert answer("""
    (declare-fun f (Int) Int)
    (declare-const a Int)(declare-const b Int)
    (assert (= a b))(assert (not (= (f a) (f b))))
    (check-sat)""") == "unsat"


def test_transitivity_over_refs():
    assert answer("""
    (declare-sort Ref 0)
    (declare-const p Ref)(declare-const q Ref)(declare-const r Ref)
    (assert (= p q))(assert (= q r))(assert (not (= p r)))
    (check-sat)""") == "unsat"


def test_read_over_write():
    assert answer("""
    (declare-const m (Array Int Int))
    (declare-const i Int)(declare-const j Int)
    (assert (not (= i j)))
    (assert (not (= (select (store (store m i 1) j 2) i) 1)))
    (check-sat)""") == "unsat"


def test_ite_and_let():
    assert answer("""
    (declare-const x Int)
    (assert (let ((y (ite (> x 0) 1 2))) (and (> x 5) (not (= y 1)))))
    (check-sat)""") == "unsat"


def test_define_fun_expands():
    assert answer("""
    (declare-const x Int)
    (define-fun double ((a Int)) Int (* 2 a))
    (assert (= (double x) 7))
    (check-sat)""") == "unknown"  # 2x = 7 has no integer solution; the
    # difference fragment cannot prove it, and the model check rejects


def test_get_value():
    out = run("""
    (declare-const x Int)(declare-const b Bool)
    (assert (= x 41))(assert b)
    (check-sat)(get-value (x b))""")
    assert out.splitlines()[0] == "sat"
    assert "(x 41)" in out and "(b true)" in out


def test_quantified_allocation_axioms():
    base = """
    (set-logic ALL)
    (declare-sort Ref 0)
    (declare-const v Ref)
    (declare-const mref (Array Ref (Array Int Ref)))
    (declare-const alloc (Array Ref Bool))
    (declare-const w Ref)
    (assert (forall ((i Int)) (select alloc (select (select mref v) i))))
    (assert (not (select alloc w)))
    """
    assert answer(base + "(assert (= w (select (select mref v) 1)))(check-sat)") \
        == "unsat"
    assert answer(base + "(check-sat)") == "sat"


def test_distinctness_axiom_gives_sat_with_distinct_refs():
    # a satisfiable aliasing question on a two-level map: the inner refs are
    # forced distinct, cross-checked against the interpreter semantics where
    # fresh rows mint distinct references
    out = run("""
    (set-logic ALL)
    (declare-sort Ref 0)
    (declare-const v Ref)
    (declare-const mref (Array Ref (Array Int Ref)))
    (declare-const r0 Ref)(declare-const r1 Ref)
    (assert (forall ((i Int) (j Int))
      (or (= i j) (not (= (select (select mref v) i) (select (select mref v) j))))))
    (assert (= r0 (select (select mref v) 0)))
    (assert (= r1 (select (select mref v) 1)))
    (check-sat)(get-value (r0 r1))""")
    lines = out.splitlines()
    assert lines[0] == "sat"
    pairs = dict((p[0], p[1]) for p in read_sexprs(lines[1])[0])
    assert pairs["r0"] != pairs["r1"]


def test_negative_quantifier_is_unknown():
    assert answer("""
    (declare-const m (Array Int Int))
    (assert (not (forall ((i Int)) (= (select m i) 0))))
    (check-sat)""") == "unknown"


def test_session_reset():
    out = run("(assert false)(check-sat)(reset)(assert true)(check-sat)")
    assert out.splitlines() == ["unsat", "sat"]


def test_echo():
    assert run('(echo "ping")') == "ping"


def test_stray_close_paren_is_an_error_and_serving_continues():
    lines = run(")(check-sat)").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("(error")
    assert lines[1] == "sat"


def test_get_model():
    out = run("""
    (declare-const x Int)
    (assert (= x 3))
    (check-sat)(get-model)""")
    assert "define-fun x () Int 3" in out


# -- the executable over real pipes ----------------------------------------------

def test_subprocess_protocol():
    script = """
    (set-logic ALL)
    (declare-const x Int)
    (assert (> x 10))
    (check-sat)
    (get-value (x))
    (exit)
    """
    proc = subprocess.run([sys.executable, "-m", "solverify.smt.cli"],
                          input=script, capture_output=True, text=True,
                          timeout=120)
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "sat"
    assert lines[1].startswith("((x ")


def test_check_smt_respects_smt_solver_env(monkeypatch):
    from solverify.engine.queries import SmtQuery
    from solverify.engine import smtio
    monkeypatch.setenv("SMT_SOLVER",
                       f"{sys.executable} -m solverify.smt.cli")
    try:
        q = SmtQuery(text="(assert true)(check-sat)(exit)", slots={}, selectors=[])
        assert smtio.check_smt(q, smtio.SolverConfig(timeout=60)).status == "sat"
    finally:
        smtio.close_sessions()


def test_solver_crashed_on_missing_binary(tmp_path):
    from solverify.engine.queries import SmtQuery
    from solverify.engine import smtio
    q = SmtQuery(text="(check-sat)", slots={}, selectors=[])
    with pytest.raises(smtio.SolverUnavailable):
        smtio.check_smt(q, smtio.SolverConfig(str(tmp_path / "nope"), timeout=5))


def test_timeout_yields_unknown():
    from solverify.engine.queries import SmtQuery
    from solverify.engine import smtio
    argv = f"{sys.executable} -c 'import time; time.sleep(60)'"
    q = SmtQuery(text="(check-sat)", slots={}, selectors=[])
    try:
        assert smtio.check_smt(q, smtio.SolverConfig(argv, timeout=1.0)).status == "unknown"
    finally:
        smtio.close_sessions()


def test_solver_crashed_carries_stderr_tail(tmp_path):
    from solverify.engine.queries import SmtQuery
    from solverify.engine import smtio
    fake = tmp_path / "fake_solver.py"
    fake.write_text("import sys\n"
                    "sys.stdin.readline()\n"
                    "sys.stderr.write('loading\\nfatal: out of memory\\n')\n"
                    "sys.exit(3)\n")
    q = SmtQuery(text="(check-sat)", slots={}, selectors=[])
    try:
        with pytest.raises(smtio.SolverCrashed) as info:
            smtio.check_smt(q, smtio.SolverConfig(f"{sys.executable} {fake}",
                                                  timeout=30))
    finally:
        smtio.close_sessions()
    assert str(info.value).endswith("fatal: out of memory")
    assert not isinstance(info.value, smtio.SolverUnavailable)


# -- the SAT core against an independent oracle ------------------------------------

def _cnfs():
    def clauses(n):
        lit = st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v]))
        return st.lists(st.lists(lit, min_size=2, max_size=3), min_size=n, max_size=40)
    return st.integers(3, 12).flatmap(lambda n: st.tuples(st.just(n), clauses(n)))


@settings(max_examples=300, deadline=None)
@given(_cnfs())
def test_sat_core_agrees_with_enumeration(case):
    nvars, clauses = case
    model = _sat_solve(clauses, nvars)
    if model is None:
        for bits in itertools.product((False, True), repeat=nvars):
            assert not all(any(bits[abs(l) - 1] == (l > 0) for l in c)
                           for c in clauses), "unsat, but enumeration finds a model"
    else:
        assert all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def _cycle_script(n: int, escape: bool) -> str:
    """x0 < x1 < ... < x(n-1) < x0, each edge forced through its own boolean
    decision; with `escape`, q lets one edge go."""
    lines = [f"(declare-const x{i} Int)(declare-const p{i} Bool)" for i in range(n)]
    lines.append("(declare-const q Bool)")
    for i in range(n):
        edge = f"(< x{i} x{(i + 1) % n})"
        lines.append(f"(assert (or p{i} {edge}))")
        lines.append(f"(assert (or (not p{i}) {edge}{' q' if escape else ''}))")
    return "".join(lines)


@pytest.mark.parametrize("escape", [False, True])
def test_difference_cycle_is_learnt_in_one_search(monkeypatch, escape):
    sat_calls, checks = [], []
    real_sat, real_check = solver._sat_solve, solver.Theory.check
    monkeypatch.setattr(solver, "_sat_solve",
                        lambda *a: sat_calls.append(1) or real_sat(*a))
    monkeypatch.setattr(solver.Theory, "check",
                        lambda self, m: checks.append(1) or real_check(self, m))
    n = 6
    script = parse_script(_cycle_script(n, escape))
    solved = solver.solve(script)
    assert len(sat_calls) == 1 and checks  # theory conflicts learnt in one search
    if not escape:
        assert solved.answer == "unsat"
        return
    assert solved.answer == "sat"
    bank = script.bank
    x = [solved.value_of(bank.sym(f"x{i}", "Int")) for i in range(n)]
    p = [solved.value_of(bank.sym(f"p{i}", "Bool")) for i in range(n)]
    q = solved.value_of(bank.sym("q", "Bool"))
    for i in range(n):
        edge = x[i] < x[(i + 1) % n]
        assert (p[i] or edge) and (not p[i] or edge or q)


# -- term depth ------------------------------------------------------------------

def test_deep_store_chain_through_every_stage():
    depth = 5000
    bank = TermBank()
    x, y = bank.sym("x", INT_S), bank.sym("y", INT_S)
    arr = bank.sym("m", array_sort(INT_S, INT_S))
    for i in range(depth):
        key = bank.mk("+", (x, bank.intval(i)), sort=INT_S)
        arr = bank.mk("store", (arr, key, bank.intval(i + 1)), sort=arr.sort)
    read = bank.mk("select", (arr, x), sort=INT_S)
    goals = [bank.mk("=", (read, bank.intval(1)), sort=BOOL_S),  # boolean ite chain
             bank.mk("=", (read, y), sort=BOOL_S)]                # integer ite chain
    lines = _render_shared(goals)
    script = parse_script("(declare-fun x () Int)(declare-fun y () Int)"
                          "(declare-fun m () (Array Int Int))" + "".join(lines))
    assert _render_shared(script.assertions) == lines
    simp = solver.Simplifier(script.bank)
    roots = [simp.run(a) for a in script.assertions]
    assert [r.op for r in roots] == ["ite", "="]
    lifted = solver.lift_ites(script.bank, roots)
    assert len(lifted) == 2 + 2 * depth  # one symbol and two definitions per ite
    cnf = solver.CNF(script.bank)
    for r in lifted:
        cnf.assert_root(r)
    eq_atoms = [t for t in cnf.atom_terms.values() if t.op == "="]
    assert len(eq_atoms) >= 2 * depth
