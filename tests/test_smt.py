"""Units for the bundled SMT solver and the process interface."""

import io
import itertools
import math
import operator
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conftest import run_smt
from solverify.engine.queries import _render_shared
from solverify.smt import solver
from solverify.smt.cli import serve
from solverify.smt.solver import _sat_solve
from solverify.smt.terms import (
    BOOL_S, INT_S, TermBank, array_sort, parse_script, read_sexprs,
)


def answer(script: str) -> str:
    return run_smt(script).splitlines()[0]


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
    out = run_smt("""
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
    out = run_smt("""
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


_ALIASED_ROWS = """
    (declare-sort Ref 0)
    (declare-const u Ref)(declare-const v Ref)(declare-const b Bool)
    (declare-const mref (Array Ref (Array Int Ref)))
    (declare-const alloc (Array Ref Bool))
    (assert (forall ((i Int)) (select alloc (select (select mref v) i))))
    (assert (not (select alloc (select (select mref u) 1))))
    """


@pytest.mark.parametrize("alias", ["(assert (= u v))",
                                   "(assert (or b (= u v)))(assert (not b))"])
def test_triggers_match_modulo_may_equal_terms(alias):
    # no ground term reads row v: the trigger matches row u because u and v
    # may be equal, whatever the polarity of the equality
    assert answer(_ALIASED_ROWS + alias + "(check-sat)") == "unsat"


def test_every_covering_pattern_is_a_trigger():
    # only new[r] is ground: the first axiom fires on its `new` side, and
    # its instance's old[r] fires the second axiom in the next round
    assert answer("""
    (declare-sort Ref 0)(declare-const r Ref)
    (declare-const old (Array Ref Bool))(declare-const new (Array Ref Bool))
    (assert (forall ((i Ref)) (=> (select old i) (select new i))))
    (assert (forall ((i Ref)) (select old i)))
    (assert (not (select new r)))
    (check-sat)""") == "unsat"


def test_bound_variable_under_no_trigger_is_unknown():
    assert answer("""
    (declare-const x Int)
    (assert (forall ((i Int)) (<= i x)))
    (check-sat)""") == "unknown"


def test_nested_maps_houdini_query_needs_few_instances(tmp_path, monkeypatch):
    from conftest import fixture_path
    from solverify.cli import main
    main(["verify", "--mode", "assertions", "--sol", fixture_path("nested_maps.sol"),
          "--root", "C", "--k", "0", "--dump-smt", str(tmp_path)])
    instances = []
    instantiate = solver._instantiate
    monkeypatch.setattr(solver, "_instantiate",
                        lambda *args: instances.extend(instantiate(*args)) or instances)
    assert answer((tmp_path / "C_Ctor_houdini_final.smt2").read_text()) == "unsat"
    assert 0 < len(instances) < 100


@st.composite
def _allocation_queries(draw):
    """(quantified script, the same with every axiom replaced by its
    instances at every ground term of its bound sort): 2-4 references,
    disjunctions of (dis)equalities and reads over them, and one or two
    axioms shaped like the heap encoding's.  The axioms have a common model
    (`old` all false, `alloc` all true, injective rows), as the encoding's
    do, so a contradiction always runs through a term of the query."""
    refs = [f"r{n}" for n in range(draw(st.integers(2, 4)))]
    ref = st.sampled_from(refs)
    row_read = st.builds("(select (select mref {}) {})".format, ref, st.sampled_from("01"))
    term = st.one_of(ref, row_read)
    atom = st.one_of(st.builds("(= {} {})".format, term, term),
                     st.builds("(select {} {})".format, st.sampled_from(["old", "alloc"]), term))
    literal = st.builds(lambda a, neg: f"(not {a})" if neg else a, atom, st.booleans())
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=2), min_size=2, max_size=6))
    ground = ("(declare-sort Ref 0)" + "".join(f"(declare-const {r} Ref)" for r in refs)
              + "(declare-const mref (Array Ref (Array Int Ref)))"
              + "(declare-const old (Array Ref Bool))(declare-const alloc (Array Ref Bool))"
              + "".join(f"(assert (or {' '.join(c)}))" for c in clauses))
    row = "(select (select mref {r}) {{{v}}})"
    axiom = st.one_of(
        st.builds(lambda r: ({"i": "Int"}, f"(not (select old {row.format(r=r, v='i')}))"), ref),
        st.builds(lambda r: ({"i": "Int"}, f"(select alloc {row.format(r=r, v='i')})"), ref),
        st.builds(lambda r: ({"i": "Int", "j": "Int"},
                             f"(or (= {{i}} {{j}}) (not (= {row.format(r=r, v='i')} "
                             f"{row.format(r=r, v='j')})))"), ref),
        st.sampled_from([({"x": "Ref"}, "(=> (select old {x}) (select alloc {x}))"),
                         ({"x": "Ref"}, "(not (select old {x}))"),
                         ({"x": "Ref"}, "(select alloc {x})")]))
    axioms = draw(st.lists(axiom, min_size=1, max_size=2))
    universe = {"Int": sorted(set(re.findall(r"mref r\d\) (\d)", ground))),
                "Ref": refs + sorted(set(re.findall(r"\(select \(select mref r\d\) \d\)", ground)))}
    quantified, grounded = ground, ground
    for bound, body in axioms:
        binders = " ".join(f"({v} {sort})" for v, sort in bound.items())
        quantified += f"(assert (forall ({binders}) {body.format(**{v: v for v in bound})}))"
        for combo in itertools.product(*(universe[sort] for sort in bound.values())):
            grounded += f"(assert {body.format(**dict(zip(bound, combo)))})"
    return quantified, grounded


@settings(max_examples=300, deadline=None)
@given(_allocation_queries())
def test_trigger_matching_refutes_what_full_grounding_refutes(case):
    quantified, grounded = case
    if answer(grounded + "(check-sat)") == "unsat":
        assert answer(quantified + "(check-sat)") == "unsat"


def test_session_reset():
    out = run_smt("(assert false)(check-sat)(reset)(assert true)(check-sat)")
    assert out.splitlines() == ["unsat", "sat"]


def test_echo():
    assert run_smt('(echo "ping")') == "ping"


def test_stray_close_paren_is_an_error_and_serving_continues():
    lines = run_smt(")(check-sat)").splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("(error")
    assert lines[1] == "sat"


def test_comments_and_strings_do_not_split_commands():
    out = run_smt('(echo "a (b) ; c") ; note (\n(assert true) ; )\n(check-sat)')
    assert out.splitlines() == ["a (b) ; c", "sat"]


def test_each_command_is_answered_before_the_next_line_is_read():
    # an interactive pipe: the next line is written only after the answer
    out = io.StringIO()
    lines = ["(assert true)\n", "(check-sat)\n", "(reset)(assert false)\n",
             "(check-sat)\n"]
    answers_seen = []

    class Pipe:
        def readline(self):
            answers_seen.append(out.getvalue().split())
            return lines.pop(0) if lines else ""

    serve(Pipe(), out)
    assert answers_seen == [[], [], ["sat"], ["sat"], ["sat", "unsat"]]


def test_get_model():
    out = run_smt("""
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


# -- difference logic with disequalities ----------------------------------------

def _int_values(out: str) -> dict[str, int]:
    """The integers of a `get-value` answer, by name."""
    def num(v):
        return -int(v[1]) if isinstance(v, list) else int(v)
    return {name: num(v) for name, v in read_sexprs(out.splitlines()[1])[0]}


def test_disequality_against_a_lower_bound_is_separated():
    out = run_smt("""
    (declare-const x Int)
    (assert (>= x 3))(assert (not (= x 3)))
    (check-sat)(get-value (x))""")
    assert out.splitlines()[0] == "sat"
    assert _int_values(out)["x"] > 3


def test_disequality_against_a_forced_value_is_unsat():
    assert answer("""
    (declare-const x Int)
    (assert (>= x 3))(assert (<= x 3))(assert (not (= x 3)))
    (check-sat)""") == "unsat"


def test_disequality_over_terms_without_edges_is_tested():
    # y and z occur in no bound: without potentials of their own the
    # disequality went untested and the model failed validation (unknown)
    out = run_smt("""
    (declare-const x Int)(declare-const y Int)(declare-const z Int)
    (assert (> x 0))(assert (or (<= x 0) (not (= z (+ y (- 1))))))
    (check-sat)(get-value (x y z))""")
    assert out.splitlines()[0] == "sat"
    v = _int_values(out)
    assert v["x"] > 0 and v["z"] != v["y"] - 1


def test_disequality_term_shares_its_congruence_class_potential():
    # f(b) occurs in no bound, but a = b makes it f(a), which the bounds
    # force to z: a potential of its own would answer sat
    assert answer("""
    (declare-fun a () Int)(declare-fun b () Int)(declare-fun z () Int)
    (declare-fun f (Int) Int)
    (assert (= a b))(assert (<= (f a) z))(assert (>= (f a) z))
    (assert (not (= (f b) z)))
    (check-sat)""") == "unsat"


def test_forced_disequality_conflict_blames_both_bounds():
    # with x <= 3 chosen, x = 3 is forced by both bounds; a conflict that
    # dropped x <= 3 would rule out x >= 5 as well
    out = run_smt("""
    (declare-const x Int)
    (assert (>= x 3))(assert (or (>= x 5) (<= x 3)))(assert (not (= x 3)))
    (check-sat)(get-value (x))""")
    assert out.splitlines()[0] == "sat"
    assert _int_values(out)["x"] >= 5


@pytest.mark.parametrize("depth", [150, 250])
def test_deep_congruence_is_explained(depth):
    def apply(v):
        for _ in range(depth):
            v = f"(f {v})"
        return v
    assert answer(f"""
    (declare-sort U 0)(declare-fun f (U) U)
    (declare-const a U)(declare-const b U)
    (assert (= a b))(assert (not (= {apply("a")} {apply("b")})))
    (check-sat)""") == "unsat"


_DL_VARS = ("x", "y", "z")


@st.composite
def _dl_cnfs(draw):
    """(names, clauses of (SMT-LIB text, evaluator) atoms): x - y <= c,
    x >= c, x <= c, x != y + c and x != c over two or three of x, y, z, with
    c in [-3, 3].  Disjunctions matter: a conflict that blames too few
    literals only prunes a model when the search can turn elsewhere."""
    names = _DL_VARS[:draw(st.integers(2, 3))]
    var = st.sampled_from(range(len(names)))
    c = st.integers(-3, 3)

    def num(k):
        return str(k) if k >= 0 else f"(- {-k})"

    def diff_le(i, j, k):
        return (f"(<= (- {names[i]} {names[j]}) {num(k)})",
                lambda v: v[i] - v[j] <= k)

    def ge(i, k):
        return f"(>= {names[i]} {num(k)})", lambda v: v[i] >= k

    def le(i, k):
        return f"(<= {names[i]} {num(k)})", lambda v: v[i] <= k

    def ne_offset(i, j, k):
        return (f"(not (= {names[i]} (+ {names[j]} {num(k)})))",
                lambda v: v[i] != v[j] + k)

    def ne_const(i, k):
        return f"(not (= {names[i]} {num(k)}))", lambda v: v[i] != k

    atom = st.one_of(st.builds(diff_le, var, var, c), st.builds(ge, var, c),
                     st.builds(le, var, c), st.builds(ne_offset, var, var, c),
                     st.builds(ne_const, var, c))
    return names, draw(st.lists(st.lists(atom, min_size=1, max_size=2),
                                min_size=1, max_size=7))


@settings(max_examples=300, deadline=None)
@given(_dl_cnfs())
def test_difference_logic_agrees_with_enumeration(case):
    names, clauses = case

    def holds(clause, v):
        return any(ev(v) for _, ev in clause)

    script = "".join(f"(declare-const {n} Int)" for n in names)
    for clause in clauses:
        script += f"(assert (or {' '.join(text for text, _ in clause)}))"
    out = run_smt(script + f"(check-sat)(get-value ({' '.join(names)}))")
    got = out.splitlines()[0]
    if got == "sat":
        values = _int_values(out)
        assert all(holds(c, [values[n] for n in names]) for c in clauses)
    elif got == "unsat":  # constants are within 3: a model, if any, lies in this box
        models = list(itertools.product(range(-12, 13), repeat=len(names)))
        for clause in clauses:
            models = [v for v in models if holds(clause, v)]
        assert not models, "unsat, but enumeration finds a model"


# -- term depth ------------------------------------------------------------------

def _store_chain(bank, keys, x):
    arr = bank.sym("m", array_sort(INT_S, INT_S))
    for i, key in enumerate(keys):
        arr = bank.mk("store", (arr, key, bank.intval(i + 1)), sort=arr.sort)
    return bank.mk("select", (arr, x), sort=INT_S)


def test_deep_store_chain_through_every_stage():
    # fresh keys k_i keep every store test `(= k_i x)` undecided, so the
    # read stays a chain of `depth` ites through every stage
    depth = 5000
    bank = TermBank()
    x, y = bank.sym("x", INT_S), bank.sym("y", INT_S)
    read = _store_chain(bank, [bank.sym(f"k{i}", INT_S) for i in range(depth)], x)
    goals = [bank.mk("=", (read, bank.intval(1)), sort=BOOL_S),  # boolean ite chain
             bank.mk("=", (read, y), sort=BOOL_S)]                # integer ite chain
    lines = _render_shared(goals)
    script = parse_script("(declare-fun x () Int)(declare-fun y () Int)"
                          "(declare-fun m () (Array Int Int))"
                          + "".join(f"(declare-fun k{i} () Int)" for i in range(depth))
                          + "".join(lines))
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


def test_offset_key_store_chain_reads_the_stored_constant():
    # keys x + i differ from x by a constant, so every store test is decided
    # and the read collapses before CNF
    depth = 5000
    bank = TermBank()
    x = bank.sym("x", INT_S)
    keys = [bank.mk("+", (x, bank.intval(i)), sort=INT_S) for i in range(depth)]
    simp = solver.Simplifier(bank)
    assert simp.run(_store_chain(bank, keys, x)) is bank.intval(1)


def test_linearize_deep_sum_is_iterative_and_memoised():
    depth = 5000
    bank = TermBank()
    x, one = bank.sym("x", INT_S), bank.intval(1)
    t = x
    for _ in range(depth):
        t = bank.mk("+", (t, one), sort=INT_S)
    memo = {}
    assert solver.linearize(t, memo) == (depth, {x: 1})
    assert len(memo) == depth + 2  # each sum, x and the constant 1, once


def _linear_terms(bank, syms):
    leaf = st.one_of(st.sampled_from(syms),
                     st.integers(-4, 4).map(bank.intval))

    def grow(sub):
        def mk(op):
            return lambda args: bank.mk(op, tuple(args), sort=INT_S)
        consts = st.integers(-3, 3).map(bank.intval)
        return st.one_of(
            st.lists(sub, min_size=2, max_size=3).map(mk("+")),
            st.lists(sub, min_size=2, max_size=3).map(mk("-")),
            sub.map(lambda a: bank.mk("neg", (a,), sort=INT_S)),
            st.tuples(consts, sub).map(mk("*")),
            st.tuples(sub, consts, consts).map(mk("*")))
    return st.recursive(leaf, grow, max_leaves=12)


def _evaluate(t, env):
    """Direct integer evaluation, independent of `linearize`."""
    if t.op == "intval":
        return t.value
    if t.op == "sym":
        return env[t.value]
    vals = [_evaluate(a, env) for a in t.args]
    if t.op == "+":
        return sum(vals)
    if t.op == "-":
        return vals[0] - sum(vals[1:])
    if t.op == "neg":
        return -vals[0]
    if t.op == "*":
        return math.prod(vals)
    compare = {"=": operator.eq, "<": operator.lt, "<=": operator.le,
               ">": operator.gt, ">=": operator.ge}[t.op]
    return compare(*vals)


def _commuted(bank, t):
    """`t` with every sum's arguments reversed: the same value, another term."""
    if not t.args:
        return t
    args = [_commuted(bank, a) for a in t.args]
    if t.op == "+":
        args.reverse()
    return bank.mk(t.op, tuple(args), sort=t.sort)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_linear_fold_agrees_with_evaluation(data):
    bank = TermBank()
    names = ["a", "b", "c"][:data.draw(st.integers(2, 3))]
    syms = [bank.sym(n, INT_S) for n in names]
    terms = _linear_terms(bank, syms)
    lhs = data.draw(terms)
    if data.draw(st.booleans()):  # a constant offset of lhs: always decided
        offset = bank.intval(data.draw(st.integers(-2, 2)))
        rhs = bank.mk("+", (_commuted(bank, lhs), offset), sort=INT_S)
    else:
        rhs = data.draw(terms)
    envs = data.draw(st.lists(st.fixed_dictionaries(
        {n: st.integers(-6, 6) for n in names}), min_size=1, max_size=5))
    simp = solver.Simplifier(bank)
    for t in (lhs, rhs):
        const, coeffs = solver.linearize(t, simp.linear)
        for env in envs:
            assert const + sum(v * env[k.value] for k, v in coeffs.items()) \
                == _evaluate(t, env)
    for op in ("=", "<", "<=", ">", ">="):
        atom = bank.mk(op, (lhs, rhs), sort=BOOL_S)
        folded = simp.run(atom)
        if folded.op == "boolval":
            assert all(_evaluate(atom, env) == folded.value for env in envs)
