import pytest

from oracles import bfs_search, greatest_inductive_subset
from solverify.engine import verify
from solverify.engine.bmc import Domains, bounded_check
from solverify.engine.candidates import CandidatePredicate, generate_candidates
from solverify.engine.houdini import houdini_infer
from solverify.engine.queries import vc_gen
from solverify.engine.smtio import SolverConfig, check_smt
from solverify.engine.unroll import RecursionDepthExceeded, rename_stmt, unroll_harness
from solverify.policy import parse_policy
from solverify.sol import desugar_modifiers, parse_contract, typecheck
from solverify.instrument import instrument_for_conformance
from solverify.translate import generate_harness, translate_program
from solverify.vir import ast as I
from solverify.vir.prelude import emit_prelude

SENDERS = [10001, 10002, 10003]


def build(src: str, policy_text: str | None = None, root: str | None = None):
    program = desugar_modifiers(typecheck(parse_contract(src)))
    policy = None
    if policy_text is not None:
        policy = parse_policy(policy_text)
        program = desugar_modifiers(instrument_for_conformance(program, policy))
    tr = translate_program(program)
    if root is None:
        root = program.contracts[0].name
    hinfo = generate_harness(tr, root)
    return tr, hinfo, policy


# -- candidate generation ------------------------------------------------------------

def synthetic_policy(n_roles: int, n_states: int) -> tuple[str, str]:
    roles = [f"Role{i}" for i in range(n_roles)]
    states = [f"S{i}" for i in range(n_states)]
    import json
    doc = {
        "ApplicationName": "Synth",
        "ApplicationRoles": [{"Name": r} for r in (roles or ["R"])],
        "Workflows": [{
            "Name": "Synth", "Initiators": [], "StartState": states[0],
            "States": states,
            "Properties": [{"Name": f"Var{i}", "Type": roles[i]}
                           for i in range(n_roles)],
            "Constructor": {"Parameters": []},
            "Functions": [], "Transitions": [],
        }],
    }
    src_vars = "\n".join(f"    address public Var{i};" for i in range(n_roles))
    src = f"""
    contract Synth {{
        enum StateType {{{', '.join(states)}}}
        StateType public State;
{src_vars}
    }}
    """
    return json.dumps(doc), src


def test_candidate_count_two_roles_nine_states():
    policy_text, src = synthetic_policy(2, 9)
    tr, hinfo, policy = build(src, policy_text, root="Synth")
    cands = generate_candidates(tr, policy, "Synth")
    # 2*C(2,2) pair + 2*2 null + 2*9 state constants
    assert len(cands) == 2 + 4 + 18


def test_candidate_count_zero_roles_one_state():
    policy_text, src = synthetic_policy(0, 1)
    tr, hinfo, policy = build(src, policy_text, root="Synth")
    cands = generate_candidates(tr, policy, "Synth")
    assert len(cands) == 2
    assert {c.text for c in cands} == {"State == StateType.S0",
                                       "State != StateType.S0"}


def test_helloblockchain_candidates_include_requestor_nonnull(
        hb_source, hb_policy_text):
    tr, hinfo, policy = build(hb_source, hb_policy_text, "HelloBlockchain")
    cands = generate_candidates(tr, policy, "HelloBlockchain")
    assert "Requestor != 0x0" in {c.text for c in cands}
    assert len(cands) == 2 + 4 + 4


# -- custom candidate pools over plain contracts ----------------------------------------

def int_candidates(tr, contract, var, values):
    from solverify.translate import state_map_name
    out = []
    for v in values:
        for op in ("==", "!="):
            out.append(CandidatePredicate(
                lhs_map=state_map_name(var, contract), op=op,
                rhs_kind="stateconst", rhs=v, text=f"{var} {op} {v}"))
    return out


COUNTER_KEEPS_ONE = """
contract K {
    int x;
    constructor() public { x = 1; }
    function F() public { assert(x == 1); }
}
"""


def test_houdini_keeps_established_candidate():
    tr, hinfo, _ = build(COUNTER_KEEPS_ONE)
    pool = int_candidates(tr, "K", "x", [1, 2])
    pool = [c for c in pool if c.op == "=="]  # {x == 1, x == 2}
    result = houdini_infer(tr, hinfo, pool)
    assert [c.text for c in result.invariant] == ["x == 1"]
    assert result.all_asserts_verified


def test_houdini_empty_pool_flag_tracks_asserts():
    tr, hinfo, _ = build(COUNTER_KEEPS_ONE)
    result = houdini_infer(tr, hinfo, [])
    assert result.invariant == []
    assert not result.all_asserts_verified  # x==1 is not provable from true

    tr2, hinfo2, _ = build("""
    contract K {
        int x;
        constructor() public { x = 1; }
        function F() public { assert(x == x); }
    }
    """)
    result2 = houdini_infer(tr2, hinfo2, [])
    assert result2.invariant == []
    assert result2.all_asserts_verified


def test_houdini_monotone_rounds_bound():
    tr, hinfo, _ = build(COUNTER_KEEPS_ONE)
    pool = int_candidates(tr, "K", "x", [0, 1, 2, 3])
    result = houdini_infer(tr, hinfo, pool)
    assert result.rounds <= len(pool) + 2
    texts = {c.text for c in result.invariant}
    assert "x == 1" in texts and "x != 0" in texts


# -- Houdini maximality against brute force ------------------------------------------

MUTUAL = """
contract M {
    int x;
    int y;
    constructor() public { x = 0; y = 0; }
    function F() public { x = y; }
    function G() public { y = x; }
}
"""

DRIFT = """
contract D {
    int x;
    constructor() public { x = 0; }
    function Inc() public { x = x + 1; }
}
"""

GUARDED = """
contract G {
    int x;
    int lock;
    constructor() public { x = 0; lock = 0; }
    function Set(int v) public { require(lock == 0); x = v; lock = 1; }
}
"""

OWNERISH = """
contract O {
    address owner;
    address buyer;
    constructor() public { require(msg.sender != 0x0); owner = msg.sender; }
    function Offer() public {
        require(msg.sender != 0x0);
        require(msg.sender != owner);
        buyer = msg.sender;
    }
}
"""


def ref_candidates(tr, contract, pairs):
    from solverify.translate import state_map_name
    out = []
    for lhs, op, rhs in pairs:
        if rhs == "0x0":
            out.append(CandidatePredicate(
                lhs_map=state_map_name(lhs, contract), op=op, rhs_kind="null",
                rhs=None, text=f"{lhs} {op} 0x0"))
        else:
            out.append(CandidatePredicate(
                lhs_map=state_map_name(lhs, contract), op=op,
                rhs_kind="statevar", rhs=state_map_name(rhs, contract),
                text=f"{lhs} {op} {rhs}"))
    return out


@pytest.mark.parametrize("case", ["mutual", "drift", "guarded", "ownerish",
                                  "counter"])
def test_houdini_matches_brute_force(case):
    if case == "mutual":
        tr, hinfo, _ = build(MUTUAL)
        pool = [c for c in int_candidates(tr, "M", "x", [0]) if c.op == "=="]
        pool += [CandidatePredicate(lhs_map="y_M", op="==", rhs_kind="stateconst",
                                    rhs=0, text="y == 0")]
    elif case == "drift":
        tr, hinfo, _ = build(DRIFT)
        pool = int_candidates(tr, "D", "x", [0, 5])  # none survives
    elif case == "guarded":
        tr, hinfo, _ = build(GUARDED)
        pool = int_candidates(tr, "G", "lock", [0, 1])
    elif case == "ownerish":
        tr, hinfo, _ = build(OWNERISH)
        pool = ref_candidates(tr, "O", [
            ("owner", "!=", "0x0"), ("owner", "==", "0x0"),
            ("owner", "!=", "buyer"), ("owner", "==", "buyer")])
    else:
        tr, hinfo, _ = build(COUNTER_KEEPS_ONE)
        pool = int_candidates(tr, "K", "x", [1, 2])
    assert len(pool) <= 8
    result = houdini_infer(tr, hinfo, pool)
    expected = greatest_inductive_subset(tr, hinfo, pool)
    assert sorted(c.text for c in result.invariant) == expected


# -- unrolling --------------------------------------------------------------------

def test_unroll_k0_constructor_only(hb_source):
    tr, hinfo, _ = build(hb_source)
    harness = tr.ir.procedures["main"]
    unrolled = unroll_harness(tr.ir, harness, 0)
    text = str(unrolled.body)
    assert "choice" not in text
    assert "HelloBlockchain_Ctor" not in text  # calls are inlined away
    assert "While" not in text and "Call" not in text


def test_unroll_k2_two_dispatch_blocks(hb_source):
    tr, hinfo, _ = build(hb_source)
    unrolled = unroll_harness(tr.ir, tr.ir.procedures["main"], 2)
    text = str(unrolled.body)
    for var in ("choice0$1", "choice1$1", "choice0$2", "choice1$2",
                "sender$1", "sender$2"):
        assert var in text


def test_unroll_inner_loop_blocking_assume():
    src = """
    contract L {
        int x;
        function F() public { while (x < 10) { x = x + 1; } }
    }
    """
    tr, hinfo, _ = build(src)
    unrolled = unroll_harness(tr.ir, tr.ir.procedures["main"], 1)
    text = str(unrolled.body)
    assert "While" not in text
    assert text.count("Assume(cond=Op(op='!'") >= 1


def test_rename_stmt_leaves_forall_bound_variable_alone():
    body = I.seq(I.Havoc("i"),
                 I.Assume(I.Forall("i", I.INT, I.op("==", I.Var("i"), I.Var("x")))))
    renamed = rename_stmt(body, {"i": "i$1", "x": "x$1"})
    assert renamed == I.seq(
        I.Havoc("i$1"),
        I.Assume(I.Forall("i", I.INT, I.op("==", I.Var("i"), I.Var("x$1")))))


def test_recursion_depth_exceeded():
    src = """
    contract R {
        int x;
        function F() public { G(); }
        function G() public { F(); }
    }
    """
    tr, hinfo, _ = build(src)
    with pytest.raises(RecursionDepthExceeded):
        unroll_harness(tr.ir, tr.ir.procedures["main"], 1)


# -- vc_gen ---------------------------------------------------------------------

def test_vcgen_assert_false_sat():
    prog = emit_prelude()
    proc = I.IrProcedure("p", [], [], [], I.Assert(I.BConst(False), "x"))
    prog.procedures["p"] = proc
    _, query = vc_gen(prog, proc)
    assert check_smt(query, SolverConfig(timeout=60)).status == "sat"


def test_vcgen_blocked_path_unsat():
    prog = emit_prelude()
    proc = I.IrProcedure("p", [], [], [], I.seq(
        I.Assume(I.BConst(False)), I.Assert(I.BConst(False), "x")))
    prog.procedures["p"] = proc
    _, query = vc_gen(prog, proc)
    assert check_smt(query, SolverConfig(timeout=60)).status == "unsat"


def test_vcgen_instrumented_hb_k4_unsat(hb_source, hb_policy_text):
    tr, hinfo, _ = build(hb_source, hb_policy_text, "HelloBlockchain")
    unrolled = unroll_harness(tr.ir, tr.ir.procedures["main"], 4)
    _, query = vc_gen(tr.ir, unrolled)
    assert check_smt(query, SolverConfig(timeout=300)).status == "unsat"


# -- bounded checking versus exhaustive search -----------------------------------------

COUNTER_K3 = """
contract C3 {
    int x;
    constructor() public { x = 0; }
    function Inc() public { x = x + 1; assert(x <= 2); }
}
"""

TOGGLE_SAFE = """
contract T {
    int s;
    constructor() public { s = 0; }
    function Toggle() public { s = 1 - s; }
    function Check() public { assert(s == 0 || s == 1); }
}
"""

ORDERED = """
contract Ord {
    int flag;
    constructor() public { flag = 0; }
    function Arm() public { flag = 1; }
    function Fire() public { require(flag == 1); assert(false); }
}
"""

ARGDEP = """
contract Arg {
    int x;
    constructor() public { x = 0; }
    function Set(int v) public { require(v == 2); x = v; }
    function Check() public { assert(x != 2); }
}
"""

SENDERDEP = """
contract S {
    address owner;
    int hits;
    constructor() public { owner = msg.sender; }
    function Poke() public {
        if (msg.sender == owner) { hits = hits + 1; }
        assert(hits <= 1);
    }
}
"""

FINITIZED = [
    ("counter", COUNTER_K3, 3),
    ("toggle", TOGGLE_SAFE, None),
    ("ordered", ORDERED, 2),
    ("argdep", ARGDEP, 2),
    ("senderdep", SENDERDEP, 2),
]


@pytest.mark.parametrize("name,src,expected_k", FINITIZED)
def test_bmc_agrees_with_exhaustive_search(name, src, expected_k):
    tr, hinfo, _ = build(src)
    domains = Domains(int_args=[0, 1, 2], senders=SENDERS)
    outcome = bounded_check(tr, hinfo, k_max=4, domains=domains,
                            solver=SolverConfig(timeout=120))
    found = bfs_search(tr, hinfo, 4, senders=SENDERS, int_args=[0, 1, 2])
    if expected_k is None:
        assert outcome.trace is None
        assert found is None
    else:
        assert found is not None and found[0] == expected_k
        assert outcome.trace is not None
        assert outcome.k_reached == expected_k
        # transactions: constructor + k calls
        assert len(outcome.trace.transactions) == expected_k + 1


def test_pinned_domains_extract_with_any_sender_pool():
    """Extraction renames the model's references, so it must not run the
    domain pins (reference literals) that only narrowed the search."""
    tr, hinfo, _ = build(SENDERDEP)
    outcome = bounded_check(tr, hinfo, k_max=3,
                            domains=Domains(int_args=[0, 1, 2], senders=[5, 7]),
                            solver=SolverConfig(timeout=120))
    assert outcome.k_reached == 2
    assert [tx.fn for tx in outcome.trace.transactions] == ["S", "Poke", "Poke"]


def test_counter_unreachable_at_k2():
    tr, hinfo, _ = build(COUNTER_K3)
    outcome = bounded_check(tr, hinfo, k_max=2, solver=SolverConfig(timeout=120))
    assert outcome.trace is None
    assert bfs_search(tr, hinfo, 2, senders=SENDERS[:1], int_args=[0]) is None


# -- trace extraction and replay ---------------------------------------------------

def test_trace_for_parameterless_assert():
    src = """
    contract P {
        int x;
        constructor() public { x = 0; }
        function Boom() public { assert(false); }
    }
    """
    tr, hinfo, _ = build(src)
    outcome = bounded_check(tr, hinfo, k_max=2, solver=SolverConfig(timeout=120))
    assert outcome.trace is not None
    fns = [tx.fn for tx in outcome.trace.transactions]
    assert fns == ["P", "Boom"]


def test_initial_state_bug_trace_length_one(hb_source, hb_policy_text):
    src = hb_source.replace(
        "RequestMessage = message;\n        State = StateType.Request;",
        "RequestMessage = message;\n        State = StateType.Respond;")
    tr, hinfo, _ = build(src, hb_policy_text, "HelloBlockchain")
    outcome = bounded_check(tr, hinfo, k_max=2, solver=SolverConfig(timeout=120))
    assert outcome.k_reached == 1
    assert len(outcome.trace.transactions) == 1
    assert "initial state" in outcome.trace.failing_label


def test_refuted_traces_replay(hb_source, hb_policy_text):
    # replay is exercised inside extract_trace; a successful bounded check
    # of a buggy fixture is itself the property
    src = hb_source.replace("State = StateType.Respond;", "State = StateType.Request;")
    tr, hinfo, _ = build(src, hb_policy_text, "HelloBlockchain")
    outcome = bounded_check(tr, hinfo, k_max=3, solver=SolverConfig(timeout=180))
    assert outcome.trace is not None
    assert outcome.trace.failing_label.startswith("HelloBlockchain.SendResponse")


# -- verify: the three outcomes ----------------------------------------------------

def test_verify_fully_verified(hb_source, hb_policy_text):
    tr, hinfo, policy = build(hb_source, hb_policy_text, "HelloBlockchain")
    result = verify(tr, hinfo, policy=policy, k_max=3)
    assert result.verdict == "FullyVerified"


def test_verify_refuted_at_k1(hb_source, hb_policy_text):
    src = hb_source.replace(
        "RequestMessage = message;\n        State = StateType.Request;",
        "RequestMessage = message;\n        State = StateType.Respond;")
    tr, hinfo, policy = build(src, hb_policy_text, "HelloBlockchain")
    result = verify(tr, hinfo, policy=policy, k_max=3)
    assert result.verdict == "Refuted"
    assert result.k == 1


def test_verify_partially_verified_disjunctive_invariant():
    tr, hinfo, _ = build(TOGGLE_SAFE)
    pool = int_candidates(tr, "T", "s", [0, 1])
    result = verify(tr, hinfo, candidates=pool, k_max=3)
    assert result.verdict == "PartiallyVerified"
    assert result.bound == 3
    # no failure exists up to the bound (exhaustive confirmation)
    assert bfs_search(tr, hinfo, 3, senders=SENDERS[:1], int_args=[0]) is None


def test_fully_verified_invariant_is_sufficient_on_recheck():
    """Independent re-verification: the returned invariant re-establishes
    itself through the constructor, is preserved by every function, and
    discharges every assertion (all negation queries unsat)."""
    from oracles import inductive
    from solverify.engine.houdini import _build_checks, _proc_query

    tr, hinfo, policy = build(
        open("tests/fixtures/assettransfer_fixed.sol").read(),
        open("tests/fixtures/assettransfer.json").read(), "AssetTransfer")
    result = verify(tr, hinfo, policy=policy, k_max=2)
    assert result.verdict == "FullyVerified"
    checks = _build_checks(tr, hinfo)
    assert inductive(tr, checks, result.invariant)
    for check in checks:
        query = _proc_query(tr, check, result.invariant, [], asserts_live=True)
        assert check_smt(query, SolverConfig(timeout=120)).status == "unsat", check.name


def test_nested_contract_creation_initial_state_bug():
    """Two workflows, one contract creating the other: the nested
    constructor's checker fires when the inner initial state is never set."""
    tr, hinfo, policy = build(open("tests/fixtures/bazaar_buggy.sol").read(),
                              open("tests/fixtures/bazaar.json").read(),
                              "Bazaar")
    result = verify(tr, hinfo, policy=policy, k_max=3)
    assert result.verdict == "Refuted"
    assert [tx.fn for tx in result.trace.transactions] == ["Bazaar", "ListItem"]
    assert result.trace.failing_label.startswith("Listing.Listing")

    fixed_src = open("tests/fixtures/bazaar_buggy.sol").read().replace(
        "        // the initial state is never set and defaults to ItemSold",
        "        State = StateType.ItemAvailable;")
    tr2, hinfo2, policy2 = build(fixed_src,
                                 open("tests/fixtures/bazaar.json").read(),
                                 "Bazaar")
    fixed = verify(tr2, hinfo2, policy=policy2, k_max=3)
    assert fixed.verdict == "FullyVerified"


def test_replay_mismatch_on_fabricated_trace(hb_source, hb_policy_text):
    """A trace that does not actually fail is rejected loudly, never
    reported as a refutation."""
    import pytest as _pytest
    from solverify.engine.trace import (
        CounterexampleTrace, ReplayMismatch, Transaction, replay_trace,
    )
    tr, hinfo, _ = build(hb_source, hb_policy_text, "HelloBlockchain")
    fake = CounterexampleTrace(
        transactions=[Transaction(fn="HelloBlockchain", sender=10001,
                                  args=[7], nondets=[True])],
        failing_label="HelloBlockchain.HelloBlockchain: initial state must be Request")
    with _pytest.raises(ReplayMismatch):
        replay_trace(tr, hinfo, fake)


def test_unknown_solver_answers_shrink_the_safety_claim(tmp_path, monkeypatch):
    """A solver that cannot decide anything yields no safety claim: the
    invariant phase refutes conservatively and the bounded phase reports a
    zero proven bound instead of pretending the range was covered."""
    import sys
    fake = tmp_path / "unknown_solver.py"
    fake.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    line = line.strip()\n"
        "    if line.startswith('(check-sat'):\n"
        "        print('unknown', flush=True)\n"
        "    elif line.startswith('(echo'):\n"
        "        print(line.split('\"')[1], flush=True)\n"
        "    elif line.startswith('(exit'):\n"
        "        break\n")
    solver = f"{sys.executable} {fake}"
    tr, hinfo, _ = build(COUNTER_KEEPS_ONE)
    pool = int_candidates(tr, "K", "x", [1])
    dump = tmp_path / "smt"
    result = verify(tr, hinfo, candidates=pool, k_max=3,
                    solver=SolverConfig(solver, dump_dir=str(dump)))
    assert result.verdict == "PartiallyVerified"
    assert result.bound == 0
    assert result.invariant == []  # every candidate conservatively dropped
    # every query is dumped under its own name, per-candidate fallbacks too
    dumped = sorted(p.name for p in dump.iterdir())
    assert len(dumped) == result.houdini.queries + 3
    assert "K_Ctor_houdini_1_cand0.smt2" in dumped and "main_bmc_3.smt2" in dumped


def test_modelless_sat_answers_do_not_prove(tmp_path, hb_source, hb_policy_text):
    """A solver that answers sat but withholds the model names no candidate
    to remove.  Houdini then checks candidates one at a time instead of
    keeping them all, so a contradictory conjunction never proves the
    assertions: the invariant is the one the full solver infers."""
    import os
    import sys

    import solverify
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(solverify.__file__)))
    fake = tmp_path / "modelless_solver.py"
    fake.write_text(
        "import sys\n"
        f"sys.path.insert(0, {src_dir!r})\n"
        "from solverify.smt import cli\n"
        "handle = cli.Session.handle\n"
        "def withhold(self, sx):\n"
        "    if isinstance(sx, list) and sx and sx[0] == 'get-value':\n"
        "        self.emit('(error \"model withheld\")')\n"
        "        return True\n"
        "    return handle(self, sx)\n"
        "cli.Session.handle = withhold\n"
        "cli.serve(sys.stdin, sys.stdout)\n")
    solver = SolverConfig(f"{sys.executable} {fake}", timeout=120)

    buggy = hb_source.replace("State = StateType.Respond;", "State = StateType.Request;")
    tr, hinfo, policy = build(buggy, hb_policy_text, "HelloBlockchain")
    pool = generate_candidates(tr, policy, hinfo.root)
    withheld = houdini_infer(tr, hinfo, pool, solver)
    full = houdini_infer(tr, hinfo, pool, SolverConfig(timeout=120))
    assert withheld.all_asserts_verified is False
    assert sorted(c.text for c in withheld.invariant) == \
        sorted(c.text for c in full.invariant)

    tr, hinfo, policy = build(open("tests/fixtures/assettransfer_buggy.sol").read(),
                              open("tests/fixtures/assettransfer.json").read(),
                              "AssetTransfer")
    result = verify(tr, hinfo, policy=policy, k_max=3, solver=solver)
    assert result.verdict == "PartiallyVerified"
    assert result.bound == 3
