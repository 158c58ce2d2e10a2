"""Contract-invariant inference by iterative candidate weakening.

Start from the full candidate pool conjoined; each round discharges, per
procedure, a query asking whether some execution from a state satisfying the
remaining conjunction (the constructor runs from an arbitrary state) ends in
a state violating one of them.  Counterexample models name the violated
candidates, which are removed in a batch per round; the loop stops when a
round removes nothing, in at most one round per candidate.

During inference, assertions inside bodies block the execution like
assumptions (the fixpoint is over non-failing executions); a final pass
re-checks every body assertion under the inferred conjunction and yields the
all-asserts-verified flag.  A solver `unknown`, or a `sat` whose model names
no live candidate, sends the round to one query per candidate, and any
answer but `unsat` there refutes that candidate: this can only weaken the
result, never unsoundly strengthen it.
"""

from __future__ import annotations

import time

from solverify.engine.queries import QueryBuilder
from solverify.engine.smtio import SolverConfig, check_smt
from solverify.engine.unroll import Inliner
from solverify.record import record
from solverify.translate import HarnessInfo, Translation
from solverify.vir import ast as I
from solverify.vir.prelude import dtype_is


@record
class HoudiniResult:
    invariant: list[CandidatePredicate]
    all_asserts_verified: bool
    rounds: int
    queries: int
    seconds: float


def _asserts_to_assumes(s: I.IrStmt) -> I.IrStmt:
    return I.map_stmt(s, lambda x: I.Assume(x.cond) if isinstance(x, I.Assert) else None)


@record
class _ProcCheck:
    name: str
    is_ctor: bool
    body: I.IrStmt            # inlined, loop-free
    locals: list[tuple[str, I.IrType]]


def _build_checks(tr: Translation, hinfo: HarnessInfo) -> list[_ProcCheck]:
    """One inlined call per procedure: the constructor on a freshly
    allocated instance, each public function on an existing one."""
    root = hinfo.root
    is_root = I.Assume(dtype_is(I.Var("inst"), tr.consts[root]))
    entries = [(tr.procs[root, None], True, tr.ctor_params(root),
                I.Alloc("inst", contract=tr.consts[root]))]
    entries += [(pname, False, list(ptypes), is_root)
                for _, pname, ptypes in tr.public_functions(root)]
    checks: list[_ProcCheck] = []
    for name, is_ctor, ptypes, pre in entries:
        args = [I.Var(f"a{i}") for i in range(len(ptypes))]
        locals_ = [("inst", I.REF), ("snd", I.REF)] + \
            [(f"a{i}", ty) for i, ty in enumerate(ptypes)]
        call = I.Call(name, tuple([I.Var("inst")] + args + [I.Var("snd")]))
        inliner = Inliner(tr.ir)
        body = inliner.inline(I.seq(pre, call))
        checks.append(_ProcCheck(name=name, is_ctor=is_ctor, body=body,
                                 locals=locals_ + inliner.new_locals))
    return checks


def _proc_query(tr: Translation, check: _ProcCheck,
                entry: list[CandidatePredicate],
                exit_candidates: list[CandidatePredicate],
                asserts_live: bool):
    body = check.body if asserts_live else _asserts_to_assumes(check.body)
    qb = QueryBuilder(tr.ir)
    qb.init_proc(check.locals)
    true_t = qb.bank.boolval(True)
    if not check.is_ctor:
        qb.hypotheses.extend(qb.term(cand.expr) for cand in entry)
    qb.exec_stmt(body, true_t)
    # the constructor check binds inst from the allocation it performs
    for cand in exit_candidates:
        qb.obligations.append((true_t, qb.term(cand.expr), f"cand:{cand.text}"))
    return qb.refutation_query()


def houdini_infer(tr: Translation, hinfo: HarnessInfo,
                  candidates: list[CandidatePredicate],
                  solver: SolverConfig = SolverConfig()) -> HoudiniResult:
    start = time.monotonic()
    checks = _build_checks(tr, hinfo)
    remaining = list(candidates)
    rounds = 0
    queries = 0

    while True:
        rounds += 1
        removed: dict[str, CandidatePredicate] = {}
        for check in checks:
            if not remaining:
                break
            live = [c for c in remaining if c.text not in removed]
            if not live:
                break
            query = _proc_query(tr, check, live, live, asserts_live=False)
            queries += 1
            result = check_smt(query, solver, f"{check.name}_houdini_{rounds}")
            if result.status == "unsat":
                continue
            if result.status == "sat":
                named = {label.removeprefix("cand:") for sel, label in query.selectors
                         if result.value(sel) is True}
                hit = [c for c in live if c.text in named]
                if hit:
                    removed.update((c.text, c) for c in hit)
                    continue
            # unknown, or sat with no model naming a live candidate: fall back
            # to per-candidate checks, refuting on anything but unsat
            for i, cand in enumerate(live):
                single = _proc_query(tr, check, live, [cand], asserts_live=False)
                queries += 1
                r = check_smt(single, solver, f"{check.name}_houdini_{rounds}_cand{i}")
                if r.status != "unsat":
                    removed[cand.text] = cand
        if not removed:
            break
        remaining = [c for c in remaining if c.text not in removed]

    flag = True
    for check in checks:
        query = _proc_query(tr, check, remaining, [], asserts_live=True)
        queries += 1
        result = check_smt(query, solver, f"{check.name}_houdini_final")
        if result.status != "unsat":
            flag = False
            break

    return HoudiniResult(invariant=remaining, all_asserts_verified=flag,
                         rounds=rounds, queries=queries,
                         seconds=time.monotonic() - start)
