"""Independent oracles: exhaustive breadth-first search over transaction
sequences (ground truth for bounded checking), the finitization that makes
the bounded check comparable with it, and brute-force greatest inductive
subset (ground truth for invariant inference)."""

from __future__ import annotations

import contextlib
import functools
import itertools
from unittest import mock

from solverify.engine import bmc
from solverify.engine.candidates import CandidatePredicate
from solverify.engine.houdini import _build_checks, _proc_query
from solverify.engine.queries import vc_gen
from solverify.engine.smtio import SolverConfig, check_smt
from solverify.engine.unroll import harness_var
from solverify.translate import CTOR_SENDER, HARNESS, SENDER, HarnessInfo, Translation
from solverify.vir import ast as I
from solverify.vir.interp import Interp, MapValue
from solverify.vir.prelude import DTYPE


def _snapshot(interp: Interp):
    return ({name: (v.copy() if isinstance(v, MapValue) else v)
             for name, v in interp.state.globals.items()},
            interp.state.alloc_counter)


def _restore(interp: Interp, snap):
    globals_, counter = snap
    interp.state.globals = {name: (v.copy() if isinstance(v, MapValue) else v)
                            for name, v in globals_.items()}
    interp.state.alloc_counter = counter


def _digest(value):
    if isinstance(value, MapValue):
        return tuple(sorted((k, _digest(v)) for k, v in value.entries.items()))
    return value


def _state_digest(interp: Interp):
    return tuple(sorted((name, _digest(v))
                        for name, v in interp.state.globals.items()))


def _run_call(interp: Interp, tr: Translation, proc_name: str, inst, args,
              sender, nondets):
    interp.tape = list(nondets)
    interp.tape_pos = 0
    proc = tr.ir.procedures[proc_name]
    from solverify.vir.interp import _AssertSignal, _BlockSignal
    try:
        interp.exec_proc(proc, [inst] + list(args) + [sender])
        return "ok", None
    except _AssertSignal as sig:
        return "assert", sig.label
    except _BlockSignal:
        return "blocked", None


def _nondet_count(tr: Translation, proc_name: str) -> int:
    proc = tr.ir.procedures[proc_name]
    import re
    return sum(1 for name, ty in proc.locals if re.match(r"^nd\d+$", name))


@contextlib.contextmanager
def pinned_inputs(tr: Translation, hinfo: HarnessInfo, senders: list[int],
                  int_args: list[int]):
    """Within the block, `bmc.bounded_check` searches the domains of
    `bfs_search`: in each query it encodes, every havoc of a harness input
    is followed by an assume that pins it (senders to the id pool `senders`,
    integer arguments to `int_args`, reference arguments to the pool or
    null).  Trace extraction still gets the unpinned procedure: it renames
    the model's references, which the pins (reference literals) would not
    survive, and a model of the pinned query is one of the unpinned one."""
    harness = tr.ir.procedures[HARNESS]
    local_types = dict(harness.params + harness.returns + harness.locals)
    arg_bases = set(hinfo.ctor_args)
    for _, _, _, arg_vars in hinfo.branches:
        arg_bases.update(arg_vars)

    def domain(var: str) -> list[I.IrExpr]:
        base = harness_var(var)
        if base in (CTOR_SENDER, SENDER):
            return [I.RConst(v) for v in senders]
        if base in arg_bases and local_types.get(base) == I.INT:
            return [I.IConst(v) for v in int_args]
        if base in arg_bases and local_types.get(base) == I.REF:
            return [I.RConst(v) for v in senders] + [I.RConst(0)]
        return []

    def pin(s: I.IrStmt) -> I.IrStmt | None:
        if not isinstance(s, I.Havoc) or not (values := domain(s.var)):
            return None
        cases = [I.op("==", I.Var(s.var), v) for v in values]
        return I.seq(s, I.Assume(functools.reduce(
            lambda a, b: I.op("||", a, b), cases)))

    def pinned_vc_gen(program: I.IrProgram, proc: I.IrProcedure):
        return vc_gen(program, I.IrProcedure(
            proc.name, proc.params, proc.returns, proc.locals,
            I.map_stmt(proc.body, pin)))

    with mock.patch.object(bmc, "vc_gen", pinned_vc_gen):
        yield


def bfs_search(tr: Translation, hinfo: HarnessInfo, k_max: int,
               senders: list[int], int_args: list[int]):
    """Exhaustive search over transaction sequences of length <= k_max (the
    constructor excluded from the count, matching the loop bound).  Returns
    (k, trace, label) for the shallowest assertion failure or None."""
    root = hinfo.root

    def arg_space(tys):
        pools = []
        for ty in tys:
            if ty == I.REF:
                pools.append(list(senders))
            elif ty == I.BOOL:
                pools.append([False, True])
            else:
                pools.append(list(int_args))
        return list(itertools.product(*pools))

    fns = [(f, p, t) for f, p, t in tr.public_functions(root)]
    ctor_tys = tr.ctor_params(root)
    ctor_proc = tr.procs[root, None]

    frontier = []
    seen = set()
    for sender in senders:
        for args in arg_space(ctor_tys):
            for nds in itertools.product([False, True],
                                         repeat=_nondet_count(tr, ctor_proc)):
                interp = Interp(tr.ir)
                inst = interp.state.fresh_ref()
                interp.state.globals["Alloc"].entries[inst] = True
                interp.state.globals[DTYPE].entries[inst] = \
                    tr.ir.constants[tr.consts[root]]
                status, label = _run_call(interp, tr, ctor_proc, inst,
                                          list(args), sender, nds)
                trace = [(root, sender, list(args), list(nds))]
                if status == "assert":
                    return 0, trace, label
                if status == "ok":
                    digest = _state_digest(interp)
                    if digest not in seen:
                        seen.add(digest)
                        frontier.append((_snapshot(interp), inst, trace))

    for k in range(1, k_max + 1):
        next_frontier = []
        for snap, inst, trace in frontier:
            for fname, pname, ptys in fns:
                for sender in senders:
                    for args in arg_space(ptys):
                        for nds in itertools.product(
                                [False, True],
                                repeat=_nondet_count(tr, pname)):
                            interp = Interp(tr.ir)
                            _restore(interp, snap)
                            status, label = _run_call(
                                interp, tr, pname, inst, list(args), sender, nds)
                            step = trace + [(fname, sender, list(args), list(nds))]
                            if status == "assert":
                                return k, step, label
                            if status == "ok":
                                digest = _state_digest(interp)
                                if digest not in seen:
                                    seen.add(digest)
                                    next_frontier.append(
                                        (_snapshot(interp), inst, step))
        frontier = next_frontier
    return None


def inductive(tr: Translation, checks, subset: list[CandidatePredicate],
              solver: SolverConfig = SolverConfig(timeout=60.0)) -> bool:
    """Is the conjunction of `subset` established by the constructor and
    preserved by every public function (assertions blocking, not failing)?"""
    for check in checks:
        query = _proc_query(tr, check, subset, subset, asserts_live=False)
        if check_smt(query, solver).status != "unsat":
            return False
    return True


def greatest_inductive_subset(tr: Translation, hinfo: HarnessInfo,
                              candidates: list[CandidatePredicate]) -> list[str]:
    """Union of all inductive subsets, by enumeration (pools of size <= 8)."""
    assert len(candidates) <= 8
    checks = _build_checks(tr, hinfo)
    union: set[str] = set()
    for mask in range(1 << len(candidates)):
        subset = [c for i, c in enumerate(candidates) if mask & (1 << i)]
        if set(c.text for c in subset) <= union:
            continue
        if inductive(tr, checks, subset):
            union |= {c.text for c in subset}
    return sorted(union)
