"""Counterexample traces: extraction from a model and replay validation.

A trace is the ordered transaction list (constructor first), each with the
sender, argument values, and the nondet choices its checker assertions
consumed.  It is read off one execution: the query's unrolled procedure runs
in the IR interpreter with the model's values for its havoc'd inputs, and
the inputs that run consumes, up to its first failing assertion, are the
transactions.  The reported trace is then replayed once through a driver
that calls the transactions with literal arguments; it must fail the same
assertion, and a mismatch is an internal-soundness error, never reported as
a refutation.
"""

from __future__ import annotations

from solverify.engine.queries import SmtQuery
from solverify.engine.smtio import CheckResult
from solverify.engine.unroll import harness_var
from solverify.record import field, record
from solverify.translate import CTOR_SENDER, SENDER, HarnessInfo, Translation
from solverify.vir import ast as I
from solverify.vir.prelude import new_instance

# Keeps model reference values clear of interpreter-allocated ids on replay.
REF_SHIFT = 10_000


class ReplayMismatch(Exception):
    pass


@record
class Transaction:
    fn: str
    sender: int
    args: list = field(default_factory=list)
    nondets: list[bool] = field(default_factory=list)


@record
class CounterexampleTrace:
    transactions: list[Transaction]
    failing_label: str
    k: int = 0


def _input_values(query: SmtQuery, values: dict, unrolled: I.IrProcedure,
                  program: I.IrProgram, harness_refs: set[str]) -> dict:
    """The model's value for each havoc'd int and bool slot, and for the
    Ref slots named (up to the iteration suffix) in `harness_refs`; other
    references, New's, stay fresh."""
    null_value = values.get("null", 0)
    inputs = {}
    for var, sym in query.slots.items():
        ty, raw = program.var_type(unrolled, var), values.get(sym)
        if ty == I.REF:
            if harness_var(var) in harness_refs:
                inputs[var] = 0 if raw is None or raw == null_value \
                    else int(raw) + REF_SHIFT
        elif ty == I.BOOL:
            inputs[var] = raw is True
        elif ty == I.INT:
            inputs[var] = int(raw) if raw is not None else 0
    return inputs


def extract_trace(result: CheckResult, query: SmtQuery, unrolled: I.IrProcedure,
                  hinfo: HarnessInfo, tr: Translation, k: int) -> CounterexampleTrace:
    """Run the unrolled procedure on the model's inputs and read the
    transactions off the path it takes: iteration i's call is the first
    branch whose choice is true, with that branch's arguments and the
    nondets executed in the iteration.  The trace is then replayed."""
    from solverify.vir.interp import AssertFailed, interpret
    choices = {choice: fname for choice, fname, _, _ in hinfo.branches}
    arg_vars = {a for _, _, _, vs in hinfo.branches for a in vs} | set(hinfo.ctor_args)
    inputs = _input_values(query, result.values, unrolled, tr.ir,
                           arg_vars | {CTOR_SENDER, SENDER})
    outcome = interpret(tr.ir, unrolled, inputs=inputs)
    if not isinstance(outcome, AssertFailed):
        raise ReplayMismatch(f"model did not fail any assertion of {unrolled.name} "
                             f"({type(outcome).__name__})")
    tx = Transaction(fn=hinfo.root, sender=0)
    transactions = [tx]
    for var, value in outcome.state.inputs_taken:
        base = harness_var(var)
        if base == SENDER:  # a new iteration; its call is still unknown
            tx = Transaction(fn="", sender=value)
            transactions.append(tx)
        elif base == CTOR_SENDER:
            tx.sender = value
        elif base in choices:
            if value and not tx.fn:
                tx.fn = choices[base]
        elif base in arg_vars:
            tx.args.append(value)
        else:  # a nondet choice of a checker
            tx.nondets.append(value)
    trace = CounterexampleTrace(transactions=[t for t in transactions if t.fn],
                                failing_label=outcome.label, k=k)
    replay_trace(tr, hinfo, trace)  # hard postcondition
    return trace


def _const_for(value, ty: I.IrType) -> I.IrExpr:
    if ty == I.REF:
        return I.RConst(int(value))
    if ty == I.BOOL:
        return I.BConst(bool(value))
    return I.IConst(int(value))


def build_replay_driver(tr: Translation, root: str,
                        trace: CounterexampleTrace) -> tuple[I.IrProcedure, list]:
    """Driver procedure calling the trace's transactions with literal
    arguments; the tape is the concatenated nondet segments."""
    fn_procs = {f: (p, t) for f, p, t in tr.public_functions(root)}
    stmts = new_instance("inst", tr.consts[root])
    tape: list = []
    for tx in trace.transactions:
        if tx.fn == root:
            proc, tys = tr.procs[root, None], tr.ctor_params(root)
        else:
            proc, tys = fn_procs[tx.fn]
        args = [_const_for(v, ty) for v, ty in zip(tx.args, tys)]
        stmts.append(I.Call(proc, tuple([I.Var("inst")] + args
                                        + [I.RConst(tx.sender)])))
        tape.extend(tx.nondets)
    driver = I.IrProcedure(name="replay$driver", params=[], returns=[],
                           locals=[("inst", I.REF)], body=I.seq(*stmts))
    return driver, tape


def replay_trace(tr: Translation, hinfo: HarnessInfo, trace: CounterexampleTrace):
    """Interpret the trace's replay driver; it must fail the recorded
    assertion.  The IR interpreter is imported here, so a run that replays
    no trace never loads it."""
    from solverify.vir.interp import AssertFailed, TapeExhausted, interpret
    driver, tape = build_replay_driver(tr, hinfo.root, trace)
    try:
        outcome = interpret(tr.ir, driver, tape=tape, strict_tape=True)
    except TapeExhausted:
        raise ReplayMismatch("trace ran out of nondet choices on replay") from None
    if not isinstance(outcome, AssertFailed):
        raise ReplayMismatch(
            f"trace did not fail any assertion on replay ({type(outcome).__name__})")
    if outcome.label != trace.failing_label:
        raise ReplayMismatch(
            f"replay failed {outcome.label!r}, trace records "
            f"{trace.failing_label!r}")
    return outcome
