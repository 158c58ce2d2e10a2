"""Counterexample traces: extraction from a model and replay validation.

A trace is the ordered transaction list (constructor first), each with the
sender, argument values, and the nondet choices its checker assertions
consumed.  Every reported trace must replay to the same failing assertion in
the IR interpreter; a mismatch is an internal-soundness error, never
reported as a refutation.
"""

from __future__ import annotations

from solverify.engine.queries import SmtQuery
from solverify.engine.smtio import CheckResult
from solverify.engine.unroll import is_nondet_var
from solverify.record import field, record
from solverify.translate import HarnessInfo, Translation
from solverify.vir import ast as I
from solverify.vir.prelude import DTYPE

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


def _scan_nondet_syms(stmt: I.IrStmt, out: list[str]):
    out.extend(s.var for s in I.iter_stmt(stmt)
               if isinstance(s, I.Havoc) and is_nondet_var(s.var))


def _iteration_blocks(body: I.IrStmt, hinfo: HarnessInfo, k: int):
    """Split the unrolled body into the constructor prefix and one statement
    list per iteration, keyed by the renamed sender havoc."""
    stmts = I.seq_list(body)
    boundaries = {f"{hinfo.sender_var}${i}": i for i in range(1, k + 1)}
    prefix: list[I.IrStmt] = []
    blocks: dict[int, list[I.IrStmt]] = {i: [] for i in range(1, k + 1)}
    current = 0
    for s in stmts:
        if isinstance(s, I.Havoc) and s.var in boundaries:
            current = boundaries[s.var]
        (prefix if current == 0 else blocks[current]).append(s)
    return prefix, blocks


def _branch_bodies(block: list[I.IrStmt], choices: list[str]) -> dict[str, I.IrStmt]:
    """Map each renamed choice variable to its dispatch branch body."""
    out: dict[str, I.IrStmt] = {}

    def walk(s: I.IrStmt):
        if isinstance(s, I.If) and isinstance(s.cond, I.Var) and s.cond.name in choices:
            out[s.cond.name] = s.then
            walk(s.els)
        elif isinstance(s, I.Seq):
            for x in s.stmts:
                walk(x)

    for s in block:
        walk(s)
    return out


def _ref_value(raw, null_value) -> int:
    if raw is None:
        return 0
    if raw == null_value:
        return 0
    return int(raw) + REF_SHIFT


def extract_trace(result: CheckResult, query: SmtQuery, unrolled: I.IrProcedure,
                  hinfo: HarnessInfo, tr: Translation, k: int) -> CounterexampleTrace:
    """Reconstruct the transaction sequence from a sat model, then replay it;
    the replayed failure location must match the model's."""
    values = result.values
    null_value = values.get("null", 0)

    def slot(var: str, default=None):
        sym = query.slots.get(var)
        if sym is None:
            return default
        return values.get(sym, default)

    fn_types = {fname: ptypes for fname, _, ptypes in
                [(f, p, t) for f, p, t in tr.public_functions(hinfo.root)]}

    def decode_args(arg_vars: list[str], tys: list[I.IrType]) -> list:
        out = []
        for var, ty in zip(arg_vars, tys):
            raw = slot(var, 0)
            if ty == I.REF:
                out.append(_ref_value(raw, null_value))
            elif ty == I.BOOL:
                out.append(bool(raw))
            else:
                out.append(int(raw) if raw is not None else 0)
        return out

    prefix, blocks = _iteration_blocks(unrolled.body, hinfo, k)

    ctor_nds: list[str] = []
    for s in prefix:
        _scan_nondet_syms(s, ctor_nds)
    ctor_tx = Transaction(
        fn=hinfo.root,
        sender=_ref_value(slot(hinfo.ctor_sender, 0), null_value),
        args=decode_args(hinfo.ctor_args, tr.ctor_params(hinfo.root)),
        nondets=[bool(slot(nd, False)) for nd in ctor_nds],
    )
    transactions = [ctor_tx]

    for i in range(1, k + 1):
        block = blocks[i]
        renamed_choices = [f"{choice}${i}" for choice, _, _, _ in hinfo.branches]
        branch_bodies = _branch_bodies(block, renamed_choices)
        chosen = None
        for (choice, fname, pname, arg_vars) in hinfo.branches:
            if slot(f"{choice}${i}") is True:
                chosen = (choice, fname, arg_vars)
                break
        if chosen is None:
            continue  # iteration made no call
        choice, fname, arg_vars = chosen
        nds: list[str] = []
        body = branch_bodies.get(f"{choice}${i}")
        if body is not None:
            _scan_nondet_syms(body, nds)
        transactions.append(Transaction(
            fn=fname,
            sender=_ref_value(slot(f"{hinfo.sender_var}${i}", 0), null_value),
            args=decode_args([f"{a}${i}" for a in arg_vars], fn_types[fname]),
            nondets=[bool(slot(nd, False)) for nd in nds],
        ))

    failing = ""
    for sel, label in query.selectors:
        if values.get(sel) is True:
            failing = label
            break
    trace = CounterexampleTrace(transactions=transactions, failing_label=failing, k=k)
    trace = _trim_to_failure(tr, hinfo, trace)
    replay_trace(tr, hinfo, trace)  # hard postcondition
    return trace


def _trim_to_failure(tr: Translation, hinfo: HarnessInfo,
                     trace: CounterexampleTrace) -> CounterexampleTrace:
    """Execution stops at the first failing assertion, so transactions the
    model scheduled after it are dropped: replay growing prefixes and keep
    the shortest failing one."""
    for i in range(1, len(trace.transactions) + 1):
        prefix = CounterexampleTrace(transactions=trace.transactions[:i],
                                     failing_label=trace.failing_label, k=trace.k)
        if _replay(tr, hinfo.root, prefix)[1]:
            return prefix
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
    stmts: list[I.IrStmt] = [
        I.Call("New", (), ("inst",)),
        I.Assume(I.op("==", I.select(I.Var(DTYPE), I.Var("inst")),
                      I.NamedConst(root))),
    ]
    tape: list = []
    for tx in trace.transactions:
        if tx.fn == root:
            proc, tys = tr.ctor_proc(root), tr.ctor_params(root)
        else:
            proc, tys = fn_procs[tx.fn]
        args = [_const_for(v, ty) for v, ty in zip(tx.args, tys)]
        stmts.append(I.Call(proc, tuple([I.Var("inst")] + args
                                        + [I.RConst(tx.sender)])))
        tape.extend(tx.nondets)
    driver = I.IrProcedure(name="replay$driver", params=[], returns=[],
                           locals=[("inst", I.REF)], body=I.seq(*stmts))
    return driver, tape


def _replay(tr: Translation, root: str, trace: CounterexampleTrace):
    """Interpret the trace's replay driver: its outcome, and whether that is
    a failed assertion.  The IR interpreter is imported here, so a run that
    replays no trace never loads it."""
    from solverify.vir.interp import AssertFailed, interpret
    driver, tape = build_replay_driver(tr, root, trace)
    program = tr.ir
    saved = program.procedures.get(driver.name)
    program.procedures[driver.name] = driver
    try:
        outcome = interpret(program, driver.name, tape=tape)
    finally:
        if saved is None:
            program.procedures.pop(driver.name, None)
        else:
            program.procedures[driver.name] = saved
    return outcome, isinstance(outcome, AssertFailed)


def replay_trace(tr: Translation, hinfo: HarnessInfo, trace: CounterexampleTrace):
    """Interpret the trace; it must fail the recorded assertion."""
    outcome, failed = _replay(tr, hinfo.root, trace)
    if not failed:
        raise ReplayMismatch(
            f"trace did not fail any assertion on replay ({type(outcome).__name__})")
    if trace.failing_label and outcome.label != trace.failing_label:
        raise ReplayMismatch(
            f"replay failed {outcome.label!r}, model predicted "
            f"{trace.failing_label!r}")
    return outcome
