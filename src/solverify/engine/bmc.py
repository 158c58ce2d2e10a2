"""Transaction-bounded checking by harness unrolling."""

from __future__ import annotations

import time

from solverify.engine.queries import vc_gen
from solverify.engine.smtio import SolverConfig, check_smt
from solverify.engine.unroll import harness_var, unroll_harness
from solverify.record import field, record
from solverify.translate import CTOR_SENDER, HARNESS, SENDER, HarnessInfo, Translation
from solverify.vir import ast as I


@record
class Domains:
    """Optional finitization: restrict havoc'd harness inputs to small
    domains (integer arguments by value; senders to a fixed id pool)."""

    int_args: list[int] = field(default_factory=list)
    senders: list[int] = field(default_factory=list)


def _restrict(stmt: I.IrStmt, hinfo: HarnessInfo, domains: Domains,
              local_types: dict[str, I.IrType]) -> I.IrStmt:
    """Insert assumes after havocs of harness inputs, pinning them to the
    domain values."""
    arg_bases = {a for a in hinfo.ctor_args}
    for _, _, _, arg_vars in hinfo.branches:
        arg_bases.update(arg_vars)
    sender_bases = {CTOR_SENDER, SENDER}

    def pin(s: I.IrStmt) -> I.IrStmt | None:
        if not isinstance(s, I.Havoc):
            return None
        base = harness_var(s.var)
        ty = local_types.get(base)
        if base in sender_bases and domains.senders:
            values = [I.RConst(v) for v in domains.senders]
        elif base in arg_bases and ty == I.INT and domains.int_args:
            values = [I.IConst(v) for v in domains.int_args]
        elif base in arg_bases and ty == I.REF and domains.senders:
            values = [I.RConst(v) for v in domains.senders] + [I.RConst(0)]
        else:
            return None
        return I.seq(s, I.Assume(I.disj(*[I.op("==", I.Var(s.var), v)
                                          for v in values])))

    return I.map_stmt(stmt, pin)


@record
class BmcOutcome:
    trace: CounterexampleTrace | None
    bound: int  # transactions proven safe: the consecutive unsat prefix
    seconds: float


def bounded_check(tr: Translation, hinfo: HarnessInfo, k_max: int,
                  solver: SolverConfig = SolverConfig(),
                  domains: Domains | None = None) -> BmcOutcome:
    """Search for a failing transaction sequence of length up to k_max."""
    start = time.monotonic()
    harness = tr.ir.procedures[HARNESS]
    local_types = dict(harness.params + harness.returns + harness.locals)
    bound = 0
    for k in range(1, k_max + 1):
        unrolled = checked = unroll_harness(tr.ir, harness, k)
        if domains is not None:
            checked = I.IrProcedure(
                name=unrolled.name, params=unrolled.params,
                returns=unrolled.returns, locals=unrolled.locals,
                body=_restrict(unrolled.body, hinfo, domains, local_types))
        _, query = vc_gen(tr.ir, checked)
        result = check_smt(query, solver, f"main_bmc_{k}")
        if result.status == "unsat" and bound == k - 1:
            bound = k  # an unknown answer ends the provable range
        if result.status == "sat":
            from solverify.engine.trace import extract_trace
            # extraction renames the model's references, which the domain
            # pins (reference literals) would not survive; a model of the
            # pinned query is one of the unpinned procedure
            trace = extract_trace(result, query, unrolled, hinfo, tr, k)
            return BmcOutcome(trace=trace, bound=bound,
                              seconds=time.monotonic() - start)
    return BmcOutcome(trace=None, bound=bound, seconds=time.monotonic() - start)
