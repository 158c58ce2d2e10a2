"""Transaction-bounded checking by harness unrolling."""

from __future__ import annotations

import time

from solverify.engine.queries import vc_gen
from solverify.engine.smtio import SolverConfig, check_smt
from solverify.engine.unroll import unroll_harness
from solverify.record import field, record
from solverify.translate import HarnessInfo, Translation
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
    sender_bases = {hinfo.ctor_sender, hinfo.sender_var}

    def pin(s: I.IrStmt) -> I.IrStmt | None:
        if not isinstance(s, I.Havoc):
            return None
        base = s.var.split("$", 1)[0]
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
    k_reached: int
    seconds: float
    statuses: list[str] = field(default_factory=list)

    def safe_bound(self) -> int:
        """Transactions proven safe: the consecutive unsat prefix.  Unknown
        answers end the provable range."""
        bound = 0
        for status in self.statuses:
            if status != "unsat":
                break
            bound += 1
        return bound


def bounded_check(tr: Translation, hinfo: HarnessInfo, k_max: int,
                  solver: SolverConfig = SolverConfig(),
                  domains: Domains | None = None) -> BmcOutcome:
    """Search for a failing transaction sequence of length up to k_max."""
    start = time.monotonic()
    harness = tr.ir.procedures[hinfo.proc]
    local_types = dict(harness.params + harness.returns + harness.locals)
    statuses = []
    for k in range(1, k_max + 1):
        unrolled = checked = unroll_harness(tr.ir, harness, k)
        if domains is not None:
            checked = I.IrProcedure(
                name=unrolled.name, params=unrolled.params,
                returns=unrolled.returns, locals=unrolled.locals,
                body=_restrict(unrolled.body, hinfo, domains, local_types))
        _, query = vc_gen(tr.ir, checked)
        result = check_smt(query, solver, f"main_bmc_{k}")
        statuses.append(result.status)
        if result.status == "sat":
            from solverify.engine.trace import extract_trace
            # extraction renames the model's references, which the domain
            # pins (reference literals) would not survive; a model of the
            # pinned query is one of the unpinned procedure
            trace = extract_trace(result, query, unrolled, hinfo, tr, k)
            return BmcOutcome(trace=trace, k_reached=k,
                              seconds=time.monotonic() - start,
                              statuses=statuses)
    return BmcOutcome(trace=None, k_reached=k_max,
                      seconds=time.monotonic() - start, statuses=statuses)
