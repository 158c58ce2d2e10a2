"""Transaction-bounded checking by harness unrolling."""

from __future__ import annotations

import time

from solverify.engine.queries import vc_gen
from solverify.engine.smtio import SolverConfig, check_smt
from solverify.engine.unroll import unroll_harness
from solverify.record import record
from solverify.translate import HARNESS, HarnessInfo, Translation


@record
class BmcOutcome:
    trace: CounterexampleTrace | None
    bound: int  # transactions proven safe: the consecutive unsat prefix
    seconds: float


def bounded_check(tr: Translation, hinfo: HarnessInfo, k_max: int,
                  solver: SolverConfig = SolverConfig()) -> BmcOutcome:
    """Search for a failing transaction sequence of length up to k_max."""
    start = time.monotonic()
    harness = tr.ir.procedures[HARNESS]
    bound = 0
    for k in range(1, k_max + 1):
        unrolled = unroll_harness(tr.ir, harness, k)
        _, query = vc_gen(tr.ir, unrolled)
        result = check_smt(query, solver, f"main_bmc_{k}")
        if result.status == "unsat" and bound == k - 1:
            bound = k  # an unknown answer ends the provable range
        if result.status == "sat":
            from solverify.engine.trace import extract_trace
            trace = extract_trace(result, query, unrolled, hinfo, tr, k)
            return BmcOutcome(trace=trace, bound=bound,
                              seconds=time.monotonic() - start)
    return BmcOutcome(trace=None, bound=bound, seconds=time.monotonic() - start)
