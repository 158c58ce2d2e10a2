"""Three-phase verification driver.

Phase 1 infers a contract invariant and, when it also discharges every
assertion, the program is fully verified.  Otherwise phase 2 hunts for a
counterexample by unrolling the harness up to the transaction bound; a model
becomes a replayed trace.  If every bound is exhausted without a hit, the
result records safety up to that bound.
"""

from __future__ import annotations

import time

from solverify.engine.bmc import BmcOutcome, bounded_check
from solverify.engine.houdini import HoudiniResult, houdini_infer
from solverify.engine.smtio import SolverConfig
from solverify.record import field, record
from solverify.translate import HarnessInfo, Translation


@record
class Timings:
    invariant_seconds: float = 0.0
    bmc_seconds: float = 0.0
    total_seconds: float = 0.0


@record
class FullyVerified:
    invariant: list[CandidatePredicate]
    houdini: HoudiniResult
    timings: Timings = field(default_factory=Timings)

    verdict = "FullyVerified"


@record
class Refuted:
    trace: CounterexampleTrace
    k: int
    houdini: HoudiniResult
    timings: Timings = field(default_factory=Timings)

    verdict = "Refuted"


@record
class PartiallyVerified:
    bound: int
    houdini: HoudiniResult
    invariant: list[CandidatePredicate] = field(default_factory=list)
    timings: Timings = field(default_factory=Timings)

    verdict = "PartiallyVerified"


def verify(tr: Translation, hinfo: HarnessInfo, policy: Policy | None = None,
           k_max: int = 6, solver: SolverConfig = SolverConfig(),
           candidates: list[CandidatePredicate] | None = None):
    """FullyVerified, Refuted (with replayed trace), or PartiallyVerified."""
    start = time.monotonic()
    timings = Timings()

    if candidates is None and policy:
        from solverify.engine.candidates import generate_candidates
        candidates = generate_candidates(tr, policy, hinfo.root)
    houdini = houdini_infer(tr, hinfo, candidates or [], solver=solver)
    timings.invariant_seconds = houdini.seconds
    if houdini.all_asserts_verified:
        timings.total_seconds = time.monotonic() - start
        return FullyVerified(invariant=houdini.invariant, houdini=houdini,
                             timings=timings)

    outcome: BmcOutcome = bounded_check(tr, hinfo, k_max, solver=solver)
    timings.bmc_seconds = outcome.seconds
    timings.total_seconds = time.monotonic() - start
    if outcome.trace is not None:
        return Refuted(trace=outcome.trace, k=outcome.trace.k,
                       houdini=houdini, timings=timings)
    return PartiallyVerified(bound=outcome.bound, houdini=houdini,
                             invariant=houdini.invariant, timings=timings)
