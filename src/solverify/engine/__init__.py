"""Assertion discharge: contract-invariant inference, bounded model checking
over the unrolled harness, SMT process interface, and counterexample
replay."""

from solverify.engine.verify import (  # noqa: F401
    FullyVerified, PartiallyVerified, Refuted, verify,
)
from solverify.engine.smtio import (  # noqa: F401
    CheckResult, SolverConfig, SolverCrashed, check_smt, solver_argv,
)
from solverify.engine.trace import CounterexampleTrace, ReplayMismatch, Transaction  # noqa: F401
