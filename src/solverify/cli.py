"""End-to-end driver.

`solverify verify` wires policy ingestion, the frontend, instrumentation,
translation, and verification, then renders a human-readable report (plus an
optional machine-readable JSON one).  Exit codes: 0 fully verified, 1
refuted, 2 partially verified, 3 input error, 4 internal error (a crash of
the verifier or of its solver, never a verdict).

A verifying run starts its solver before it imports the pipeline, so the
solver starts up beside the front end.  Pipeline modules are imported where
a run first needs them: an assertions-mode run never loads the policy ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from solverify import InputError, __version__
from solverify.engine import smtio
from solverify.engine.smtio import SolverConfig
from solverify.record import field, record

EXIT_FULLY_VERIFIED = 0
EXIT_REFUTED = 1
EXIT_PARTIAL = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4

REPORT_SCHEMA_VERSION = 1


class NotConformant(InputError):
    """The contracts do not match the policy syntactically."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__("not syntactically conformant: " + "; ".join(diagnostics))


@record
class RunConfig:
    mode: str = "conformance"  # conformance | assertions | instrument-only
    sol_paths: list[str] = field(default_factory=list)
    policy_path: str | None = None
    root: str | None = None
    k_max: int = 6
    solver: SolverConfig = SolverConfig()
    emit_instrumented: str | None = None
    runtime_checks: bool = False
    emit_ir: str | None = None
    report_json: str | None = None


def render_trace(trace: CounterexampleTrace) -> str:
    """One numbered line per transaction plus a failing-assert footer;
    arguments are in Solidity spelling."""
    lines = []
    for i, tx in enumerate(trace.transactions, start=1):
        args = ", ".join(str(a).lower() if isinstance(a, bool)
                         else f'"{a}"' if isinstance(a, str) else str(a)
                         for a in tx.args)
        sender = "0x0" if tx.sender == 0 else f"0x{tx.sender:x}"
        lines.append(f"tx{i}: {tx.fn}({args}) sender={sender}")
    if trace.failing_label:
        lines.append(f"violates: {trace.failing_label}")
    return "\n".join(lines)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def run(cfg: RunConfig):
    """Execute the pipeline; returns (report dict, exit code)."""
    started = time.monotonic()
    report: dict = {"schema": REPORT_SCHEMA_VERSION, "version": __version__,
                    "mode": cfg.mode}

    if not cfg.sol_paths:
        raise InputError("no contract sources given (--sol)")
    sources = [_read(path) for path in cfg.sol_paths]

    policy = None
    if cfg.mode in ("conformance", "instrument-only") and not cfg.policy_path:
        raise InputError(f"{cfg.mode} mode needs --policy")
    if cfg.mode != "instrument-only":
        smtio.start(cfg.solver)
    from solverify.sol import desugar_modifiers, parse_contract, typecheck
    from solverify.translate import generate_harness, translate_program
    if cfg.policy_path:
        from solverify.policy import parse_policy
        policy = parse_policy(_read(cfg.policy_path))

    program = parse_contract("\n".join(sources))
    typecheck(program)
    desugar_modifiers(program)

    if not program.contracts:
        raise InputError("no contract in the sources")
    root = cfg.root
    if root is None:
        if policy is not None and len(policy.workflows) == 1:
            root = policy.workflows[0].name
        elif len(program.contracts) == 1:
            root = program.contracts[0].name
        else:
            raise InputError("ambiguous root contract; use --root")
    if program.contract(root) is None:
        raise InputError(f"root contract {root!r} not found in sources")
    report["root"] = root

    if policy is not None and cfg.mode != "assertions":
        from solverify.instrument import instrument_for_conformance
        from solverify.sol.conformance import (
            check_syntactic_conformance, functions_without_transitions,
        )
        diags = check_syntactic_conformance(program, policy)
        if diags:
            raise NotConformant([str(d) for d in diags])
        report["functions_without_transitions"] = \
            functions_without_transitions(program, policy)
        program = instrument_for_conformance(program, policy)

    if cfg.emit_instrumented:
        from solverify.sol.printer import print_program
        artifact = program
        if cfg.runtime_checks:
            from solverify.instrument import make_runtime_checks
            artifact = make_runtime_checks(program)
        with open(cfg.emit_instrumented, "w") as fh:
            fh.write(print_program(artifact))

    program = desugar_modifiers(program)
    tr = translate_program(program)
    hinfo = generate_harness(tr, root)

    if cfg.emit_ir:
        from solverify.vir.printer import print_ir
        with open(cfg.emit_ir, "w") as fh:
            fh.write(print_ir(tr.ir))

    if cfg.mode == "instrument-only":
        report["verdict"] = "InstrumentOnly"
        report["seconds"] = time.monotonic() - started
        return report, EXIT_FULLY_VERIFIED

    from solverify.engine.verify import verify
    result = verify(tr, hinfo, policy=policy if cfg.mode == "conformance" else None,
                    k_max=cfg.k_max, solver=cfg.solver)
    report["verdict"] = result.verdict
    report["timings"] = {
        "invariant_seconds": round(result.timings.invariant_seconds, 3),
        "bmc_seconds": round(result.timings.bmc_seconds, 3),
        "total_seconds": round(result.timings.total_seconds, 3),
    }
    if result.verdict == "FullyVerified":
        report["invariant"] = [c.text for c in result.invariant]
        code = EXIT_FULLY_VERIFIED
    elif result.verdict == "Refuted":
        for tx in result.trace.transactions:
            tx.args = tr.source_args(root, tx.fn, tx.args)
        report["k"] = result.k
        report["trace"] = [
            {"fn": tx.fn, "sender": tx.sender, "args": tx.args,
             "nondets": tx.nondets}
            for tx in result.trace.transactions
        ]
        report["failing_assertion"] = result.trace.failing_label
        report["trace_text"] = render_trace(result.trace)
        code = EXIT_REFUTED
    else:
        report["bound"] = result.bound
        report["invariant"] = [c.text for c in result.invariant]
        code = EXIT_PARTIAL
    report["seconds"] = round(time.monotonic() - started, 3)
    return report, code


def _print_report(report: dict):
    print(f"verdict: {report.get('verdict')}")
    if "invariant" in report and report["invariant"]:
        print("inferred invariant:")
        for text in report["invariant"]:
            print(f"  {text}")
    if "trace_text" in report:
        print("counterexample:")
        for line in report["trace_text"].splitlines():
            print(f"  {line}")
    if "bound" in report:
        print(f"safe up to {report['bound']} transactions")
    if "timings" in report:
        t = report["timings"]
        print(f"timings: invariant {t['invariant_seconds']}s, "
              f"bmc {t['bmc_seconds']}s, total {t['total_seconds']}s")


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors, not argparse's exit 2 (a verdict)."""

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


def natural(text: str) -> int:
    """A transaction bound: an integer, at least 0."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def positive(text: str) -> float:
    """A timeout in seconds: a finite number above 0."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="solverify")
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="verify contracts against a policy or "
                                      "their own assertions")
    v.add_argument("--mode", choices=["conformance", "assertions",
                                      "instrument-only"],
                   default="conformance")
    v.add_argument("--policy", help="policy document (conformance mode)")
    v.add_argument("--sol", action="append", default=[],
                   help="contract source file (repeatable)")
    v.add_argument("--root", help="root contract name")
    v.add_argument("--k", type=natural, default=6, help="transaction bound")
    v.add_argument("--solver", help="SMT solver executable "
                                    "(default: SMT_SOLVER or bundled)")
    v.add_argument("--timeout", type=positive, default=600.0,
                   help="per-query solver timeout in seconds")
    v.add_argument("--emit-instrumented", metavar="PATH")
    v.add_argument("--runtime-checks", action="store_true",
                   help="emit the executable runtime-check variant")
    v.add_argument("--emit-ir", metavar="PATH")
    v.add_argument("--dump-smt", metavar="DIR")
    v.add_argument("--report-json", metavar="PATH")
    return parser


def _write_report(path: str, report: dict) -> bool:
    """Write the JSON report; False, after an `error:` line, if it cannot."""
    try:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _write_error_report(path: str | None, verdict: str, error: str, **fields):
    if path:
        _write_report(path, {"schema": REPORT_SCHEMA_VERSION,
                             "verdict": verdict, "error": error, **fields})


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    cfg = RunConfig(mode=args.mode, sol_paths=args.sol,
                    policy_path=args.policy, root=args.root, k_max=args.k,
                    solver=SolverConfig(solver_path=args.solver,
                                        timeout=args.timeout,
                                        dump_dir=args.dump_smt),
                    emit_instrumented=args.emit_instrumented,
                    runtime_checks=args.runtime_checks,
                    emit_ir=args.emit_ir, report_json=args.report_json)
    try:
        report, code = run(cfg)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        fields = {"syntactic_diagnostics": exc.diagnostics} \
            if isinstance(exc, NotConformant) else {}
        _write_error_report(args.report_json, "InputError", str(exc), **fields)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # a failure of the verifier or its solver
        import traceback
        summary = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {summary}", file=sys.stderr)
        _write_error_report(args.report_json, "InternalError",
                            traceback.format_exc())
        return EXIT_INTERNAL_ERROR
    if cfg.report_json and not _write_report(cfg.report_json, report):
        return EXIT_INPUT_ERROR  # a verdict is only returned with its report
    _print_report(report)
    return code


def command():
    """The `solverify` command (and `python -m solverify.cli`): `main`, then
    exit.  The run's objects are frozen first, so that the collection at
    interpreter exit does not walk them all once more (about 10 ms of a
    fixture run)."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    command()
