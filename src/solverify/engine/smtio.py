"""External solver process boundary.

Queries are SMT-LIB2 scripts over the solver's standard streams.  The solver
executable comes from `--solver`, the SMT_SOLVER environment variable, or
falls back to the bundled solver run as a subprocess.  One process serves a
whole verification run: queries are framed with an echo marker and separated
by reset; a per-query timeout kills and respawns the process, and that query
reports unknown.  The solver's stderr goes to a temporary file whose tail is
attached when the solver fails.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field

from solverify.engine.queries import SmtQuery
from solverify.smt.terms import read_sexprs

MARKER = "<<query-done>>"


class SolverCrashed(Exception):
    pass


class SolverUnavailable(SolverCrashed):
    """The solver executable cannot be started (a configuration error)."""


STDERR_TAIL_BYTES = 2000


@dataclass
class CheckResult:
    status: str  # sat | unsat | unknown
    values: dict[str, object] = field(default_factory=dict)

    def value(self, symbol: str, default=None):
        return self.values.get(symbol, default)


def solver_argv(solver_path: str | None = None) -> list[str]:
    if solver_path:
        return shlex.split(solver_path)
    env = os.environ.get("SMT_SOLVER")
    if env:
        return shlex.split(env)
    return [sys.executable, "-m", "solverify.smt.cli"]


class SolverSession:
    """A long-lived solver process fed query after query."""

    def __init__(self, argv: list[str]):
        self.argv = argv
        self.proc: subprocess.Popen | None = None
        self.stderr = None  # the running solver's stderr file

    def _ensure(self):
        if self.proc is None or self.proc.poll() is not None:
            self._close_stderr()
            self.stderr = tempfile.TemporaryFile()
            try:
                self.proc = subprocess.Popen(
                    self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                    stderr=self.stderr, text=True, bufsize=1)
            except OSError as exc:
                self._close_stderr()
                raise SolverUnavailable(f"cannot run {self.argv[0]}: {exc}") from None

    def _close_stderr(self):
        if self.stderr is not None:
            self.stderr.close()
            self.stderr = None

    def crashed(self, message: str) -> SolverCrashed:
        """The error for a failed solver, with the tail of its stderr."""
        if self.stderr is not None:
            fd = self.stderr.fileno()
            size = os.fstat(fd).st_size
            start = max(0, size - STDERR_TAIL_BYTES)
            # pread leaves the offset the solver writes at untouched
            tail = os.pread(fd, size - start, start).decode(errors="replace")
            lines = tail.splitlines()[1 if start else 0:]
            if lines:
                message += "\nsolver stderr:\n" + "\n".join(lines)
        return SolverCrashed(message)

    def close(self):
        if self.proc is not None and self.proc.poll() is None:
            try:
                self.proc.stdin.write("(exit)\n")
                self.proc.stdin.flush()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc = None
        self._close_stderr()

    def _kill(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc = None

    def ask(self, script_text: str, timeout: float) -> str:
        """Send one query (without exit) and read its output block."""
        self._ensure()
        body = script_text.replace("(exit)", "")
        payload = f"{body}\n(echo \"{MARKER}\")\n(reset)\n"
        lines: list[str] = []
        timed_out = [False]

        def watchdog():
            timed_out[0] = True
            self._kill()

        timer = threading.Timer(timeout, watchdog)
        timer.start()
        try:
            self.proc.stdin.write(payload)
            self.proc.stdin.flush()
            while True:
                line = self.proc.stdout.readline()
                if not line:
                    if timed_out[0]:
                        return ""
                    raise self.crashed("solver closed its output stream")
                if line.strip() == MARKER:
                    break
                lines.append(line.rstrip("\n"))
        except (OSError, ValueError):
            if timed_out[0]:
                return ""
            raise self.crashed("solver pipe failed") from None
        finally:
            timer.cancel()
        return "\n".join(lines)


_sessions: dict[tuple[str, ...], SolverSession] = {}


def _session_for(argv: list[str]) -> SolverSession:
    key = tuple(argv)
    if key not in _sessions:
        _sessions[key] = SolverSession(argv)
    return _sessions[key]


def close_sessions():
    for session in _sessions.values():
        session.close()
    _sessions.clear()


@dataclass(frozen=True)
class SolverConfig:
    """How the queries of a run are solved: the solver command (None: the
    SMT_SOLVER variable, else the bundled solver), the per-query timeout in
    seconds, and the directory every query is written to (`--dump-smt`)."""

    solver_path: str | None = None
    timeout: float = 600.0
    dump_dir: str | None = None


def check_smt(query: SmtQuery, config: SolverConfig = SolverConfig(),
              name: str = "query") -> CheckResult:
    """Run the query through the solver process; timeouts map to unknown.
    With a dump directory configured, the query is first written there as
    `<name>.smt2`."""
    if config.dump_dir is not None:
        os.makedirs(config.dump_dir, exist_ok=True)
        with open(os.path.join(config.dump_dir, f"{name}.smt2"), "w") as fh:
            fh.write(query.text)
    session = _session_for(solver_argv(config.solver_path))
    out = session.ask(query.text, config.timeout).strip()
    if not out:
        return CheckResult(status="unknown")  # timeout
    lines = out.splitlines()
    status = lines[0].strip()
    if status.startswith("(error"):
        raise session.crashed(out[:400])
    if status not in ("sat", "unsat", "unknown"):
        raise session.crashed(f"unexpected solver output: {out[:200]}")
    values: dict[str, object] = {}
    if status == "sat" and len(lines) > 1:
        values = _parse_values("\n".join(lines[1:]))
    return CheckResult(status=status, values=values)


def _parse_values(text: str) -> dict[str, object]:
    """Parse a get-value response; uninterpreted-sort values normalize to
    integers by first appearance."""
    try:
        sexprs = read_sexprs(text)
    except Exception:
        return {}
    values: dict[str, object] = {}
    ref_codes: dict[str, int] = {}

    def decode(v):
        if isinstance(v, list):
            if len(v) == 2 and v[0] == "-":
                return -int(v[1])
            if v and v[0] == "as":  # (as @Ref!val!0 Ref)
                return decode(v[1])
            return None
        if v == "true":
            return True
        if v == "false":
            return False
        if v.lstrip("-").isdigit():
            return int(v)
        # solver-specific fresh value names for uninterpreted sorts
        if v not in ref_codes:
            ref_codes[v] = 1_000_000 + len(ref_codes)
        return ref_codes[v]

    for group in sexprs:
        if not isinstance(group, list):
            continue
        for pair in group:
            if isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str):
                values[pair[0]] = decode(pair[1])
    return values
