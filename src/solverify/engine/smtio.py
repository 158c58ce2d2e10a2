"""Solver process boundary.

Queries are SMT-LIB2 scripts over a solver process's standard streams.  An
external solver (`--solver`, or the SMT_SOLVER environment variable) runs as
a subprocess.  Without one, the bundled solver is served from a fork of this
process: a separate process that needs no second interpreter start-up and
imports only the solver's own modules.  The forked child serves its pipes
and leaves by `os._exit`, never returning into the verifier.  One process serves a whole verification run: queries are framed
with an echo marker and separated by reset.  Each query's exchange waits on
the pipes with a read deadline; past it the solver is killed and reaped, that
query reports unknown, and the next one starts a fresh process.  No thread is
started, so every fork is made from a single-threaded process.  The solver's
stderr goes to a temporary file whose tail is attached when the solver fails.
"""

from __future__ import annotations

import fcntl
import gc
import os
import selectors
import shlex
import signal
import tempfile
import time

from solverify import InputError
from solverify.engine.queries import SmtQuery
from solverify.record import field, record
from solverify.smt.terms import read_sexprs

MARKER = "<<query-done>>"


class SolverCrashed(Exception):
    pass


class SolverUnavailable(SolverCrashed, InputError):
    """The solver executable cannot be started (a configuration error)."""


STDERR_TAIL_BYTES = 2000


@record
class CheckResult:
    status: str  # sat | unsat | unknown
    values: dict[str, object] = field(default_factory=dict)

    def value(self, symbol: str, default=None):
        return self.values.get(symbol, default)


def solver_argv(solver_path: str | None = None) -> list[str] | None:
    """The external solver's command line; None for the bundled solver."""
    command = solver_path or os.environ.get("SMT_SOLVER")
    return shlex.split(command) if command else None


class ForkedSolver:
    """The bundled solver in a forked child, behind the part of
    `subprocess.Popen` that a session uses."""

    def __init__(self, stdin: int, stdout: int, stderr: int):
        self.returncode: int | None = None
        self.pid = os.fork()
        if self.pid == 0:
            _serve_child(stdin, stdout, stderr)

    def poll(self) -> int | None:
        if self.returncode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self) -> int:
        if self.returncode is None:
            self.returncode = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.returncode

    def kill(self):
        if self.poll() is None:
            os.kill(self.pid, signal.SIGKILL)


def _serve_child(stdin: int, stdout: int, stderr: int):
    """The forked child: serve the bundled solver on the given descriptors
    as its standard streams, then leave by `os._exit` (no `atexit`, no
    return into the verifier's frames).  The solver's modules are imported
    here, not before the fork: the time is the same, and the verifier's
    peak memory stays about 1 MB lower."""
    code = 1
    try:
        # the verifier's objects are never collected here, so none of their
        # finalizers runs in the child
        gc.freeze()
        # copies above 2 first, so no dup2 below overwrites a source
        fds = [fcntl.fcntl(fd, fcntl.F_DUPFD, 3) for fd in (stdin, stdout, stderr)]
        for target, fd in enumerate(fds):
            os.dup2(fd, target)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        from solverify.smt.cli import serve
        with open(0, encoding="utf-8", closefd=False) as inp, \
                open(1, "w", encoding="utf-8", closefd=False) as out:
            serve(inp, out)
        code = 0
    except BaseException:  # reported, not re-raised: os._exit is the way out
        import traceback
        os.write(2, traceback.format_exc().encode(errors="replace"))
    finally:
        os._exit(code)


class SolverSession:
    """A long-lived solver process fed query after query: an external
    command (`argv`) or, when `argv` is None, the bundled solver forked."""

    def __init__(self, argv: list[str] | None):
        self.argv = argv
        self.proc: subprocess.Popen | ForkedSolver | None = None
        self.stderr = None  # the running solver's stderr file
        self.to_solver = self.from_solver = -1  # this side's pipe ends

    def _ensure(self):
        if self.proc is not None and self.proc.poll() is not None:
            self._kill()
        if self.proc is not None:
            return
        self._close_stderr()
        self.stderr = tempfile.TemporaryFile()
        child_in, self.to_solver = os.pipe()
        self.from_solver, child_out = os.pipe()
        try:
            if self.argv is None:
                self.proc = ForkedSolver(child_in, child_out, self.stderr.fileno())
            else:
                import subprocess
                self.proc = subprocess.Popen(self.argv, stdin=child_in,
                                             stdout=child_out, stderr=self.stderr)
        except OSError as exc:
            self._kill()
            self._close_stderr()
            if self.argv is None:
                raise SolverCrashed(f"cannot fork the bundled solver: {exc}") from None
            raise SolverUnavailable(f"cannot run {self.argv[0]}: {exc}") from None
        finally:
            os.close(child_in)
            os.close(child_out)
        os.set_blocking(self.to_solver, False)

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
        """Ask the solver to exit and reap it once it has closed its output;
        kill it if it has not within two seconds."""
        if self.proc is not None and self.proc.poll() is None:
            try:
                os.write(self.to_solver, b"(exit)\n")
                if self._await_eof(time.monotonic() + 2):
                    self.proc.wait()
            except OSError:
                pass
        self._kill()
        self._close_stderr()

    def _await_eof(self, deadline: float) -> bool:
        """Read and drop the solver's output until it closes the stream;
        False if the deadline passes first."""
        with selectors.DefaultSelector() as sel:
            sel.register(self.from_solver, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not sel.select(remaining):
                    return False
                if not os.read(self.from_solver, 1 << 16):
                    return True

    def _kill(self):
        """Kill and reap the solver, and close this side's pipe ends."""
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None
        for fd in (self.to_solver, self.from_solver):
            if fd >= 0:
                os.close(fd)
        self.to_solver = self.from_solver = -1

    def ask(self, script_text: str, timeout: float) -> str:
        """Send one query (without exit) and read its output block.  Past
        `timeout` seconds the solver is killed and the answer is empty."""
        self._ensure()
        body = script_text.replace("(exit)", "")
        payload = memoryview(f"{body}\n(echo \"{MARKER}\")\n(reset)\n".encode())
        deadline = time.monotonic() + timeout
        out = b""
        answer = None
        with selectors.DefaultSelector() as sel:
            sel.register(self.from_solver, selectors.EVENT_READ)
            sel.register(self.to_solver, selectors.EVENT_WRITE)
            while payload or answer is None:
                remaining = deadline - time.monotonic()
                ready = sel.select(remaining) if remaining > 0 else []
                if not ready:
                    self._kill()
                    return ""
                for key, _ in ready:
                    if key.fd == self.to_solver:
                        try:
                            payload = payload[os.write(self.to_solver, payload):]
                        except BlockingIOError:
                            continue
                        except OSError:
                            raise self.crashed("solver pipe failed") from None
                        if not payload:
                            sel.unregister(self.to_solver)
                    else:
                        chunk = os.read(self.from_solver, 1 << 16)
                        if not chunk:
                            raise self.crashed("solver closed its output stream")
                        out += chunk
                        answer = _before_marker(out)
        return answer


def _before_marker(out: bytes) -> str | None:
    """The solver's output before the marker line; None until that line is
    complete."""
    lines = out.decode(errors="replace").split("\n")
    for i, line in enumerate(lines[:-1]):
        if line.strip() == MARKER:
            return "\n".join(lines[:i])
    return None


_sessions: dict[tuple[str, ...] | None, SolverSession] = {}


def _session_for(argv: list[str] | None) -> SolverSession:
    key = tuple(argv) if argv is not None else None
    if key not in _sessions:
        _sessions[key] = SolverSession(argv)
    return _sessions[key]


def close_sessions():
    for session in _sessions.values():
        session.close()
    _sessions.clear()


@record(frozen=True)
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
        try:
            values = _parse_values("\n".join(lines[1:]))
        except ValueError as exc:
            raise session.crashed(f"unparsable get-value reply: {exc}") from None
    return CheckResult(status=status, values=values)


def _parse_values(text: str) -> dict[str, object]:
    """Parse a get-value response; uninterpreted-sort values normalize to
    integers by first appearance."""
    sexprs = read_sexprs(text)
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
