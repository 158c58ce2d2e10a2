"""Run one verifier invocation in its own process group.

The benchmark process makes itself a child subreaper, so the solver
subprocess that the CLI leaves running when it exits is re-parented to the
benchmark, which reaps it and reads its peak memory.  On the per-item limit
the whole group (verifier and solver) is killed together; nothing is left
to compete for the machine's cores while the next item runs.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

_PR_SET_CHILD_SUBREAPER = 36
# how long the solver may take to exit after the verifier is gone
_REAP_GRACE_S = 5.0


def become_subreaper():
    """Adopt orphaned descendants (Linux).  Without it the solver's memory
    cannot be read; every other measurement still works."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


@dataclass
class ProcResult:
    wall_s: float          # spawn to verifier exit
    exit_code: int
    timed_out: bool
    rss_mb: float          # verifier's peak resident memory
    child_rss_mb: float    # largest peak among the descendants reaped here


def _killpg(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_group(argv: list[str], env: dict, cwd: str, limit_s: float,
              stderr_path: str) -> ProcResult:
    """Run `argv` as a new session; kill its group after `limit_s`."""
    with open(stderr_path, "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
    pgid = proc.pid
    timed_out = threading.Event()

    def expire():
        timed_out.set()
        _killpg(pgid)

    timer = threading.Timer(limit_s, expire)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        ended = time.monotonic()
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    child_kb = _reap_group(pgid, kill_now=timed_out.is_set())
    return ProcResult(wall_s=ended - started,
                      exit_code=proc.returncode,
                      timed_out=timed_out.is_set(),
                      rss_mb=usage.ru_maxrss / 1024.0,
                      child_rss_mb=child_kb / 1024.0)


def _reap_group(pgid: int, kill_now: bool) -> int:
    """Wait for the rest of the group to exit (killing it after a grace
    period) and return the largest peak RSS in KiB among those reaped."""
    if kill_now:
        _killpg(pgid)
    deadline = time.monotonic() + _REAP_GRACE_S
    peak_kb = 0
    while True:
        try:
            pid, _, usage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return peak_kb
        if pid:
            peak_kb = max(peak_kb, usage.ru_maxrss)
            continue
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return peak_kb  # remaining children, if any, are not ours to wait for
        if time.monotonic() > deadline:
            _killpg(pgid)
            deadline = float("inf")
        time.sleep(0.005)
