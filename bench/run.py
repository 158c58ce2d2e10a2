"""Time-to-verdict benchmark for `solverify verify`.

    python3 bench/run.py --workload fixture-sweep --seed 1 --seconds 40 --trace 0

Runs the workload's items (see items.py) as fresh `solverify verify`
processes, one at a time: a closed loop with one client, so the verifier and
its solver subprocess keep at most two cores busy.  Every verdict is checked
against the answer taken from the tests.  After the set-up runs, whole
passes over the items repeat while another pass, as long as the last one, still
ends within `--seconds` (at least one pass); each item's time is the median
over the passes.

End-to-end metrics (`--trace 0`):
  par2_s              sum over items of the time to verdict; an item with a
                      wrong verdict, a crash, no report or a run past its limit
                      is charged twice the limit (PAR-2)
  decided_share       item runs that returned the expected verdict in time,
                      over item runs attempted
  setup_s             median wall time of three runs on a trivial contract in
                      assertions mode
  peak_rss_mb         peak resident memory of the verifier process
  solver_peak_rss_mb  peak resident memory of its solver subprocess

Per-layer metrics (`--trace 1`, layers.py): passes alternate between plain
runs and traced runs, in which traced_cli.py wraps each module's entry points
and calls the CLI in-process with the solver wrapped by traced_solver.py.
The traced and untraced PAR-2 sums are reported side by side, with the
tracing overhead.  The spans of every traced run are written to
`.bench_out/spans-<workload>-seed<seed>.json`.

`correct` in the result is false only when the program returned a verdict
that contradicts the expected answer.  An item that ends without a verdict
(crash, timeout) is a failed item, charged PAR-2, but not an incorrect one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

import items as I
import layers
import spans
from proc import become_subreaper, run_group

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
EXIT_CODES = {"FullyVerified": 0, "Refuted": 1, "PartiallyVerified": 2}
SETUP_RUNS = 3
# a run ends within 180 s: no item starts unless its limit fits in this
RUN_BUDGET_S = 165.0

END_TO_END = {"par2_s": "s", "decided_share": "share", "setup_s": "s",
              "peak_rss_mb": "MB", "solver_peak_rss_mb": "MB"}


@dataclass
class Outcome:
    item: str
    wall_s: float
    charged_s: float      # wall time, or the PAR-2 charge on failure
    decided: bool
    wrong: bool           # a verdict that contradicts the expected answer
    why: str
    rss_mb: float
    solver_rss_mb: float
    layers: dict | None = None


class Bench:
    def __init__(self, workload: str, seed: int, work: str, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("SMT_SOLVER", "PYTHONPATH")}
        self.env["PYTHONPATH"] = SRC
        self.items = I.workload(workload, seed)
        self.span_docs: list[dict] = []
        self.absent: set[str] = set()

    def _argv(self, item: I.Item, traced: bool, report: str, spans_path: str):
        args = list(item.args)
        if item.source:
            path = os.path.join(self.work, item.name + ".sol")
            if not os.path.exists(path):
                with open(path, "w") as fh:
                    fh.write(item.source)
            args += ["--sol", path]
        args += ["--report-json", report]
        if traced:
            return [sys.executable, os.path.join(BENCH, "traced_cli.py"),
                    spans_path, item.name, "verify", *args]
        return [sys.executable, "-m", "solverify.cli", "verify", *args]

    def run(self, item: I.Item, traced: bool = False) -> Outcome:
        if time.monotonic() + item.limit_s > self.deadline:
            return Outcome(item.name, 0.0, 2 * item.limit_s, False, False,
                           "not run: run budget spent", 0.0, 0.0,
                           {} if traced else None)
        report = os.path.join(self.work, "report.json")
        spans_path = os.path.join(self.work, "spans.json")
        for stale in (report, spans_path, spans_path + ".solver"):
            if os.path.exists(stale):
                os.remove(stale)
        res = run_group(self._argv(item, traced, report, spans_path), self.env,
                        ROOT, item.limit_s, os.path.join(self.work, "stderr.txt"))
        wrong = False
        if res.timed_out:
            why = f"no verdict within {item.limit_s:g} s"
        else:
            why = self._check(item, report, res.exit_code)
            wrong = why is not None and why.startswith("wrong")
        decided = why is None
        out = Outcome(item.name, res.wall_s,
                      res.wall_s if decided else 2 * item.limit_s,
                      decided, wrong, why or "ok", res.rss_mb, res.child_rss_mb)
        if traced:
            v_spans, v_absent = spans.load(spans_path)
            s_spans, s_absent = spans.load(spans_path + ".solver")
            self.absent.update(v_absent + s_absent)
            self.span_docs.append({"item": item.name, "verifier": v_spans,
                                   "solver": s_spans})
            out.layers = layers.item_layers(v_spans, s_spans)
        return out

    def _check(self, item: I.Item, report_path: str, code: int) -> str | None:
        try:
            with open(report_path) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            return f"no report (exit {code}): {self._stderr_tail()}"
        verdict = report.get("verdict")
        if verdict not in EXIT_CODES:
            return f"no verdict ({verdict}): {report.get('error', '')}"[:300]
        mismatch = item.expected.mismatch(report)
        if mismatch:
            return f"wrong answer: {mismatch}"
        if code != EXIT_CODES[verdict]:
            return f"exit {code} with verdict {verdict}"
        return None

    def _stderr_tail(self) -> str:
        with open(os.path.join(self.work, "stderr.txt"), errors="replace") as fh:
            lines = fh.read().strip().splitlines()
        return lines[-1][:200] if lines else ""


def _median_by_item(outcomes: list[Outcome], key) -> dict[str, float]:
    by_item: dict[str, list[float]] = {}
    for o in outcomes:
        by_item.setdefault(o.item, []).append(key(o))
    return {name: statistics.median(v) for name, v in by_item.items()}


def par2(outcomes: list[Outcome]) -> float:
    return sum(_median_by_item(outcomes, lambda o: o.charged_s).values())


def end_to_end(setups: list[Outcome], outcomes: list[Outcome]) -> dict[str, float]:
    return {
        "par2_s": par2(outcomes),
        "decided_share": sum(o.decided for o in outcomes) / len(outcomes),
        "setup_s": statistics.median(o.charged_s for o in setups),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "solver_peak_rss_mb": max(o.solver_rss_mb for o in outcomes),
    }


def per_layer(plain: list[Outcome], traced: list[Outcome]) -> dict[str, float]:
    names = {name for o in traced for name in o.layers}
    per_item: dict[str, dict[str, float]] = {}
    for name in names:
        for item, value in _median_by_item(
                traced, lambda o: o.layers.get(name, 0.0)).items():
            per_item.setdefault(item, {})[name] = value
    out = {name: 0.0 for name in layers.PER_LAYER}
    out.update(layers.combine(per_item))
    out["par2_s.untraced"] = par2(plain)
    out["par2_s.traced"] = par2(traced)
    out["trace.overhead_share"] = out["par2_s.traced"] / out["par2_s.untraced"] - 1
    return out


def measure(bench: Bench, seconds: float, trace: bool):
    started = time.monotonic()
    setups = [] if trace else [bench.run(I.SETUP) for _ in range(SETUP_RUNS)]
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    while True:
        pass_started = time.monotonic()
        plain += [bench.run(item) for item in bench.items]
        if trace:
            traced += [bench.run(item, traced=True) for item in bench.items]
        now = time.monotonic()
        if now + (now - pass_started) - started > seconds:
            return setups, plain, traced


def _row(o: Outcome) -> str:
    kind = "traced" if o.layers is not None else "plain"
    return (f"  {o.item:<24} {kind:<6} {o.wall_s:8.3f} s  rss {o.rss_mb:6.1f} / "
            f"{o.solver_rss_mb:6.1f} MB  {o.why}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=I.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "solverify", "cli.py")):
        print(f"error: no solverify sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    become_subreaper()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(args.workload, args.seed, work, deadline)
        setups, plain, traced = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = setups + plain + traced
    for o in runs:
        print(_row(o))
    if args.trace:
        values, units = per_layer(plain, traced), layers.PER_LAYER
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"),
                  "w") as fh:
            json.dump(bench.span_docs, fh)
        if bench.absent:
            print("absent (reported as 0): " + ", ".join(sorted(bench.absent)))
    else:
        values, units = end_to_end(setups, plain), END_TO_END
    for name, unit in units.items():
        print(f"  {name:<24} {values[name]:12.4f} {unit}")
    print(json.dumps({
        "correct": not any(o.wrong for o in runs),
        "attempted": len(runs),
        "failed": sum(not o.decided for o in runs),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
