"""Self-test of the benchmark.

    python3 -m unittest discover -s bench -p 'test_*.py'

Runs the verifier a few times on a trivial contract (about 10 s in all).
"""

import json
import os
import shutil
import sys
import tempfile
import time
import unittest
from dataclasses import replace

import items as I
import layers
import run
from proc import become_subreaper, run_group
from spans import Target, Tracer, self_times


class MetricNamesMatchBenchmarkJson(unittest.TestCase):
    def test_names_and_units(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(I.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         layers.PER_LAYER)


class VerdictGate(unittest.TestCase):
    def setUp(self):
        become_subreaper()
        parent = os.path.join(run.ROOT, ".bench_work")
        os.makedirs(parent, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=parent, prefix="test-")
        self.bench = run.Bench("fixture-sweep", 0, self.work,
                               time.monotonic() + 120)

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def test_wrong_expected_verdict_is_charged_par2(self):
        right = self.bench.run(I.SETUP)
        wrong_item = replace(I.SETUP, name="setup_wrong",
                             expected=I.Expected("Refuted", k=1))
        wrong = self.bench.run(wrong_item)
        self.assertTrue(right.decided, right.why)
        self.assertFalse(wrong.decided)
        self.assertTrue(wrong.wrong)
        self.assertEqual(wrong.charged_s, 2 * I.SETUP.limit_s)
        good = run.end_to_end([right], [right, right])
        bad = run.end_to_end([right], [right, wrong])
        self.assertEqual(good["decided_share"], 1.0)
        self.assertEqual(bad["decided_share"], 0.5)
        self.assertAlmostEqual(bad["par2_s"], right.charged_s + 2 * I.SETUP.limit_s)

    def test_traceback_exit_one_is_failed_not_refuted(self):
        nested = "(" * 2000 + "1" + ")" * 2000
        crash = replace(I.SETUP, source="contract E { constructor() public "
                                        f"{{ int x; x = {nested}; }} }}\n")
        out = self.bench.run(crash)
        self.assertFalse(out.decided)
        self.assertFalse(out.wrong)
        self.assertIn("no report (exit 1)", out.why)

    def test_traced_run_reports_layers(self):
        out = self.bench.run(I.SETUP, traced=True)
        self.assertTrue(out.decided, out.why)
        self.assertEqual(self.bench.absent, set())
        self.assertGreater(out.layers["proc.import_s"], 0)
        self.assertGreater(out.layers["smtio.queries"], 0)
        self.assertGreater(out.layers["smt.parse_s"], 0)
        self.assertGreater(out.layers["smt.peak_rss_mb"], 0)


class ProcessHygiene(unittest.TestCase):
    def test_limit_kills_verifier_and_child(self):
        become_subreaper()
        child = ("import subprocess, sys, time;"
                 "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']);"
                 "time.sleep(60)")
        with tempfile.TemporaryDirectory() as tmp:
            started = time.monotonic()
            res = run_group([sys.executable, "-c", child], dict(os.environ), tmp,
                            1.0, os.path.join(tmp, "err"))
        self.assertTrue(res.timed_out)
        self.assertLess(time.monotonic() - started, 10)
        with self.assertRaises(ChildProcessError):
            os.wait4(-1, os.WNOHANG)


class Tracing(unittest.TestCase):
    def test_absent_stage_is_reported_not_raised(self):
        tracer = Tracer("t")
        tracer.install([Target("json", "_no_such_stage", "x"),
                        Target("no_such_module", "f", "y")])
        self.assertEqual(tracer.absent, ["json._no_such_stage", "no_such_module.f"])

    def test_recursive_method_records_outermost_call_and_self_time(self):
        class Walker:
            def run(self, n):
                return 0 if n == 0 else 1 + self.run(n - 1)

        class Outer:
            def go(self, walker):
                time.sleep(0.02)
                return walker.run(50)

        module = type(sys)("fake_module")
        module.Walker, module.Outer = Walker, Outer
        sys.modules["fake_module"] = module
        try:
            tracer = Tracer("t")
            tracer.install([Target("fake_module", "Outer.go", "outer"),
                            Target("fake_module", "Walker.run", "walk",
                                   recursive=True)])
            self.assertEqual(Outer().go(Walker()), 50)
        finally:
            del sys.modules["fake_module"]
        names = [s["name"] for s in tracer.spans]
        self.assertEqual(names, ["outer", "walk"])
        own = self_times(tracer.spans)
        outer, walk = tracer.spans
        self.assertAlmostEqual(own[0], (outer["end"] - outer["start"])
                               - (walk["end"] - walk["start"]))
        self.assertGreaterEqual(own[0], 0.02)


class StoreChain(unittest.TestCase):
    def test_seed_permutes_values_and_order(self):
        a, b = I.store_chain(1), I.store_chain(2)
        self.assertEqual(a, I.store_chain(1))
        self.assertEqual(sorted(i.name for i in a), sorted(i.name for i in b))
        self.assertNotEqual([i.source for i in a], [i.source for i in b])
        self.assertEqual({i.name for i in a},
                         {f"store_chain_{n}" for n in I.STORE_CHAIN_SIZES})


if __name__ == "__main__":
    unittest.main()
