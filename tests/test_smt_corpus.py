"""Frozen corpus: every SMT query the fixtures produce, and what each run reports.

Each invocation runs `solverify verify --dump-smt` with the bundled solver
(Houdini, then bounded checking up to k = 3 where the verdict needs it; up
to k = 8 for the counter contract, whose queries are theory-bound).
The corpus records the sha256 of every dumped file and the answer the
bundled solver gives it, so a change to query text (traversal order,
fresh-name numbering, rendering) or to an answer shows up here.  It also
records the run's exit code, its `--report-json` without timings (verdict,
invariant, and for a refutation the trace's senders and arguments), and the
sha256 of its `--emit-ir` and `--emit-instrumented` output.  For a
conformance invocation it also records the sha256 of the runtime-check
variant, which an `instrument-only --runtime-checks --emit-instrumented` run
prints.

After an intended change, regenerate it with

    PYTHONPATH=src python tests/test_smt_corpus.py --write

which first prints each recorded field that changed, per invocation, and
each changed report key with its old and new value.
"""

import hashlib
import json
import os
import shlex
import sys
import tempfile

from conftest import fixture_path, run_smt
from solverify.cli import main

CORPUS = fixture_path(os.path.join("smt", "corpus.json"))
BUNDLED = shlex.join([sys.executable, "-m", "solverify.smt.cli"])


def _conformance(sol: str, policy: str, *extra: str) -> list[str]:
    return ["--mode", "conformance", "--policy", fixture_path(policy),
            "--sol", fixture_path(sol), *extra]


def _assertions(sol: str, root: str, k: str) -> list[str]:
    return ["--mode", "assertions", "--sol", fixture_path(sol),
            "--root", root, "--k", k]


INVOCATIONS = {
    "helloblockchain": _conformance("helloblockchain.sol", "helloblockchain.json"),
    "digitallocker_buggy": _conformance("digitallocker_buggy.sol",
                                        "digitallocker.json", "--k", "3"),
    "bazaar_buggy": _conformance("bazaar_buggy.sol", "bazaar.json",
                                 "--root", "Bazaar", "--k", "3"),
    "assettransfer_fixed": _conformance("assettransfer_fixed.sol",
                                        "assettransfer.json", "--k", "3"),
    "assettransfer_buggy": _conformance("assettransfer_buggy.sol",
                                        "assettransfer.json", "--k", "3"),
    "nested_maps": _assertions("nested_maps.sol", "C", "2"),
    "poa_validators": _assertions("poa_validators.sol", "Validators", "3"),
    "counter": _assertions("counter.sol", "Counter", "8"),
}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def dump_corpus(workdir: str) -> dict:
    """{invocation: {"exit", "report", "ir_sha256", "instrumented_sha256",
    "queries": {dumped file: {"sha256", "answer"}}}}, and for a conformance
    invocation "runtime_checks_sha256" too."""
    corpus = {}
    for name, args in INVOCATIONS.items():
        base = os.path.join(workdir, name)
        out, report_path = base + ".smt", base + ".report.json"
        ir_path, inst_path = base + ".ir", base + ".instrumented.sol"
        code = main(["verify", *args, "--solver", BUNDLED, "--dump-smt", out,
                     "--report-json", report_path, "--emit-ir", ir_path,
                     "--emit-instrumented", inst_path])
        with open(report_path) as fh:
            report = json.load(fh)
        report.pop("timings", None)
        report.pop("seconds", None)
        queries = {}
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname)) as fh:
                text = fh.read()
            queries[fname] = {
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
                "answer": run_smt(text).splitlines()[0],
            }
        corpus[name] = {"exit": code, "report": report,
                        "ir_sha256": _sha256(ir_path),
                        "instrumented_sha256": _sha256(inst_path),
                        "queries": queries}
        if args[:2] == ["--mode", "conformance"]:
            runtime_path = base + ".runtime.sol"
            assert main(["verify", "--mode", "instrument-only", *args[2:],
                         "--runtime-checks",
                         "--emit-instrumented", runtime_path]) == 0, name
            corpus[name]["runtime_checks_sha256"] = _sha256(runtime_path)
    return corpus


def test_dumped_queries_match_frozen_corpus(tmp_path):
    with open(CORPUS) as fh:
        expected = json.load(fh)
    got = dump_corpus(str(tmp_path))
    assert sorted(got) == sorted(expected)
    for name in expected:
        assert got[name] == expected[name], name


def changed_fields(old: dict, new: dict) -> list[str]:
    """`<invocation> <field>` for each recorded field that differs between
    two corpora, a query's `sha256` and `answer` each on their own, and
    `<invocation> report.<key>: <old> -> <new>` for each report key."""
    out = []
    for name in sorted(set(old) | set(new)):
        was, now = old.get(name, {}), new.get(name, {})
        for key in ("exit", "ir_sha256", "instrumented_sha256",
                    "runtime_checks_sha256"):
            if was.get(key) != now.get(key):
                out.append(f"{name} {key}")
        report_was, report_now = was.get("report", {}), now.get("report", {})
        for key in sorted(set(report_was) | set(report_now)):
            if report_was.get(key) != report_now.get(key):
                out.append(f"{name} report.{key}: {json.dumps(report_was.get(key))}"
                           f" -> {json.dumps(report_now.get(key))}")
        queries_was, queries_now = was.get("queries", {}), now.get("queries", {})
        for fname in sorted(set(queries_was) | set(queries_now)):
            for key in ("sha256", "answer"):
                if queries_was.get(fname, {}).get(key) != queries_now.get(fname, {}).get(key):
                    out.append(f"{name} {fname} {key}")
    return out


def test_changed_fields_names_each_changed_report_key():
    old = {"c": {"exit": 1, "report": {"k": 1, "trace_text": "tx1: C() sender=0x2711"}}}
    new = {"c": {"exit": 1, "report": {"k": 1, "trace_text": "tx1: C() sender=0x2713"}}}
    assert changed_fields(old, new) == [
        'c report.trace_text: "tx1: C() sender=0x2711" -> "tx1: C() sender=0x2713"']
    assert changed_fields(old, old) == []
    assert changed_fields({"c": {"runtime_checks_sha256": "a"}},
                          {"c": {"runtime_checks_sha256": "b"}}) == [
        "c runtime_checks_sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        corpus = dump_corpus(tmp)
    previous = {}
    if os.path.exists(CORPUS):
        with open(CORPUS) as fh:
            previous = json.load(fh)
    for line in changed_fields(previous, corpus) or ["nothing changed"]:
        print(line)
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
