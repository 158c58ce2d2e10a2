"""Workload items and their expected answers.

Every expected answer is taken from the test suite (or, for generated
contracts, from how the contract is built), never from a run of the
verifier being measured.  The comment on each item names its source.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

FIXTURES = os.path.join("tests", "fixtures")


@dataclass(frozen=True)
class Expected:
    verdict: str
    k: int | None = None              # Refuted: the bound the trace was found at
    bound: int | None = None          # PartiallyVerified: transactions proven safe
    trace_fns: tuple[str, ...] = ()   # Refuted: function of each transaction
    invariant_has: tuple[str, ...] = ()

    def mismatch(self, report: dict) -> str | None:
        """Why `report` (a `--report-json` document) is not this answer."""
        got = report.get("verdict")
        if got != self.verdict:
            return f"verdict {got}, expected {self.verdict}"
        if self.k is not None and report.get("k") != self.k:
            return f"k {report.get('k')}, expected {self.k}"
        if self.bound is not None and report.get("bound") != self.bound:
            return f"bound {report.get('bound')}, expected {self.bound}"
        if self.verdict == "Refuted":
            fns = tuple(tx.get("fn") for tx in report.get("trace", []))
            if fns != self.trace_fns:
                return f"trace {list(fns)}, expected {list(self.trace_fns)}"
        missing = set(self.invariant_has) - set(report.get("invariant", []))
        if missing:
            return f"invariant lacks {sorted(missing)}"
        return None


@dataclass(frozen=True)
class Item:
    name: str
    args: tuple[str, ...]             # `solverify verify` arguments
    expected: Expected
    limit_s: float                    # per-item time limit; PAR-2 charges twice it
    source: str = ""                  # generated contract text, if any


def _fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


def _conformance(sol: str, policy: str, *extra: str) -> tuple[str, ...]:
    return ("--mode", "conformance", "--policy", _fx(policy), "--sol", _fx(sol)) + extra


# fixture-sweep: the everyday mix.  Each item is dominated by per-invocation
# set-up and ~10 ms Houdini queries, so SAT search is negligible and a
# solver-core change should leave this workload flat.
FIXTURE_LIMIT_S = 20.0
FIXTURE_SWEEP = (
    # test_acceptance::test_criterion_1, test_cli::test_fully_verified_exit_zero
    Item("helloblockchain", _conformance("helloblockchain.sol", "helloblockchain.json"),
         Expected("FullyVerified"), FIXTURE_LIMIT_S),
    # test_acceptance::test_criterion_2 (k == 1, one transaction),
    # test_cli::test_refuted_exit_one_with_trace ("tx1: DigitalLocker(")
    Item("digitallocker_buggy",
         _conformance("digitallocker_buggy.sol", "digitallocker.json"),
         Expected("Refuted", k=1, trace_fns=("DigitalLocker",)), FIXTURE_LIMIT_S),
    # test_engine::test_nested_contract_creation_initial_state_bug gives the
    # trace; bounded search tries k = 1, 2, ... so the constructor plus one
    # call is found at k = 1
    Item("bazaar_buggy",
         _conformance("bazaar_buggy.sol", "bazaar.json", "--root", "Bazaar"),
         Expected("Refuted", k=1, trace_fns=("Bazaar", "ListItem")), FIXTURE_LIMIT_S),
    # test_acceptance::test_criterion_3 (fixed half)
    Item("assettransfer_fixed",
         _conformance("assettransfer_fixed.sol", "assettransfer.json"),
         Expected("FullyVerified", invariant_has=("InstanceOwner != 0x0",)),
         FIXTURE_LIMIT_S),
    # test_cli::test_assertions_mode_proves_nested_mapping_program
    Item("nested_maps",
         ("--mode", "assertions", "--sol", _fx("nested_maps.sol"), "--root", "C",
          "--k", "2"),
         Expected("FullyVerified"), FIXTURE_LIMIT_S),
    # test_acceptance::test_criterion_8 and test_cli::
    # test_assertions_mode_refutes_assert_as_require: two InitiateRemove calls
    # are needed, so the shortest refutation is at k = 2 and has no other call
    Item("poa_validators",
         ("--mode", "assertions", "--sol", _fx("poa_validators.sol"),
          "--root", "Validators", "--k", "4"),
         Expected("Refuted", k=2,
                  trace_fns=("Validators", "InitiateRemove", "InitiateRemove")),
         FIXTURE_LIMIT_S),
)

# bmc-deep: one large query per k; query text grows from ~6 to ~26 KB and
# solve time roughly tenfold per step, to seconds at k = 5.  This is where a
# faster SAT core, memoised term walkers and incremental BMC show.  Expected:
# test_acceptance::test_criterion_3 fully verifies the fixed contract, which
# differs from the buggy one only in the owner's Accept-from-BuyerAccepted
# branch.  That branch needs MakeOffer, AcceptOffer, MarkInspected,
# MarkAppraised and a buyer Accept first, so it is the sixth call at the
# earliest and every bound up to 5 is safe.  k = 6 (about 100 s) stays out:
# the growth shows in the per-k layer metrics.
BMC_DEEP = (
    Item("assettransfer_buggy_k5",
         _conformance("assettransfer_buggy.sol", "assettransfer.json", "--k", "5"),
         Expected("PartiallyVerified", bound=5), 60.0),
)

# store-chain: N straight-line stores to symbolic keys, then a read of the
# first.  It drives the read-over-write term chain in the simplifier and the
# offline theory loop (one from-scratch SAT call per theory conflict), not one
# hard propositional search as bmc-deep does.  N = 100, 200 and 300 grow the
# chain in steps that take a few seconds to ~15 s each.  N = 400 is past the
# depth at which the program currently dies with a RecursionError; it stays
# in, as a failed item, so that a fix shows as a gain.  The assertion holds
# for every x (the keys x + i, i > 0, differ from x), so each contract is
# FullyVerified by construction.
STORE_CHAIN_SIZES = (100, 200, 300, 400)
STORE_CHAIN_LIMIT_S = 45.0


def store_chain_source(n: int, rng: random.Random) -> str:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    lines = ["contract StoreChain {",
             "    mapping(int => int) m;",
             "    constructor() public { }",
             "    function Fill(int x) public {"]
    lines += [f"        m[x + {i}] = {v};" for i, v in enumerate(values)]
    lines += [f"        assert(m[x] == {values[0]});", "    }", "}", ""]
    return "\n".join(lines)


def store_chain(seed: int) -> tuple[Item, ...]:
    rng = random.Random(seed)
    items = []
    for n in STORE_CHAIN_SIZES:
        name = f"store_chain_{n}"
        items.append(Item(name, ("--mode", "assertions", "--k", "1"),
                          Expected("FullyVerified"), STORE_CHAIN_LIMIT_S,
                          source=store_chain_source(n, rng)))
    rng.shuffle(items)
    return tuple(items)


def workload(name: str, seed: int) -> tuple[Item, ...]:
    """The items of a workload, in the order the seed gives."""
    if name == "store-chain":
        return store_chain(seed)
    items = {"fixture-sweep": FIXTURE_SWEEP, "bmc-deep": BMC_DEEP}[name]
    items = list(items)
    random.Random(seed).shuffle(items)
    return tuple(items)


WORKLOADS = ("fixture-sweep", "bmc-deep", "store-chain")

# set-up time: a trivial assertions-mode run (interpreter start, imports,
# solver spawn and one query)
SETUP_SOURCE = "contract E { constructor() public { } }\n"
SETUP = Item("setup", ("--mode", "assertions"),
             Expected("FullyVerified"), 10.0, source=SETUP_SOURCE)
