"""Which entry points the traced run wraps, and the per-layer metrics
computed from their spans.

Every `*_s` metric is a self time: the time inside a layer's spans minus the
time of the wrapped spans nested in them (`Simplifier.run` inside
`_instantiate`, `check_smt` inside `houdini_infer`, ...).  Layer metrics of
one item add up over the items of a workload, except the peak memory (the
largest) and the wasted-SAT share (recomputed from the added counts).
"""

from __future__ import annotations

from collections import defaultdict

from spans import Target, self_times


def _n(args, kwargs, result, state):
    return {"n": len(result)}


def _houdini(args, kwargs, result, state):
    return {"rounds": result.rounds, "queries": result.queries}


def _unroll_k(args, kwargs, result, state):
    k = kwargs.get("k", args[2] if len(args) > 2 else None)
    return {"k": k}


def _vc_bytes(args, kwargs, result, state):
    return {"bytes": len(result[1].text)}


def _query(args, kwargs, result, state):
    query = kwargs.get("query", args[0] if args else None)
    return {"bytes": len(getattr(query, "text", "")), "status": result.status}


def _proc_before(args, kwargs):
    return args[0].proc


def _spawned(args, kwargs, result, state):
    return {"spawned": args[0].proc is not state}


def _clauses_before(args, kwargs):
    return len(args[0].clauses)


def _clauses_added(args, kwargs, result, state):
    return {"clauses": len(args[0].clauses) - state}


def _conflict(args, kwargs, result, state):
    return {"conflict": result is not None}


# Verifier process: public entry points of each module, named by layer.
VERIFIER_TARGETS = [
    Target("solverify.policy", "parse_policy", "policy.parse"),
    Target("solverify.sol", "parse_contract", "sol.parse"),
    Target("solverify.sol", "typecheck", "sol.typecheck"),
    Target("solverify.sol", "desugar_modifiers", "sol.desugar"),
    Target("solverify.sol", "check_syntactic_conformance", "sol.conformance"),
    Target("solverify.sol.conformance", "functions_without_transitions",
           "sol.conformance"),
    Target("solverify.instrument", "instrument_for_conformance", "instrument"),
    Target("solverify.translate", "translate_program", "translate"),
    Target("solverify.translate", "generate_harness", "translate.harness"),
    Target("solverify.engine.candidates", "generate_candidates", "candidates",
           after=_n),
    Target("solverify.engine.houdini", "houdini_infer", "houdini", after=_houdini),
    Target("solverify.engine.unroll", "unroll_harness", "unroll", after=_unroll_k),
    Target("solverify.engine.queries", "vc_gen", "vcgen", after=_vc_bytes),
    Target("solverify.engine.bmc", "bounded_check", "bmc"),
    Target("solverify.engine.smtio", "check_smt", "smtio", after=_query),
    Target("solverify.engine.smtio", "SolverSession._ensure", "smtio.spawn",
           before=_proc_before, after=_spawned),
    Target("solverify.engine.trace", "extract_trace", "trace.extract"),
    Target("solverify.engine.trace", "replay_trace", "trace.replay"),
    Target("solverify.vir.interp", "interpret", "vir.interp"),
]

# Bundled solver process: the stages of one `solve`.
SOLVER_TARGETS = [
    Target("solverify.smt.terms", "read_sexprs", "smt.parse"),
    Target("solverify.smt.terms", "ScriptParser.feed", "smt.parse"),
    Target("solverify.smt.solver", "solve", "smt.solve"),
    Target("solverify.smt.solver", "Simplifier.run", "smt.simplify",
           recursive=True),
    Target("solverify.smt.solver", "_collect_pools", "smt.pools"),
    Target("solverify.smt.solver", "_instantiate", "smt.instantiate", after=_n),
    Target("solverify.smt.solver", "lift_ites", "smt.lift_ites"),
    Target("solverify.smt.solver", "CNF.assert_root", "smt.cnf",
           before=_clauses_before, after=_clauses_added),
    Target("solverify.smt.solver", "GroundSolver._add_equality_lemmas",
           "smt.eq_lemmas"),
    Target("solverify.smt.solver", "_sat_solve", "smt.sat"),
    Target("solverify.smt.solver", "Theory.check", "smt.theory", after=_conflict),
    Target("solverify.smt.solver", "GroundSolver._validate", "smt.validate"),
]

K_RANGE = range(1, 6)

# metric name -> unit; the order is the printing order
PER_LAYER = {
    "proc.import_s": "s", "proc.solver_spawn_s": "s",
    "policy.parse_s": "s", "sol.parse_s": "s", "sol.typecheck_s": "s",
    "sol.desugar_s": "s", "sol.conformance_s": "s", "instrument.s": "s",
    "translate.s": "s", "translate.harness_s": "s",
    "candidates.n": "count", "houdini.s": "s", "houdini.rounds": "count",
    "houdini.queries": "count",
    "unroll.s": "s", "vcgen.s": "s", "vcgen.bytes": "bytes", "bmc.s": "s",
    **{f"bmc.solve_s.k{k}": "s" for k in K_RANGE},
    "smtio.queries": "count", "smtio.bytes_sent": "bytes", "smtio.wait_s": "s",
    "smtio.unknown": "count",
    "trace.extract_s": "s", "trace.replay_s": "s",
    "smt.parse_s": "s", "smt.pools_s": "s", "smt.sat_s": "s",
    "smt.simplify_s": "s", "smt.theory_s": "s", "smt.theory_conflicts": "count",
    "smt.sat_calls": "count", "smt.sat_wasted_share": "share",
    "smt.instantiate_s": "s", "smt.instances": "count", "smt.lift_ites_s": "s",
    "smt.cnf_s": "s", "smt.cnf_clauses": "count", "smt.eq_lemmas_s": "s",
    "smt.validate_s": "s", "smt.peak_rss_mb": "MB",
    "par2_s.untraced": "s", "par2_s.traced": "s", "trace.overhead_share": "share",
}

# self-time metrics: metric -> span names
_SELF = {
    "proc.import_s": ("proc.import",),
    "policy.parse_s": ("policy.parse",), "sol.parse_s": ("sol.parse",),
    "sol.typecheck_s": ("sol.typecheck",), "sol.desugar_s": ("sol.desugar",),
    "sol.conformance_s": ("sol.conformance",), "instrument.s": ("instrument",),
    "translate.s": ("translate",), "translate.harness_s": ("translate.harness",),
    "houdini.s": ("houdini",), "unroll.s": ("unroll",), "vcgen.s": ("vcgen",),
    "bmc.s": ("bmc",), "smtio.wait_s": ("smtio",),
    "trace.extract_s": ("trace.extract",),
    "trace.replay_s": ("trace.replay", "vir.interp"),
    "smt.parse_s": ("smt.parse",), "smt.pools_s": ("smt.pools",),
    "smt.sat_s": ("smt.sat",), "smt.simplify_s": ("smt.simplify",),
    "smt.theory_s": ("smt.theory",), "smt.instantiate_s": ("smt.instantiate",),
    "smt.lift_ites_s": ("smt.lift_ites",), "smt.cnf_s": ("smt.cnf",),
    "smt.eq_lemmas_s": ("smt.eq_lemmas",), "smt.validate_s": ("smt.validate",),
}
# attribute sums: metric -> (span name, attribute)
_ATTR = {
    "candidates.n": ("candidates", "n"), "houdini.rounds": ("houdini", "rounds"),
    "houdini.queries": ("houdini", "queries"), "vcgen.bytes": ("vcgen", "bytes"),
    "smtio.bytes_sent": ("smtio", "bytes"), "smt.instances": ("smt.instantiate", "n"),
    "smt.cnf_clauses": ("smt.cnf", "clauses"),
    "smt.theory_conflicts": ("smt.theory", "conflict"),
}
# span counts
_COUNT = {"smtio.queries": "smtio", "smt.sat_calls": "smt.sat"}


def item_layers(verifier: list[dict], solver: list[dict]) -> dict[str, float]:
    """Layer metrics of one traced item run from the spans of its verifier
    and solver processes (span ids are per process)."""
    out: dict[str, float] = defaultdict(float)
    for spans in (verifier, solver):
        own = self_times(spans)
        for s in spans:
            if s["id"] not in own:
                continue
            for metric, names in _SELF.items():
                if s["name"] in names:
                    out[metric] += own[s["id"]]
            for metric, (name, attr) in _ATTR.items():
                if s["name"] == name:
                    out[metric] += float(s["attrs"].get(attr, 0))
            for metric, name in _COUNT.items():
                if s["name"] == name:
                    out[metric] += 1
    out["smtio.unknown"] = sum(1 for s in verifier if s["name"] == "smtio"
                               and s["attrs"].get("status") == "unknown")
    out.update(_bmc_per_k(verifier))
    out["proc.solver_spawn_s"] = _solver_spawn(verifier, solver)
    rss = [s["attrs"]["rss_mb"] for s in solver if s["name"] == "smt.exit"]
    out["smt.peak_rss_mb"] = max(rss, default=0.0)
    return dict(out)


def _bmc_per_k(verifier: list[dict]) -> dict[str, float]:
    """Wall time of each bounded query, by the k of the unrolling that
    precedes it (by position when no unrolling span exists)."""
    out: dict[str, float] = {}
    for bmc in (s for s in verifier if s["name"] == "bmc"):
        k, nth = None, 0
        for s in verifier:
            if s["parent"] != bmc["id"] or s["end"] is None:
                continue
            if s["name"] == "unroll":
                k = s["attrs"].get("k")
            elif s["name"] == "smtio":
                nth += 1
                key = f"bmc.solve_s.k{k if k is not None else nth}"
                out[key] = out.get(key, 0.0) + s["end"] - s["start"]
    return out


def _solver_spawn(verifier: list[dict], solver: list[dict]) -> float:
    """From the verifier starting its solver to the solver being ready to
    read its first command (interpreter start and imports)."""
    spawns = [s for s in verifier if s["name"] == "smtio.spawn"
              and s["attrs"].get("spawned")]
    ready = [s for s in solver if s["name"] == "smt.ready"]
    if not spawns or not ready:
        return 0.0
    return ready[0]["start"] - spawns[0]["start"]


def combine(per_item: dict[str, dict[str, float]]) -> dict[str, float]:
    """Workload layer metrics from per-item ones."""
    total: dict[str, float] = defaultdict(float)
    for metrics in per_item.values():
        for name, value in metrics.items():
            if name == "smt.peak_rss_mb":
                total[name] = max(total[name], value)
            else:
                total[name] += value
    calls = total.get("smt.sat_calls", 0.0)
    total["smt.sat_wasted_share"] = (total.get("smt.theory_conflicts", 0.0) / calls
                                     if calls else 0.0)
    return dict(total)
