"""Decision procedure for the query fragment the verifier emits.

Scope: boolean structure over equality with uninterpreted functions, arrays
(reduced to reads over base arrays by read-over-write rewriting), integer
difference arithmetic, and universally quantified allocation axioms handled
by instantiating them where their triggers match terms of the query.

`unsat` answers are sound: instantiation only adds consequences, and any
constraint outside the handled fragment is ignored rather than used, which
can only weaken refutations.  `sat` answers carry a model for the ground
part; out-of-fragment constraints are re-evaluated against that model and
the answer degrades to `unknown` on failure.  The engine treats results
accordingly (counterexamples are replayed before being reported).
"""

from __future__ import annotations

import itertools
import math

from solverify.smt.sat import Cdcl
from solverify.smt.terms import (
    BOOL_S, INT_S, Script, Term, TermBank, fold, is_array_sort, rebuild,
    substitute,
)


class SolverUnknown(Exception):
    pass


CONNECTIVES = {"and", "or", "not", "=>", "ite"}


# ---------------------------------------------------------------------------
# Simplification with read-over-write elimination

class Simplifier:
    def __init__(self, bank: TermBank):
        self.bank = bank
        self.cache: dict[int, Term] = {}
        self.linear: dict = {}  # linearize memo, shared with the theory
        self._select_memo: dict[int, dict[int, Term]] = {}  # key -> array -> read
        self._eq_memo: dict[int, dict[int, Term]] = {}      # const -> ite -> test

    def run(self, t: Term) -> Term:
        return fold([t], self._rw, self.cache)[0]

    def _mk(self, op, args, value=None, sort=None):
        return self.bank.mk(op, tuple(args), value=value, sort=sort)

    def _rw(self, t: Term, args: list[Term]) -> Term:
        if not t.args:
            return t
        if t.op == "select":
            return self._select(args[0], args[1])
        if t.op == "distinct":
            eqs = [self._fold(self._mk("=", pair, sort=BOOL_S))
                   for pair in itertools.combinations(args, 2)]
            parts = [self._fold(self._mk("not", [eq], sort=BOOL_S)) for eq in eqs]
            return self._fold(self._mk("and", parts, sort=BOOL_S))
        return self._fold(self._mk(t.op, args, value=t.value, sort=t.sort))

    def _select(self, base: Term, key: Term) -> Term:
        """Read-over-write: `base[key]` with the stores and ite branches of
        `base` resolved against `key` as far as equality folding decides."""
        tests: dict[int, Term] = {}

        def test(store: Term) -> Term:
            eq = tests.get(store.tid)
            if eq is None:
                eq = self._fold(self._mk("=", [store.args[1], key], sort=BOOL_S))
                tests[store.tid] = eq
            return eq

        def below(arr: Term) -> tuple:
            if arr.op == "store":
                eq = test(arr)
                return () if eq.op == "boolval" and eq.value else (arr.args[0],)
            return arr.args[1:] if arr.op == "ite" else ()

        def read(arr: Term, reads: list[Term]) -> Term:
            if arr.op == "store":
                eq, v = test(arr), arr.args[2]
                if eq.op == "boolval":
                    return v if eq.value else reads[0]
                return self._fold(self._mk("ite", [eq, v, reads[0]], sort=v.sort))
            if arr.op == "ite":
                return self._fold(self._mk("ite", [arr.args[0], *reads],
                                           sort=self._value_sort(arr)))
            return self._mk("select", [arr, key], sort=self._value_sort(arr))

        memo = self._select_memo.setdefault(key.tid, {})
        return fold([base], read, memo, below)[0]

    @staticmethod
    def _value_sort(arr_term: Term):
        return arr_term.sort[2] if is_array_sort(arr_term.sort) else None

    def _eq_const(self, ite_term: Term, const: Term) -> Term:
        """`ite_term = const` with the equality pushed into every ite leaf."""
        def below(t: Term) -> tuple:
            return tuple(x for x in t.args[1:] if x.op == "ite")

        def test(t: Term, tests: list[Term]) -> Term:
            it = iter(tests)
            sides = [next(it) if x.op == "ite"
                     else self._fold(self._mk("=", [x, const], sort=BOOL_S))
                     for x in t.args[1:]]
            return self._fold(self._mk("ite", [t.args[0], *sides], sort=BOOL_S))

        memo = self._eq_memo.setdefault(const.tid, {})
        return fold([ite_term], test, memo, below)[0]

    def _fold(self, t: Term) -> Term:
        bank = self.bank
        args = t.args
        if t.op == "not":
            a = args[0]
            if a.op == "boolval":
                return bank.boolval(not a.value)
            if a.op == "not":
                return a.args[0]
            return t
        if t.op == "and":
            flat = []
            for a in args:
                if a.op == "boolval":
                    if not a.value:
                        return bank.boolval(False)
                elif a.op == "and":
                    flat.extend(a.args)
                else:
                    flat.append(a)
            if not flat:
                return bank.boolval(True)
            return flat[0] if len(flat) == 1 else self._mk("and", flat, sort=BOOL_S)
        if t.op == "or":
            flat = []
            for a in args:
                if a.op == "boolval":
                    if a.value:
                        return bank.boolval(True)
                elif a.op == "or":
                    flat.extend(a.args)
                else:
                    flat.append(a)
            if not flat:
                return bank.boolval(False)
            return flat[0] if len(flat) == 1 else self._mk("or", flat, sort=BOOL_S)
        if t.op == "=>":
            a, b = args
            if a.op == "boolval":
                return b if a.value else bank.boolval(True)
            if b.op == "boolval":
                return bank.boolval(True) if b.value else \
                    self._fold(self._mk("not", [a], sort=BOOL_S))
            return t
        if t.op == "ite":
            c, a, b = args
            if c.op == "boolval":
                return a if c.value else b
            if a is b:
                return a
            return t
        if t.op == "=":
            a, b = args
            if a is b:
                return bank.boolval(True)
            if a.sort == INT_S:
                d = self._constant_difference(a, b)
                if d is not None:
                    return bank.boolval(d == 0)
            if a.op == "boolval" and b.op == "boolval":
                return bank.boolval(a.value == b.value)
            # Distributing equality-with-constant over ite turns finite-state
            # reads into boolean structure instead of theory atoms.
            if a.op == "ite" and b.op == "intval":
                return self._eq_const(a, b)
            if b.op == "ite" and a.op == "intval":
                return self._eq_const(b, a)
            return t
        if t.op in ("<", "<=", ">", ">="):
            d = self._constant_difference(*args)
            if d is not None:
                return bank.boolval({"<": d < 0, "<=": d <= 0,
                                     ">": d > 0, ">=": d >= 0}[t.op])
            return t
        if t.op in LINEAR_OPS:
            lin = linearize(t, self.linear)
            if lin is not None and not lin[1]:
                return bank.intval(lin[0])
            return t
        return t

    def _constant_difference(self, a: Term, b: Term) -> int | None:
        """a - b when it is a constant, else None.  Comparisons with a
        constant difference are decided here, so offset-key store tests
        (`x + i = x`) never reach CNF or the theory."""
        if a.op not in LINEAR_OPS and b.op not in LINEAR_OPS:
            # two leaves: distinct opaque terms never differ by a constant
            if a.op == b.op == "intval":
                return a.value - b.value
            return 0 if a is b else None
        d = difference(a, b, self.linear)
        return d[0] if d is not None and not d[1] else None


def euclidean(op: str, a: int, b: int) -> int:
    """SMT-LIB's `(div a b)` (op "div") or `(mod a b)`, b nonzero: the
    remainder is in [0, |b|)."""
    q = a // b if b > 0 else -(a // -b)
    return q if op == "div" else a - b * q


# ---------------------------------------------------------------------------
# Linear view of integer terms

LINEAR_OPS = ("+", "-", "neg", "*")


def linearize(t: Term, memo: dict | None = None):
    """(constant, {opaque term: coefficient}) or None if nonlinear.

    `memo` maps `tid` to the result; one query keeps one memo across calls,
    so every node of a sum is visited once however often it is asked."""
    return fold([t], _linear, memo, _linear_args)[0]


def _linear_args(t: Term) -> tuple:
    return t.args if t.op in LINEAR_OPS else ()


def _linear(t: Term, subs: list):
    op = t.op
    if op == "intval":
        return t.value, {}
    if op not in LINEAR_OPS:
        return 0, {t: 1}
    if op == "*":  # linear only with at most one non-constant factor
        scale = math.prod(a.value for a in t.args if a.op == "intval")
        others = [sub for a, sub in zip(t.args, subs) if a.op != "intval"]
        if not others:
            return scale, {}
        if len(others) > 1 or others[0] is None:
            return None
        const, coeffs = others[0]
        return const * scale, {k: v * scale for k, v in coeffs.items()}
    if any(sub is None for sub in subs):
        return None
    if op == "neg":
        const, coeffs = subs[0]
        return -const, {k: -v for k, v in coeffs.items()}
    const, coeffs = subs[0]
    coeffs = dict(coeffs)
    sign = -1 if op == "-" else 1
    for c, sub in subs[1:]:
        const += sign * c
        for k, v in sub.items():
            coeffs[k] = coeffs.get(k, 0) + sign * v
    return const, {k: v for k, v in coeffs.items() if v}


def difference(a: Term, b: Term, memo: dict):
    """linear(a) - linear(b) as (const, coeffs), or None if nonlinear."""
    la, lb = linearize(a, memo), linearize(b, memo)
    if la is None or lb is None:
        return None
    const = la[0] - lb[0]
    coeffs = dict(la[1])
    for k, v in lb[1].items():
        coeffs[k] = coeffs.get(k, 0) - v
    return const, {k: v for k, v in coeffs.items() if v}


# ---------------------------------------------------------------------------
# Congruence closure with explanations (rebuilt per theory check)

class _CCConflict(Exception):
    def __init__(self, lits: set[int]):
        self.lits = lits


class CC:
    def __init__(self, bank: TermBank):
        self.bank = bank
        self.parent: dict[int, int] = {}
        self.terms: dict[int, Term] = {}  # the terms added, by tid
        self.proof: dict[int, tuple[int, object] | None] = {}
        self.use: dict[int, list[Term]] = {}
        self.sig: dict[tuple, Term] = {}
        self.members: dict[int, list[int]] = {}
        self.true_t = bank.boolval(True)
        self.false_t = bank.boolval(False)
        self.add(self.true_t)
        self.add(self.false_t)

    def add(self, t: Term):
        fold([t], self._register, self.terms)

    def _register(self, t: Term, _args) -> Term:
        """Called once per new term, after its arguments (post-order)."""
        self.parent[t.tid] = t.tid
        self.proof[t.tid] = None
        self.members[t.tid] = [t.tid]
        if t.args:
            for a in t.args:
                self.use.setdefault(self.find(a.tid), []).append(t)
            self._congruence(t)
        return t

    def find(self, tid: int) -> int:
        root = tid
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[tid] != root:
            self.parent[tid], tid = root, self.parent[tid]
        return root

    def _signature(self, t: Term):
        return (t.op, t.value, tuple(self.find(a.tid) for a in t.args))

    def _congruence(self, t: Term):
        key = self._signature(t)
        other = self.sig.get(key)
        if other is None:
            self.sig[key] = t
        elif self.find(other.tid) != self.find(t.tid):
            self._union(t, other, ("cong", t, other))

    def merge(self, a: Term, b: Term, lit: int):
        self.add(a)
        self.add(b)
        self._union(a, b, ("lit", lit))

    def _union(self, a: Term, b: Term, reason):
        ra, rb = self.find(a.tid), self.find(b.tid)
        if ra == rb:
            return
        self._reroot(b.tid)
        self.proof[b.tid] = (a.tid, reason)
        self.parent[rb] = ra
        self.members[ra].extend(self.members.pop(rb, []))
        moved = self.use.pop(rb, [])
        self.use.setdefault(ra, []).extend(moved)
        for t in list(moved):
            self._congruence(t)
        # true/false collapse is the canonical boolean conflict
        if self.find(self.true_t.tid) == self.find(self.false_t.tid):
            lits: set[int] = set()
            self.explain(self.true_t, self.false_t, lits)
            raise _CCConflict(lits)

    def _reroot(self, tid: int):
        prev = None
        cur = tid
        while True:
            step = self.proof[cur]
            self.proof[cur] = prev
            if step is None:
                break
            prev = (cur, step[1])
            cur = step[0]

    def same(self, a: Term, b: Term) -> bool:
        self.add(a)
        self.add(b)
        return self.find(a.tid) == self.find(b.tid)

    def explain(self, a: Term, b: Term, out: set[int]):
        """Add to `out` the literals that merged `a` and `b`: the proof-forest
        paths to where they meet, with each congruence step's argument pairs
        explained in turn."""
        todo, done = [(a.tid, b.tid)], set()
        while todo:
            pair = todo.pop()
            if pair in done:
                continue
            done.add(pair)
            path_a, path_b = self._path(pair[0]), self._path(pair[1])
            on_a = {tid for tid, _ in path_a}
            meet = next((tid for tid, _ in path_b if tid in on_a), None)
            if meet is None:
                continue
            for path in (path_a, path_b):
                for tid, reason in path:
                    if tid == meet:
                        break
                    if reason is None:
                        continue
                    if reason[0] == "lit":
                        out.add(reason[1])
                    else:  # congruence
                        todo.extend((x.tid, y.tid) for x, y in
                                    zip(reason[1].args, reason[2].args))

    def _path(self, tid: int):
        out = []
        cur = tid
        while True:
            step = self.proof[cur]
            if step is None:
                out.append((cur, None))
                return out
            out.append((cur, step[1]))
            cur = step[0]


# ---------------------------------------------------------------------------
# Theory solver: EUF + integer difference constraints

ZERO = -1  # origin of the difference graph; a value is a potential minus ZERO's
COMPARISONS = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}  # op -> its negation


class Theory:
    def __init__(self, bank: TermBank, atoms: dict[int, Term], linear: dict):
        self.bank = bank
        self.atoms = atoms  # sat var -> atom term
        self.linear = linear  # the query's linearize memo
        self.constraints: dict[int, tuple] = {}  # literal -> what it asserts
        self.model_ints: dict[int, int] = {}
        self.model_classes: dict[int, int] = {}
        self.cc: CC | None = None
        self.incomplete = False  # the last check ignored a constraint

    def check(self, assignment: dict[int, bool]):
        """None when consistent (model stored), else conflict literal list."""
        cc = CC(self.bank)
        self.cc = cc
        self.incomplete = False
        diseqs, dl_terms, edges = [], [], []
        try:
            for var, atom in self.atoms.items():
                if var not in assignment:
                    continue
                lit = var if assignment[var] else -var
                asserted = self.constraints.get(lit)
                if asserted is None:
                    asserted = self.constraints[lit] = self._constraint(atom, lit)
                merge, diseq, terms, lit_edges, outside = asserted
                if merge is not None:
                    cc.merge(*merge, lit)
                if diseq is not None:
                    diseqs.append(diseq)
                dl_terms.extend(terms)
                edges.extend(lit_edges)
                self.incomplete |= outside
            for a, b, lit, _, _ in diseqs:
                if cc.same(a, b):
                    lits = {lit}
                    cc.explain(a, b, lits)
                    return sorted(lits)
        except _CCConflict as conflict:
            return sorted(conflict.lits)
        conflict = self._difference_check(cc, dl_terms, edges, diseqs)
        return None if conflict is None else sorted(conflict)

    def _constraint(self, atom: Term, lit: int) -> tuple:
        """What `lit` asserts of `atom`: (terms to merge in CC, disequality
        (a, b, lit, items, const), difference terms, their edges, whether
        part of it is outside the fragment).  A disequality's `items` and
        `const` are its linear difference over term ids, if it has one; its
        terms are difference terms too, so that they get potentials."""
        value = lit > 0
        merge = diseq = None
        bounds = []  # (const, coeffs): const + sum(coeffs) <= 0
        terms: list[Term] = []
        outside = False
        if atom.op == "=":
            a, b = atom.args
            lin = difference(a, b, self.linear) if a.sort == INT_S else None
            if value:
                merge = (a, b)
                if lin is not None:
                    bounds = [lin, _negate(lin)]
            elif lin is None:
                diseq = (a, b, lit, None, 0)
            else:
                diseq = (a, b, lit, _by_tid(lin[1]), lin[0])
                terms.extend(lin[1])
        elif atom.op in COMPARISONS:
            lin = difference(*atom.args, self.linear)
            op = atom.op if value else COMPARISONS[atom.op]
            if lin is None:
                outside = True
            else:
                const, coeffs = lin if op in ("<", "<=") else _negate(lin)
                bounds = [(const + (op in ("<", ">")), coeffs)]
        elif atom.op in ("select", "app"):  # boolean-sorted theory atoms
            merge = (atom, self.bank.boolval(value))
        # plain boolean symbols carry no theory content
        edges = []
        for const, coeffs in bounds:
            terms.extend(coeffs)
            edge = _as_edge(_by_tid(coeffs), const)
            if edge is None:
                outside = True
            else:
                edges.append((*edge, frozenset((lit,))))
        return merge, diseq, tuple(terms), tuple(edges), outside

    def _difference_check(self, cc: CC, dl_terms: list[Term], edges: list,
                          diseqs: list):
        # Terms a congruence class proved equal get zero-weight edges whose
        # reasons carry the merge explanation, so conflicts blame every
        # literal involved.  Every term of a disequality is a node, with or
        # without edges, so that the disequality is tested.
        by_tid: dict[int, Term] = {}
        for t in dl_terms:
            cc.add(t)
            by_tid[t.tid] = t
        by_class: dict[int, list[int]] = {}
        for tid in by_tid:
            by_class.setdefault(cc.find(tid), []).append(tid)
        for tids in by_class.values():
            tids.sort()
            for a_tid, b_tid in zip(tids, tids[1:]):
                reasons: set[int] = set()
                cc.explain(by_tid[a_tid], by_tid[b_tid], reasons)
                edges.append((a_tid, b_tid, 0, reasons))
                edges.append((b_tid, a_tid, 0, reasons))

        graph, nodes = _graph(edges)
        for _, _, _, items, _ in diseqs:
            nodes.update(items or ())
        dist, cycle = _bellman(graph, nodes)
        if cycle is not None:
            return cycle

        # Separate each integer disequality the potentials violate by one
        # edge on either side.  One whose two sides both close a negative
        # cycle over the asserted edges is forced: a conflict.
        separated = False
        while True:
            collision = next((d for d in diseqs if _collides(dist, d[3], d[4])), None)
            if collision is None:
                break
            _, _, lit, items, const = collision
            new_dist, forced = _separate(graph, nodes, items, const)
            if new_dist is not None:
                dist, separated = new_dist, True
                continue
            if forced is not None and separated:
                _, forced = _separate(_graph(edges)[0], nodes, items, const)
            if forced is None:
                self.incomplete = True
                break
            return {lit} | forced

        self.model_ints = dist
        return None

    # -- model ----------------------------------------------------------------

    def model_value(self, t: Term, assignment: dict[int, bool], atom_vars: dict[int, int],
                    fixed: dict[int, int] | None = None):
        """Evaluate a term under the theory model, with the integer terms in
        `fixed` (by id) taking the value it gives them."""
        cc = self.cc
        if t.op == "intval":
            return t.value
        if t.op == "boolval":
            return t.value
        lin = linearize(t, self.linear) if t.sort == INT_S else None
        if lin is not None:
            const, coeffs = lin
            total = const
            for sub, coeff in coeffs.items():
                if fixed and sub.tid in fixed:
                    total += coeff * fixed[sub.tid]
                else:
                    total += coeff * self._class_int(sub)
            return total
        if t.sort == BOOL_S:
            var = atom_vars.get(t.tid)
            if var is not None and var in assignment:
                return assignment[var]
            if cc is not None and t.tid in cc.parent:
                if cc.find(t.tid) == cc.find(cc.true_t.tid):
                    return True
                if cc.find(t.tid) == cc.find(cc.false_t.tid):
                    return False
            return False
        # uninterpreted sorts: class index
        return self._class_ref(t)

    def _class_int(self, t: Term) -> int:
        cc = self.cc
        if cc is None or t.tid not in cc.parent:
            return 0
        zero_origin = self.model_ints.get(ZERO, 0)
        if t.tid in self.model_ints:
            return self.model_ints[t.tid] - zero_origin
        root = cc.find(t.tid)
        for member in cc.members.get(root, ()):  # class members share a value
            if member in self.model_ints:
                return self.model_ints[member] - zero_origin
        return 1000 + (root % 100003)  # unconstrained: distinct per class

    def _class_ref(self, t: Term) -> int:
        cc = self.cc
        if cc is None:
            return 0
        cc.add(t)
        root = cc.find(t.tid)
        cache = self.model_classes
        if root not in cache:
            cache[root] = len(cache) + 1
        return cache[root]


def _negate(lin):
    const, coeffs = lin
    return -const, {t: -v for t, v in coeffs.items()}


def _by_tid(coeffs: dict[Term, int]) -> dict[int, int]:
    return {t.tid: v for t, v in coeffs.items()}


def _collides(dist: dict[int, int], items: dict[int, int] | None, const: int) -> bool:
    """Whether the potentials make `const + sum(items)` zero."""
    if items is None or any(n not in dist for n in items):
        return False
    origin = dist[ZERO]
    return const + sum(v * (dist[n] - origin) for n, v in items.items()) == 0


def _separate(graph, nodes, items: dict[int, int], const: int):
    """Add `const + sum(items) <= -1`, or else `>= 1`, to the graph.
    (potentials, None) for the first side that keeps it consistent;
    (None, reasons of both negative cycles) when neither does; (None, None)
    when the sides are not difference edges."""
    reasons: set[int] = set()
    for sign in (1, -1):
        edge = _as_edge({n: sign * v for n, v in items.items()}, sign * const + 1)
        if edge is None:
            return None, None
        x, y, w = edge
        graph.setdefault(y, []).append((x, w, frozenset()))
        dist, cycle = _bellman(graph, nodes)
        if cycle is None:
            return dist, None
        graph[y].pop()
        reasons |= cycle
    return None, reasons


def _as_edge(items: dict[int, int], const: int):
    """`const + sum(items) <= 0` as a difference edge (x, y, w), meaning
    x - y <= w, or None.  A constant is a self-loop on ZERO."""
    pos = [n for n, v in items.items() if v == 1]
    neg = [n for n, v in items.items() if v == -1]
    if len(pos) > 1 or len(neg) > 1 or len(pos) + len(neg) < len(items):
        return None
    return (pos[0] if pos else ZERO, neg[0] if neg else ZERO, -const)


def _graph(edges):
    """Edges (x, y, w, reasons) as adjacency lists by source y, and the nodes."""
    graph: dict[int, list[tuple[int, int, set[int]]]] = {}
    nodes = {ZERO}
    for x, y, w, lits in edges:
        graph.setdefault(y, []).append((x, w, lits))
        nodes.add(x)
        nodes.add(y)
    return graph, nodes


def _bellman(graph, nodes):
    """Shortest-path potentials or a negative cycle's reason literals."""
    dist = {n: 0 for n in nodes}
    pred: dict[int, tuple[int, set[int]]] = {}
    for _ in range(len(nodes) + 1):
        changed = False
        for y, outs in graph.items():
            dy = dist[y]
            for x, w, lits in outs:
                if dy + w < dist[x]:
                    dist[x] = dy + w
                    pred[x] = (y, lits)
                    changed = True
        if not changed:
            return dist, None
    for start in nodes:
        cur, seen, order = start, {}, []
        while cur in pred:
            if cur in seen:
                reasons: set[int] = set()
                for n in order[seen[cur]:]:
                    reasons |= pred[n][1]
                return None, reasons
            seen[cur] = len(order)
            order.append(cur)
            cur = pred[cur][0]
    return dist, None


# ---------------------------------------------------------------------------
# CNF conversion

class CNF:
    def __init__(self, bank: TermBank):
        self.bank = bank
        self.var_of: dict[int, int] = {}
        self.lit_of: dict[int, int] = {}  # term -> Tseitin literal
        self.atom_terms: dict[int, Term] = {}
        self.clauses: list[list[int]] = []
        self.nvars = 0

    def new_var(self) -> int:
        self.nvars += 1
        return self.nvars

    def var_for(self, t: Term) -> int:
        v = self.var_of.get(t.tid)
        if v is None:
            v = self.new_var()
            self.var_of[t.tid] = v
        return v

    def assert_root(self, t: Term):
        lit = self.convert(t)
        self.clauses.append([lit])

    def convert(self, t: Term) -> int:
        """Tseitin literal of a boolean term (definitions added once)."""
        return fold([t], self._encode, self.lit_of, _connective_args)[0]

    def _encode(self, t: Term, lits: list[int]) -> int:
        op = t.op
        if op == "not":
            return -lits[0]
        v = self.var_for(t)
        add = self.clauses.append
        if op == "boolval":
            add([v] if t.value else [-v])
        elif op == "and":
            for l in lits:
                add([-v, l])
            add([v] + [-l for l in lits])
        elif op == "or":
            for l in lits:
                add([-l, v])
            add([-v] + lits)
        elif op == "=>":  # v <-> (-a or b)
            a, b = lits
            add([-v, -a, b])
            add([a, v])
            add([-b, v])
        elif op == "ite":  # boolean ite
            c, a, b = lits
            add([-v, -c, a])
            add([-v, c, b])
            add([v, -c, -a])
            add([v, c, -b])
        elif lits:  # = over booleans
            a, b = lits
            add([-v, -a, b])
            add([-v, a, -b])
            add([v, a, b])
            add([v, -a, -b])
        elif op != "sym":  # theory atom
            self.atom_terms[v] = t
        elif t.sort == BOOL_S:  # boolean symbol
            self.atom_terms.setdefault(v, t)
        return v


def _connective_args(t: Term) -> tuple:
    """The arguments CNF encodes as booleans; theory atoms are leaves."""
    if t.op in CONNECTIVES or (t.op == "=" and t.args[0].sort == BOOL_S):
        return t.args
    return ()


# ---------------------------------------------------------------------------
# SAT search

def _sat_solve(clauses: list[list[int]], nvars: int, theory: "Theory | None" = None):
    """A model (var -> bool) of the clauses that `theory` accepts, or None."""
    return Cdcl(nvars, clauses, theory).solve()


# ---------------------------------------------------------------------------
# Top level

class GroundSolver:
    def __init__(self, bank: TermBank, linear: dict):
        self.bank = bank
        self.linear = linear  # the query's linearize memo
        self.cnf = CNF(bank)
        self.theory: Theory | None = None
        self.assignment: dict[int, bool] | None = None
        self.fixed: dict[int, int] = {}  # div/mod term id -> its value

    def solve(self, assertions: list[Term]) -> str:
        for a in assertions:
            if a.op == "boolval":
                if not a.value:
                    return "unsat"
                continue
            self.cnf.assert_root(a)
        self._add_equality_lemmas()
        theory = Theory(self.bank, self.cnf.atom_terms, self.linear)
        self.theory = theory
        model = _sat_solve(self.cnf.clauses, self.cnf.nvars, theory)
        if model is None:
            return "unsat"
        self.assignment = model
        if theory.incomplete or not self._validate(theory, model):
            return "unknown"
        return "sat"

    def _add_equality_lemmas(self):
        """Eager equality reasoning in the boolean layer: transitivity
        triangles over existing equality atoms and exclusion between
        equalities of one term with distinct constants.  The theory check
        remains the backstop; these just keep conflicts out of the loop."""
        eq_var: dict[tuple[int, int], int] = {}
        by_term: dict[int, list[tuple[int, int]]] = {}
        const_eqs: dict[int, list[tuple[int, int]]] = {}
        for var, atom in self.cnf.atom_terms.items():
            if atom.op != "=" or len(atom.args) != 2:
                continue
            a, b = atom.args
            if a.sort == BOOL_S:
                continue
            key = (min(a.tid, b.tid), max(a.tid, b.tid))
            eq_var[key] = var
            by_term.setdefault(a.tid, []).append((b.tid, var))
            by_term.setdefault(b.tid, []).append((a.tid, var))
            if a.op == "intval" and b.op != "intval":
                const_eqs.setdefault(b.tid, []).append((a.value, var))
            elif b.op == "intval" and a.op != "intval":
                const_eqs.setdefault(a.tid, []).append((b.value, var))

        for partners in const_eqs.values():
            for i in range(len(partners)):
                for j in range(i + 1, len(partners)):
                    (c1, v1), (c2, v2) = partners[i], partners[j]
                    if c1 != c2:
                        self.cnf.clauses.append([-v1, -v2])

        budget = 20000
        for b_tid, partners in by_term.items():
            if len(partners) < 2:
                continue
            for i in range(len(partners)):
                for j in range(i + 1, len(partners)):
                    a_tid, v_ab = partners[i]
                    c_tid, v_bc = partners[j]
                    if a_tid == c_tid:
                        continue
                    key = (min(a_tid, c_tid), max(a_tid, c_tid))
                    v_ac = eq_var.get(key)
                    if v_ac is None:
                        continue
                    self.cnf.clauses.append([-v_ab, -v_bc, v_ac])
                    self.cnf.clauses.append([-v_ab, -v_ac, v_bc])
                    self.cnf.clauses.append([-v_bc, -v_ac, v_ab])
                    budget -= 3
                    if budget <= 0:
                        return

    def _validate(self, theory: "Theory", model: dict[int, bool]) -> bool:
        """Evaluate arithmetic/equality atoms under the candidate model; a
        mismatch downgrades the answer rather than shipping a bad model.
        The theory leaves `div` and `mod` terms opaque, so each one with a
        nonzero divisor is evaluated as SMT-LIB defines it instead, innermost
        first: the model stands if the atoms still hold with those values."""
        atom_vars = {term.tid: var for var, term in self.cnf.atom_terms.items()}
        fixed = self.fixed

        def value(t: Term):
            return theory.model_value(t, model, atom_vars, fixed)

        divisions: list[Term] = []
        fold(self.cnf.atom_terms.values(),
             lambda t, _: t.op in ("div", "mod") and divisions.append(t))
        for t in divisions:
            b = value(t.args[1])
            if b != 0:
                fixed[t.tid] = euclidean(t.op, value(t.args[0]), b)
        for var, atom in self.cnf.atom_terms.items():
            if var not in model or atom.op not in ("=", "<", "<=", ">", ">="):
                continue
            a, b = value(atom.args[0]), value(atom.args[1])
            got = {"=": a == b, "<": a < b, "<=": a <= b,
                   ">": a > b, ">=": a >= b}[atom.op]
            if got != model[var]:
                return False
        return True

    def value_of(self, t: Term):
        return self.theory.model_value(t, self.assignment or {},
                                       {term.tid: var for var, term
                                        in self.cnf.atom_terms.items()},
                                       self.fixed)


def _polarity_extract(bank: TermBank, t: Term, proxies: list, polarity: bool,
                      forall_memo: dict) -> Term:
    """Replace positive-polarity foralls with proxy booleans; a negative
    occurrence is outside the fragment.  Only the boolean structure above a
    quantifier is walked."""
    if not _has_forall(t, forall_memo):
        return t
    if t.op == "forall":
        if not polarity:
            raise SolverUnknown("negative quantifier")
        proxy = bank.sym(f"qproxy!{len(proxies)}", BOOL_S)
        proxies.append((proxy, t))
        return proxy

    def sub(x: Term, pol: bool) -> Term:
        return _polarity_extract(bank, x, proxies, pol, forall_memo)

    if t.op == "not":
        return bank.mk("not", (sub(t.args[0], not polarity),), sort=BOOL_S)
    if t.op in ("and", "or"):
        return bank.mk(t.op, tuple(sub(a, polarity) for a in t.args), sort=BOOL_S)
    if t.op == "=>":
        a = sub(t.args[0], not polarity)
        return bank.mk("=>", (a, sub(t.args[1], polarity)), sort=BOOL_S)
    if t.op == "ite" and t.sort == BOOL_S:
        c = t.args[0]  # both polarities; quantifier-free conditions only
        if _has_forall(c, forall_memo):
            raise SolverUnknown("quantifier in ite condition")
        a = sub(t.args[1], polarity)
        return bank.mk("ite", (c, a, sub(t.args[2], polarity)), sort=BOOL_S)
    raise SolverUnknown("quantifier in unsupported position")


def _has_forall(t: Term, memo: dict) -> bool:
    return fold([t], lambda x, below: x.op == "forall" or any(below), memo)[0]


def _collect_pools(bank: TermBank, roots: list[Term]) -> tuple[dict, CC]:
    """The instantiation index, the ground `select`/`app` terms by (op,
    value), and the may-equal closure that triggers match modulo: a CC in
    which both sides of every ground non-Bool, non-Int equality (of either
    polarity) and every such ite and its branches are merged."""
    index: dict = {}
    cc = CC(bank)

    def visit(t: Term, args_bound: list[bool]) -> bool:
        if t.op == "boundvar" or any(args_bound):
            return True
        if t.op in ("select", "app"):
            index.setdefault((t.op, t.value), []).append(t)
        elif t.op in ("=", "ite") and t.args[-1].sort not in (BOOL_S, INT_S):
            for other in t.args[1:]:
                cc.merge(t if t.op == "ite" else t.args[0], other, 0)
        return False

    fold(roots, visit)
    return index, cc


def _match(cc: CC, free: dict, pat: Term, g: Term, binding: dict) -> list[dict]:
    """The extensions of `binding` under which the pattern `pat` matches the
    ground term `g`: a ground Int or Bool subterm of it matches any term of
    its sort, any other ground subterm the terms of its class in `cc`."""
    if pat.op == "boundvar":
        if pat.value not in binding:
            return [{**binding, pat.value: g}]
        pat = binding[pat.value]
    if not free.get(pat.tid):
        same = pat.sort == g.sort and (pat.sort in (INT_S, BOOL_S) or cc.same(pat, g))
        return [binding] if same else []
    if (g.op, g.value, len(g.args)) != (pat.op, pat.value, len(pat.args)):
        return []
    found = [binding]
    for p, a in zip(pat.args, g.args):
        found = [b for part in found for b in _match(cc, free, p, a, part)]
    return found


def _instantiate(bank: TermBank, simp: Simplifier, proxies: list,
                 pools: tuple[dict, CC], seen_instances: set) -> list[Term]:
    """Instances of each axiom at the matches of its triggers: each
    `select`/`app` pattern of its body that covers every bound variable,
    else one multi-pattern joined from patterns until they cover them all."""
    index, cc = pools
    out = []
    for proxy, forall in proxies:
        names = []
        body = forall
        while body.op == "forall":
            names.append(body.value[0])
            body = body.args[0]
        patterns: list[Term] = []

        def scope(t: Term, below: list[frozenset]) -> frozenset:
            bound = (frozenset([t.value]) if t.op == "boundvar" and t.value in names
                     else frozenset().union(*below))
            if bound and t.op in ("select", "app"):
                patterns.append(t)
            return bound

        free: dict = {}
        need = fold([body], scope, free)[0]
        multi, covered = [], frozenset()
        for p in patterns:
            if not free[p.tid] <= covered:
                multi.append(p)
                covered |= free[p.tid]
        if covered != need:
            raise SolverUnknown("a bound variable is under no trigger")
        order = [name for name in names if name in need]
        combos = set()
        for trigger in [(p,) for p in patterns if free[p.tid] == need] or [multi]:
            found = [{}]
            for pat in trigger:
                found = [b for part in found for g in index.get((pat.op, pat.value), ())
                         for b in _match(cc, free, pat, g, part)]
            combos.update(tuple(b[name] for name in order) for b in found)
        for combo in sorted(combos, key=lambda c: [t.tid for t in c]):
            key = (proxy.tid, forall.tid, combo)
            if key in seen_instances:
                continue
            seen_instances.add(key)
            inst = simp.run(substitute(bank, body, dict(zip(order, combo))))
            if inst.op == "boolval" and inst.value:
                continue
            out.append(bank.mk("=>", (proxy, inst), sort=BOOL_S))
            if len(out) > 20000:
                raise SolverUnknown("instantiation budget exhausted")
    return out


def lift_ites(bank: TermBank, roots: list[Term]) -> list[Term]:
    """Name non-boolean ite terms with fresh symbols and defining clauses."""
    defs: list[Term] = []
    memo: dict[int, Term] = {}
    counter = itertools.count()

    def lift(t: Term, args: list[Term]) -> Term:
        out = rebuild(bank, t, args)
        if out.op == "ite" and out.sort != BOOL_S and not is_array_sort(out.sort):
            c, a, b = out.args
            v = bank.sym(f"ite!{next(counter)}", out.sort)
            defs.append(bank.mk("=>", (c, bank.mk("=", (v, a), sort=BOOL_S)),
                                sort=BOOL_S))
            defs.append(bank.mk("=>", (bank.mk("not", (c,), sort=BOOL_S),
                                       bank.mk("=", (v, b), sort=BOOL_S)),
                                sort=BOOL_S))
            out = v
        return out

    out_roots = fold(roots, lift, memo)
    # definitions can contain further ites
    i = 0
    while i < len(defs):
        defs[i] = fold([defs[i]], lift, memo)[0]
        i += 1
    return out_roots + defs


class Solved:
    """Result handle: the answer plus model evaluation for further terms."""

    def __init__(self, answer: str, solver: GroundSolver | None,
                 simp: Simplifier | None):
        self.answer = answer
        self._solver = solver
        self._simp = simp

    def value_of(self, t: Term):
        if self.answer != "sat" or self._solver is None:
            return None
        return self._solver.value_of(self._simp.run(t))


def solve(script: Script) -> Solved:
    bank = script.bank
    simp = Simplifier(bank)
    try:
        roots = [simp.run(a) for a in script.assertions]
        proxies: list = []
        forall_memo: dict = {}
        roots = [_polarity_extract(bank, r, proxies, True, forall_memo)
                 for r in roots]
        # Instances attach as proxy => instance; the formula itself forces a
        # proxy true exactly on the paths where its axiom was assumed.

        seen_instances: set = set()
        for _round in range(3 if proxies else 0):
            pools = _collect_pools(bank, roots + [f for _, f in proxies])
            insts = _instantiate(bank, simp, proxies, pools, seen_instances)
            if not insts:
                break
            roots.extend(insts)

        roots = lift_ites(bank, [simp.run(r) for r in roots])
        solver = GroundSolver(bank, simp.linear)
        answer = solver.solve(roots)
    except SolverUnknown:
        return Solved("unknown", None, None)
    return Solved(answer, solver if answer == "sat" else None, simp)

