"""Conflict-driven clause learning with a theory hook (CDCL(T)).

MiniSat-style search (Eén & Sörensson, SAT 2003): two watched literals,
first-UIP learning with non-chronological backjumping, activity-ordered
decisions with phase saving, and restarts on a Luby schedule.  A theory
(DPLL(T), Nieuwenhuis, Oliveras & Tinelli, JACM 2006) is consulted on every
complete assignment; its conflict becomes a learnt clause and a backjump in
the same search, so one call decides the whole query.

Literals use the DIMACS convention at the interface (variable v is `v`, its
negation `-v`) and the code 2v / 2v+1 inside.  The search is deterministic:
ties in activity go to the lower variable.
"""

from __future__ import annotations

import heapq

RESTART_UNIT = 100      # conflicts per unit of the Luby sequence
VAR_DECAY = 0.95


def luby(i: int) -> int:
    """The i-th element (from 0) of 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ..."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


class Cdcl:
    def __init__(self, nvars: int, clauses, theory=None):
        self.nvars = nvars
        self.theory = theory
        n2 = 2 * nvars + 2
        self.val = [0] * n2             # literal code -> 1 true, -1 false, 0 open
        self.level = [0] * (nvars + 1)
        self.reason: list[list[int] | None] = [None] * (nvars + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(n2)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0] * (nvars + 1)
        self.var_inc = 1.0
        self.phase = [False] * (nvars + 1)
        self.heap = [(-0.0, v) for v in range(1, nvars + 1)]
        self.ok = self._add_input(clauses)

    # -- clause database ------------------------------------------------------

    def _add_input(self, clauses) -> bool:
        val = self.val
        for clause in clauses:
            lits = set()
            for lit in clause:
                lits.add(2 * lit if lit > 0 else -2 * lit + 1)
            if any(l ^ 1 in lits for l in lits):
                continue  # tautology
            c = [l for l in sorted(lits) if val[l] != -1]
            if any(val[l] == 1 for l in c):
                continue
            if not c:
                return False
            if len(c) == 1:
                self._assign(c[0], None)
                if self._propagate() is not None:
                    return False
                continue
            self.watches[c[0]].append(c)
            self.watches[c[1]].append(c)
        return True

    def _attach_learnt(self, c: list[int]):
        """Watch a falsified clause on its two most recently assigned literals,
        which are the first to become open again on backjumping."""
        level = self.level
        best = max(range(len(c)), key=lambda i: level[c[i] >> 1])
        c[0], c[best] = c[best], c[0]
        best = max(range(1, len(c)), key=lambda i: level[c[i] >> 1])
        c[1], c[best] = c[best], c[1]
        self.watches[c[0]].append(c)
        self.watches[c[1]].append(c)

    # -- trail ------------------------------------------------------------------

    def _assign(self, lit: int, reason):
        self.val[lit] = 1
        self.val[lit ^ 1] = -1
        v = lit >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _backjump(self, lvl: int):
        if len(self.trail_lim) <= lvl:
            return
        stop = self.trail_lim[lvl]
        val, phase, reason, act, heap = (self.val, self.phase, self.reason,
                                         self.activity, self.heap)
        trail = self.trail
        for i in range(len(trail) - 1, stop - 1, -1):
            lit = trail[i]
            v = lit >> 1
            val[lit] = val[lit ^ 1] = 0
            phase[v] = not (lit & 1)
            reason[v] = None
            heapq.heappush(heap, (-act[v], v))
        del trail[stop:]
        del self.trail_lim[lvl:]
        self.qhead = stop
        if len(heap) > 4 * self.nvars:
            self._rebuild_heap()

    def _rebuild_heap(self):
        """Drop the stale entries of assigned variables from the order heap."""
        act, val = self.activity, self.val
        self.heap = [(-act[v], v) for v in range(1, self.nvars + 1)
                     if not val[2 * v]]
        heapq.heapify(self.heap)

    def _propagate(self):
        """Unit propagation over the watches; the falsified clause or None."""
        val, watches, trail = self.val, self.watches, self.trail
        while self.qhead < len(trail):
            false_lit = trail[self.qhead] ^ 1
            self.qhead += 1
            ws = watches[false_lit]
            keep = []
            i, n = 0, len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                if val[first] == 1:
                    keep.append(c)
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if val[lit] != -1:
                        c[1], c[k] = lit, false_lit
                        watches[lit].append(c)
                        break
                else:
                    keep.append(c)
                    if val[first] == -1:
                        keep.extend(ws[i:])
                        watches[false_lit] = keep
                        return c
                    self._assign(first, c)
            watches[false_lit] = keep
        return None

    # -- conflicts -----------------------------------------------------------------

    def _bump(self, v: int):
        act = self.activity
        act[v] += self.var_inc
        if act[v] > 1e100:
            for u in range(1, self.nvars + 1):
                act[u] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()

    def _analyze(self, confl: list[int]):
        """First-UIP learnt clause (asserting literal first) and the level to
        backjump to."""
        level, reason, trail = self.level, self.reason, self.trail
        current = len(self.trail_lim)
        seen = set()
        learnt = [0]
        pending = 0
        idx = len(trail) - 1
        clause, skip_first = confl, False
        while True:
            for q in (clause[1:] if skip_first else clause):
                v = q >> 1
                if v not in seen and level[v] > 0:
                    seen.add(v)
                    self._bump(v)
                    if level[v] == current:
                        pending += 1
                    else:
                        learnt.append(q)
            while (trail[idx] >> 1) not in seen:
                idx -= 1
            p = trail[idx]
            idx -= 1
            pending -= 1
            if pending == 0:
                break
            clause, skip_first = reason[p >> 1], True
            seen.discard(p >> 1)
        learnt[0] = p ^ 1
        self.var_inc /= VAR_DECAY
        if len(learnt) == 1:
            return learnt, 0
        best = max(range(1, len(learnt)), key=lambda i: level[learnt[i] >> 1])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _learn(self, confl: list[int]) -> bool:
        """Resolve a falsified clause into a learnt one, backjump and assert
        it; False when the conflict holds at level 0."""
        lvl = max(self.level[l >> 1] for l in confl)
        if lvl == 0:
            return False
        self._backjump(lvl)
        learnt, back = self._analyze(confl)
        self._backjump(back)
        if len(learnt) == 1:
            self._assign(learnt[0], None)
        else:
            self.watches[learnt[0]].append(learnt)
            self.watches[learnt[1]].append(learnt)
            self._assign(learnt[0], learnt)
        return True

    def _theory_conflict(self) -> list[int] | None:
        """Run the theory on the complete assignment; its conflict as a
        falsified clause, [] when it is unconditional, None when consistent."""
        val = self.val
        model = {v: val[2 * v] == 1 for v in range(1, self.nvars + 1)}
        conflict = self.theory.check(model)
        if conflict is None:
            return None
        return [2 * -l if l < 0 else 2 * l + 1 for l in conflict]

    # -- search ----------------------------------------------------------------------

    def _decide(self) -> int | None:
        heap, val = self.heap, self.val
        while heap:
            _, v = heapq.heappop(heap)
            if not val[2 * v]:
                return 2 * v if self.phase[v] else 2 * v + 1
        return None

    def solve(self):
        """A model as {var: bool}, or None when unsatisfiable."""
        if not self.ok:
            return None
        restarts, budget = 0, RESTART_UNIT * luby(0)
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self._learn(confl):
                    return None
                budget -= 1
                continue
            if budget <= 0:
                restarts += 1
                budget = RESTART_UNIT * luby(restarts)
                self._backjump(0)
                continue
            lit = self._decide()
            if lit is None:
                if self.theory is None:
                    break
                clause = self._theory_conflict()
                if clause is None:
                    break
                if not clause:
                    return None
                if len(clause) > 1:
                    self._attach_learnt(clause)
                if not self._learn(clause):
                    return None
                budget -= 1
                continue
            self.trail_lim.append(len(self.trail))
            self._assign(lit, None)
        val = self.val
        return {v: val[2 * v] == 1 for v in range(1, self.nvars + 1)}
