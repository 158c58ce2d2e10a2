"""Harness unrolling and transitive call inlining.

The bounded check needs a loop-free, call-free procedure: the harness loop
is replaced by k copies of its body (per-iteration locals renamed with an
iteration suffix), inner loops unroll to a fixed depth with a blocking
assumption on the guard, and calls inline with callee locals renamed."""

from __future__ import annotations

import itertools

from solverify import InputError
from solverify.vir import ast as I


CALL_DEPTH_LIMIT = 16  # calls inline this many levels deep, no deeper
LOOP_UNROLL = 8  # inner loops unroll this many iterations, then block


class RecursionDepthExceeded(InputError):
    def __init__(self, proc: str):
        super().__init__(f"calls nest more than {CALL_DEPTH_LIMIT} deep at {proc}; "
                         f"recursive contracts are not supported")


def rename_expr(e: I.IrExpr, mapping: dict[str, str]) -> I.IrExpr:
    def rename(x: I.IrExpr) -> I.IrExpr | None:
        if isinstance(x, I.Var):
            return I.Var(mapping.get(x.name, x.name))
        return None

    return I.map_expr(e, rename)


def rename_stmt(s: I.IrStmt, mapping: dict[str, str]) -> I.IrStmt:
    return I.map_stmt(s, expr=lambda e: rename_expr(e, mapping),
                      var=lambda v: mapping.get(v, v))


class Inliner:
    def __init__(self, program: I.IrProgram):
        self.program = program
        self.counter = itertools.count()
        self.new_locals: list[tuple[str, I.IrType]] = []

    def inline(self, s: I.IrStmt, depth: int = 0) -> I.IrStmt:
        def expand(x: I.IrStmt) -> I.IrStmt | None:
            if isinstance(x, I.While):
                return self._unroll_loop(x, depth, LOOP_UNROLL)
            if isinstance(x, I.Call):
                return self._inline_call(x, depth)
            return None

        return I.map_stmt(s, expand)

    def _unroll_loop(self, s: I.While, depth: int, n: int) -> I.IrStmt:
        if n == 0:
            return I.Assume(I.op("!", s.cond))
        body = self.inline(s.body, depth)
        return I.If(s.cond, I.seq(body, self._unroll_loop(s, depth, n - 1)),
                    I.Skip())

    def _inline_call(self, s: I.Call, depth: int) -> I.IrStmt:
        if depth >= CALL_DEPTH_LIMIT:
            raise RecursionDepthExceeded(s.proc)
        callee = self.program.procedures.get(s.proc)
        if callee is None:
            raise KeyError(f"unknown procedure {s.proc}")
        k = next(self.counter)
        mapping: dict[str, str] = {}
        for name, ty in callee.params + callee.returns + callee.locals:
            mapping[name] = f"{name}@{k}"
            self.new_locals.append((mapping[name], ty))
        stmts: list[I.IrStmt] = []
        for (pname, _), arg in zip(callee.params, s.args):
            stmts.append(I.Assign(mapping[pname], arg))
        body = rename_stmt(callee.body, mapping)
        stmts.append(self.inline(body, depth + 1))
        for res, (rname, _) in zip(s.results, callee.returns):
            stmts.append(I.Assign(res, I.Var(mapping[rname])))
        return I.seq(*stmts)


def assigned_vars(s: I.IrStmt, out: set[str]):
    for x in I.iter_stmt(s):
        if isinstance(x, (I.Havoc, I.Assign)):
            out.add(x.var)
        elif isinstance(x, I.Call):
            out.update(x.results)


def harness_var(name: str) -> str:
    """The harness local that `name` copies in one unrolled iteration (its
    `$i` suffix removed); any other name unchanged."""
    return name.split("$", 1)[0]


def unroll_harness(program: I.IrProgram, harness: I.IrProcedure,
                   k: int) -> I.IrProcedure:
    """Loop-free, call-free copy of the harness with the top loop unrolled k
    times.  Per-iteration locals get a $i suffix so each iteration's
    nondeterministic inputs are distinct variables."""
    local_types = dict(harness.params + harness.returns + harness.locals)
    prefix: list[I.IrStmt] = []
    loop: I.While | None = None
    for s in I.seq_list(harness.body):
        if isinstance(s, I.While) and loop is None:
            loop = s
            continue
        if loop is None:
            prefix.append(s)
        else:
            raise ValueError("statements after the harness loop")

    new_locals = list(harness.locals)
    stmts = list(prefix)
    if loop is not None:
        loop_vars: set[str] = set()
        assigned_vars(loop.body, loop_vars)
        loop_vars &= set(local_types)
        for i in range(1, k + 1):
            mapping = {v: f"{v}${i}" for v in sorted(loop_vars)}
            for v in sorted(loop_vars):
                new_locals.append((mapping[v], local_types[v]))
            stmts.append(rename_stmt(loop.body, mapping))

    inliner = Inliner(program)
    body = inliner.inline(I.seq(*stmts))
    return I.IrProcedure(name=f"{harness.name}$unrolled{k}", params=[],
                         returns=[], locals=new_locals + inliner.new_locals,
                         body=body)
