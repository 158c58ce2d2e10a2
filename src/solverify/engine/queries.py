"""Verification-condition generation.

A loop-free, call-free procedure is symbolically executed into a single-
assignment constraint system: assignments bind terms, havocs mint fresh
symbols, branches merge through guarded join symbols, assumes become guarded
hypotheses, asserts become guarded obligations with one selector symbol
each, and an allocation becomes the facts `QueryBuilder._alloc` states: the
quantified ones are the only quantifiers of a query, built over IR bodies by
`QueryBuilder.forall`, as is the start state where nothing is allocated.
The refutation query (hypotheses plus the disjunction of violated
obligations) is satisfiable exactly when some execution fails an assert, and
a model fixes every havoc'd input, so a transaction trace can be read off
the selector and slot symbols.
"""

from __future__ import annotations

import itertools

from solverify.record import record
from solverify.smt import terms as T
from solverify.vir import ast as I
from solverify.vir.prelude import ALLOC, LENGTH, dtype_is, lookup_map_name

BOOL_IR_OPS = {"&&": "and", "||": "or", "==>": "=>", "!": "not"}
INT_IR_OPS = {"+": "+", "-": "-", "*": "*", "neg": "neg"}
# Solidity's `/` and `%` truncate toward zero; SMT-LIB's `div` and `mod`
# are Euclidean (`(div -7 2)` is -4), which agrees only on a dividend >= 0.
TRUNCATING_IR_OPS = {"/": "div", "%": "mod"}
REL_IR_OPS = {"<": "<", "<=": "<=", ">": ">", ">=": ">="}


class VcError(Exception):
    pass


def truncating(bank: T.TermBank, op: str, a: T.Term, b: T.Term) -> T.Term:
    """`a / b` (op "div") or `a % b` (op "mod") rounded toward zero:
    `(ite (>= a 0) (op a b) (- (op (- a) b)))`."""
    def euclid(x: T.Term) -> T.Term:
        return bank.mk(op, (x, b), sort=T.INT_S)

    def neg(x: T.Term) -> T.Term:
        return bank.mk("neg", (x,), sort=T.INT_S)

    nonneg = bank.mk(">=", (a, bank.intval(0)), sort=T.BOOL_S)
    return bank.mk("ite", (nonneg, euclid(a), neg(euclid(neg(a)))), sort=T.INT_S)


def sort_of(ty: I.IrType):
    if ty == I.INT:
        return T.INT_S
    if ty == I.BOOL:
        return T.BOOL_S
    if ty == I.REF:
        return T.REF_S
    if isinstance(ty, I.MapType):
        return T.array_sort(sort_of(ty.key), sort_of(ty.value))
    raise VcError(f"no sort for {ty}")


@record
class SmtQuery:
    """SMT-LIB2 script plus the symbol back-mapping."""

    text: str
    slots: dict[str, str]           # IR variable -> model symbol
    selectors: list[tuple[str, str]]  # (selector symbol, assert label)


class QueryBuilder:
    def __init__(self, program: I.IrProgram):
        self.program = program
        self.bank = T.TermBank()
        self.fresh_counter = itertools.count()
        self.hypotheses: list[T.Term] = []
        self.obligations: list[tuple[T.Term, T.Term, str]] = []  # (guard, cond, label)
        self.decls: dict[str, object] = {}  # name -> sort
        self.env: dict[str, T.Term] = {}
        self.types: dict[str, I.IrType] = {}
        self.slots: dict[str, str] = {}
        self.null = self._sym("null", T.REF_S)

    # -- symbols -------------------------------------------------------------

    def _sym(self, name: str, sort) -> T.Term:
        self.decls[name] = sort
        return self.bank.sym(name, sort)

    def fresh(self, base: str, sort) -> T.Term:
        return self._sym(f"{base}!{next(self.fresh_counter)}", sort)

    def init_proc(self, variables: list[tuple[str, I.IrType]]):
        """Globals and `variables` start as fresh unconstrained symbols."""
        for name, ty in list(self.program.globals.items()) + variables:
            self.types[name] = ty
            self.env[name] = self.fresh(name, sort_of(ty))

    # -- expressions ------------------------------------------------------------

    def term(self, e: I.IrExpr, env: dict[str, T.Term] | None = None) -> T.Term:
        env = env if env is not None else self.env
        bank = self.bank
        if isinstance(e, I.IConst):
            return bank.intval(e.value)
        if isinstance(e, I.BConst):
            return bank.boolval(e.value)
        if isinstance(e, I.RConst):
            if e.value == 0:
                return self.null
            return self._sym(f"ref!{e.value}", T.REF_S)
        if isinstance(e, I.NamedConst):
            return bank.intval(self.program.constants[e.name])
        if isinstance(e, I.Var):
            t = env.get(e.name)
            if t is None:
                raise VcError(f"unbound variable {e.name}")
            return t
        if isinstance(e, I.Op):
            args = tuple(self.term(a, env) for a in e.args)
            if e.op in BOOL_IR_OPS:
                return bank.mk(BOOL_IR_OPS[e.op], args, sort=T.BOOL_S)
            if e.op in INT_IR_OPS:
                return bank.mk(INT_IR_OPS[e.op], args, sort=T.INT_S)
            if e.op in TRUNCATING_IR_OPS:
                return truncating(bank, TRUNCATING_IR_OPS[e.op], *args)
            if e.op in REL_IR_OPS:
                return bank.mk(REL_IR_OPS[e.op], args, sort=T.BOOL_S)
            if e.op == "==":
                return bank.mk("=", args, sort=T.BOOL_S)
            if e.op == "!=":
                return bank.mk("not", (bank.mk("=", args, sort=T.BOOL_S),),
                               sort=T.BOOL_S)
            raise VcError(f"operator {e.op}")
        if isinstance(e, I.Select):
            cur = self.term(e.base, env)
            for k in e.keys:
                if not T.is_array_sort(cur.sort):
                    raise VcError("select on non-array term")
                cur = bank.mk("select", (cur, self.term(k, env)), sort=cur.sort[2])
            return cur
        raise VcError(f"cannot encode {type(e).__name__}")

    # -- statements ---------------------------------------------------------------

    def exec_stmt(self, s: I.IrStmt, guard: T.Term):
        bank = self.bank
        if isinstance(s, I.Skip):
            return
        if isinstance(s, I.Seq):
            for sub in s.stmts:
                self.exec_stmt(sub, guard)
            return
        if isinstance(s, I.Havoc):
            ty = self.types.get(s.var)
            if ty is None:
                raise VcError(f"havoc of undeclared {s.var}")
            self.env[s.var] = self.fresh(s.var, sort_of(ty))
            self.slots.setdefault(s.var, self.env[s.var].value)
            return
        if isinstance(s, I.Assign):
            self.env[s.var] = self.term(s.expr)
            return
        if isinstance(s, I.Store):
            base = self.env.get(s.base)
            if base is None:
                raise VcError(f"store into undeclared {s.base}")
            self.env[s.base] = self._store(base, [self.term(k) for k in s.keys],
                                           self.term(s.value))
            return
        if isinstance(s, I.Assume):
            cond = self.term(s.cond)
            self.hypotheses.append(bank.mk("=>", (guard, cond), sort=T.BOOL_S))
            return
        if isinstance(s, I.Assert):
            self.obligations.append((guard, self.term(s.cond), s.label))
            return
        if isinstance(s, I.Alloc):
            self._alloc(s, guard)
            return
        if isinstance(s, I.If):
            cond = self.term(s.cond)
            then_guard = bank.mk("and", (guard, cond), sort=T.BOOL_S)
            else_guard = bank.mk("and", (guard, bank.mk("not", (cond,), sort=T.BOOL_S)),
                                 sort=T.BOOL_S)
            saved = dict(self.env)
            self.exec_stmt(s.then, then_guard)
            then_env = self.env
            self.env = dict(saved)
            self.exec_stmt(s.els, else_guard)
            else_env = self.env
            merged = dict(saved)
            for name in set(then_env) | set(else_env):
                tv = then_env.get(name, saved.get(name))
                ev = else_env.get(name, saved.get(name))
                if tv is ev:
                    merged[name] = tv
                    continue
                # ite joins keep map versions as terms, so reads rewrite
                # through branch merges; scalar ites are named later.
                merged[name] = bank.mk("ite", (cond, tv, ev), sort=tv.sort)
            self.env = merged
            return
        if isinstance(s, I.While):
            raise VcError("loops must be unrolled before VC generation")
        if isinstance(s, I.Call):
            raise VcError("calls must be inlined before VC generation")
        raise VcError(f"cannot encode {type(s).__name__}")

    def forall(self, bound: list[tuple[str, I.IrType]], body: I.IrExpr,
               env: dict[str, T.Term] | None = None) -> T.Term:
        """`body` under one forall per (name, type) of `bound`, the first
        outermost: each name reads as its bound variable, any other as in
        `env` (default: the current state)."""
        inner = dict(self.env if env is None else env)
        for name, ty in bound:
            inner[name] = self.bank.mk("boundvar", value=name, sort=sort_of(ty))
        out = self.term(body, inner)
        for name, ty in reversed(bound):
            out = self.bank.mk("forall", (out,), value=(name, sort_of(ty)), sort=T.BOOL_S)
        return out

    def _alloc(self, s: I.Alloc, guard: T.Term):
        """What `s` guarantees: a fresh non-null reference in `s.var`, then
        allocated; for an instance, its dynamic type.  For a map, its length;
        for each inner level j, over the lookup chains c(i1..ij) from `s.var`,
        zero length and no allocation, an unbounded allocation (a new Alloc,
        only growing, null still unallocated) that allocates every
        c(i1..ij), and distinctness of c within a row; then zero leaves.
        The reference and each new Alloc are fresh symbols, not havocs: no
        model slot, as `alloc` takes no input."""
        if s.var not in self.types:
            raise VcError(f"alloc into undeclared {s.var}")
        ref, alloc, length = I.Var(s.var), I.Var(ALLOC), I.Var(LENGTH)
        self.env[s.var] = self.fresh(s.var, T.REF_S)
        ground = [I.Assume(I.op("!", I.select(alloc, ref))),
                  I.Assume(I.op("!=", ref, I.RConst(0))),
                  I.Store(ALLOC, (ref,), I.BConst(True))]
        if s.contract is not None:
            ground.append(I.Assume(dtype_is(ref, s.contract)))
        elif s.length is not None:
            ground.append(I.Store(LENGTH, (ref,), s.length))
        else:
            ground.append(I.Assume(I.op("==", I.select(length, ref), I.IConst(0))))
        for fact in ground:
            self.exec_stmt(fact, guard)
        if s.contract is not None:
            return

        def assume(bound, body: I.IrExpr, env=None):
            self.hypotheses.append(self.bank.mk(
                "=>", (guard, self.forall(bound, body, env)), sort=T.BOOL_S))

        def chain(idx: list[I.IrExpr]) -> I.IrExpr:
            """ref[i1]...[ij] through the per-level maps: every level before
            the last reads a Ref, the last reads the leaf type."""
            cur: I.IrExpr = ref
            for j, key_ty in enumerate(s.keys[:len(idx)]):
                value_ty = s.leaf if j == len(s.keys) - 1 else I.REF
                cur = I.select(I.Var(lookup_map_name(key_ty, value_ty)), cur, idx[j])
            return cur

        bound = [(f"i{k}", key_ty) for k, key_ty in enumerate(s.keys, 1)]
        idx = [I.Var(name) for name, _ in bound]
        for j in range(1, len(s.keys)):
            level = chain(idx[:j])
            assume(bound[:j], I.op("==", I.select(length, level), I.IConst(0)))
            assume(bound[:j], I.op("!", I.select(alloc, level)))
            old = self.env[ALLOC]  # read as `old` by the growth fact
            self.env[ALLOC] = self.fresh(ALLOC, old.sort)
            i = I.Var("i")
            assume([("i", I.REF)], I.op("==>", I.select(I.Var("old"), i), I.select(alloc, i)),
                   {"old": old, ALLOC: self.env[ALLOC]})
            self.exec_stmt(I.Assume(I.op("!", I.select(alloc, I.RConst(0)))), guard)
            assume(bound[:j], I.select(alloc, level))
            primed = I.Var(f"i{j}_")
            assume(bound[:j] + [(primed.name, s.keys[j - 1])], I.op(
                "||", I.op("==", idx[j - 1], primed),
                I.op("!=", level, chain(idx[:j - 1] + [primed]))))
        zero = I.BConst(False) if s.leaf == I.BOOL else \
            (I.RConst(0) if s.leaf == I.REF else I.IConst(0))
        assume(bound, I.op("==", chain(idx), zero))

    def _store(self, base: T.Term, keys: list[T.Term], value: T.Term) -> T.Term:
        bank = self.bank
        if len(keys) == 1:
            return bank.mk("store", (base, keys[0], value), sort=base.sort)
        inner = bank.mk("select", (base, keys[0]), sort=base.sort[2])
        updated = self._store(inner, keys[1:], value)
        return bank.mk("store", (base, keys[0], updated), sort=base.sort)

    # -- assembly ------------------------------------------------------------------

    def refutation_query(self) -> SmtQuery:
        bank = self.bank
        selectors = []
        disjuncts = []
        for idx, (guard, cond, label) in enumerate(self.obligations):
            sel = self._sym(f"sel!{idx}", T.BOOL_S)
            fail = bank.mk("and", (guard, bank.mk("not", (cond,), sort=T.BOOL_S)),
                           sort=T.BOOL_S)
            self.hypotheses.append(bank.mk("=", (sel, fail), sort=T.BOOL_S))
            selectors.append((sel.value, label))
            disjuncts.append(sel)
        if disjuncts:
            goal = disjuncts[0] if len(disjuncts) == 1 else \
                bank.mk("or", tuple(disjuncts), sort=T.BOOL_S)
        else:
            goal = bank.boolval(False)
        return self._render(self.hypotheses + [goal], selectors)

    def _render(self, assertions: list[T.Term], selectors) -> SmtQuery:
        lines = ["(set-logic ALL)", "(declare-sort Ref 0)"]
        for name in sorted(self.decls):
            lines.append(f"(declare-fun {name} () {T.sort_to_sexpr(self.decls[name])})")
        lines.extend(_render_shared(assertions))
        lines.append("(check-sat)")
        wanted = sorted(set(list(self.slots.values())
                            + [s for s, _ in selectors] + ["null"]))
        lines.append(f"(get-value ({' '.join(wanted)}))")
        lines.append("(exit)")
        return SmtQuery(text="\n".join(lines) + "\n", slots=dict(self.slots),
                        selectors=list(selectors))


def _render_shared(assertions: list[T.Term]) -> list[str]:
    """Print assertions with repeated subterms named by define-fun, keeping
    the emitted text proportional to the term DAG.  Terms under a binder
    stay inline (they may mention bound variables)."""
    nodes: list[T.Term] = []
    has_bound: dict[int, bool] = {}

    def scan(t: T.Term, args_bound: list[bool]) -> bool:
        nodes.append(t)
        return t.op == "boundvar" or any(args_bound)

    T.fold(assertions, scan, has_bound)
    counts: dict[int, int] = {}  # references from parents and the assertion list
    for ref in [a for t in nodes for a in t.args] + list(assertions):
        counts[ref.tid] = counts.get(ref.tid, 0) + 1

    defs: list[str] = []
    texts: dict[int, str | None] = {}

    def render(t: T.Term, args: list[str]) -> str:
        for a in t.args:
            if counts[a.tid] == 1:
                texts[a.tid] = None  # its only reader has it; keep memory linear
        text = T.node_text(t, args)
        if t.args and counts[t.tid] > 1 and len(text) > 24 and not has_bound[t.tid] \
                and t.sort is not None:
            name = f"aux!{len(defs)}"
            defs.append(f"(define-fun {name} () {T.sort_to_sexpr(t.sort)} {text})")
            return name
        return text

    bodies = [f"(assert {text})" for text in T.fold(assertions, render, texts)]
    return defs + bodies


def vc_gen(program: I.IrProgram, proc: I.IrProcedure) -> tuple[QueryBuilder, SmtQuery]:
    """Refutation query for a loop-free, call-free procedure, run from a
    state where nothing is allocated: satisfiable iff some execution
    violates an assert."""
    qb = QueryBuilder(program)
    qb.init_proc(proc.params + proc.returns + proc.locals)
    qb.hypotheses.append(qb.forall([("r0", I.REF)],
                                   I.op("!", I.select(I.Var(ALLOC), I.Var("r0")))))
    qb.exec_stmt(proc.body, qb.bank.boolval(True))
    return qb, qb.refutation_query()
