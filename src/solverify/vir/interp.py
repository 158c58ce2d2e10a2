"""Reference interpreter for the IR; the testing oracle for translation and
counterexample replay.

Concrete semantics for a symbolic language needs two documented devices:

* Havoc of int/bool variables consumes the next tape value (zero/false when
  the tape runs dry in lenient mode); havoc of a Ref variable draws a fresh
  reference from the allocator, which makes New() return fresh references
  without tape bookkeeping; havoc of a map leaves it unchanged.

* Quantified assumptions are executed, not solved.  The allocation shapes
  emitted by the translator and prelude (zero-initialization, freshness,
  pairwise distinctness, allocation monotonicity) are recognized and applied
  exactly: a row constrained to hold fresh distinct allocated references
  mints such a reference on each first read.  Any other forall in an assume
  is checked over a finite witness set (allocated references, the integers
  in INT_WITNESSES, and materialized keys); a forall in an assert raises
  UnsupportedQuantifier.
"""

from __future__ import annotations

from solverify.record import field, record
from solverify.vir import ast
from solverify.vir.prelude import ALLOC, DTYPE, LENGTH

INT_WITNESSES = (0, 1, 2)  # the integers a non-allocation forall is checked at


class TapeExhausted(Exception):
    pass


class UnsupportedQuantifier(Exception):
    pass


class IrRuntimeError(Exception):
    pass


class MapValue:
    __slots__ = ("key_ty", "value_ty", "entries", "fresh_policy", "unconstrained")

    def __init__(self, ty: ast.MapType):
        self.key_ty = ty.key
        self.value_ty = ty.value
        self.entries: dict = {}
        self.fresh_policy = False  # missing reads mint fresh allocated refs
        # Cells carry no default commitment; an assumed equality on a cell
        # never touched before fixes its value (dynamic-type bookkeeping).
        self.unconstrained = False

    def copy(self) -> "MapValue":
        out = MapValue(ast.MapType(self.key_ty, self.value_ty))
        out.fresh_policy = self.fresh_policy
        out.unconstrained = self.unconstrained
        out.entries = {k: (v.copy() if isinstance(v, MapValue) else v)
                       for k, v in self.entries.items()}
        return out


def default_value(ty: ast.IrType):
    if isinstance(ty, ast.MapType):
        return MapValue(ty)
    if ty == ast.BOOL:
        return False
    return 0  # int and Ref (null)


@record
class IrState:
    globals: dict = field(default_factory=dict)
    alloc_counter: int = 0
    steps: int = 0

    def fresh_ref(self) -> int:
        self.alloc_counter += 1
        return self.alloc_counter

    def allocated_refs(self) -> list[int]:
        return list(range(1, self.alloc_counter + 1))


@record
class Completed:
    state: IrState
    returns: tuple = ()


@record
class AssertFailed:
    label: str
    proc: str
    state: IrState


@record
class Blocked:
    proc: str


@record
class BudgetExhausted:
    pass


class _AssertSignal(Exception):
    def __init__(self, label: str, proc: str):
        self.label = label
        self.proc = proc


class _BlockSignal(Exception):
    def __init__(self, proc: str):
        self.proc = proc


class _BudgetSignal(Exception):
    pass


class Interp:
    def __init__(self, program: ast.IrProgram, tape=(), budget: int = 10 ** 6,
                 strict_tape: bool = False):
        self.program = program
        self.tape = list(tape)
        self.tape_pos = 0
        self.budget = budget
        self.strict_tape = strict_tape
        self.state = IrState()
        for name, ty in program.globals.items():
            self.state.globals[name] = default_value(ty)
        if DTYPE in self.state.globals:
            self.state.globals[DTYPE].unconstrained = True

    # -- plumbing -----------------------------------------------------------

    def _tick(self):
        self.state.steps += 1
        if self.state.steps > self.budget:
            raise _BudgetSignal()

    def _pop_tape(self, want_bool: bool):
        if self.tape_pos >= len(self.tape):
            if self.strict_tape:
                raise TapeExhausted("tape exhausted")
            return False if want_bool else 0
        v = self.tape[self.tape_pos]
        self.tape_pos += 1
        return bool(v) if want_bool else int(v)

    def _var_type(self, proc: ast.IrProcedure | None, name: str) -> ast.IrType:
        ty = self.program.var_type(proc, name)
        if ty is None:
            raise IrRuntimeError(f"unknown variable {name}")
        return ty

    def _lookup_env(self, env: dict, name: str):
        if name in env:
            return env[name]
        if name in self.state.globals:
            return self.state.globals[name]
        raise IrRuntimeError(f"unbound variable {name}")

    def _set_var(self, env: dict, proc: ast.IrProcedure, name: str, value):
        if proc.local_type(name) is not None:
            env[name] = value
        elif name in self.state.globals:
            self.state.globals[name] = value
        else:
            raise IrRuntimeError(f"unknown variable {name}")

    # -- map access -----------------------------------------------------------

    def map_get(self, m: MapValue, key):
        if key in m.entries:
            return m.entries[key]
        if isinstance(m.value_ty, ast.MapType):
            child = MapValue(m.value_ty)
            m.entries[key] = child
            return child
        if m.fresh_policy and m.value_ty == ast.REF:
            ref = self.state.fresh_ref()
            alloc: MapValue = self.state.globals[ALLOC]
            alloc.entries[ref] = True
            m.entries[key] = ref
            return ref
        value = default_value(m.value_ty)
        m.entries[key] = value  # reads materialize so later constraints agree
        return value

    # -- expressions ------------------------------------------------------------

    def eval(self, e: ast.IrExpr, env: dict):
        if isinstance(e, ast.IConst):
            return e.value
        if isinstance(e, ast.BConst):
            return e.value
        if isinstance(e, ast.RConst):
            return e.value
        if isinstance(e, ast.NamedConst):
            return self.program.constants[e.name]
        if isinstance(e, ast.Var):
            return self._lookup_env(env, e.name)
        if isinstance(e, ast.Select):
            cur = self.eval(e.base, env)
            for k in e.keys:
                if not isinstance(cur, MapValue):
                    raise IrRuntimeError("select on a non-map value")
                cur = self.map_get(cur, self.eval(k, env))
            return cur
        if isinstance(e, ast.UFApply):
            args = [self.eval(a, env) for a in e.args]
            # StrToInt is interpreted as the identity on interned codes,
            # which keeps distinct literals distinct.
            return args[0] if args else 0
        if isinstance(e, ast.Op):
            return self._eval_op(e, env)
        if isinstance(e, ast.Forall):
            raise UnsupportedQuantifier("forall outside assume/assert")
        raise IrRuntimeError(f"cannot evaluate {type(e).__name__}")

    def _eval_op(self, e: ast.Op, env: dict):
        op = e.op
        if op == "&&":
            return bool(self.eval(e.args[0], env)) and bool(self.eval(e.args[1], env))
        if op == "||":
            return bool(self.eval(e.args[0], env)) or bool(self.eval(e.args[1], env))
        if op == "==>":
            return (not self.eval(e.args[0], env)) or bool(self.eval(e.args[1], env))
        if op == "!":
            return not self.eval(e.args[0], env)
        a = self.eval(e.args[0], env)
        if op == "neg":
            return -a
        b = self.eval(e.args[1], env)
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                raise IrRuntimeError("division by zero")
            q = abs(a) // abs(b)  # Solidity-style truncation toward zero
            return q if (a >= 0) == (b >= 0) else -q
        if op == "%":
            if b == 0:
                raise IrRuntimeError("modulo by zero")
            r = abs(a) % abs(b)
            return r if a >= 0 else -r
        if op == "==":
            return a == b
        if op == "!=":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
        raise IrRuntimeError(f"unknown operator {op}")

    def _resolve_cell(self, e: ast.IrExpr, env: dict):
        """(map value, final key) addressed by a select expression."""
        if not isinstance(e, ast.Select):
            return None
        cur = self.eval(e.base, env)
        keys = [self.eval(k, env) for k in e.keys]
        for k in keys[:-1]:
            if not isinstance(cur, MapValue):
                return None
            cur = self.map_get(cur, k)
        if not isinstance(cur, MapValue):
            return None
        return cur, keys[-1]

    def _assume_fixes_cell(self, cond: ast.IrExpr, env: dict) -> bool:
        """assume m[k] == e on a never-touched cell of an unconstrained-default
        map fixes the cell instead of testing it."""
        if not (isinstance(cond, ast.Op) and cond.op == "=="):
            return False
        for sel_side, other in ((0, 1), (1, 0)):
            sel = cond.args[sel_side]
            if not isinstance(sel, ast.Select):
                continue
            resolved = self._resolve_cell(sel, env)
            if resolved is None:
                continue
            mapval, key = resolved
            if mapval.unconstrained and key not in mapval.entries:
                mapval.entries[key] = self.eval(cond.args[other], env)
                return True
        return False

    # -- quantified assumptions ----------------------------------------------

    def _assume_forall(self, e: ast.Forall, env: dict, proc_name: str):
        bound: list[tuple[str, ast.IrType]] = []
        body = e
        while isinstance(body, ast.Forall):
            bound.append((body.var, body.var_ty))
            body = body.body
        names = {n for n, _ in bound}
        if self._try_alloc_shape(body, names, env):
            return
        self._finite_check(body, bound, env, proc_name)

    def _chain(self, e: ast.IrExpr, bound: set[str], env: dict):
        """Match nested lookups base[i1]..[ij] through map globals where each
        level is Select(M, (inner, boundvar)); returns (base value, levels)
        with levels = [(MapValue of the per-level map, bound var name)]."""
        if not isinstance(e, ast.Select) or len(e.keys) != 2:
            return None
        if not (isinstance(e.base, ast.Var) and e.base.name in self.state.globals):
            return None
        last = e.keys[1]
        if not (isinstance(last, ast.Var) and last.name in bound):
            return None
        inner = e.keys[0]
        if not (_free_vars(inner) & bound):
            return self.eval(inner, env), [(self.state.globals[e.base.name], last.name)]
        sub = self._chain(inner, bound, env)
        if sub is None:
            return None
        base, levels = sub
        return base, levels + [(self.state.globals[e.base.name], last.name)]

    def _chain_rows(self, base, levels):
        """Materialized (prefix) rows reached by walking the chain."""
        rows = [(base, levels[0][0])]
        frontier = [base]
        for (mapval, _), nxt in zip(levels, levels[1:]):
            new_frontier = []
            for b in frontier:
                row = mapval.entries.get(b)
                if row is None:
                    continue
                for v in row.entries.values():
                    new_frontier.append(v)
                    rows.append((v, nxt[0]))
            frontier = new_frontier
        return rows

    def _chain_leaf_values(self, base, levels, env):
        """All materialized leaf values of the chain."""
        values = []
        for b, mapval in self._chain_rows(base, levels):
            row = mapval.entries.get(b)
            if row is None:
                continue
            values.extend(row.entries.values())
        return values

    def _try_alloc_shape(self, body, bound: set[str], env: dict) -> bool:
        alloc: MapValue = self.state.globals.get(ALLOC)

        # forall i :: old[i] ==> new[i]  (allocation monotonicity)
        if isinstance(body, ast.Op) and body.op == "==>" and len(bound) == 1:
            lhs, rhs = body.args
            if (isinstance(lhs, ast.Select) and isinstance(rhs, ast.Select)
                    and len(lhs.keys) == 1 and len(rhs.keys) == 1
                    and isinstance(lhs.keys[0], ast.Var)
                    and isinstance(rhs.keys[0], ast.Var)
                    and lhs.keys[0].name in bound
                    and lhs.keys[0].name == rhs.keys[0].name):
                old = self.eval(lhs.base, env)
                new = self.eval(rhs.base, env)
                if isinstance(old, MapValue) and isinstance(new, MapValue):
                    for k, v in old.entries.items():
                        if v and not self.map_get(new, k):
                            raise _BlockSignal("allocation monotonicity")
                    return True

        # forall i.. :: chain == 0  /  Length[chain] == 0  (zero slices)
        if isinstance(body, ast.Op) and body.op == "==" \
                and isinstance(body.args[1], ast.IConst) and body.args[1].value == 0:
            lhs = body.args[0]
            if isinstance(lhs, ast.Select) and isinstance(lhs.base, ast.Var) \
                    and lhs.base.name == LENGTH and len(lhs.keys) == 1:
                match = self._chain(lhs.keys[0], bound, env)
                if match is not None:
                    base, levels = match
                    length: MapValue = self.state.globals[LENGTH]
                    for ref in self._chain_leaf_values(base, levels, env):
                        if length.entries.get(ref, 0) != 0:
                            raise _BlockSignal("length slice")
                    return True
            match = self._chain(lhs, bound, env)
            if match is not None:
                base, levels = match
                for v in self._chain_leaf_values(base, levels, env):
                    if v != 0:
                        raise _BlockSignal("zero slice")
                return True

        # forall i.. :: !Alloc[chain]   (pre-allocation freshness)
        if isinstance(body, ast.Op) and body.op == "!" \
                and isinstance(body.args[0], ast.Select) \
                and isinstance(body.args[0].base, ast.Var) \
                and body.args[0].base.name == ALLOC \
                and len(body.args[0].keys) == 1:
            match = self._chain(body.args[0].keys[0], bound, env)
            if match is not None:
                base, levels = match
                for ref in self._chain_leaf_values(base, levels, env):
                    if alloc.entries.get(ref, False):
                        raise _BlockSignal("freshness")
                return True

        # forall i.. :: Alloc[chain]   (post-allocation: install fresh policy)
        if isinstance(body, ast.Select) and isinstance(body.base, ast.Var) \
                and body.base.name == ALLOC and len(body.keys) == 1:
            match = self._chain(body.keys[0], bound, env)
            if match is not None:
                base, levels = match
                self._install_fresh(base, levels)
                for ref in self._chain_leaf_values(base, levels, env):
                    if not alloc.entries.get(ref, False):
                        raise _BlockSignal("allocatedness")
                return True

        # forall i.., i' :: i == i' || chain(i..) != chain(i..[j := i'])
        if isinstance(body, ast.Op) and body.op == "||":
            eq, ne = body.args
            if (isinstance(eq, ast.Op) and eq.op == "==" and
                    isinstance(ne, ast.Op) and ne.op == "!="):
                match = self._chain(ne.args[0], bound, env)
                if match is not None:
                    base, levels = match
                    self._install_fresh(base, levels)
                    for b, mapval in self._chain_rows(base, levels):
                        row = mapval.entries.get(b)
                        if row is None:
                            continue
                        vals = list(row.entries.values())
                        if len(vals) != len(set(vals)):
                            raise _BlockSignal("distinctness")
                    return True
        return False

    def _install_fresh(self, base, levels):
        # The policy lands on the row holding the final bound-var level;
        # materialized prefixes only (nesting beyond depth 2 falls back to
        # witness checking for unmaterialized prefixes).
        targets = self._chain_rows(base, levels)
        final_map = levels[-1][0]
        for b, mapval in targets:
            if mapval is final_map:
                row = mapval.entries.get(b)
                if row is None:
                    if isinstance(mapval.value_ty, ast.MapType):
                        row = MapValue(mapval.value_ty)
                        mapval.entries[b] = row
                if isinstance(row, MapValue):
                    row.fresh_policy = True

    def _finite_check(self, body, bound, env, proc_name: str):
        witnesses: list[list] = []
        for _, ty in bound:
            if ty == ast.REF:
                witnesses.append([0] + self.state.allocated_refs())
            elif ty == ast.INT:
                witnesses.append(INT_WITNESSES)
            elif ty == ast.BOOL:
                witnesses.append([False, True])
            else:
                raise UnsupportedQuantifier(f"forall over {ty}")

        def rec(i: int, sub: dict):
            if i == len(bound):
                if not self.eval(body, {**env, **sub}):
                    raise _BlockSignal(proc_name)
                return
            name = bound[i][0]
            for w in witnesses[i]:
                sub[name] = w
                rec(i + 1, sub)
            del sub[name]

        rec(0, {})

    # -- statements ---------------------------------------------------------

    def exec_proc(self, proc: ast.IrProcedure, args: list) -> list:
        if len(args) != len(proc.params):
            raise IrRuntimeError(f"{proc.name}: expected {len(proc.params)} args")
        env: dict = {}
        for (name, ty), value in zip(proc.params, args):
            env[name] = value
        for name, ty in proc.returns + proc.locals:
            env[name] = default_value(ty)
        self.exec_stmt(proc.body, env, proc)
        return [env[name] for name, _ in proc.returns]

    def exec_stmt(self, s: ast.IrStmt, env: dict, proc: ast.IrProcedure):
        self._tick()
        if isinstance(s, ast.Skip):
            return
        if isinstance(s, ast.Seq):
            for sub in s.stmts:
                self.exec_stmt(sub, env, proc)
            return
        if isinstance(s, ast.Havoc):
            ty = self._var_type(proc, s.var)
            if isinstance(ty, ast.MapType):
                return  # least-change havoc; assumptions constrain it
            if ty == ast.REF:
                value = self.state.fresh_ref()
            else:
                value = self._pop_tape(want_bool=(ty == ast.BOOL))
            self._set_var(env, proc, s.var, value)
            return
        if isinstance(s, ast.Assign):
            value = self.eval(s.expr, env)
            if isinstance(value, MapValue):
                value = value.copy()  # maps are values
            self._set_var(env, proc, s.var, value)
            return
        if isinstance(s, ast.Store):
            target = self._lookup_env(env, s.base)
            if not isinstance(target, MapValue):
                raise IrRuntimeError(f"store into non-map {s.base}")
            keys = [self.eval(k, env) for k in s.keys]
            for k in keys[:-1]:
                target = self.map_get(target, k)
            target.entries[keys[-1]] = self.eval(s.value, env)
            return
        if isinstance(s, ast.Assume):
            if isinstance(s.cond, ast.Forall):
                self._assume_forall(s.cond, env, proc.name)
                return
            if self._assume_fixes_cell(s.cond, env):
                return
            if not self.eval(s.cond, env):
                raise _BlockSignal(proc.name)
            return
        if isinstance(s, ast.Assert):
            if isinstance(s.cond, ast.Forall):
                raise UnsupportedQuantifier("forall under assert")
            if not self.eval(s.cond, env):
                raise _AssertSignal(s.label or f"assert in {proc.name}", proc.name)
            return
        if isinstance(s, ast.Call):
            callee = self.program.procedures.get(s.proc)
            if callee is None:
                raise IrRuntimeError(f"unknown procedure {s.proc}")
            args = [self.eval(a, env) for a in s.args]
            args = [a.copy() if isinstance(a, MapValue) else a for a in args]
            outs = self.exec_proc(callee, args)
            for name, value in zip(s.results, outs):
                self._set_var(env, proc, name, value)
            return
        if isinstance(s, ast.If):
            if self.eval(s.cond, env):
                self.exec_stmt(s.then, env, proc)
            else:
                self.exec_stmt(s.els, env, proc)
            return
        if isinstance(s, ast.While):
            while self.eval(s.cond, env):
                self._tick()
                self.exec_stmt(s.body, env, proc)
            return
        raise IrRuntimeError(f"cannot execute {type(s).__name__}")


def _free_vars(e: ast.IrExpr) -> set[str]:
    if isinstance(e, ast.Var):
        return {e.name}
    if isinstance(e, ast.Op):
        out: set[str] = set()
        for a in e.args:
            out |= _free_vars(a)
        return out
    if isinstance(e, ast.UFApply):
        out = set()
        for a in e.args:
            out |= _free_vars(a)
        return out
    if isinstance(e, ast.Select):
        out = _free_vars(e.base)
        for k in e.keys:
            out |= _free_vars(k)
        return out
    if isinstance(e, ast.Forall):
        return _free_vars(e.body) - {e.var}
    return set()


def interpret(program: ast.IrProgram, entry: str, tape=(), budget: int = 10 ** 6,
              args: list | None = None, strict_tape: bool = False):
    """Run `entry` to an outcome: Completed, AssertFailed, Blocked, or
    BudgetExhausted.  Deterministic given the tape."""
    if entry not in program.procedures:
        raise IrRuntimeError(f"no procedure named {entry}")
    interp = Interp(program, tape=tape, budget=budget, strict_tape=strict_tape)
    try:
        outs = interp.exec_proc(program.procedures[entry], args or [])
        return Completed(state=interp.state, returns=tuple(outs))
    except _AssertSignal as sig:
        return AssertFailed(label=sig.label, proc=sig.proc, state=interp.state)
    except _BlockSignal as sig:
        return Blocked(proc=sig.proc)
    except _BudgetSignal:
        return BudgetExhausted()
