"""Reference interpreter for the IR; the testing oracle for translation and
counterexample replay.

Concrete semantics for a symbolic language needs three documented devices:

* Havoc of an int, bool or Ref variable consumes the next tape value
  (zero, false or null when the tape runs dry in lenient mode); havoc of a
  map leaves it unchanged.

* Named inputs override the tape: a havoc of a variable named in `inputs`
  takes that value, and the run records each such havoc, in execution
  order, in `IrState.inputs_taken`.  Counterexample extraction feeds a
  model's values to the unrolled harness this way and reads off which
  inputs the run consumed.

* Allocation is executed, not solved: `alloc x` takes a fresh, non-null
  reference from the allocator and marks it allocated.  An instance gets
  its contract as `DType`.  A map gets its `Length` when a length is given,
  and, when it is nested, the row M_1[x] of the first lookup map gets a
  policy naming M_2..M_{n-1}: a missing read there mints a fresh allocated
  reference, whose own row in M_2 mints with the rest of the names, down
  to the last inner level.  Everything else a fresh reference reads is the
  default (0, false or null), as `prelude.alloc_facts` states for the
  encoder.  No quantifier is executed: a forall raises
  UnsupportedQuantifier.
"""

from __future__ import annotations

from solverify.record import field, record
from solverify.vir import ast
from solverify.vir.prelude import ALLOC, DTYPE, LENGTH, lookup_map_name


class TapeExhausted(Exception):
    pass


class UnsupportedQuantifier(Exception):
    pass


class IrRuntimeError(Exception):
    pass


class MapValue:
    __slots__ = ("key_ty", "value_ty", "entries", "mints")

    def __init__(self, ty: ast.MapType):
        self.key_ty = ty.key
        self.value_ty = ty.value
        self.entries: dict = {}
        # None: a missing read gives the default.  Else it mints a fresh
        # allocated reference, whose row in the first lookup map named here
        # mints in turn, with the rest of the names.
        self.mints: tuple[str, ...] | None = None

    def copy(self) -> "MapValue":
        out = MapValue(ast.MapType(self.key_ty, self.value_ty))
        out.mints = self.mints
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
    inputs_taken: list = field(default_factory=list)  # (variable, value)

    def fresh_ref(self) -> int:
        self.alloc_counter += 1
        return self.alloc_counter


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
                 strict_tape: bool = False, inputs: dict | None = None):
        self.program = program
        self.tape = list(tape)
        self.inputs = inputs or {}
        self.tape_pos = 0
        self.budget = budget
        self.strict_tape = strict_tape
        self.state = IrState()
        for name, ty in program.globals.items():
            self.state.globals[name] = default_value(ty)

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
        if m.mints is not None:
            ref = self.state.fresh_ref()
            self.state.globals[ALLOC].entries[ref] = True
            m.entries[key] = ref
            if m.mints:
                self.map_get(self.state.globals[m.mints[0]], ref).mints = m.mints[1:]
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
            raise UnsupportedQuantifier("the interpreter executes no quantifier")
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
            if s.var in self.inputs:
                value = self.inputs[s.var]
                self.state.inputs_taken.append((s.var, value))
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
            if not self.eval(s.cond, env):
                raise _BlockSignal(proc.name)
            return
        if isinstance(s, ast.Assert):
            if not self.eval(s.cond, env):
                raise _AssertSignal(s.label or f"assert in {proc.name}", proc.name)
            return
        if isinstance(s, ast.Alloc):
            ref = self.state.fresh_ref()
            self.state.globals[ALLOC].entries[ref] = True
            if s.contract is not None:
                self.state.globals[DTYPE].entries[ref] = self.program.constants[s.contract]
            if s.length is not None:
                self.state.globals[LENGTH].entries[ref] = self.eval(s.length, env)
            if len(s.keys) > 1:
                inner = [lookup_map_name(key_ty, ast.REF) for key_ty in s.keys[:-1]]
                self.map_get(self.state.globals[inner[0]], ref).mints = tuple(inner[1:])
            self._set_var(env, proc, s.var, ref)
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


def interpret(program: ast.IrProgram, entry: str | ast.IrProcedure, tape=(),
              budget: int = 10 ** 6, strict_tape: bool = False,
              inputs: dict | None = None):
    """Run `entry` (a procedure of the program, by name, or a parameterless
    procedure whose calls resolve in the program) to an outcome: Completed,
    AssertFailed, Blocked, or BudgetExhausted.  Deterministic given the tape
    and inputs."""
    if isinstance(entry, str):
        if entry not in program.procedures:
            raise IrRuntimeError(f"no procedure named {entry}")
        entry = program.procedures[entry]
    interp = Interp(program, tape=tape, budget=budget, strict_tape=strict_tape,
                    inputs=inputs)
    try:
        outs = interp.exec_proc(entry, [])
        return Completed(state=interp.state, returns=tuple(outs))
    except _AssertSignal as sig:
        return AssertFailed(label=sig.label, proc=sig.proc, state=interp.state)
    except _BlockSignal as sig:
        return Blocked(proc=sig.proc)
    except _BudgetSignal:
        return BudgetExhausted()
