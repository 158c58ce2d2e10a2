"""Reference semantics for the typed, desugared subset.

Direct evaluation over contract instances with Python-level maps; strings
evaluate to their interned codes (`""`, an unset string, is 0) so results
line up with the IR encoding.  The tests use it as the source-level oracle
for translation equivalence and for runtime semantics questions; of the
pipeline it imports only the Solidity AST and `@record`.  Reverts (failed
require) and assertion failures are distinct outcomes.
"""

from __future__ import annotations

from solverify.record import field, record
from solverify.sol import ast


class SolRevert(Exception):
    pass


class SolAssertFail(Exception):
    def __init__(self, label: str):
        self.label = label
        super().__init__(label)


class SolRuntimeError(Exception):
    pass


class SolArr:
    """Array/mapping value: sparse entries plus a length."""

    __slots__ = ("entries", "length", "value_ty")

    def __init__(self, value_ty: ast.SolType):
        self.entries: dict = {}
        self.length = 0
        self.value_ty = value_ty

    def get(self, key, world: "World"):
        if key in self.entries:
            return self.entries[key]
        value = world.default_value(self.value_ty)
        if isinstance(value, SolArr):
            self.entries[key] = value
        return value


@record
class Instance:
    contract: str
    index: int
    state: dict = field(default_factory=dict)


NULL = None  # the null address


@record
class World:
    program: ast.SolProgram
    interner: dict[str, int]
    tape: list = field(default_factory=list)
    instances: list[Instance] = field(default_factory=list)
    tape_pos: int = 0
    steps: int = 0
    budget: int = 10 ** 6

    def default_value(self, ty: ast.SolType):
        if isinstance(ty, ast.MappingType):
            return SolArr(ty.value)
        if isinstance(ty, ast.BoolType):
            return False
        if isinstance(ty, (ast.AddressType, ast.ContractType)):
            return NULL
        return 0  # int and string (interned)

    def intern(self, text: str) -> int:
        if text not in self.interner:
            self.interner[text] = len(self.interner)
        return self.interner[text]

    def new_instance(self, contract: str, args: list, sender) -> Instance:
        c = self.program.contract(contract)
        if c is None:
            raise SolRuntimeError(f"unknown contract {contract}")
        inst = Instance(contract=contract, index=len(self.instances))
        self.instances.append(inst)
        for cname in self.program.order[contract]:
            base = self.program.contract(cname)
            for n, t in base.state_vars:
                inst.state[n] = self.default_value(t)
        self.call_constructor_of(inst, contract, args, sender)
        return inst

    def call_constructor_of(self, inst: Instance, contract: str, args: list, sender):
        # Base constructors run base-most first, then own initialization.
        c = self.program.contract(contract)
        for base in [b for b in reversed(self.program.order[contract])
                     if b != contract and b in c.bases]:
            self.call_constructor_of(inst, base, [], sender)
        self._run_fn(inst, c.constructor, args, sender)

    def call_function(self, inst: Instance, fn: str, args: list, sender):
        resolved = self.program.resolve(inst.contract, "function", fn)
        if resolved is None:
            raise SolRuntimeError(f"{inst.contract} has no function {fn}")
        _, f = resolved
        return self._run_fn(inst, f, args, sender)

    def _run_fn(self, inst: Instance, fn: ast.SolFunction, args: list, sender):
        if fn.body is None:
            # Definition-free boolean function: unconstrained, tape-driven.
            return self.pop_tape_bool()
        if len(args) != len(fn.params):
            raise SolRuntimeError(f"{fn.name}: bad arity")
        frame = Frame(world=self, inst=inst, sender=sender,
                      env={n: v for (n, _), v in zip(fn.params, args)})
        ret = [None if fn.returns is None else self.default_value(fn.returns)]
        _exec_block(fn.body, frame, ret)
        return ret[0]

    def pop_tape_bool(self) -> bool:
        if self.tape_pos >= len(self.tape):
            return False
        v = self.tape[self.tape_pos]
        self.tape_pos += 1
        return bool(v)

    def tick(self):
        self.steps += 1
        if self.steps > self.budget:
            raise SolRuntimeError("step budget exhausted")


@record
class Frame:
    world: World
    inst: Instance
    sender: object
    env: dict


def _lvalue_set(lhs: ast.SolExpr, value, frame: Frame):
    if isinstance(lhs, ast.Var):
        if lhs.binding == "state":
            frame.inst.state[lhs.name] = value
        elif lhs.binding == "return":
            raise SolRuntimeError("return variable outside call protocol")
        else:
            frame.env[lhs.name] = value
        return
    if isinstance(lhs, ast.Index):
        base = _eval(lhs.base, frame)
        if not isinstance(base, SolArr):
            raise SolRuntimeError("index into non-mapping")
        base.entries[_eval(lhs.key, frame)] = value
        return
    raise SolRuntimeError("not assignable")


def _eval(e: ast.SolExpr, frame: Frame):
    w = frame.world
    if isinstance(e, ast.IntLit):
        return e.value
    if isinstance(e, ast.BoolLit):
        return e.value
    if isinstance(e, ast.StringLit):
        return w.intern(e.value)
    if isinstance(e, ast.AddressLit):
        return NULL if e.value == 0 else ("addr", e.value)
    if isinstance(e, ast.EnumMember):
        return e.value
    if isinstance(e, ast.MsgSender):
        return frame.sender
    if isinstance(e, ast.Var):
        if e.binding == "state":
            return frame.inst.state[e.name]
        if e.name in frame.env:
            return frame.env[e.name]
        raise SolRuntimeError(f"unbound {e.name}")
    if isinstance(e, ast.Index):
        base = _eval(e.base, frame)
        if not isinstance(base, SolArr):
            raise SolRuntimeError("index into non-mapping")
        return base.get(_eval(e.key, frame), w)
    if isinstance(e, ast.LengthOf):
        base = _eval(e.base, frame)
        return base.length
    if isinstance(e, ast.ExprCall):
        return w.pop_tape_bool()  # definition-free boolean function
    if isinstance(e, ast.Op):
        return _eval_op(e, frame)
    raise SolRuntimeError(f"cannot evaluate {type(e).__name__}")


def _eval_op(e: ast.Op, frame: Frame):
    op = e.op
    if op == "&&":
        return bool(_eval(e.args[0], frame)) and bool(_eval(e.args[1], frame))
    if op == "||":
        return bool(_eval(e.args[0], frame)) or bool(_eval(e.args[1], frame))
    if op == "==>":
        return (not _eval(e.args[0], frame)) or bool(_eval(e.args[1], frame))
    if op == "!":
        return not _eval(e.args[0], frame)
    a = _eval(e.args[0], frame)
    if op == "neg":
        return -a
    b = _eval(e.args[1], frame)
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op in ("<", "<=", ">", ">="):
        return {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            raise SolRevert()
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q
    if op == "%":
        if b == 0:
            raise SolRevert()
        r = abs(a) % abs(b)
        return r if a >= 0 else -r
    raise SolRuntimeError(f"unknown operator {op}")


def _exec_block(stmts: list[ast.SolStmt], frame: Frame, ret: list):
    for s in stmts:
        _exec(s, frame, ret)


def _exec(s: ast.SolStmt, frame: Frame, ret: list):
    w = frame.world
    w.tick()
    if isinstance(s, ast.DeclStmt):
        if s.init is not None:
            frame.env[s.name] = _eval(s.init, frame)
        else:
            frame.env[s.name] = w.default_value(s.ty)
        return
    if isinstance(s, ast.Assign):
        if isinstance(s.lhs, ast.Var) and s.lhs.binding == "return":
            ret[0] = _eval(s.rhs, frame)
            return
        _lvalue_set(s.lhs, _eval(s.rhs, frame), frame)
        return
    if isinstance(s, ast.Require):
        if not _eval(s.cond, frame):
            raise SolRevert()
        return
    if isinstance(s, ast.Assert):
        if not _eval(s.cond, frame):
            raise SolAssertFail(s.label or f"assert at line {s.pos[0]}")
        return
    if isinstance(s, ast.If):
        branch = s.then if _eval(s.cond, frame) else s.els
        _exec_block(branch, frame, ret)
        return
    if isinstance(s, ast.While):
        while _eval(s.cond, frame):
            w.tick()
            _exec_block(s.body, frame, ret)
        return
    if isinstance(s, ast.Push):
        base = _eval(s.base, frame)
        if not isinstance(base, SolArr):
            raise SolRuntimeError("push into non-array")
        base.entries[base.length] = _eval(s.value, frame)
        base.length += 1
        return
    if isinstance(s, ast.Return):
        if s.value is not None:
            ret[0] = _eval(s.value, frame)
        return
    if isinstance(s, ast.InternalCall):
        result = w.call_function(frame.inst, s.fn, [_eval(a, frame) for a in s.args],
                                 frame.sender)
        if s.target is not None:
            _lvalue_set(s.target, result, frame)
        return
    if isinstance(s, ast.ExternalCall):
        recv = _eval(s.receiver, frame)
        if not isinstance(recv, Instance):
            raise SolRevert()  # call on the null address reverts
        result = w.call_function(recv, s.fn, [_eval(a, frame) for a in s.args],
                                 frame.inst)
        if s.target is not None:
            _lvalue_set(s.target, result, frame)
        return
    if isinstance(s, ast.NewContract):
        inst = w.new_instance(s.contract, [_eval(a, frame) for a in s.args], frame.inst)
        _lvalue_set(s.target, inst, frame)
        return
    if isinstance(s, ast.NewArray):
        arr = SolArr(s.elem_ty)
        arr.length = _eval(s.size, frame)
        _lvalue_set(s.target, arr, frame)
        return
    if isinstance(s, ast.NewMap):
        _lvalue_set(s.target, SolArr(s.map_ty.value), frame)
        return
    raise SolRuntimeError(f"cannot execute {type(s).__name__}")


def make_world(program: ast.SolProgram, interner: dict[str, int] | None = None,
               tape=()) -> World:
    return World(program=program,
                 interner=interner if interner is not None else {"": 0},
                 tape=list(tape))
