"""Typechecker for the Solidity subset.

Annotates every expression with its type, resolves variable bindings through
the inheritance linearization, lowers enums to integers (member names are
kept on the contract for diagnostics), and rejects deep-copy array
assignments and duplicate state variables across the hierarchy.  Modifiers
are typed by `typecheck_modifier`, which the instrumenter also calls on the
checker modifiers it builds from untyped nodes.
"""

from __future__ import annotations

from solverify import InputError
from solverify.sol import ast

BOOLEAN_OPS = {"&&", "||", "!", "==>"}
COMPARE_OPS = {"<", "<=", ">", ">="}
ARITH_OPS = {"+", "-", "*", "/", "%", "neg"}


class TypeError_(InputError):
    def __init__(self, pos: tuple[int, int], message: str):
        self.pos = pos
        super().__init__(f"{pos[0]}:{pos[1]}: {message}")


class DeepCopyUnsupported(TypeError_):
    def __init__(self, pos):
        super().__init__(pos, "assignment requires a deep copy, which the subset rejects")


class _Scope:
    def __init__(self, program: ast.SolProgram, contract: ast.SolContract,
                 fn: ast.SolFunction | None):
        self.program = program
        self.contract = contract
        self.fn = fn
        self.locals: dict[str, ast.SolType] = {}
        self.params: dict[str, ast.SolType] = dict(fn.params) if fn else {}


def _resolve_type(program: ast.SolProgram, contract: ast.SolContract,
                  ty: ast.SolType, pos) -> ast.SolType:
    if isinstance(ty, ast.NamedType):
        if program.resolve(contract.name, "enum", ty.name) is not None:
            return ast.INT
        if program.contract(ty.name) is not None:
            return ast.ContractType(ty.name)
        raise TypeError_(pos, f"unknown type {ty.name!r}")
    if isinstance(ty, ast.MappingType):
        key = _resolve_type(program, contract, ty.key, pos)
        value = _resolve_type(program, contract, ty.value, pos)
        if not ast.is_elementary(key):
            raise TypeError_(pos, "mapping keys must be elementary (int, string, address)")
        return ast.MappingType(key=key, value=value, is_array=ty.is_array)
    return ty


def _assignable(lhs: ast.SolType, rhs: ast.SolType, program) -> bool:
    if lhs == rhs:
        return True
    # Null address literal into contract-typed slots and vice versa.
    if isinstance(lhs, ast.AddressType) and isinstance(rhs, ast.ContractType):
        return True
    if isinstance(lhs, ast.ContractType) and isinstance(rhs, ast.AddressType):
        return True
    # Derived contract into a base-typed slot.
    if isinstance(lhs, ast.ContractType) and isinstance(rhs, ast.ContractType):
        return lhs.name in program.order.get(rhs.name, [])
    return False


def typecheck(program: ast.SolProgram) -> ast.SolProgram:
    """Annotate the program in place and return it."""
    # No two state vars may share a name across the linearized hierarchy.
    for c in program.contracts:
        seen: dict[str, str] = {}
        for cname in program.order[c.name]:
            base = program.contract(cname)
            for n, _ in base.state_vars:
                if n in seen and seen[n] != cname:
                    raise TypeError_(c.pos, f"state variable {n!r} declared in both "
                                            f"{seen[n]} and {cname}")
                seen.setdefault(n, cname)

    # Resolve declared types first so lookups during body checking see them.
    for c in program.contracts:
        c.enum_vars = {n: t.name for n, t in c.state_vars
                       if isinstance(t, ast.NamedType)
                       and program.resolve(c.name, "enum", t.name) is not None}
        c.state_vars = [(n, _resolve_type(program, c, t, c.pos))
                        for n, t in c.state_vars]
        for fn in c.all_functions():
            fn.params = [(n, _resolve_type(program, c, t, fn.pos))
                         for n, t in fn.params]
            if fn.returns is not None:
                fn.returns = _resolve_type(program, c, fn.returns, fn.pos)

    for c in program.contracts:
        for fn in c.all_functions():
            if fn.body is None:
                if fn.returns != ast.BOOL or fn.params:
                    raise TypeError_(fn.pos, "definition-free functions must be "
                                             "parameterless and return bool")
                continue
            scope = _Scope(program, c, fn)
            _check_block(fn.body, scope, tail=True)
        for m in c.modifiers:
            typecheck_modifier(program, c, m)
    return program


def typecheck_modifier(program: ast.SolProgram, contract: ast.SolContract,
                       modifier: ast.ModifierDef):
    """Annotate the statements of `modifier`, declared in `contract`, in
    place.  Its pre- and post-statements share one scope, with no
    parameters."""
    scope = _Scope(program, contract, None)
    _check_block(modifier.pre_stmts, scope, tail=False)
    _check_block(modifier.post_stmts, scope, tail=False)


def _check_block(stmts: list[ast.SolStmt], scope: _Scope, tail: bool):
    for i, s in enumerate(stmts):
        is_last = tail and i == len(stmts) - 1
        if isinstance(s, ast.Return) and not is_last:
            raise TypeError_(s.pos, "return is only supported in tail position")
        _check_stmt(s, scope, is_last)


def _check_stmt(s: ast.SolStmt, scope: _Scope, tail: bool):
    program = scope.program
    if isinstance(s, ast.DeclStmt):
        s.ty = _resolve_type(program, scope.contract, s.ty, s.pos)
        if s.name in scope.locals or s.name in scope.params:
            raise TypeError_(s.pos, f"redeclaration of {s.name!r}")
        scope.locals[s.name] = s.ty
        if s.init is not None:
            ity = _check_expr(s.init, scope)
            if not _assignable(s.ty, ity, program):
                raise TypeError_(s.pos, f"cannot initialize {s.ty} from {ity}")
        return
    if isinstance(s, ast.Assign):
        lty = _check_expr(s.lhs, scope)
        rty = _check_expr(s.rhs, scope)
        if not _assignable(lty, rty, program):
            raise TypeError_(s.pos, f"cannot assign {rty} to {lty}")
        if isinstance(lty, ast.MappingType) and isinstance(s.lhs, ast.Var) \
                and s.lhs.binding == "state":
            # Storage-to-storage array assignment copies contents.
            raise DeepCopyUnsupported(s.pos)
        if not isinstance(s.lhs, (ast.Var, ast.Index)):
            raise TypeError_(s.pos, "left-hand side is not assignable")
        return
    if isinstance(s, (ast.Require, ast.Assert)):
        ty = _check_expr(s.cond, scope)
        if ty != ast.BOOL:
            kind = "require" if isinstance(s, ast.Require) else "assert"
            raise TypeError_(s.pos, f"{kind} needs a boolean, got {ty}")
        return
    if isinstance(s, ast.If):
        if _check_expr(s.cond, scope) != ast.BOOL:
            raise TypeError_(s.pos, "if condition must be boolean")
        _check_block(s.then, scope, tail=False)
        _check_block(s.els, scope, tail=False)
        return
    if isinstance(s, ast.While):
        if _check_expr(s.cond, scope) != ast.BOOL:
            raise TypeError_(s.pos, "while condition must be boolean")
        _check_block(s.body, scope, tail=False)
        return
    if isinstance(s, ast.Push):
        bty = _check_expr(s.base, scope)
        if not ast.is_array_type(bty):
            raise TypeError_(s.pos, "push applies to arrays only")
        vty = _check_expr(s.value, scope)
        if not _assignable(bty.value, vty, program):
            raise TypeError_(s.pos, f"cannot push {vty} into {bty}")
        return
    if isinstance(s, ast.Return):
        want = scope.fn.returns if scope.fn else None
        if want is None:
            if s.value is not None:
                raise TypeError_(s.pos, "function has no return value")
            return
        if s.value is None:
            raise TypeError_(s.pos, "missing return value")
        got = _check_expr(s.value, scope)
        if not _assignable(want, got, program):
            raise TypeError_(s.pos, f"cannot return {got} as {want}")
        return
    if isinstance(s, ast.InternalCall):
        resolved = program.resolve(scope.contract.name, "function", s.fn)
        if resolved is None:
            raise TypeError_(s.pos, f"unknown function {s.fn!r}")
        _check_call(s, resolved[1], scope)
        return
    if isinstance(s, ast.ExternalCall):
        rty = _check_expr(s.receiver, scope)
        if not isinstance(rty, ast.ContractType):
            raise TypeError_(s.pos, "external call receiver must be contract-typed")
        resolved = program.resolve(rty.name, "function", s.fn)
        if resolved is None:
            raise TypeError_(s.pos, f"{rty.name} has no function {s.fn!r}")
        _check_call(s, resolved[1], scope)
        return
    if isinstance(s, ast.NewContract):
        target_ty = _check_expr(s.target, scope)
        callee = program.contract(s.contract)
        if callee is None:
            raise TypeError_(s.pos, f"unknown contract {s.contract!r}")
        if not _assignable(target_ty, ast.ContractType(s.contract), program):
            raise TypeError_(s.pos, f"cannot store new {s.contract} into {target_ty}")
        ctor = callee.constructor
        if len(s.args) != len(ctor.params):
            raise TypeError_(s.pos, f"constructor of {s.contract} takes "
                                    f"{len(ctor.params)} arguments")
        for arg, (_, pty) in zip(s.args, ctor.params):
            aty = _check_expr(arg, scope)
            if not _assignable(pty, aty, program):
                raise TypeError_(s.pos, f"argument type {aty} does not match {pty}")
        return
    if isinstance(s, ast.NewArray):
        s.elem_ty = _resolve_type(program, scope.contract, s.elem_ty, s.pos)
        if not ast.is_elementary(s.elem_ty):
            raise TypeError_(s.pos, "array elements must be elementary")
        tty = _check_expr(s.target, scope)
        if not _assignable(tty, ast.MappingType(ast.INT, s.elem_ty), program):
            raise TypeError_(s.pos, f"cannot store {s.elem_ty}[] into {tty}")
        if _check_expr(s.size, scope) != ast.INT:
            raise TypeError_(s.pos, "array size must be an integer")
        return
    if isinstance(s, ast.NewMap):
        s.map_ty = _resolve_type(program, scope.contract, s.map_ty, s.pos)
        tty = _check_expr(s.target, scope)
        if not _assignable(tty, s.map_ty, program):
            raise TypeError_(s.pos, f"cannot store {s.map_ty} into {tty}")
        return
    raise TypeError_(getattr(s, "pos", (0, 0)), f"unhandled statement {type(s).__name__}")


def _check_call(s, callee: ast.SolFunction, scope: _Scope):
    if len(s.args) != len(callee.params):
        raise TypeError_(s.pos, f"{s.fn} takes {len(callee.params)} arguments")
    for arg, (_, pty) in zip(s.args, callee.params):
        aty = _check_expr(arg, scope)
        if not _assignable(pty, aty, scope.program):
            raise TypeError_(s.pos, f"argument type {aty} does not match {pty}")
    if s.target is not None:
        tty = _check_expr(s.target, scope)
        if callee.returns is None:
            raise TypeError_(s.pos, f"{s.fn} returns nothing")
        if not _assignable(tty, callee.returns, scope.program):
            raise TypeError_(s.pos, f"cannot store {callee.returns} into {tty}")
        if not isinstance(s.target, (ast.Var, ast.Index)):
            raise TypeError_(s.pos, "call target is not assignable")


def _check_expr(e: ast.SolExpr, scope: _Scope) -> ast.SolType:
    """Type `e` and the expressions below it, operands before operators and
    left to right.  Operator chains, the expressions that nest deeply, are
    followed on an explicit stack, not by recursion."""
    stack = [(e, False)]
    while stack:
        x, operands_done = stack.pop()
        if operands_done or not isinstance(x, ast.Op):
            x.ty = _infer_expr(x, scope)
        else:
            stack.append((x, True))
            stack.extend((a, False) for a in reversed(x.args))
    return e.ty


def _infer_expr(e: ast.SolExpr, scope: _Scope) -> ast.SolType:
    program = scope.program
    if isinstance(e, ast.IntLit):
        return ast.INT
    if isinstance(e, ast.BoolLit):
        return ast.BOOL
    if isinstance(e, ast.StringLit):
        return ast.STRING
    if isinstance(e, ast.AddressLit):
        if e.value != 0:  # the encoding names no address but null
            raise TypeError_(e.pos, "the only address literal supported is 0x0")
        return ast.ADDRESS
    if isinstance(e, ast.MsgSender):
        return ast.ADDRESS
    if isinstance(e, ast.Var):
        if e.name in scope.locals:
            e.binding = "local"
            return scope.locals[e.name]
        if e.name in scope.params:
            e.binding = "param"
            return scope.params[e.name]
        resolved = program.resolve(scope.contract.name, "state_var", e.name)
        if resolved is not None:
            owner, ty = resolved
            e.binding = "state"
            e.owner = owner
            return ty
        raise TypeError_(e.pos, f"unknown name {e.name!r}")
    if isinstance(e, ast.EnumMember):
        resolved = program.resolve(scope.contract.name, "enum", e.enum)
        if resolved is None:
            raise TypeError_(e.pos, f"unknown enum {e.enum!r}")
        members = resolved[1]
        if e.member not in members:
            raise TypeError_(e.pos, f"{e.enum} has no member {e.member!r}")
        e.value = members.index(e.member)
        return ast.INT
    if isinstance(e, ast.Op):
        arg_tys = [a.ty for a in e.args]  # typed by _check_expr
        if e.op in BOOLEAN_OPS:
            if any(t != ast.BOOL for t in arg_tys):
                raise TypeError_(e.pos, f"{e.op} needs boolean operands")
            return ast.BOOL
        if e.op in COMPARE_OPS:
            if any(t != ast.INT for t in arg_tys):
                raise TypeError_(e.pos, f"{e.op} compares integers")
            return ast.BOOL
        if e.op in ("==", "!="):
            a, b = arg_tys
            ok = a == b or _assignable(a, b, program) or _assignable(b, a, program)
            if not ok or isinstance(a, ast.MappingType):
                raise TypeError_(e.pos, f"cannot compare {a} with {b}")
            return ast.BOOL
        if e.op in ARITH_OPS:
            if any(t != ast.INT for t in arg_tys):
                raise TypeError_(e.pos, f"{e.op} needs integer operands")
            return ast.INT
        raise TypeError_(e.pos, f"unknown operator {e.op!r}")
    if isinstance(e, ast.Index):
        bty = _check_expr(e.base, scope)
        if not isinstance(bty, ast.MappingType):
            raise TypeError_(e.pos, "indexing a non-mapping value")
        kty = _check_expr(e.key, scope)
        if not _assignable(bty.key, kty, program):
            raise TypeError_(e.pos, f"key type {kty} does not match {bty.key}")
        return bty.value
    if isinstance(e, ast.LengthOf):
        bty = _check_expr(e.base, scope)
        if not ast.is_array_type(bty):
            raise TypeError_(e.pos, ".length applies to arrays only")
        return ast.INT
    if isinstance(e, ast.ExprCall):
        resolved = program.resolve(scope.contract.name, "function", e.fn)
        if resolved is None:
            raise TypeError_(e.pos, f"unknown function {e.fn!r}")
        _, callee = resolved
        if callee.body is not None:
            raise TypeError_(e.pos, "calls are statements in the subset; only "
                                    "definition-free boolean functions may "
                                    "appear in expressions")
        if e.args:
            raise TypeError_(e.pos, f"{e.fn} takes no arguments")
        return ast.BOOL
    raise TypeError_(getattr(e, "pos", (0, 0)), f"unhandled expression {type(e).__name__}")
