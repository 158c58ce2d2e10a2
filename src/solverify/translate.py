"""Translation from the typed, desugared Solidity subset to the IR.

Scalar state variables become per-contract maps indexed by the receiver
reference; nested mappings and arrays go through shared per-type lookup maps
so aliasing is explicit.  Functions gain implicit `this` and `msg_sender`
parameters; calls dispatch on the receiver's dynamic type over the closed
set of subtypes, with internal calls forwarding the sender and external
calls passing the current receiver as sender.  Constructors run base
constructors first, zero-initialize their own state, then the body.
"""

from __future__ import annotations

from solverify.record import field, record
from solverify.sol import ast as S
from solverify import InputError
from solverify.sol.linearize import subtypes_of
from solverify.vir import ast as I
from solverify.vir.ast import BOOL, INT, REF, MapType
from solverify.vir.prelude import (
    ALLOC, DTYPE, LENGTH, STR_TO_INT, chain_select, declare_lookup_maps,
    emit_prelude, foralls, lookup_map_name,
)

THIS = "this"
MSG_SENDER = "msg_sender"
RET = "__ret"


class TranslateError(InputError):
    pass


def map_type(t: S.SolType) -> I.IrType:
    """Solidity-to-IR type map: integers and strings are ints, addresses,
    contracts, and mappings are references, booleans stay boolean."""
    if isinstance(t, (S.IntType, S.StringType)):
        return INT
    if isinstance(t, S.BoolType):
        return BOOL
    if isinstance(t, (S.AddressType, S.ContractType, S.MappingType)):
        return REF
    raise TranslateError(f"no IR type for {t}")


def map_signature(t: S.MappingType) -> tuple[tuple[I.IrType, ...], I.IrType]:
    """Key-type chain and leaf type of a nested mapping."""
    chain = []
    cur: S.SolType = t
    while isinstance(cur, S.MappingType):
        chain.append(map_type(cur.key))
        cur = cur.value
    return tuple(chain), map_type(cur)


@record
class TransEnv:
    program: S.SolProgram
    contract: str
    interner: dict[str, int]
    map_sigs: set
    contract_codes: dict[str, int]
    locals: list[tuple[str, I.IrType]] = field(default_factory=list)
    temp_counter: int = 0
    nondet_counter: int = 0
    prelude_hoists: list[I.IrStmt] = field(default_factory=list)
    divides: bool = False  # whether the body has a `/` or `%`

    def fresh_temp(self, ty: I.IrType, prefix: str = "tmp") -> str:
        name = f"{prefix}{self.temp_counter}"
        self.temp_counter += 1
        self.locals.append((name, ty))
        return name

    def fresh_nondet(self) -> str:
        name = f"nd{self.nondet_counter}"
        self.nondet_counter += 1
        self.locals.append((name, BOOL))
        return name

    def intern(self, text: str) -> int:
        if text not in self.interner:
            self.interner[text] = len(self.interner) + 1
        return self.interner[text]

    def register_map(self, t: S.MappingType):
        self.map_sigs.add(map_signature(t))


def state_map_name(var: str, owner: str) -> str:
    return f"{var}_{owner}"


def proc_name(contract: str, fn: str | None) -> str:
    return f"{contract}_Ctor" if fn is None else f"{fn}_{contract}"


def _lookup_map_for(base_ty: S.MappingType) -> str:
    key = map_type(base_ty.key)
    value = REF if isinstance(base_ty.value, S.MappingType) else map_type(base_ty.value)
    return lookup_map_name(key, value)


def translate_expr(env: TransEnv, e: S.SolExpr) -> I.IrExpr:
    if isinstance(e, S.IntLit):
        return I.IConst(e.value)
    if isinstance(e, S.BoolLit):
        return I.BConst(e.value)
    if isinstance(e, S.AddressLit):
        return I.RConst(e.value)
    if isinstance(e, S.StringLit):
        return I.UFApply(STR_TO_INT, (I.IConst(env.intern(e.value)),))
    if isinstance(e, S.EnumMember):
        return I.IConst(e.value)
    if isinstance(e, S.MsgSender):
        return I.Var(MSG_SENDER)
    if isinstance(e, S.Var):
        if e.binding == "state":
            return I.select(I.Var(state_map_name(e.name, e.owner)), I.Var(THIS))
        if e.binding == "return":
            return I.Var(RET)
        return I.Var(e.name)
    if isinstance(e, S.Op):
        env.divides |= e.op in ("/", "%")
        return I.Op(e.op, tuple(translate_expr(env, a) for a in e.args))
    if isinstance(e, S.Index):
        base_ty = e.base.ty
        if not isinstance(base_ty, S.MappingType):
            raise TranslateError("index base is not a mapping")
        env.register_map(base_ty)
        m = _lookup_map_for(base_ty)
        return I.select(I.Var(m), translate_expr(env, e.base),
                        translate_expr(env, e.key))
    if isinstance(e, S.LengthOf):
        return I.select(I.Var(LENGTH), translate_expr(env, e.base))
    if isinstance(e, S.ExprCall):
        raise TranslateError("nondet call must be hoisted before translation")
    raise TranslateError(f"cannot translate {type(e).__name__}")


def _hoist_nondets(env: TransEnv, e: S.SolExpr) -> S.SolExpr:
    """Replace nondet() occurrences, numbered in pre-order, with fresh
    havoc'd booleans in a copy of `e`; the havocs are emitted at procedure
    entry so every run consumes them in a fixed order."""
    if not any(isinstance(x, S.ExprCall) for x in S.walk(e)):
        return e
    e = S.copy_tree(e)
    fresh = {}
    for x in S.walk(e):
        if isinstance(x, S.ExprCall):
            name = env.fresh_nondet()
            env.prelude_hoists.append(I.Havoc(name))
            v = fresh[id(x)] = S.Var(name=name)
            v.ty = S.BOOL
            v.binding = "local"
    for x in S.walk(e):
        S.map_children(x, lambda c: fresh.get(id(c), c))
    return fresh.get(id(e), e)


def _store_into(env: TransEnv, lhs: S.SolExpr, value: I.IrExpr) -> I.IrStmt:
    if isinstance(lhs, S.Var):
        if lhs.binding == "state":
            return I.Store(state_map_name(lhs.name, lhs.owner), (I.Var(THIS),), value)
        if lhs.binding == "return":
            return I.Assign(RET, value)
        return I.Assign(lhs.name, value)
    if isinstance(lhs, S.Index):
        base_ty = lhs.base.ty
        env.register_map(base_ty)
        m = _lookup_map_for(base_ty)
        return I.Store(m, (translate_expr(env, lhs.base),
                           translate_expr(env, lhs.key)), value)
    raise TranslateError("left-hand side is not assignable")


def _alloc_sequence(env: TransEnv, tmp: str, sig, array_len: I.IrExpr | None) -> list[I.IrStmt]:
    """Fresh reference plus the allocation facts for a (possibly nested) map:
    length zeroing, per-level freshness/allocatedness/distinctness, and leaf
    zero-initialization.  `array_len` switches the top-level length fact to a
    store of the requested size."""
    chain, leaf = sig
    env.map_sigs.add(sig)
    ref = I.Var(tmp)
    stmts: list[I.IrStmt] = [I.Call("New", (), (tmp,))]
    if array_len is not None:
        stmts.append(I.Store(LENGTH, (ref,), array_len))
    else:
        stmts.append(I.Assume(I.op("==", I.select(I.Var(LENGTH), ref), I.IConst(0))))
    n = len(chain)
    for j in range(1, n):
        idx = [(f"i{k}", chain[k - 1]) for k in range(1, j + 1)]
        idx_vars = [I.Var(name) for name, _ in idx]
        level = chain_select(ref, chain, leaf, idx_vars)
        stmts.append(I.Assume(foralls(idx, I.op("==", I.select(I.Var(LENGTH), level), I.IConst(0)))))
        stmts.append(I.Assume(foralls(idx, I.op("!", I.select(I.Var(ALLOC), level)))))
        stmts.append(I.Call("NewUnbounded", ()))
        stmts.append(I.Assume(foralls(idx, I.select(I.Var(ALLOC), level))))
        primed = idx + [(f"i{j}_", chain[j - 1])]
        level2 = chain_select(ref, chain, leaf, idx_vars[:-1] + [I.Var(f"i{j}_")])
        stmts.append(I.Assume(foralls(
            primed, I.op("||", I.op("==", I.Var(f"i{j}"), I.Var(f"i{j}_")),
                         I.op("!=", level, level2)))))
    idx = [(f"i{k}", chain[k - 1]) for k in range(1, n + 1)]
    leaf_sel = chain_select(ref, chain, leaf, [I.Var(name) for name, _ in idx])
    zero: I.IrExpr = I.BConst(False) if leaf == BOOL else \
        (I.RConst(0) if leaf == REF else I.IConst(0))
    stmts.append(I.Assume(foralls(idx, I.op("==", leaf_sel, zero))))
    return stmts


def translate_stmt(env: TransEnv, s: S.SolStmt) -> list[I.IrStmt]:
    if isinstance(s, S.DeclStmt):
        ty = map_type(s.ty)
        env.locals.append((s.name, ty))
        if isinstance(s.ty, S.MappingType):
            env.register_map(s.ty)
        if s.init is not None:
            return [I.Assign(s.name, translate_expr(env, s.init))]
        return []
    if isinstance(s, S.Assign):
        return [_store_into(env, s.lhs, translate_expr(env, _hoist_nondets(env, s.rhs)))]
    if isinstance(s, S.Require):
        return [I.Assume(translate_expr(env, _hoist_nondets(env, s.cond)))]
    if isinstance(s, S.Assert):
        label = s.label or f"{env.contract}: assert at line {s.pos[0]}"
        return [I.Assert(translate_expr(env, _hoist_nondets(env, s.cond)), label)]
    if isinstance(s, S.If):
        cond = translate_expr(env, _hoist_nondets(env, s.cond))
        then = I.seq(*[t for sub in s.then for t in translate_stmt(env, sub)])
        els = I.seq(*[t for sub in s.els for t in translate_stmt(env, sub)])
        return [I.If(cond, then, els)]
    if isinstance(s, S.While):
        cond = translate_expr(env, s.cond)
        body = I.seq(*[t for sub in s.body for t in translate_stmt(env, sub)])
        return [I.While(cond, body)]
    if isinstance(s, S.Push):
        # x.push(e) is x[x.length] := e with the length bumped.
        base_ty = s.base.ty
        env.register_map(base_ty)
        m = _lookup_map_for(base_ty)
        base = translate_expr(env, s.base)
        ln = env.fresh_temp(INT, "len")
        return [
            I.Assign(ln, I.select(I.Var(LENGTH), base)),
            I.Store(m, (base, I.Var(ln)), translate_expr(env, _hoist_nondets(env, s.value))),
            I.Store(LENGTH, (base,), I.op("+", I.Var(ln), I.IConst(1))),
        ]
    if isinstance(s, S.Return):
        if s.value is None:
            return []
        return [I.Assign(RET, translate_expr(env, _hoist_nondets(env, s.value)))]
    if isinstance(s, S.InternalCall):
        return [_translate_call(env, s, receiver=None)]
    if isinstance(s, S.ExternalCall):
        return [_translate_call(env, s, receiver=s.receiver)]
    if isinstance(s, S.NewContract):
        tmp = env.fresh_temp(REF)
        args = tuple(translate_expr(env, _hoist_nondets(env, a)) for a in s.args)
        return [
            I.Call("New", (), (tmp,)),
            I.Assume(I.op("==", I.select(I.Var(DTYPE), I.Var(tmp)),
                          I.NamedConst(s.contract))),
            I.Call(proc_name(s.contract, None),
                   (I.Var(tmp),) + args + (I.Var(THIS),)),
            _store_into(env, s.target, I.Var(tmp)),
        ]
    if isinstance(s, S.NewArray):
        elem = map_type(s.elem_ty)
        sig = ((INT,), elem)
        tmp = env.fresh_temp(REF)
        size = translate_expr(env, _hoist_nondets(env, s.size))
        stmts = _alloc_sequence(env, tmp, sig, array_len=size)
        stmts.append(_store_into(env, s.target, I.Var(tmp)))
        return stmts
    if isinstance(s, S.NewMap):
        sig = map_signature(s.map_ty)
        tmp = env.fresh_temp(REF)
        stmts = _alloc_sequence(env, tmp, sig, array_len=None)
        stmts.append(_store_into(env, s.target, I.Var(tmp)))
        return stmts
    raise TranslateError(f"cannot translate {type(s).__name__}")


def _nonzero_divisors(e: I.IrExpr, guard: I.IrExpr | None = None) -> list[I.IrStmt]:
    """An assumption that the divisor of each `/` and `%` in `e` is nonzero,
    innermost first, each under the condition (`guard` and the left
    operands of `&&`, `||` and `==>` above it) on which it is evaluated."""
    out: list[I.IrStmt] = []
    if isinstance(e, I.Op) and e.op in ("&&", "||", "==>"):
        left, right = e.args
        taken = I.op("!", left) if e.op == "||" else left
        out += _nonzero_divisors(left, guard)
        out += _nonzero_divisors(right, taken if guard is None else I.op("&&", guard, taken))
        return out
    if isinstance(e, (I.Op, I.UFApply)):
        parts = e.args
    elif isinstance(e, I.Select):
        parts = (e.base,) + e.keys
    else:
        parts = ()
    for part in parts:
        out += _nonzero_divisors(part, guard)
    if isinstance(e, I.Op) and e.op in ("/", "%") \
            and not (isinstance(e.args[1], I.IConst) and e.args[1].value != 0):
        nonzero = I.op("!=", e.args[1], I.IConst(0))
        out.append(I.Assume(nonzero if guard is None else I.op("==>", guard, nonzero)))
    return out


def _guard_divisors(s: I.IrStmt) -> I.IrStmt:
    """`s` with `_nonzero_divisors` of what each statement evaluates assumed
    before it: a zero divisor reverts the transaction in Solidity, while
    SMT-LIB leaves `(div a 0)` unconstrained.  A loop condition's are
    assumed before the loop and at the end of its body."""
    if isinstance(s, I.Seq):
        return I.seq(*map(_guard_divisors, s.stmts))
    if isinstance(s, I.If):
        return I.seq(*_nonzero_divisors(s.cond),
                     I.If(s.cond, _guard_divisors(s.then), _guard_divisors(s.els)))
    if isinstance(s, I.While):
        checks = _nonzero_divisors(s.cond)
        return I.seq(*checks, I.While(s.cond, I.seq(_guard_divisors(s.body), *checks)))
    if isinstance(s, I.Assign):
        evaluated: tuple = (s.expr,)
    elif isinstance(s, I.Store):
        evaluated = s.keys + (s.value,)
    elif isinstance(s, (I.Assume, I.Assert)):
        evaluated = (s.cond,)
    elif isinstance(s, I.Call):
        evaluated = s.args
    else:
        evaluated = ()
    return I.seq(*[a for e in evaluated for a in _nonzero_divisors(e)], s)


def _translate_call(env: TransEnv, s, receiver: S.SolExpr | None) -> I.IrStmt:
    """Dispatch on the receiver's dynamic type over all subtypes of its
    static type.  Internal calls keep msg_sender; external calls pass the
    current receiver as the callee's sender."""
    program = env.program
    if receiver is None:
        static_ty = env.contract
        recv_expr: I.IrExpr = I.Var(THIS)
        sender_expr: I.IrExpr = I.Var(MSG_SENDER)
    else:
        if not isinstance(receiver.ty, S.ContractType):
            raise TranslateError("external call receiver must be contract-typed")
        static_ty = receiver.ty.name
        recv_expr = translate_expr(env, receiver)
        sender_expr = I.Var(THIS)

    args = tuple(translate_expr(env, _hoist_nondets(env, a)) for a in s.args)
    candidates = subtypes_of(program, static_ty)
    if not candidates:
        raise TranslateError(f"no candidate implementation for {s.fn} on {static_ty}")

    def branch_call(subtype: str) -> I.IrStmt:
        resolved = program.resolve(subtype, "function", s.fn)
        if resolved is None:
            raise TranslateError(f"{subtype} has no function {s.fn}")
        owner, fn = resolved
        results: tuple[str, ...] = ()
        stmts: list[I.IrStmt] = []
        if s.target is not None:
            tmp = env.fresh_temp(map_type(fn.returns))
            results = (tmp,)
        stmts.append(I.Call(proc_name(owner, s.fn), (recv_expr,) + args + (sender_expr,), results))
        if s.target is not None:
            stmts.append(_store_into(env, s.target, I.Var(results[0])))
        return I.seq(*stmts)

    if len(candidates) == 1:
        return branch_call(candidates[0])
    out: I.IrStmt = I.Assume(I.BConst(False))  # closed program: no other type
    for subtype in reversed(candidates):
        out = I.If(I.op("==", I.select(I.Var(DTYPE), recv_expr), I.NamedConst(subtype)),
                   branch_call(subtype), out)
    return out


# -- whole-program translation ---------------------------------------------

@record
class Translation:
    ir: I.IrProgram
    contract_codes: dict[str, int]
    interner: dict[str, int]
    source: S.SolProgram
    map_sigs: set = field(default_factory=set)

    def ctor_proc(self, contract: str) -> str:
        return proc_name(contract, None)

    def public_functions(self, contract: str) -> list[tuple[str, str, list[I.IrType]]]:
        """Callable surface of a contract: (name, resolved proc, IR param
        types without this/sender), in declaration order."""
        out = []
        seen = set()
        for cname in self.source.order[contract]:
            c = self.source.contract(cname)
            for fn in c.functions:
                if fn.name in seen or fn.body is None or fn.visibility != "public":
                    continue
                seen.add(fn.name)
                owner, resolved = self.source.resolve(contract, "function", fn.name)
                out.append((fn.name, proc_name(owner, fn.name),
                            [map_type(t) for _, t in resolved.params]))
        return out

    def ctor_params(self, contract: str) -> list[I.IrType]:
        c = self.source.contract(contract)
        return [map_type(t) for _, t in c.constructor.params]


def _collect_map_sigs(program: S.SolProgram) -> set:
    sigs = set()

    def add_type(t: S.SolType):
        while isinstance(t, S.MappingType):
            sigs.add(map_signature(t))
            t = t.value

    for c in program.contracts:
        for _, t in c.state_vars:
            add_type(t)
        for fn in c.all_functions():
            for s in S.walk(fn.body or []):
                if isinstance(s, S.DeclStmt):
                    add_type(s.ty)
                elif isinstance(s, S.NewArray):
                    add_type(S.MappingType(S.INT, s.elem_ty))
                elif isinstance(s, S.NewMap):
                    add_type(s.map_ty)
    return sigs


def translate_program(program: S.SolProgram) -> Translation:
    """Translate a typed, desugared program (instrumented or plain)."""
    contract_codes = {c.name: i + 1 for i, c in enumerate(program.contracts)}
    map_sigs = _collect_map_sigs(program)
    ir = emit_prelude(map_sigs)
    ir.constants.update(contract_codes)
    interner: dict[str, int] = {}

    tr = Translation(ir=ir, contract_codes=contract_codes,
                     interner=interner, source=program, map_sigs=map_sigs)

    # One global map per state variable of its declaring contract.
    for c in program.contracts:
        for n, t in c.state_vars:
            ir.globals[state_map_name(n, c.name)] = MapType(REF, map_type(t))

    for c in program.contracts:
        for fn in c.functions:
            if fn.body is None:
                continue  # definition-free declarations have no procedure
            ir.add_proc(_translate_function(tr, c, fn))
        ir.add_proc(_translate_constructor(tr, c))
    return tr


def _make_env(tr: Translation, contract: str) -> TransEnv:
    return TransEnv(program=tr.source, contract=contract,
                    interner=tr.interner, map_sigs=tr.map_sigs,
                    contract_codes=tr.contract_codes)


def _finish_proc(tr: Translation, env: TransEnv, name: str, params, returns,
                 stmts: list[I.IrStmt]) -> I.IrProcedure:
    body = I.seq(*(env.prelude_hoists + stmts))
    if env.divides:
        body = _guard_divisors(body)
    _ensure_maps_declared(tr)
    return I.IrProcedure(name=name, params=params, returns=returns,
                         locals=env.locals, body=body)


def _ensure_maps_declared(tr: Translation):
    declare_lookup_maps(tr.ir, sorted(tr.map_sigs, key=str))


def _translate_function(tr: Translation, c: S.SolContract, fn: S.SolFunction) -> I.IrProcedure:
    env = _make_env(tr, c.name)
    params = [(THIS, REF)] + [(n, map_type(t)) for n, t in fn.params] + [(MSG_SENDER, REF)]
    returns = [(RET, map_type(fn.returns))] if fn.returns is not None else []
    stmts = [t for s in fn.body for t in translate_stmt(env, s)]
    return _finish_proc(tr, env, proc_name(c.name, fn.name), params, returns, stmts)


def _translate_constructor(tr: Translation, c: S.SolContract) -> I.IrProcedure:
    env = _make_env(tr, c.name)
    ctor = c.constructor
    params = [(THIS, REF)] + [(n, map_type(t)) for n, t in ctor.params] + [(MSG_SENDER, REF)]
    stmts: list[I.IrStmt] = []

    # Base constructors, reverse linearization order (base-most first).
    bases_in_order = [b for b in reversed(tr.source.order[c.name]) if b != c.name and b in c.bases]
    for base in bases_in_order:
        base_ctor = tr.source.contract(base).constructor
        if base_ctor.params:
            raise TranslateError(f"base constructor {base} takes arguments; "
                                 f"explicit base-constructor arguments are not supported")
        stmts.append(I.Call(proc_name(base, None), (I.Var(THIS), I.Var(MSG_SENDER))))

    # Zero / fresh initialization of the contract's own state variables.
    for n, t in c.state_vars:
        target = state_map_name(n, c.name)
        if isinstance(t, S.MappingType):
            tmp = env.fresh_temp(REF)
            if t.is_array and not isinstance(t.value, S.MappingType):
                alloc = _alloc_sequence(env, tmp, map_signature(t), array_len=I.IConst(0))
            else:
                alloc = _alloc_sequence(env, tmp, map_signature(t), array_len=None)
            stmts.extend(alloc)
            stmts.append(I.Store(target, (I.Var(THIS),), I.Var(tmp)))
        elif isinstance(t, S.BoolType):
            stmts.append(I.Store(target, (I.Var(THIS),), I.BConst(False)))
        elif isinstance(t, (S.AddressType, S.ContractType)):
            stmts.append(I.Store(target, (I.Var(THIS),), I.RConst(0)))
        else:
            stmts.append(I.Store(target, (I.Var(THIS),), I.IConst(0)))

    stmts += [t for s in ctor.body for t in translate_stmt(env, s)]
    return _finish_proc(tr, env, proc_name(c.name, None), params, [], stmts)


# -- harness -----------------------------------------------------------------

@record
class HarnessInfo:
    proc: str
    root: str
    ctor_args: list[str]
    ctor_sender: str
    branches: list[tuple[str, str, str, list[str]]]  # (choice var, fn, proc, arg vars)
    sender_var: str


def generate_harness(tr: Translation, root: str) -> HarnessInfo:
    """Entry procedure: allocate the instance, call the constructor with
    arbitrary arguments and sender, then loop forever nondeterministically
    invoking one public function per iteration with fresh arguments."""
    if tr.source.contract(root) is None:
        raise TranslateError(f"unknown root contract {root!r}")
    locals_: list[tuple[str, I.IrType]] = [("inst", REF), ("ctor_sender", REF)]
    stmts: list[I.IrStmt] = [
        I.Call("New", (), ("inst",)),
        I.Assume(I.op("==", I.select(I.Var(DTYPE), I.Var("inst")), I.NamedConst(root))),
        I.Havoc("ctor_sender"),
    ]
    ctor_args = []
    for i, ty in enumerate(tr.ctor_params(root)):
        name = f"ctor_arg{i}"
        locals_.append((name, ty))
        stmts.append(I.Havoc(name))
        ctor_args.append(name)
    stmts.append(I.Call(tr.ctor_proc(root),
                        tuple([I.Var("inst")] + [I.Var(a) for a in ctor_args]
                              + [I.Var("ctor_sender")])))

    locals_.append(("sender", REF))
    branches = []
    body: list[I.IrStmt] = [I.Havoc("sender")]
    dispatch: I.IrStmt = I.Skip()
    fns = tr.public_functions(root)
    for idx, (fname, pname, ptypes) in enumerate(fns):
        choice = f"choice{idx}"
        locals_.append((choice, BOOL))
        arg_vars = []
        for j, ty in enumerate(ptypes):
            av = f"arg_{fname}_{j}"
            locals_.append((av, ty))
            arg_vars.append(av)
        branches.append((choice, fname, pname, arg_vars))
    for choice, fname, pname, arg_vars in reversed(branches):
        call = I.seq(*([I.Havoc(a) for a in arg_vars]
                       + [I.Call(pname, tuple([I.Var("inst")] + [I.Var(a) for a in arg_vars]
                                              + [I.Var("sender")]))]))
        dispatch = I.If(I.Var(choice), call, dispatch)
    body += [I.Havoc(b[0]) for b in branches]
    body.append(dispatch)
    stmts.append(I.While(I.BConst(True), I.seq(*body)))

    proc = I.IrProcedure(name="main", params=[], returns=[], locals=locals_,
                         body=I.seq(*stmts))
    tr.ir.add_proc(proc)
    return HarnessInfo(proc="main", root=root, ctor_args=ctor_args,
                       ctor_sender="ctor_sender",
                       branches=branches, sender_var="sender")
