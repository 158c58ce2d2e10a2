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
from solverify import InputError, claim
from solverify.sol.linearize import subtypes_of
from solverify.vir import ast as I
from solverify.vir.ast import BOOL, INT, REF, MapType
from solverify.vir.prelude import LENGTH, dtype_is, emit_prelude, lookup_map_name

THIS = "this"
MSG_SENDER = "msg_sender"
RET = "__ret"
# The harness procedure and the locals of it that every root shares.
HARNESS = "main"
INST = "inst"
CTOR_SENDER = "ctor_sender"
SENDER = "sender"


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
    tr: Translation
    contract: str
    taken: set[str]  # the procedure's local namespace
    names: dict[str, str]  # source parameter or local -> IR local
    locals: list[tuple[str, I.IrType]] = field(default_factory=list)
    temp_counter: int = 0
    nondet_counter: int = 0
    prelude_hoists: list[I.IrStmt] = field(default_factory=list)
    divides: bool = False  # whether the body has a `/` or `%`

    def fresh_temp(self, ty: I.IrType, prefix: str = "tmp") -> str:
        name = claim(f"{prefix}{self.temp_counter}", self.taken)
        self.temp_counter += 1
        self.locals.append((name, ty))
        return name

    def fresh_nondet(self) -> str:
        name = claim(f"nd{self.nondet_counter}", self.taken)
        self.nondet_counter += 1
        self.locals.append((name, BOOL))
        return name

    def intern(self, text: str) -> int:
        interner = self.tr.interner
        if text not in interner:
            interner[text] = len(interner)
        return interner[text]


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
        return I.IConst(env.intern(e.value))
    if isinstance(e, S.EnumMember):
        return I.IConst(e.value)
    if isinstance(e, S.MsgSender):
        return I.Var(MSG_SENDER)
    if isinstance(e, S.Var):
        if e.binding == "state":
            return I.select(I.Var(env.tr.state_maps[e.owner, e.name]), I.Var(THIS))
        if e.binding == "return":
            return I.Var(RET)
        return I.Var(env.names.get(e.name, e.name))
    if isinstance(e, S.Op):
        env.divides |= e.op in ("/", "%")
        return I.Op(e.op, tuple(translate_expr(env, a) for a in e.args))
    if isinstance(e, S.Index):
        base_ty = e.base.ty
        if not isinstance(base_ty, S.MappingType):
            raise TranslateError("index base is not a mapping")
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
            return I.Store(env.tr.state_maps[lhs.owner, lhs.name], (I.Var(THIS),), value)
        if lhs.binding == "return":
            return I.Assign(RET, value)
        return I.Assign(env.names.get(lhs.name, lhs.name), value)
    if isinstance(lhs, S.Index):
        m = _lookup_map_for(lhs.base.ty)
        return I.Store(m, (translate_expr(env, lhs.base),
                           translate_expr(env, lhs.key)), value)
    raise TranslateError("left-hand side is not assignable")


def _default(env: TransEnv, t: S.SolType) -> tuple[list[I.IrStmt], I.IrExpr]:
    """The value a variable of type `t` starts with, and the statements that
    make it: a new empty mapping or array, else 0, false or null."""
    if isinstance(t, S.MappingType):
        tmp = env.fresh_temp(REF)
        length = I.IConst(0) if t.is_array and not isinstance(t.value, S.MappingType) \
            else None
        return [I.Alloc(tmp, *map_signature(t), length)], I.Var(tmp)
    return [], {INT: I.IConst(0), BOOL: I.BConst(False), REF: I.RConst(0)}[map_type(t)]


def translate_stmt(env: TransEnv, s: S.SolStmt) -> list[I.IrStmt]:
    if isinstance(s, S.DeclStmt):
        name = env.names[s.name]
        env.locals.append((name, map_type(s.ty)))
        if s.init is not None:
            return [I.Assign(name, translate_expr(env, s.init))]
        init, value = _default(env, s.ty)
        return init + [I.Assign(name, value)]
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
        m = _lookup_map_for(s.base.ty)
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
            I.Alloc(tmp, contract=env.tr.consts[s.contract]),
            I.Call(env.tr.procs[s.contract, None],
                   (I.Var(tmp),) + args + (I.Var(THIS),)),
            _store_into(env, s.target, I.Var(tmp)),
        ]
    if isinstance(s, S.NewArray):
        tmp = env.fresh_temp(REF)
        size = translate_expr(env, _hoist_nondets(env, s.size))
        return [I.Alloc(tmp, (INT,), map_type(s.elem_ty), size),
                _store_into(env, s.target, I.Var(tmp))]
    if isinstance(s, S.NewMap):
        tmp = env.fresh_temp(REF)
        return [I.Alloc(tmp, *map_signature(s.map_ty)),
                _store_into(env, s.target, I.Var(tmp))]
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
    for part in I.children(e):
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
    elif isinstance(s, I.Alloc) and s.length is not None:
        evaluated = (s.length,)
    else:
        evaluated = ()
    return I.seq(*[a for e in evaluated for a in _nonzero_divisors(e)], s)


def _translate_call(env: TransEnv, s, receiver: S.SolExpr | None) -> I.IrStmt:
    """Dispatch on the receiver's dynamic type over all subtypes of its
    static type.  Internal calls keep msg_sender; external calls pass the
    current receiver as the callee's sender."""
    program = env.tr.source
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
        stmts.append(I.Call(env.tr.procs[owner, s.fn], (recv_expr,) + args + (sender_expr,), results))
        if s.target is not None:
            stmts.append(_store_into(env, s.target, I.Var(results[0])))
        return I.seq(*stmts)

    if len(candidates) == 1:
        return branch_call(candidates[0])
    out: I.IrStmt = I.Assume(I.BConst(False))  # closed program: no other type
    for subtype in reversed(candidates):
        out = I.If(dtype_is(recv_expr, env.tr.consts[subtype]), branch_call(subtype), out)
    return out


# -- whole-program translation ---------------------------------------------

@record
class Translation:
    ir: I.IrProgram
    interner: dict[str, int]  # literal -> code; "" is 0, an unset string
    source: S.SolProgram
    state_maps: dict[tuple[str, str], str]  # (owner, var) -> IR global
    procs: dict[tuple[str, str | None], str]  # (contract, fn or None) -> procedure
    consts: dict[str, str]  # contract -> IR constant (its code)

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
                out.append((fn.name, self.procs[owner, fn.name],
                            [map_type(t) for _, t in resolved.params]))
        return out

    def ctor_params(self, contract: str) -> list[I.IrType]:
        c = self.source.contract(contract)
        return [map_type(t) for _, t in c.constructor.params]

    def source_args(self, contract: str, fn: str, args: list) -> list:
        """The arguments of a trace's call of `fn` on `contract` (`fn` is
        `contract` for its constructor) as the source spells them: a string
        argument is the literal interned as its code, or, for a code no
        literal has, `#<code>` claimed apart from every literal."""
        params = (self.source.contract(contract).constructor if fn == contract
                  else self.source.resolve(contract, "function", fn)[1]).params
        literals = {code: text for text, code in self.interner.items()}
        return [(literals[a] if a in literals else claim(f"#{a}", set(self.interner)))
                if isinstance(t, S.StringType) else a
                for a, (_, t) in zip(args, params)]


def _collect_map_sigs(program: S.SolProgram) -> set:
    """The signature of every mapping type a translated declaration can
    give a value (state variables, parameters, returns, locals and
    allocations), with the signatures of its nested levels: the lookup
    maps the prelude declares."""
    sigs = set()

    def add_type(t: S.SolType | None):
        while isinstance(t, S.MappingType):
            sigs.add(map_signature(t))
            t = t.value

    for c in program.contracts:
        for _, t in c.state_vars:
            add_type(t)
        for fn in c.all_functions():
            if fn.body is None:
                continue  # untranslated
            for _, t in fn.params:
                add_type(t)
            add_type(fn.returns)
            for s in S.statements(fn.body):
                if isinstance(s, S.DeclStmt):
                    add_type(s.ty)
                elif isinstance(s, S.NewArray):
                    add_type(S.MappingType(S.INT, s.elem_ty))
                elif isinstance(s, S.NewMap):
                    add_type(s.map_ty)
    return sigs


def translate_program(program: S.SolProgram) -> Translation:
    """Translate a typed, desugared program (instrumented or plain).  Each
    invented name is claimed, first owner first: the globals after the
    prelude's and the locals every procedure or the harness has, the state
    maps and then the contract constants; the procedures after the
    prelude's and the harness."""
    ir = emit_prelude(_collect_map_sigs(program))
    tr = Translation(ir=ir, interner={"": 0}, source=program, state_maps={}, procs={},
                     consts={})
    globals_taken = {*ir.globals, INST, CTOR_SENDER, SENDER, THIS, MSG_SENDER, RET}
    procs_taken = {*ir.procedures, HARNESS}
    for c in program.contracts:
        # One global map per state variable of its declaring contract.
        for n, t in c.state_vars:
            tr.state_maps[c.name, n] = name = claim(f"{n}_{c.name}", globals_taken)
            ir.globals[name] = MapType(REF, map_type(t))
        for fn in c.functions:
            if fn.body is not None:  # definition-free declarations have none
                tr.procs[c.name, fn.name] = claim(f"{fn.name}_{c.name}", procs_taken)
        tr.procs[c.name, None] = claim(f"{c.name}_Ctor", procs_taken)
    for code, c in enumerate(program.contracts, 1):
        tr.consts[c.name] = name = claim(c.name, globals_taken)
        ir.constants[name] = code

    for c in program.contracts:
        for fn in c.functions:
            if fn.body is not None:
                ir.add_proc(_translate_function(tr, c, fn))
        ir.add_proc(_translate_constructor(tr, c))
    return tr


def _make_env(tr: Translation, contract: str, fn: S.SolFunction) -> TransEnv:
    """The environment of one procedure: its parameters and locals keep their
    source spelling unless it is a global's, a contract constant's or `this`,
    `msg_sender` or `__ret`; temporaries then skip every name the body
    declares."""
    taken = {*tr.ir.globals, *tr.ir.constants, THIS, MSG_SENDER, RET}
    declared = [n for n, _ in fn.params] + [
        s.name for s in S.statements(fn.body) if isinstance(s, S.DeclStmt)]
    return TransEnv(tr=tr, contract=contract, taken=taken,
                    names={n: claim(n, taken) for n in declared})


def _finish_proc(env: TransEnv, name: str, params, returns,
                 stmts: list[I.IrStmt]) -> I.IrProcedure:
    body = I.seq(*(env.prelude_hoists + stmts))
    if env.divides:
        body = _guard_divisors(body)
    return I.IrProcedure(name=name, params=params, returns=returns,
                         locals=env.locals, body=body)


def _translate_function(tr: Translation, c: S.SolContract, fn: S.SolFunction) -> I.IrProcedure:
    env = _make_env(tr, c.name, fn)
    params = [(THIS, REF)] + [(env.names[n], map_type(t)) for n, t in fn.params] \
        + [(MSG_SENDER, REF)]
    returns = [(RET, map_type(fn.returns))] if fn.returns is not None else []
    stmts: list[I.IrStmt] = []
    if returns:  # a body that ends without `return` returns the default
        init, value = _default(env, fn.returns)
        stmts = init + [I.Assign(RET, value)]
    stmts += [t for s in fn.body for t in translate_stmt(env, s)]
    return _finish_proc(env, tr.procs[c.name, fn.name], params, returns, stmts)


def _translate_constructor(tr: Translation, c: S.SolContract) -> I.IrProcedure:
    ctor = c.constructor
    env = _make_env(tr, c.name, ctor)
    params = [(THIS, REF)] + [(env.names[n], map_type(t)) for n, t in ctor.params] \
        + [(MSG_SENDER, REF)]
    stmts: list[I.IrStmt] = []

    # Base constructors, reverse linearization order (base-most first).
    bases_in_order = [b for b in reversed(tr.source.order[c.name]) if b != c.name and b in c.bases]
    for base in bases_in_order:
        base_ctor = tr.source.contract(base).constructor
        if base_ctor.params:
            raise TranslateError(f"base constructor {base} takes arguments; "
                                 f"explicit base-constructor arguments are not supported")
        stmts.append(I.Call(tr.procs[base, None], (I.Var(THIS), I.Var(MSG_SENDER))))

    # Zero / fresh initialization of the contract's own state variables.
    for n, t in c.state_vars:
        init, value = _default(env, t)
        stmts += init + [I.Store(tr.state_maps[c.name, n], (I.Var(THIS),), value)]

    stmts += [t for s in ctor.body for t in translate_stmt(env, s)]
    return _finish_proc(env, tr.procs[c.name, None], params, [], stmts)


# -- harness -----------------------------------------------------------------

@record
class HarnessInfo:
    root: str
    ctor_args: list[str]
    branches: list[tuple[str, str, str, list[str]]]  # (choice var, fn, proc, arg vars)


def generate_harness(tr: Translation, root: str) -> HarnessInfo:
    """Entry procedure: allocate the instance, call the constructor with
    arbitrary arguments and sender, then loop forever nondeterministically
    invoking one public function per iteration with fresh arguments.  Its
    locals are named apart from the globals that the calls it inlines read
    and from the contract constants."""
    if tr.source.contract(root) is None:
        raise TranslateError(f"unknown root contract {root!r}")
    taken = {*tr.ir.globals, *tr.ir.constants, INST, CTOR_SENDER, SENDER}
    locals_: list[tuple[str, I.IrType]] = [(INST, REF), (CTOR_SENDER, REF)]

    def local(spelling: str, ty: I.IrType) -> str:
        name = claim(spelling, taken)
        locals_.append((name, ty))
        return name

    ctor_args = [local(f"ctor_arg{i}", ty) for i, ty in enumerate(tr.ctor_params(root))]
    stmts: list[I.IrStmt] = [I.Alloc(INST, contract=tr.consts[root]),
                             I.Havoc(CTOR_SENDER), *map(I.Havoc, ctor_args)]
    stmts.append(I.Call(tr.procs[root, None],
                        tuple([I.Var(INST)] + [I.Var(a) for a in ctor_args]
                              + [I.Var(CTOR_SENDER)])))

    locals_.append((SENDER, REF))
    branches = []
    body: list[I.IrStmt] = [I.Havoc(SENDER)]
    dispatch: I.IrStmt = I.Skip()
    for idx, (fname, pname, ptypes) in enumerate(tr.public_functions(root)):
        choice = local(f"choice{idx}", BOOL)
        branches.append((choice, fname, pname,
                         [local(f"arg_{fname}_{j}", ty) for j, ty in enumerate(ptypes)]))
    for choice, fname, pname, arg_vars in reversed(branches):
        call = I.seq(*([I.Havoc(a) for a in arg_vars]
                       + [I.Call(pname, tuple([I.Var(INST)] + [I.Var(a) for a in arg_vars]
                                              + [I.Var(SENDER)]))]))
        dispatch = I.If(I.Var(choice), call, dispatch)
    body += [I.Havoc(b[0]) for b in branches]
    body.append(dispatch)
    stmts.append(I.While(I.BConst(True), I.seq(*body)))

    tr.ir.add_proc(I.IrProcedure(name=HARNESS, params=[], returns=[], locals=locals_,
                                 body=I.seq(*stmts)))
    return HarnessInfo(root=root, ctor_args=ctor_args, branches=branches)
