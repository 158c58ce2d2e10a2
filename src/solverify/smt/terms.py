"""Terms, sorts, and SMT-LIB2 script parsing/printing.

Terms are hash-consed through a TermBank so structurally equal subterms share
one node; the solver relies on node identity for caching.  The script parser
covers the command subset the pipeline emits (plus what common solvers print
back for get-value).
"""

from __future__ import annotations

import re

from solverify.record import record


# -- sorts --------------------------------------------------------------------

INT_S = "Int"
BOOL_S = "Bool"
REF_S = "Ref"


def array_sort(key, value) -> tuple:
    return ("Array", key, value)


def is_array_sort(s) -> bool:
    return isinstance(s, tuple) and s[0] == "Array"


def sort_to_sexpr(s) -> str:
    if is_array_sort(s):
        return f"(Array {sort_to_sexpr(s[1])} {sort_to_sexpr(s[2])})"
    return s


# -- terms --------------------------------------------------------------------

class Term:
    __slots__ = ("op", "args", "value", "sort", "tid", "__weakref__")

    def __init__(self, op: str, args: tuple, value, sort, tid: int):
        self.op = op
        self.args = args
        self.value = value
        self.sort = sort
        self.tid = tid

    def __repr__(self) -> str:
        return f"T{self.tid}:{sexpr(self)}"

    def __hash__(self) -> int:
        return self.tid

    def __eq__(self, other) -> bool:
        return self is other


class TermBank:
    """Hash-consing factory; one bank per solver session."""

    def __init__(self):
        self._cache: dict = {}
        self._next = 0

    def mk(self, op: str, args: tuple = (), value=None, sort=None) -> Term:
        key = (op, tuple(a.tid for a in args), value, sort)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        t = Term(op, args, value, sort, self._next)
        self._next += 1
        self._cache[key] = t
        return t

    def intval(self, v: int) -> Term:
        return self.mk("intval", value=v, sort=INT_S)

    def boolval(self, v: bool) -> Term:
        return self.mk("boolval", value=bool(v), sort=BOOL_S)

    def sym(self, name: str, sort) -> Term:
        return self.mk("sym", value=name, sort=sort)

    def apply(self, name: str, args: tuple, sort) -> Term:
        return self.mk("app", args, value=name, sort=sort)


def fold(roots, combine, memo: dict | None = None, children=None) -> list:
    """Post-order evaluation over the term DAG below `roots`.

    `combine(t, results)` gets the results of `children(t)` (default: the
    arguments) in order and is called once per term, memoised by `tid` in
    `memo`, which callers may keep across calls.  The walk keeps its own
    stack, so term depth is bounded by memory, not by recursion.  Terms
    finish in the order a left-to-right recursive walk finishes them.
    """
    memo = {} if memo is None else memo
    for root in roots:
        if root.tid in memo:
            continue
        stack = [(root, None)]
        while stack:
            t, kids = stack.pop()
            if kids is not None:
                memo[t.tid] = combine(t, [memo[k.tid] for k in kids])
                continue
            if t.tid in memo:
                continue
            kids = t.args if children is None else children(t)
            stack.append((t, kids))
            for k in reversed(kids):
                if k.tid not in memo:
                    stack.append((k, None))
    return [memo[r.tid] for r in roots]


def rebuild(bank: TermBank, t: Term, args: list) -> Term:
    """`t` with its arguments replaced (the same node when none changed)."""
    if all(a is b for a, b in zip(args, t.args)):
        return t
    return bank.mk(t.op, tuple(args), value=t.value, sort=t.sort)


BOOL_OPS = {"and", "or", "not", "=>", "ite"}
INT_OPS = {"+", "-", "*", "div", "mod", "neg"}
REL_OPS = {"=", "distinct", "<", "<=", ">", ">="}


def literal(value: bool | int) -> str:
    """SMT-LIB text of a boolean or integer value: `true`, `7`, `(- 7)`."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if value >= 0 else f"(- {-value})"


def node_text(t: Term, args: list[str]) -> str:
    """SMT-LIB text of `t`, given the texts of its arguments."""
    if t.op in ("intval", "boolval"):
        return literal(t.value)
    if t.op in ("sym", "boundvar"):
        return t.value
    if t.op == "forall":
        var, var_sort = t.value
        return f"(forall (({var} {sort_to_sexpr(var_sort)})) {args[0]})"
    head = t.value if t.op == "app" else "-" if t.op == "neg" else t.op
    return f"({head} {' '.join(args)})"


def sexpr(t: Term) -> str:
    return fold([t], node_text)[0]


# -- script model ----------------------------------------------------------------

@record
class Script:
    bank: TermBank
    sorts: list[str] = None
    decls: dict[str, tuple[tuple, object]] = None  # name -> (arg sorts, sort)
    assertions: list[Term] = None

    def __post_init__(self):
        self.sorts = self.sorts or []
        self.decls = self.decls or {}
        self.assertions = self.assertions or []


# -- s-expression reader -----------------------------------------------------------

# One token: a parenthesis, a string, a quoted symbol, a comment or an atom.
# A lone `"` or `|` opens a string or quoted symbol that the text leaves open.
_SEXPR_TOKEN = re.compile(
    r'[()]|"[^"]*"|\|[^|]*\||;[^\n]*|[^ \t\r\n();"|][^ \t\r\n();]*|["|]')


def iter_sexprs(chunks):
    """Yield the s-expressions of a stream of text chunks (lines, or one
    whole text), each as soon as the chunk that completes it has been read;
    one tokenizing pass builds them.  A `)` that closes nothing yields a
    ValueError in its place and reading goes on; input that ends inside an
    s-expression, a string or a quoted symbol yields one at the end."""
    open_lists: list[list] = []
    carry = ""  # an open string or quoted symbol, continued by the next chunk
    for chunk in chunks:
        text = carry + chunk
        carry = ""
        for tok in _SEXPR_TOKEN.findall(text):
            if tok == "(":
                open_lists.append([])
                continue
            if tok == ")":
                if not open_lists:
                    yield ValueError("unbalanced ')'")
                    continue
                tok = open_lists.pop()
            elif tok[0] == ";":
                continue
            elif tok in ('"', "|"):  # no later `"` (`|`) closes it: it is the last
                carry = text[text.rfind(tok):]
                break
            if open_lists:
                open_lists[-1].append(tok)
            else:
                yield tok
    if carry:
        yield ValueError("unterminated string" if carry[0] == '"'
                         else "unterminated quoted symbol")
    elif open_lists:
        yield ValueError("unbalanced '('")


def read_sexprs(text: str) -> list:
    out = list(iter_sexprs([text]))
    for sx in out:
        if isinstance(sx, ValueError):
            raise sx
    return out


# -- script parsing ------------------------------------------------------------

class ScriptError(Exception):
    pass


def _parse_sort(sx, known_sorts) -> object:
    if isinstance(sx, list):
        if sx and sx[0] == "Array":
            return array_sort(_parse_sort(sx[1], known_sorts),
                              _parse_sort(sx[2], known_sorts))
        raise ScriptError(f"unknown sort {sx}")
    if sx in ("Int", "Bool") or sx in known_sorts:
        return sx
    raise ScriptError(f"unknown sort {sx}")


class ScriptParser:
    """Incremental command parser; one bank across a session."""

    def __init__(self):
        self.bank = TermBank()
        self.script = Script(bank=self.bank)
        self.defines: dict[str, tuple[list[tuple[str, object]], Term]] = {}

    def feed(self, sx):
        _feed_command(self, sx)

    def to_term(self, sx) -> Term:
        return _script_term(self, sx, {})


def parse_script(text: str) -> Script:
    parser = ScriptParser()
    for sx in read_sexprs(text):
        parser.feed(sx)
    return parser.script


def _script_term(parser: ScriptParser, sx, env: dict) -> Term:
    """The term an s-expression denotes; evaluated with an explicit work
    stack, so nesting depth is not limited by recursion."""
    bank = parser.bank
    script = parser.script
    defines = parser.defines

    def atom(sx: str, env: dict) -> Term:
        if sx == "true":
            return bank.boolval(True)
        if sx == "false":
            return bank.boolval(False)
        if sx.lstrip("-").isdigit():
            return bank.intval(int(sx))
        if sx in env:
            return env[sx]
        if sx in script.decls:
            args, sort = script.decls[sx]
            if args:
                raise ScriptError(f"{sx} needs arguments")
            return bank.sym(sx, sort)
        if sx in defines:
            params, body = defines[sx]
            if params:
                raise ScriptError(f"{sx} needs arguments")
            return body
        raise ScriptError(f"unknown symbol {sx!r}")

    def apply(head, args: tuple) -> Term:
        if head == "-" and len(args) == 1:
            if args[0].op == "intval":
                return bank.intval(-args[0].value)
            return bank.mk("neg", args, sort=INT_S)
        if head in ("+", "-", "*", "div", "mod"):
            return bank.mk(head, args, sort=INT_S)
        if head in ("<", "<=", ">", ">=", "=", "distinct"):
            return bank.mk(head, args, sort=BOOL_S)
        if head in ("and", "or", "not", "=>"):
            return bank.mk(head, args, sort=BOOL_S)
        if head == "ite":
            return bank.mk("ite", args, sort=args[1].sort)
        if head == "select":
            base_sort = args[0].sort
            if not is_array_sort(base_sort):
                raise ScriptError("select on non-array")
            return bank.mk("select", args, sort=base_sort[2])
        if head == "store":
            return bank.mk("store", args, sort=args[0].sort)
        if head in script.decls:
            arg_sorts, sort = script.decls[head]
            return bank.apply(head, args, sort)
        if head in defines:
            params, body = defines[head]
            if len(params) != len(args):
                raise ScriptError(f"{head}: arity mismatch")
            sub = {name: arg for (name, _), arg in zip(params, args)}
            return substitute(bank, body, sub)
        raise ScriptError(f"unknown operator {head!r}")

    def pop(n: int) -> list[Term]:
        taken = results[len(results) - n:]
        del results[len(results) - n:]
        return taken

    results: list[Term] = []
    # ("eval", sx, env) | ("let", names, body, env) | ("forall", bindings)
    # | ("apply", head, n): the last three consume finished results
    work: list[tuple] = [("eval", sx, env)]
    while work:
        task = work.pop()
        kind = task[0]
        if kind == "apply":
            results.append(apply(task[1], tuple(pop(task[2]))))
            continue
        if kind == "let":
            _, names, body, outer = task
            work.append(("eval", body, {**outer, **dict(zip(names, pop(len(names))))}))
            continue
        if kind == "forall":
            body = results.pop()
            for name, sort in reversed(task[1]):
                body = bank.mk("forall", (body,), value=(name, sort), sort=BOOL_S)
            results.append(body)
            continue
        _, sx, env = task
        if isinstance(sx, str):
            results.append(atom(sx, env))
            continue
        head = sx[0]
        if head == "let":
            work.append(("let", [name for name, _ in sx[1]], sx[2], env))
            work.extend(("eval", value, env) for _, value in reversed(sx[1]))
        elif head in ("forall", "exists"):
            if head == "exists":
                raise ScriptError("exists is not supported")
            body_env = dict(env)
            bindings = []
            for name, sort_sx in sx[1]:
                sort = _parse_sort(sort_sx, script.sorts)
                bindings.append((name, sort))
                body_env[name] = bank.mk("boundvar", value=name, sort=sort)
            work.append(("forall", bindings))
            work.append(("eval", sx[2], body_env))
        elif head == "!":
            work.append(("eval", sx[1], env))  # strip annotations (:pattern ...)
        else:
            work.append(("apply", head, len(sx) - 1))
            work.extend(("eval", a, env) for a in reversed(sx[1:]))
    return results[0]


def _feed_command(parser: ScriptParser, sx):
    script = parser.script
    bank = parser.bank
    if not isinstance(sx, list) or not sx:
        raise ScriptError(f"bad command {sx}")
    cmd = sx[0]
    if cmd in ("set-logic", "set-option", "set-info"):
        return
    elif cmd == "declare-sort":
        script.sorts.append(sx[1])
    elif cmd == "declare-fun":
        name = sx[1]
        arg_sorts = tuple(_parse_sort(a, script.sorts) for a in sx[2])
        sort = _parse_sort(sx[3], script.sorts)
        script.decls[name] = (arg_sorts, sort)
    elif cmd == "declare-const":
        script.decls[sx[1]] = ((), _parse_sort(sx[2], script.sorts))
    elif cmd == "define-fun":
        name = sx[1]
        params = [(p[0], _parse_sort(p[1], script.sorts)) for p in sx[2]]
        env = {p: bank.mk("boundvar", value=p, sort=s) for p, s in params}
        body = _script_term(parser, sx[4], env)
        parser.defines[name] = (params, body)
    elif cmd == "assert":
        script.assertions.append(_script_term(parser, sx[1], {}))
    else:
        raise ScriptError(f"unsupported command {cmd}")


def substitute(bank: TermBank, t: Term, sub: dict[str, Term]) -> Term:
    """`t` with the bound variables named in `sub` replaced."""
    def combine(x: Term, args: list) -> Term:
        if x.op == "boundvar" and x.value in sub:
            return sub[x.value]
        return rebuild(bank, x, args)

    return fold([t], combine)[0]
