"""Recursive-descent parser for the Solidity subset.

The published grammar (docs/sol-grammar.md) covers the core statement and
expression forms plus contracts, `is` inheritance lists, enums, modifiers
with the `_;` placeholder, visibility markers, and both constructor styles
(`constructor(...)` and a function named after the contract).  Anything
outside the subset is rejected explicitly, never silently dropped.

Binary operators are parsed by precedence climbing over one table of
binding powers (Pratt, "Top down operator precedence", POPL 1973).  Each
expression node is checked as it is built: its height against
MAX_EXPR_DEPTH, and its operands for a method call, which the subset
allows only as a statement.
"""

from __future__ import annotations

from solverify import InputError
from solverify.sol import ast
from solverify.sol.lexer import Token, tokenize, UNSUPPORTED_KEYWORDS
from solverify.sol.linearize import linearize


class ParseError(InputError):
    def __init__(self, line: int, col: int, expected: str):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"{line}:{col}: expected {expected}")


class UnsupportedFeature(InputError):
    def __init__(self, name: str, line: int = 0, col: int = 0):
        self.name = name
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: unsupported construct: {name}")


ELEM_TYPE_KEYWORDS = {
    "int": ast.INT, "uint": ast.INT, "int256": ast.INT, "uint256": ast.INT,
    "string": ast.STRING, "address": ast.ADDRESS, "bool": ast.BOOL,
}

# Binding power of each left-associative binary operator.  `==>` binds
# looser than all of them and associates to the right.
BINARY_POWER = {
    "||": 1, "&&": 2, "==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5, "*": 6, "/": 6, "%": 6,
}
UNARY_OPS = {"!": "!", "-": "neg"}

# Translation and the IR passes recurse once per level of an expression.
MAX_EXPR_DEPTH = 400


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        # id of each expression node built -> its height (a leaf has 1)
        self.height: dict[int, int] = {}

    # -- token helpers ----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def peek(self, k: int = 1) -> Token:
        return self.tokens[min(self.i + k, len(self.tokens) - 1)]

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.tokens[self.i]
        return t.kind == kind and (text is None or t.text == text)

    def at_symbol(self, text: str) -> bool:
        t = self.tokens[self.i]
        return t.text == text and t.kind == "symbol"

    def at_keyword(self, text: str) -> bool:
        t = self.tokens[self.i]
        return t.text == text and t.kind == "keyword"

    def take(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.tokens[self.i]
        if t.kind != kind or (text is not None and t.text != text):
            raise ParseError(t.line, t.col, text or kind)
        self.i += 1
        return t

    def pos(self) -> tuple[int, int]:
        return (self.cur.line, self.cur.col)

    def check_supported(self, tok: Token):
        if tok.kind == "ident" and tok.text in UNSUPPORTED_KEYWORDS:
            raise UnsupportedFeature(tok.text, tok.line, tok.col)

    # -- program ----------------------------------------------------------

    def parse_program(self) -> ast.SolProgram:
        contracts = []
        while not self.at("eof"):
            self.check_supported(self.cur)
            contracts.append(self.parse_contract())
        return ast.SolProgram(contracts=contracts)

    def parse_contract(self) -> ast.SolContract:
        pos = self.pos()
        self.expect("keyword", "contract")
        name = self.expect("ident").text
        bases: list[str] = []
        if self.at_keyword("is"):
            self.take()
            bases.append(self.expect("ident").text)
            while self.at_symbol(","):
                self.take()
                bases.append(self.expect("ident").text)
        self.expect("symbol", "{")

        contract = ast.SolContract(name=name, bases=bases, state_vars=[],
                                   enums={}, constructor=None, functions=[],
                                   modifiers=[], pos=pos)
        while not self.at_symbol("}"):
            self.parse_member(contract)
        self.take()

        if contract.constructor is None:
            # Implicit constructor: empty body, zero params.
            contract.constructor = ast.SolFunction(
                name=name, params=[], body=[], is_constructor=True, pos=pos)
        return contract

    def parse_member(self, contract: ast.SolContract):
        self.check_supported(self.cur)
        if self.at_keyword("enum"):
            self.take()
            ename = self.expect("ident").text
            self.expect("symbol", "{")
            members = [self.expect("ident").text]
            while self.at_symbol(","):
                self.take()
                members.append(self.expect("ident").text)
            self.expect("symbol", "}")
            if ename in contract.enums:
                raise ParseError(self.cur.line, self.cur.col, f"unique enum name ({ename} redefined)")
            contract.enums[ename] = members
            return
        if self.at_keyword("modifier"):
            self.parse_modifier(contract)
            return
        if self.at_keyword("constructor"):
            tok = self.take()
            fn = self.parse_function_rest(contract.name, is_constructor=True,
                                          pos=(tok.line, tok.col))
            if contract.constructor is not None:
                raise ParseError(tok.line, tok.col, "a single constructor")
            contract.constructor = fn
            return
        if self.at_keyword("function"):
            tok = self.take()
            self.check_supported(self.cur)
            fname = self.expect("ident").text
            is_ctor = fname == contract.name
            fn = self.parse_function_rest(fname, is_constructor=is_ctor,
                                          pos=(tok.line, tok.col))
            if is_ctor:
                if contract.constructor is not None:
                    raise ParseError(tok.line, tok.col, "a single constructor")
                contract.constructor = fn
            else:
                contract.functions.append(fn)
            return
        # State variable declaration: type [visibility] name ;
        ty = self.parse_type()
        while self.at_keyword("public") or self.at_keyword("internal"):
            self.take()
        tok = self.expect("ident")
        self.expect("symbol", ";")
        if any(tok.text == n for n, _ in contract.state_vars):
            raise ParseError(tok.line, tok.col, f"unique state variable ({tok.text} redefined)")
        contract.state_vars.append((tok.text, ty))
        if isinstance(ty, ast.NamedType) and ty.name in contract.enums:
            contract.enum_vars[tok.text] = ty.name

    def parse_modifier(self, contract: ast.SolContract):
        pos = self.pos()
        self.expect("keyword", "modifier")
        name = self.expect("ident").text
        self.expect("symbol", "(")
        self.expect("symbol", ")")
        self.expect("symbol", "{")
        pre: list[ast.SolStmt] = []
        post: list[ast.SolStmt] = []
        seen_placeholder = False
        while not self.at_symbol("}"):
            if self.at_symbol("_"):
                tok = self.take()
                self.expect("symbol", ";")
                if seen_placeholder:
                    raise ParseError(tok.line, tok.col, "a single '_;' placeholder")
                seen_placeholder = True
                continue
            (post if seen_placeholder else pre).extend(self.parse_stmt())
        self.take()
        if not seen_placeholder:
            raise ParseError(pos[0], pos[1], "'_;' placeholder in modifier body")
        contract.modifiers.append(ast.ModifierDef(name=name, pre_stmts=pre,
                                                  post_stmts=post, pos=pos))

    def parse_function_rest(self, name: str, is_constructor: bool,
                            pos: tuple[int, int]) -> ast.SolFunction:
        self.expect("symbol", "(")
        params: list[tuple[str, ast.SolType]] = []
        while not self.at_symbol(")"):
            if params:
                self.expect("symbol", ",")
            pty = self.parse_type()
            pname = self.expect("ident").text
            params.append((pname, pty))
        self.take()

        visibility = "public"
        modifiers: list[str] = []
        returns: ast.SolType | None = None
        while True:
            if self.at_keyword("public") or self.at_keyword("internal"):
                visibility = self.take().text
                continue
            if self.at_keyword("returns"):
                self.take()
                self.expect("symbol", "(")
                returns = self.parse_type()
                # An optional name for the return value is accepted and ignored.
                if self.at("ident"):
                    self.take()
                self.expect("symbol", ")")
                continue
            if self.at("ident"):
                self.check_supported(self.cur)
                mname = self.take().text
                self.expect("symbol", "(")
                self.expect("symbol", ")")
                modifiers.append(mname)
                continue
            break

        body: list[ast.SolStmt] | None
        if self.at_symbol(";"):
            self.take()
            body = None  # definition-free declaration
        else:
            body = self.parse_block()
        return ast.SolFunction(name=name, params=params, body=body,
                               returns=returns, applied_modifiers=modifiers,
                               visibility=visibility,
                               is_constructor=is_constructor, pos=pos)

    # -- types ------------------------------------------------------------

    def parse_type(self) -> ast.SolType:
        ty = self.parse_base_type()
        while self.at_symbol("["):
            self.take()
            self.expect("symbol", "]")
            ty = ast.MappingType(key=ast.INT, value=ty, is_array=True)
        return ty

    def parse_base_type(self) -> ast.SolType:
        tok = self.cur
        if tok.kind == "keyword" and tok.text in ELEM_TYPE_KEYWORDS:
            self.take()
            return ELEM_TYPE_KEYWORDS[tok.text]
        if self.at_keyword("mapping"):
            self.take()
            self.expect("symbol", "(")
            key = self.parse_type()
            self.expect("symbol", "=>")
            value = self.parse_type()
            self.expect("symbol", ")")
            return ast.MappingType(key=key, value=value)
        if tok.kind == "ident":
            self.check_supported(tok)
            self.take()
            return ast.NamedType(tok.text)
        raise ParseError(tok.line, tok.col, "a type")

    # -- statements -------------------------------------------------------

    def parse_block(self) -> list[ast.SolStmt]:
        self.expect("symbol", "{")
        stmts = []
        while not self.at_symbol("}"):
            stmts.extend(self.parse_stmt())
        self.take()
        return stmts

    def parse_body(self) -> list[ast.SolStmt]:
        """The body of an if, else or while: a block or a single statement."""
        return self.parse_block() if self.at_symbol("{") else self.parse_stmt()

    def parse_stmt(self) -> list[ast.SolStmt]:
        """One source statement.  It parses to one statement, except that
        `T x = new ...;` gives the declaration of x, then the allocation."""
        tok = self.cur
        self.check_supported(tok)
        pos = (tok.line, tok.col)
        keyword = tok.text if tok.kind == "keyword" else None
        if keyword == "require" or keyword == "assert":
            self.take()
            self.expect("symbol", "(")
            cond = self.parse_expr()
            self.expect("symbol", ")")
            self.expect("symbol", ";")
            stmt = ast.Require if keyword == "require" else ast.Assert
            return [stmt(cond=cond, pos=pos)]
        if keyword == "revert":
            self.take()
            self.expect("symbol", "(")
            self.expect("symbol", ")")
            self.expect("symbol", ";")
            # revert() aborts like a failed precondition.
            return [ast.Require(cond=ast.BoolLit(False, pos=pos), pos=pos)]
        if keyword == "if":
            self.take()
            self.expect("symbol", "(")
            cond = self.parse_expr()
            self.expect("symbol", ")")
            then = self.parse_body()
            els: list[ast.SolStmt] = []
            if self.at_keyword("else"):
                self.take()
                els = self.parse_body()
            return [ast.If(cond=cond, then=then, els=els, pos=pos)]
        if keyword == "while":
            self.take()
            self.expect("symbol", "(")
            cond = self.parse_expr()
            self.expect("symbol", ")")
            return [ast.While(cond=cond, body=self.parse_body(), pos=pos)]
        if keyword == "return":
            self.take()
            value = None
            if not self.at_symbol(";"):
                value = self.parse_expr()
            self.expect("symbol", ";")
            return [ast.Return(value=value, pos=pos)]

        # Local declaration: starts with a type keyword, `mapping`, or an
        # identifier followed by another identifier.
        if keyword in ELEM_TYPE_KEYWORDS or keyword == "mapping" \
                or (tok.kind == "ident" and self._looks_like_decl()):
            ty = self.parse_type()
            name = self.expect("ident").text
            init = None
            if self.at_symbol("="):
                self.take()
                if self.at_keyword("new"):
                    return [ast.DeclStmt(name=name, ty=ty, init=None, pos=pos),
                            self._parse_new_into(ast.Var(name=name, pos=pos), pos)]
                init = self.parse_expr()
            self.expect("symbol", ";")
            return [ast.DeclStmt(name=name, ty=ty, init=init, pos=pos)]

        # Assignment, call, or push.
        lhs = self.parse_expr_or_call()
        if self.at_symbol(";"):
            self.take()
            return [self._statement_from_bare_expr(lhs, pos)]
        self.expect("symbol", "=")
        if self.at_keyword("new"):
            return [self._parse_new_into(lhs, pos)]
        rhs = self.parse_expr_or_call()
        self.expect("symbol", ";")
        return [self._statement_from_assignment(lhs, rhs, pos)]

    def _looks_like_decl(self) -> bool:
        # IDENT IDENT or IDENT[] IDENT
        if self.peek(1).kind == "ident":
            return True
        return (self.peek(1).kind == "symbol" and self.peek(1).text == "["
                and self.peek(2).kind == "symbol" and self.peek(2).text == "]")

    def _parse_new_into(self, target: ast.SolExpr, pos) -> ast.SolStmt:
        self.expect("keyword", "new")
        stmt: ast.SolStmt
        if self.at_symbol("("):
            # new (t1 => t2)()  -- parenthesized mapping type
            self.take()
            key = self.parse_type()
            self.expect("symbol", "=>")
            value = self.parse_type()
            self.expect("symbol", ")")
            self.expect("symbol", "(")
            self.expect("symbol", ")")
            self.expect("symbol", ";")
            stmt = ast.NewMap(target=target, map_ty=ast.MappingType(key, value), pos=pos)
        elif self.at_keyword("mapping"):
            mty = self.parse_base_type()
            self.expect("symbol", "(")
            self.expect("symbol", ")")
            self.expect("symbol", ";")
            assert isinstance(mty, ast.MappingType)
            stmt = ast.NewMap(target=target, map_ty=mty, pos=pos)
        else:
            base = self.parse_base_type()
            if self.at_symbol("["):
                self.take()
                self.expect("symbol", "]")
                self.expect("symbol", "(")
                size = self.parse_expr()
                self.expect("symbol", ")")
                self.expect("symbol", ";")
                stmt = ast.NewArray(target=target, elem_ty=base, size=size, pos=pos)
            else:
                if not isinstance(base, ast.NamedType):
                    raise ParseError(pos[0], pos[1], "contract name after 'new'")
                args = self.parse_args()
                self.expect("symbol", ";")
                stmt = ast.NewContract(target=target, contract=base.name, args=args, pos=pos)
        return stmt

    def _statement_from_bare_expr(self, e: ast.SolExpr, pos) -> ast.SolStmt:
        if isinstance(e, ast.ExprCall):
            return ast.InternalCall(target=None, fn=e.fn, args=e.args, pos=pos)
        if isinstance(e, _MethodCall):
            if e.fn == "push":
                if len(e.args) != 1:
                    raise ParseError(pos[0], pos[1], "one argument to push")
                return ast.Push(base=e.receiver, value=e.args[0], pos=pos)
            return ast.ExternalCall(target=None, receiver=e.receiver, fn=e.fn,
                                    args=e.args, pos=pos)
        raise ParseError(pos[0], pos[1], "a statement")

    def _statement_from_assignment(self, lhs, rhs, pos) -> ast.SolStmt:
        if isinstance(rhs, ast.ExprCall):
            self._no_call(lhs)
            return ast.InternalCall(target=lhs, fn=rhs.fn, args=rhs.args, pos=pos)
        if isinstance(rhs, _MethodCall):
            self._no_call(lhs)
            return ast.ExternalCall(target=lhs, receiver=rhs.receiver, fn=rhs.fn,
                                    args=rhs.args, pos=pos)
        if not isinstance(lhs, (ast.Var, ast.Index)):
            raise ParseError(pos[0], pos[1], "an assignable left-hand side")
        return ast.Assign(lhs=lhs, rhs=rhs, pos=pos)

    # -- expressions --------------------------------------------------------

    def parse_args(self) -> list[ast.SolExpr]:
        self.expect("symbol", "(")
        args = []
        while not self.at_symbol(")"):
            if args:
                self.expect("symbol", ",")
            args.append(self.parse_expr())
        self.take()
        return args

    def _no_call(self, e: ast.SolExpr):
        if isinstance(e, _MethodCall):
            raise ParseError(e.pos[0], e.pos[1], "calls are statements in the subset")

    def _built(self, node: ast.SolExpr, *operands: ast.SolExpr) -> ast.SolExpr:
        """`node` over `operands`, its height recorded.  A method call among
        the operands, or a height past MAX_EXPR_DEPTH, is a ParseError.  (An
        operand met before the rest of its node is checked for a call as
        soon as the node's next token shows it to be one.)"""
        below = 0
        for e in operands:
            self._no_call(e)
            below = max(below, self.height[id(e)])
        if below >= MAX_EXPR_DEPTH:
            raise ParseError(node.pos[0], node.pos[1], "less deeply nested code")
        self.height[id(node)] = below + 1
        return node

    def parse_expr(self) -> ast.SolExpr:
        """An expression; a method call here is a ParseError."""
        e = self.parse_expr_or_call()
        self._no_call(e)
        return e

    def parse_expr_or_call(self) -> ast.SolExpr:
        """An expression, or a method call (a statement's expression)."""
        lhs = self.parse_binary(1)
        if not self.at_symbol("==>"):
            return lhs
        self._no_call(lhs)
        tok = self.take()
        rhs = self.parse_expr_or_call()  # right-associative
        return self._built(ast.Op(op="==>", args=[lhs, rhs], pos=(tok.line, tok.col)),
                           lhs, rhs)

    def parse_binary(self, min_power: int) -> ast.SolExpr:
        """Operands joined by binary operators of binding power at least
        `min_power`, grouped to the left."""
        lhs = self.parse_unary()
        while True:
            tok = self.cur
            power = BINARY_POWER.get(tok.text, 0) if tok.kind == "symbol" else 0
            if power < min_power:
                return lhs
            self._no_call(lhs)
            self.i += 1
            rhs = self.parse_binary(power + 1)
            lhs = self._built(ast.Op(op=tok.text, args=[lhs, rhs],
                                     pos=(tok.line, tok.col)), lhs, rhs)

    def parse_unary(self) -> ast.SolExpr:
        prefixes = []
        while self.cur.text in UNARY_OPS and self.cur.kind == "symbol":
            prefixes.append(self.take())
        e = self.parse_postfix()
        for tok in reversed(prefixes):
            e = self._built(ast.Op(op=UNARY_OPS[tok.text], args=[e],
                                   pos=(tok.line, tok.col)), e)
        return e

    def parse_postfix(self) -> ast.SolExpr:
        e = self.parse_primary()
        while True:
            if self.at_symbol("["):
                tok = self.take()
                self._no_call(e)
                key = self.parse_expr()
                self.expect("symbol", "]")
                e = self._built(ast.Index(base=e, key=key, pos=(tok.line, tok.col)),
                                e, key)
                continue
            if self.at_symbol("."):
                tok = self.take()
                pos = (tok.line, tok.col)
                member = self.expect("ident").text
                if member == "length":
                    e = self._built(ast.LengthOf(base=e, pos=pos), e)
                    continue
                if self.at_symbol("("):
                    self._no_call(e)
                    args = self.parse_args()
                    e = self._built(_MethodCall(receiver=e, fn=member, args=args,
                                                pos=pos), e, *args)
                    continue
                # Ident.Ident without a call: enum member access.
                if isinstance(e, ast.Var):
                    e = self._built(ast.EnumMember(enum=e.name, member=member,
                                                   pos=pos))
                    continue
                raise ParseError(tok.line, tok.col, "'length', a call, or an enum member")
            return e

    def parse_primary(self) -> ast.SolExpr:
        tok = self.cur
        pos = (tok.line, tok.col)
        if self.at_symbol("("):
            self.take()
            e = self.parse_expr_or_call()
            self.expect("symbol", ")")
            return e
        if tok.kind == "ident":
            self.check_supported(tok)
            self.take()
            if self.at_symbol("("):
                args = self.parse_args()
                return self._built(ast.ExprCall(fn=tok.text, args=args, pos=pos), *args)
            return self._built(ast.Var(name=tok.text, pos=pos))
        return self._built(self.parse_literal())

    def parse_literal(self) -> ast.SolExpr:
        tok = self.take()
        pos = (tok.line, tok.col)
        if tok.kind == "int":
            return ast.IntLit(value=int(tok.text), pos=pos)
        if tok.kind == "hex":
            return ast.AddressLit(value=int(tok.text, 16), pos=pos)
        if tok.kind == "string":
            return ast.StringLit(value=tok.text, pos=pos)
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            return ast.BoolLit(value=tok.text == "true", pos=pos)
        if tok.kind == "keyword" and tok.text == "msg":
            self.expect("symbol", ".")
            t = self.expect("ident")
            if t.text != "sender":
                raise UnsupportedFeature(f"msg.{t.text}", t.line, t.col)
            return ast.MsgSender(pos=pos)
        raise ParseError(tok.line, tok.col, "an expression")


class _MethodCall(ast.SolExpr):
    """Parser-internal: receiver.fn(args); becomes ExternalCall or Push at
    statement level and is rejected in expression position."""

    def __init__(self, receiver, fn, args, pos):
        self.receiver = receiver
        self.fn = fn
        self.args = args
        self.pos = pos
        self.ty = None

    STRUCT_FIELDS = ("receiver", "fn", "args")


def parse_contract(source: str) -> ast.SolProgram:
    """Parse a source file into a SolProgram, with its inheritance
    linearized (`SolProgram.order`).  Nesting deeper than the recursive
    descent can follow is a ParseError at the token it reached; an
    expression deeper than MAX_EXPR_DEPTH, at the operator that goes past
    the limit."""
    parser = _Parser(tokenize(source))
    try:
        program = parser.parse_program()
    except RecursionError:
        raise ParseError(parser.cur.line, parser.cur.col,
                         "less deeply nested code") from None
    program.order = linearize(program)
    return program
