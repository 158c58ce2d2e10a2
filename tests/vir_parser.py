"""Parser for the .vir textual format (inverse of `solverify.vir.printer`):
the tests check that printed IR re-parses to the same program."""

from __future__ import annotations

import re

from solverify.vir import ast


class IrParseError(Exception):
    pass


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<refc>ref!\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_!]*)
  | (?P<sym>==>|:=|==|!=|<=|>=|&&|\|\||[()\[\]{};:,+\-*/%<>!=])
""", re.VERBOSE)


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise IrParseError(f"cannot tokenize at offset {i}: {text[i:i+20]!r}")
        i = m.end()
        if m.lastgroup == "ws":
            continue
        tokens.append(m.group())
    tokens.append("<eof>")
    return tokens


class _P:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0
        self.constants: set[str] = set()

    @property
    def cur(self) -> str:
        return self.toks[self.i]

    def take(self) -> str:
        t = self.cur
        self.i += 1
        return t

    def expect(self, tok: str) -> str:
        if self.cur != tok:
            raise IrParseError(f"expected {tok!r}, found {self.cur!r}")
        return self.take()

    def at(self, tok: str) -> bool:
        return self.cur == tok

    # types ----------------------------------------------------------------

    def parse_type(self) -> ast.IrType:
        if self.at("int"):
            self.take()
            return ast.INT
        if self.at("bool"):
            self.take()
            return ast.BOOL
        if self.at("Ref"):
            self.take()
            return ast.REF
        if self.at("["):
            self.take()
            key = self.parse_type()
            self.expect("]")
            value = self.parse_type()
            return ast.MapType(key, value)
        raise IrParseError(f"expected a type, found {self.cur!r}")

    # expressions ------------------------------------------------------------

    def parse_expr(self) -> ast.IrExpr:
        lhs = self.parse_or()
        if self.at("==>"):
            self.take()
            return ast.op("==>", lhs, self.parse_expr())
        return lhs

    def _level(self, ops: tuple[str, ...], next_fn) -> ast.IrExpr:
        lhs = next_fn()
        while self.cur in ops:
            o = self.take()
            lhs = ast.op(o, lhs, next_fn())
        return lhs

    def parse_or(self):
        return self._level(("||",), self.parse_and)

    def parse_and(self):
        return self._level(("&&",), self.parse_eq)

    def parse_eq(self):
        return self._level(("==", "!="), self.parse_rel)

    def parse_rel(self):
        return self._level(("<", "<=", ">", ">="), self.parse_add)

    def parse_add(self):
        return self._level(("+", "-"), self.parse_mul)

    def parse_mul(self):
        return self._level(("*", "/", "%"), self.parse_unary)

    def parse_unary(self) -> ast.IrExpr:
        if self.at("!"):
            self.take()
            return ast.op("!", self.parse_unary())
        if self.at("-"):
            self.take()
            return ast.op("neg", self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> ast.IrExpr:
        e = self.parse_primary()
        keys = []
        while self.at("["):
            self.take()
            keys.append(self.parse_expr())
            self.expect("]")
        if keys:
            return ast.Select(e, tuple(keys))
        return e

    def parse_primary(self) -> ast.IrExpr:
        t = self.cur
        if t == "(":
            self.take()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t == "true":
            self.take()
            return ast.BConst(True)
        if t == "false":
            self.take()
            return ast.BConst(False)
        if t == "null":
            self.take()
            return ast.RConst(0)
        if t.startswith("ref!"):
            self.take()
            return ast.RConst(int(t[4:]))
        if t.isdigit():
            self.take()
            return ast.IConst(int(t))
        if re.match(r"[A-Za-z_]", t):
            self.take()
            if t in self.constants:
                return ast.NamedConst(t)
            return ast.Var(t)
        raise IrParseError(f"expected an expression, found {t!r}")

    # statements ------------------------------------------------------------

    def parse_block(self) -> ast.IrStmt:
        self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.take()
        return ast.seq(*stmts)

    def parse_stmt(self) -> ast.IrStmt:
        if self.toks[self.i + 1] in (":=", "["):  # a local may be named `alloc`
            return self.parse_assignment()
        if self.at("skip"):
            self.take()
            self.expect(";")
            return ast.Skip()
        if self.at("havoc"):
            self.take()
            var = self.take()
            self.expect(";")
            return ast.Havoc(var)
        if self.at("assume"):
            self.take()
            cond = self.parse_expr()
            self.expect(";")
            return ast.Assume(cond)
        if self.at("assert"):
            self.take()
            label = ""
            if self.cur.startswith('"'):
                label = _unquote(self.take())
            cond = self.parse_expr()
            self.expect(";")
            return ast.Assert(cond, label)
        if self.at("alloc"):
            self.take()
            var = self.take()
            self.expect(":")
            if not self.at("["):  # a map type starts with a key
                contract = self.take()
                self.expect(";")
                return ast.Alloc(var, contract=contract)
            ty = self.parse_type()
            keys = []
            while isinstance(ty, ast.MapType):
                keys.append(ty.key)
                ty = ty.value
            length = None
            if self.at("length"):
                self.take()
                length = self.parse_expr()
            self.expect(";")
            return ast.Alloc(var, tuple(keys), ty, length)
        if self.at("call"):
            self.take()
            first = self.take()
            results: list[str] = []
            if self.at(",") or self.at(":="):
                results.append(first)
                while self.at(","):
                    self.take()
                    results.append(self.take())
                self.expect(":=")
                first = self.take()
            self.expect("(")
            args = []
            while not self.at(")"):
                if args:
                    self.expect(",")
                args.append(self.parse_expr())
            self.take()
            self.expect(";")
            return ast.Call(first, tuple(args), tuple(results))
        if self.at("if"):
            self.take()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self.parse_block()
            els: ast.IrStmt = ast.Skip()
            if self.at("else"):
                self.take()
                els = self.parse_block()
            return ast.If(cond, then, els)
        if self.at("while"):
            self.take()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return ast.While(cond, self.parse_block())
        return self.parse_assignment()

    def parse_assignment(self) -> ast.IrStmt:
        name = self.take()
        keys = []
        while self.at("["):
            self.take()
            keys.append(self.parse_expr())
            self.expect("]")
        self.expect(":=")
        value = self.parse_expr()
        self.expect(";")
        if keys:
            return ast.Store(name, tuple(keys), value)
        return ast.Assign(name, value)

    # declarations ----------------------------------------------------------

    def parse_program(self) -> ast.IrProgram:
        program = ast.IrProgram()
        while not self.at("<eof>"):
            if self.at("var"):
                self.take()
                name = self.take()
                self.expect(":")
                ty = self.parse_type()
                self.expect(";")
                program.globals[name] = ty
                continue
            if self.at("const"):
                self.take()
                name = self.take()
                self.expect("=")
                value = int(self.take())
                self.expect(";")
                program.constants[name] = value
                self.constants.add(name)
                continue
            if self.at("procedure"):
                self.take()
                name = self.take()
                params = self._parse_sig_list()
                returns = []
                if self.at("returns"):
                    self.take()
                    returns = self._parse_sig_list()
                self.expect("{")
                locs = []
                while self.at("var"):
                    self.take()
                    vn = self.take()
                    self.expect(":")
                    vt = self.parse_type()
                    self.expect(";")
                    locs.append((vn, vt))
                stmts = []
                while not self.at("}"):
                    stmts.append(self.parse_stmt())
                self.take()
                program.add_proc(ast.IrProcedure(
                    name=name, params=params, returns=returns, locals=locs,
                    body=ast.seq(*stmts)))
                continue
            raise IrParseError(f"expected a declaration, found {self.cur!r}")
        return program

    def _parse_sig_list(self) -> list[tuple[str, ast.IrType]]:
        self.expect("(")
        out = []
        while not self.at(")"):
            if out:
                self.expect(",")
            n = self.take()
            self.expect(":")
            out.append((n, self.parse_type()))
        self.take()
        return out


def _unquote(text: str) -> str:
    return text[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def parse_ir(text: str) -> ast.IrProgram:
    return _P(_tokenize(text)).parse_program()
