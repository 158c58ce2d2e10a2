"""Tokenizer for the Solidity subset: one master regular expression, matched
once per token.  Identifiers and numbers are ASCII; any other character
outside a string or a comment is a LexError."""

from __future__ import annotations

import re

from solverify import InputError
from solverify.record import record


class LexError(InputError):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


KEYWORDS = {
    "contract", "is", "enum", "modifier", "function", "constructor",
    "public", "internal", "returns", "return", "require", "assert", "revert",
    "if", "else", "while", "new", "mapping", "true", "false",
    "int", "uint", "int256", "uint256", "string", "address", "bool", "msg",
}

# Constructs outside the subset, rejected with a dedicated error.
UNSUPPORTED_KEYWORDS = {
    "payable", "assembly", "selfdestruct", "struct", "library", "event",
    "emit", "delete", "import", "interface", "using", "for", "memory",
    "storage", "calldata", "delegatecall", "send", "transfer", "throw",
}

# Longest first: the first alternative that matches wins.
SYMBOLS = [
    "==>", "=>", "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "=", "!",
    "<", ">", "+", "-", "*", "/", "%",
]

# One group per token class, tried in this order; `open_comment` and
# `open_string` match only what their terminated forms could not.
_TOKEN = re.compile("|".join([
    r"(?P<blank>[ \t\r\n]+)",
    # a block comment ends at the first "*/" from its "*" on: "/*/" is one
    r"(?P<comment>//[^\n]*|/(?=\*).*?\*/)",
    r"(?P<open_comment>/\*)",
    r'(?P<string>"[^"\n]*")',
    r'(?P<open_string>")',
    r"(?P<hex>0[xX][0-9A-Za-z]*)",
    r"(?P<int>[0-9]+)",
    r"(?P<word>[A-Za-z_][A-Za-z0-9_]*)",
    "(?P<symbol>" + "|".join(map(re.escape, SYMBOLS)) + ")",
]), re.DOTALL)


@record(frozen=True)
class Token:
    kind: str  # ident | keyword | int | hex | string | symbol | eof
    text: str
    line: int
    col: int

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN.match
    i, n = 0, len(source)
    line, line_start = 1, 0  # the offset where `line` begins
    while i < n:
        m = match(source, i)
        col = i - line_start + 1
        if m is None:
            raise LexError(line, col, f"unexpected character {source[i]!r}")
        kind, text, i = m.lastgroup, m.group(), m.end()
        if kind == "blank" or kind == "comment":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rindex("\n") + 1
        elif kind == "word":
            if text == "pragma":
                # The pragma line is ignored wholesale.
                j = source.find("\n", i)
                i = n if j == -1 else j
            elif text == "_":
                append(Token("symbol", "_", line, col))
            elif text in KEYWORDS:
                append(Token("keyword", text, line, col))
            else:
                # Unsupported keywords are tokenized as identifiers; the
                # parser reports them with position information.
                append(Token("ident", text, line, col))
        elif kind == "string":
            append(Token("string", text[1:-1], line, col))
        elif kind == "hex":
            try:
                int(text, 16)
            except ValueError:
                raise LexError(line, col, f"bad hex literal {text!r}") from None
            append(Token("hex", text, line, col))
        elif kind == "open_comment":
            raise LexError(line, col, "unterminated block comment")
        elif kind == "open_string":
            raise LexError(line, col, "unterminated string literal")
        else:
            append(Token(kind, text, line, col))
    append(Token("eof", "", line, n - line_start + 1))
    return tokens
