"""Tokenizer for the Solidity subset."""

from __future__ import annotations

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

SYMBOLS = [
    "==>", "=>", "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "=", "!",
    "<", ">", "+", "-", "*", "/", "%", "_",
]


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
    i = 0
    line, col = 1, 1
    n = len(source)

    def advance(k: int):
        nonlocal i, line, col
        for _ in range(k):
            if source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = source[i]
        if c in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            advance((j - i) if j != -1 else (n - i))
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i)
            if j == -1:
                raise LexError(line, col, "unterminated block comment")
            advance(j + 2 - i)
            continue
        if c == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise LexError(line, col, "unterminated string literal")
                j += 1
            if j >= n:
                raise LexError(line, col, "unterminated string literal")
            tokens.append(Token("string", source[i + 1:j], line, col))
            advance(j + 1 - i)
            continue
        if source.startswith("0x", i) or source.startswith("0X", i):
            j = i + 2
            while j < n and (source[j].isalnum()):
                j += 1
            text = source[i:j]
            try:
                int(text, 16)
            except ValueError:
                raise LexError(line, col, f"bad hex literal {text!r}") from None
            tokens.append(Token("hex", text, line, col))
            advance(j - i)
            continue
        if c.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            advance(j - i)
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            if text == "_":
                tokens.append(Token("symbol", "_", line, col))
            elif text == "pragma":
                # The pragma line is ignored wholesale.
                advance(j - i)
                k = source.find("\n", i)
                advance((k - i) if k != -1 else (n - i))
                continue
            elif text in KEYWORDS:
                tokens.append(Token("keyword", text, line, col))
            else:
                # Unsupported keywords are tokenized as identifiers; the
                # parser reports them with position information.
                tokens.append(Token("ident", text, line, col))
            advance(j - i)
            continue
        for sym in SYMBOLS:
            if source.startswith(sym, i):
                tokens.append(Token("symbol", sym, line, col))
                advance(len(sym))
                break
        else:
            raise LexError(line, col, f"unexpected character {c!r}")

    tokens.append(Token("eof", "", line, col))
    return tokens
