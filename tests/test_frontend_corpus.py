"""Frozen front-end corpus: what `parse_contract` makes of a set of inputs.

For each input the corpus records the sha256 of the `repr` of the parsed
program (every function body, positions included), or the exact error
line (`Type: message`) when parsing fails.  The inputs:

- every `.sol` fixture;
- the store-chain benchmark sources of seeds 1-3 (`bench/items.py`);
- 2 000 seeded random ASCII expressions, each in a statement of a small
  contract, with random blanks and comments between tokens, and a few
  expressions at and past the nesting bound;
- 100 single-token mutations (delete, duplicate, swap with the next token)
  of each fixture, stored as one splice of the fixture's text.

An entry that also has `parent_error` parses to a different error than it
did when the corpus was written: such an input has several errors, and the
parser now reports the first one it meets where it used to report another.

After an intended change, regenerate it with

    PYTHONPATH=src python tests/test_frontend_corpus.py --write
"""

import hashlib
import json
import os
import random
import sys

from conftest import FIXTURES, fixture_path, fixture_text
from solverify.sol import parse_contract

CORPUS = fixture_path(os.path.join("sol", "frontend_corpus.json"))
SOL_FIXTURES = sorted(f for f in os.listdir(FIXTURES) if f.endswith(".sol"))


def outcome(source: str) -> dict:
    """{"sha256": ...} of the parsed program, or {"error": ...}."""
    try:
        program = parse_contract(source)
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 5000))  # repr recurses per level
    try:
        text = repr(program)
    finally:
        sys.setrecursionlimit(limit)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def source_of(entry: dict) -> str:
    if "stmt" in entry:
        return f"contract C {{\n  function f() public {{\n    {entry['stmt']}\n  }}\n}}\n"
    if "fixture" not in entry:
        return entry["source"]
    text = fixture_text(entry["fixture"])
    if "splice" in entry:
        start, end, insert = entry["splice"]
        text = text[:start] + insert + text[end:]
    return text


# -- inputs -------------------------------------------------------------------

NAMES = ["a", "b", "x", "_y", "m", "arr", "Owner2", "State"]
BLANKS = [" ", " ", " ", "", "", "\t", "\n", "\r\n  ", " /* c */ ", " // c\n"]
BINARY = ["==>", "||", "&&", "==", "!=", "<", "<=", ">", ">=",
          "+", "-", "*", "/", "%"]


def random_expression(rng: random.Random, depth: int) -> list[str]:
    """The tokens of one expression of at most `depth` levels."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            [rng.choice(NAMES)], [str(rng.randrange(1000))], ["007"],
            [rng.choice(["0x0", "0xAb", "0X1f"])], ['"s t"'],
            [rng.choice(["true", "false"])], ["msg", ".", "sender"],
            ["State", ".", rng.choice(["A", "B"])]])
    sub = lambda: random_expression(rng, depth - 1)  # noqa: E731
    kind = rng.randrange(10)
    if kind < 4:
        return sub() + [rng.choice(BINARY)] + sub()
    if kind == 4:
        return rng.choice([["!"], ["-"], ["!", "!"], ["-", "-"]]) + sub()
    if kind == 5:
        return ["("] + sub() + [")"]
    if kind == 6:
        return sub() + ["["] + sub() + ["]"]
    if kind == 7:
        return sub() + [".", "length"]
    args = []
    for i in range(rng.randrange(3)):
        args += ([","] if i else []) + sub()
    if kind < 9 or rng.random() < 0.5:
        return [rng.choice(NAMES), "("] + args + [")"]
    # a method call: a statement at the top, an error anywhere else
    return sub() + [".", rng.choice(["push", "g"]), "("] + args + [")"]


STATEMENTS = ["x = {};", "require({});", "assert({});", "{};", "if ({}) {{ }}",
              "while ({}) a = 1;", "return {};", "int v = {};", "m[{}] = 0;",
              "arr.push({});", "f({}, 1);"]


def expression_statement(rng: random.Random) -> str:
    tokens = random_expression(rng, rng.randrange(1, 6))
    expr = "".join(t + rng.choice(BLANKS) for t in tokens)
    return rng.choice(STATEMENTS).format(expr)


def deep_statements() -> list[str]:
    """Expressions at and one past the parser's nesting bound (400 levels),
    and bodies with two errors."""
    out = []
    for n in (400, 401):
        out += ["x = " + f" {op} ".join(["a"] * n) + ";"
                for op in ("+", "*", "&&", "<", "==>")]
        out += [f"x = {'!' * (n - 1)}a;", f"x = {'- ' * (n - 1)}a;"]
    deep = "y = " + " + ".join(["a"] * 402) + ";"
    out += [deep + deep, "x = a.g() + 1;" + deep, deep + "x = a.g() + 1;"]
    return out


def token_spans(source: str) -> list[tuple[int, int]]:
    """(start, end) offsets of every token of `source` but the last."""
    from solverify.sol.lexer import tokenize
    starts = [0]
    for i, c in enumerate(source):
        if c == "\n":
            starts.append(i + 1)
    spans = []
    for tok in tokenize(source)[:-1]:
        start = starts[tok.line - 1] + tok.col - 1
        end = start + len(tok.text) + (2 if tok.kind == "string" else 0)
        spans.append((start, end))
    return spans


def mutations(name: str, rng: random.Random, n: int) -> list[dict]:
    text = fixture_text(name)
    spans = token_spans(text)
    out = []
    for _ in range(n):
        i = rng.randrange(len(spans) - 1)
        (s1, e1), (s2, e2) = spans[i], spans[i + 1]
        splice = rng.choice([
            [s1, e1, ""],
            [s1, e1, text[s1:e1] + " " + text[s1:e1]],
            [s1, e2, text[s2:e2] + text[e1:s2] + text[s1:e1]],
        ])
        out.append({"fixture": name, "splice": splice})
    return out


def build_inputs() -> list[dict]:
    sys.path.insert(0, os.path.join(os.path.dirname(FIXTURES), "..", "bench"))
    from items import store_chain
    entries = [{"fixture": name} for name in SOL_FIXTURES]
    for seed in (1, 2, 3):
        entries += [{"source": item.source} for item in store_chain(seed)]
    rng = random.Random(2018)
    entries += [{"stmt": expression_statement(rng)} for _ in range(2000)]
    entries += [{"stmt": stmt} for stmt in deep_statements()]
    for name in SOL_FIXTURES:
        entries += mutations(name, rng, 100)
    return entries


# -- the check ----------------------------------------------------------------

def test_front_end_matches_frozen_corpus():
    with open(CORPUS) as fh:
        corpus = json.load(fh)
    assert len(corpus) > 2800
    for i, entry in enumerate(corpus):
        expected = {k: entry[k] for k in ("sha256", "error") if k in entry}
        assert outcome(source_of(entry)) == expected, (i, entry)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    corpus = [{**entry, **outcome(source_of(entry))} for entry in build_inputs()]
    os.makedirs(os.path.dirname(CORPUS), exist_ok=True)
    with open(CORPUS, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(e, sort_keys=True) for e in corpus)
                 + "\n]\n")
