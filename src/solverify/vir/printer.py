"""Deterministic textual form of IR programs (.vir files).

Section order: globals, constants, procedures, each alphabetical.  The
output re-parses to a structurally equal program; the parser that checks
this is test code (`tests/vir_parser.py`).
"""

from __future__ import annotations

from solverify.vir import ast

_PREC = {
    "==>": 1, "||": 2, "&&": 3, "==": 4, "!=": 4,
    "<": 5, "<=": 5, ">": 5, ">=": 5,
    "+": 6, "-": 6, "*": 7, "/": 7, "%": 7,
    "neg": 8, "!": 8,
}


def print_expr(e: ast.IrExpr, parent_prec: int = 0) -> str:
    if isinstance(e, ast.IConst):
        return str(e.value)
    if isinstance(e, ast.BConst):
        return "true" if e.value else "false"
    if isinstance(e, ast.RConst):
        return "null" if e.value == 0 else f"ref!{e.value}"
    if isinstance(e, ast.NamedConst):
        return e.name
    if isinstance(e, ast.Var):
        return e.name
    if isinstance(e, ast.Select):
        keys = "".join(f"[{print_expr(k)}]" for k in e.keys)
        return f"{print_expr(e.base, 9)}{keys}"
    if isinstance(e, ast.Op):
        prec = _PREC[e.op]
        if e.op == "!":
            s = f"!{print_expr(e.args[0], prec)}"
        elif e.op == "neg":
            s = f"-{print_expr(e.args[0], prec)}"
        else:
            lp, rp = (prec + 1, prec) if e.op == "==>" else (prec, prec + 1)
            s = f"{print_expr(e.args[0], lp)} {e.op} {print_expr(e.args[1], rp)}"
        return f"({s})" if prec < parent_prec else s
    raise ValueError(f"cannot print {type(e).__name__}")


def print_stmt(s: ast.IrStmt, indent: int) -> list[str]:
    pad = "    " * indent
    if isinstance(s, ast.Skip):
        return [f"{pad}skip;"]
    if isinstance(s, ast.Havoc):
        return [f"{pad}havoc {s.var};"]
    if isinstance(s, ast.Assign):
        return [f"{pad}{s.var} := {print_expr(s.expr)};"]
    if isinstance(s, ast.Store):
        keys = "".join(f"[{print_expr(k)}]" for k in s.keys)
        return [f"{pad}{s.base}{keys} := {print_expr(s.value)};"]
    if isinstance(s, ast.Assume):
        return [f"{pad}assume {print_expr(s.cond)};"]
    if isinstance(s, ast.Assert):
        label = f" {_quote(s.label)}" if s.label else ""
        return [f"{pad}assert{label} {print_expr(s.cond)};"]
    if isinstance(s, ast.Alloc):
        if s.contract is not None:
            return [f"{pad}alloc {s.var}: {s.contract};"]
        keys = "".join(f"[{k}]" for k in s.keys)
        length = "" if s.length is None else f" length {print_expr(s.length)}"
        return [f"{pad}alloc {s.var}: {keys}{s.leaf}{length};"]
    if isinstance(s, ast.Call):
        call = f"{s.proc}({', '.join(print_expr(a) for a in s.args)})"
        if s.results:
            return [f"{pad}call {', '.join(s.results)} := {call};"]
        return [f"{pad}call {call};"]
    if isinstance(s, ast.Seq):
        out: list[str] = []
        for sub in s.stmts:
            out += print_stmt(sub, indent)
        return out
    if isinstance(s, ast.If):
        lines = [f"{pad}if ({print_expr(s.cond)}) {{"]
        lines += print_stmt(s.then, indent + 1)
        els = ast.seq_list(s.els)
        if els:
            lines.append(f"{pad}}} else {{")
            lines += print_stmt(s.els, indent + 1)
        lines.append(f"{pad}}}")
        return lines
    if isinstance(s, ast.While):
        lines = [f"{pad}while ({print_expr(s.cond)}) {{"]
        lines += print_stmt(s.body, indent + 1)
        lines.append(f"{pad}}}")
        return lines
    raise ValueError(f"cannot print {type(s).__name__}")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def print_ir(program: ast.IrProgram) -> str:
    lines: list[str] = []
    for name in sorted(program.globals):
        lines.append(f"var {name}: {program.globals[name]};")
    for name in sorted(program.constants):
        lines.append(f"const {name} = {program.constants[name]};")
    for name in sorted(program.procedures):
        proc = program.procedures[name]
        params = ", ".join(f"{n}: {t}" for n, t in proc.params)
        head = f"procedure {name}({params})"
        if proc.returns:
            rets = ", ".join(f"{n}: {t}" for n, t in proc.returns)
            head += f" returns ({rets})"
        lines.append(head + " {")
        for n, t in proc.locals:
            lines.append(f"    var {n}: {t};")
        lines += print_stmt(proc.body, 1)
        lines.append("}")
    return "\n".join(lines) + "\n"
