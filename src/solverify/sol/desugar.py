"""Modifier desugaring.

Each function body becomes pre-statements, body, post-statements, with
multiple modifiers nesting left to right (the first listed is outermost).
Tail returns are rewritten to an assignment of the synthetic return variable
so post-statements still execute, matching how the compiler threads modifier
code around a returning body.
"""

from __future__ import annotations

from solverify import InputError, claim
from solverify.sol import ast

RETURN_VAR = "__ret"


class UnknownModifier(InputError):
    pass


def _collect_names(stmts: list[ast.SolStmt], out: set[str]):
    out.update(s.name for s in ast.statements(stmts) if isinstance(s, ast.DeclStmt))


def _rename(stmts: list[ast.SolStmt], mapping: dict[str, str]):
    for node in ast.walk(stmts):
        if isinstance(node, ast.DeclStmt) and node.name in mapping:
            node.name = mapping[node.name]
        elif isinstance(node, ast.Var) and node.name in mapping \
                and node.binding in (None, "local"):
            node.name = mapping[node.name]


def _normalize_tail_return(fn: ast.SolFunction, body: list[ast.SolStmt]) -> list[ast.SolStmt]:
    if not body or not isinstance(body[-1], ast.Return):
        return body
    ret: ast.Return = body[-1]
    rest = body[:-1]
    if ret.value is None:
        return rest
    lhs = ast.Var(name=RETURN_VAR, pos=ret.pos)
    lhs.binding = "return"
    lhs.ty = fn.returns
    return rest + [ast.Assign(lhs=lhs, rhs=ret.value, pos=ret.pos)]


def desugar_modifiers(program: ast.SolProgram) -> ast.SolProgram:
    """Inline applied modifiers into function bodies, in place."""
    for c in program.contracts:
        for fn in c.all_functions():
            if fn.body is None or not fn.applied_modifiers:
                continue
            taken = set(n for n, _ in fn.params)
            _collect_names(fn.body, taken)
            body = _normalize_tail_return(fn, fn.body)
            for mod_name in reversed(fn.applied_modifiers):
                resolved = program.resolve(c.name, "modifier", mod_name)
                if resolved is None:
                    raise UnknownModifier(f"{c.name}.{fn.name}: no modifier "
                                          f"named {mod_name!r}")
                _, mod = resolved
                pre = ast.copy_tree(mod.pre_stmts)
                post = ast.copy_tree(mod.post_stmts)
                declared: set[str] = set()
                _collect_names(pre, declared)
                _collect_names(post, declared)
                fresh = taken | declared
                mapping = {n: claim(n, fresh) for n in sorted(declared) if n in taken}
                if mapping:
                    _rename(pre, mapping)
                    _rename(post, mapping)
                taken |= {mapping.get(n, n) for n in declared}
                body = pre + body + post
            fn.body = body
            fn.applied_modifiers = []
    return program
