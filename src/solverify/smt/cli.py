"""SMT-LIB2 solver process: reads commands from stdin and answers check-sat,
get-value, get-model, and echo on stdout.  Runs one-shot or as a persistent
session (state clears on `reset`).  When no external solver is configured,
the verifier runs `serve` in a fork of itself (`engine.smtio`);
`python -m solverify.smt.cli` runs it as a program of its own."""

from __future__ import annotations

import sys

from solverify.smt.solver import Solved, solve
from solverify.smt.terms import (
    ScriptParser, is_array_sort, iter_sexprs, literal, sexpr, sort_to_sexpr,
)


def format_value(v) -> str:
    return literal(v) if isinstance(v, (bool, int)) else str(v)


class Session:
    def __init__(self, out):
        self.out = out
        self.parser = ScriptParser()
        self.solved: Solved | None = None
        self.poisoned = False  # a bad command taints the query until reset

    def emit(self, text: str):
        self.out.write(text + "\n")
        self.out.flush()

    def handle(self, sx) -> bool:
        """Process one command; False stops the session."""
        head = sx[0] if isinstance(sx, list) and sx else None
        if head == "exit":
            return False
        if head == "reset":
            self.parser = ScriptParser()
            self.solved = None
            self.poisoned = False
            return True
        if head == "echo":
            self.emit(str(sx[1]).strip('"'))
            return True
        if self.poisoned:
            self.emit('(error "earlier command failed; reset required")')
            return True
        if head == "check-sat":
            try:
                self.solved = solve(self.parser.script)
            except Exception as exc:
                self.solved = None
                self.poisoned = True
                self.emit(f'(error "{exc}")')
                return True
            self.emit(self.solved.answer)
            return True
        if head == "get-value":
            if self.solved is None or self.solved.answer != "sat":
                self.emit('(error "model is not available")')
                return True
            try:
                terms = [self.parser.to_term(a) for a in sx[1]]
            except Exception as exc:
                self.emit(f'(error "{exc}")')
                return True
            pairs = " ".join(
                f"({sexpr(t)} {format_value(self.solved.value_of(t))})"
                for t in terms)
            self.emit(f"({pairs})")
            return True
        if head == "get-model":
            if self.solved is None or self.solved.answer != "sat":
                self.emit('(error "model is not available")')
                return True
            decls = []
            for name in sorted(self.parser.script.decls):
                args, sort = self.parser.script.decls[name]
                if args or is_array_sort(sort):
                    continue
                value = self.solved.value_of(self.parser.bank.sym(name, sort))
                decls.append(f"  (define-fun {name} () {sort_to_sexpr(sort)} "
                             f"{format_value(value)})")
            self.emit("(\n" + "\n".join(decls) + "\n)")
            return True
        try:
            self.parser.feed(sx)
        except Exception as exc:
            self.poisoned = True
            self.emit(f'(error "{exc}")')
        return True


def serve(inp, out):
    """Answer the commands read from `inp` on `out`, until end of input or
    `(exit)`.  Input is read a line at a time, so a command is answered as
    soon as the line that completes it arrives."""
    session = Session(out)
    for sx in iter_sexprs(iter(inp.readline, "")):
        if isinstance(sx, ValueError):
            session.emit(f'(error "{sx}")')
        elif not session.handle(sx):
            break


def main() -> int:
    serve(sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
