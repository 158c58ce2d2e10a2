"""Traced `solverify verify`: wraps the program's entry points, then calls
`solverify.cli.main` in this process.

    python3 bench/traced_cli.py SPANS ITEM verify ARGS...

The verifier's spans go to SPANS and the solver's to SPANS.solver: `--solver`
is set to `traced_solver.py`, the bundled solver with its stages wrapped.
Exit code and report are those of the CLI; an uncaught exception exits 1 with
a traceback, as the `solverify` command does.
"""

import os
import shlex
import sys
import traceback

from layers import VERIFIER_TARGETS
from spans import Tracer


def main() -> int:
    spans_path, item, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(item)
    cli = tracer.call("proc.import", __import__, "solverify.cli",
                      fromlist=["main"])
    tracer.install(VERIFIER_TARGETS)
    solver = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "traced_solver.py")
    argv += ["--solver", shlex.join([sys.executable, solver,
                                     spans_path + ".solver", item])]
    try:
        return tracer.call("cli.main", cli.main, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
