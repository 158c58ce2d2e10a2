"""The bundled solver with its stages wrapped.

    python3 bench/traced_solver.py SPANS ITEM

Serves SMT-LIB2 on the standard streams like `python -m solverify.smt.cli`
and writes its spans, with its peak memory, to SPANS at end of input.
"""

import resource
import sys

from layers import SOLVER_TARGETS
from spans import Tracer


def main() -> int:
    spans_path, item = sys.argv[1], sys.argv[2]
    tracer = Tracer(item)
    import solverify.smt.cli as smt_cli
    tracer.install(SOLVER_TARGETS)
    tracer.mark("smt.ready")
    try:
        return smt_cli.main()
    finally:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tracer.mark("smt.exit", rss_mb=peak_kb / 1024.0)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
