"""`curvlab run` with spans: the child process of a traced cli_reports run.

Usage: python3 perfbench/traced_cli.py SPANS_OUT run CONFIG [curvlab options]

Times a fresh ``import curvlab.cli``, wraps the public functions, calls the
same ``main`` the console script calls, and writes the spans at exit.
"""

import os
import sys
from time import perf_counter

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import curvlab.cli

    import_ms = (perf_counter() - start) * 1e3
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return curvlab.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_out, import_ms=import_ms)


if __name__ == "__main__":
    sys.exit(main())
