"""Run one dichotomy command with its layers traced.

    python3 perfbench/launch.py OUT_PREFIX COMMAND [ARGS...]

Times ``import dichotomy.cli``, wraps the layers, then calls
``cli.main(argv)``.  Stdout and the exit code are the command's own; the
per-layer summary goes to OUT_PREFIX.json and the spans to OUT_PREFIX.npz.
The package must be importable (``PYTHONPATH=src``).
"""

import json
import sys
import time


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import dichotomy.cli as cli

    import_s = time.perf_counter() - t0
    import tracing  # after the timed import: it loads numpy too

    tracer = tracing.Tracer()
    tracer.install()
    tracer.job = 0
    try:
        return cli.main(argv)
    finally:
        summary = tracer.summary()
        summary["cli.import_s"] = import_s
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        tracer.dump(out + ".npz")


if __name__ == "__main__":
    sys.exit(main())
