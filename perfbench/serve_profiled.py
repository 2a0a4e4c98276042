"""Run ``python -m repro.experiments <args>`` under cProfile, all threads.

Usage: ``serve_profiled.py OUT.pstats serve --store ... --port 0``.
The statistics of the main thread and of every thread it starts (the
service folds artifacts in executor threads) are merged and written to
``OUT.pstats`` when the command returns, e.g. after SIGTERM drains it.
"""

from __future__ import annotations

import marshal
import runpy
import sys

import layers


def main() -> None:
    out, args = sys.argv[1], sys.argv[2:]
    sys.argv = ["repro.experiments", *args]
    profilers = layers.ThreadProfilers()
    profilers.start()
    code = 0
    try:
        runpy.run_module("repro.experiments", run_name="__main__",
                         alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 0
    finally:
        stats = profilers.stop()
        with open(out, "wb") as fh:
            marshal.dump(stats, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
