"""Traced stand-in for the ``chronodyn`` console script.

Usage: ``python3 bench/launcher.py <spans.json> <chronodyn arguments...>``

Times ``import chronodyn.cli``, installs the span wrappers, runs
``chronodyn.cli.main`` on the remaining arguments and writes the job's spans
and counts to ``spans.json`` before exiting with main's exit code.
"""

import json
import sys
import time

if __name__ == "__main__":
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import chronodyn.cli

    t1 = time.perf_counter()
    import spans  # this script's directory is first on sys.path

    tracer = spans.Tracer()
    tracer.start_job(None)
    tracer.add("cli.import", t0, t1)
    spans.install(tracer)
    t2 = time.perf_counter()
    main = tracer.wrap(f"cli.{argv[0]}.main", chronodyn.cli.main)
    try:
        code = main(argv)
    finally:
        with open(out_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "install_s": t2 - t1}, fh)
    sys.exit(code)
