"""Set-up probe: one workload's cold path in a fresh interpreter.

    python3 -m perfbench.probe WORKLOAD SEED [COUNTS_FILE]

Imports tomo2q, builds the workload's projector sets and states and makes
one warm-up call that fills the package's caches.  For estimate-boundary
the cold path is `tomo2q estimate --counts COUNTS_FILE --basis
inseparable` run in this process.  Prints one JSON line with `import_s`
and `first_fit_s` (everything after the import); perfbench.run times the
whole process from outside as `setup_s`.
"""

import contextlib
import io
import json
import sys
import time


def main(argv):
    t0 = time.perf_counter()
    from perfbench import use_source_tree
    if not use_source_tree():
        print("src/tomo2q not found", file=sys.stderr)
        return 2
    workload, seed = argv[0], int(argv[1])
    if workload == "estimate-boundary":
        import tomo2q.cli
        t1 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = tomo2q.cli.main(["estimate", "--counts", argv[2],
                                  "--basis", "inseparable"])
        if rc != 0:
            return rc
    else:
        import tomo2q  # noqa: F401  (timed on its own)
        t1 = time.perf_counter()
        from perfbench.workloads import WORKLOADS
        WORKLOADS[workload](seed).warm_up()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "first_fit_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
