"""Benchmark of the tomo2q package, measured from outside the package.

`python3 -m perfbench.run --workload NAME --seed N --seconds S --trace 0|1`
runs one workload from the root of a source checkout; see README.md in
this directory for the workloads, metrics and tracing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_source_tree():
    """Put the checkout's `src/` first on sys.path; False if it is absent.

    The benchmark measures the package of the checkout it sits in, never an
    installed copy, so a tree without `src/tomo2q` is an error.
    """
    if not (SRC / "tomo2q" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
