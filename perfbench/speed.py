"""Machine-speed probe for normalizing times on a shared host.

On a host shared with other tenants, the same work takes up to 20% more
or less time from one second to the next, which drowns the differences a
benchmark is meant to show.  The probe is a fixed piece of work of the
same kind as tomo2q's -- small dense linear algebra in numpy driven by
Python loops -- that uses no tomo2q code.  Timed between operations, it
tracks the speed the host gives the process; dividing an operation's
time by the probe time around it, and multiplying by the probe's time on
the reference machine, gives the operation's time at reference speed.
"""

import statistics
import time

import numpy as np

# Probe duration on the reference machine: 2-core x86_64 VM, Python
# 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS thread.
REF_S = 0.005
# Longest stretch of operations between two probes, in seconds.
GAP_S = 0.1
# One probe run per this many seconds of operations since the last probe,
# at least one and at most MAX_RUNS; their median is the probe time.
RUN_PER_S = 0.15
MAX_RUNS = 5


class SpeedProbe:
    """Times a fixed workload; `run()` returns its duration in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.herm = a @ a.conj().T
        self.dense = (rng.standard_normal((16, 16))
                      + 1j * rng.standard_normal((16, 16)))

    def _work(self):
        acc = 0.0
        for _ in range(40):
            w, v = np.linalg.eigh(self.herm)
            u, s, vh = np.linalg.svd(self.dense)
            acc += float(np.einsum("ij,ji->", self.herm, v).real)
            acc += w[0] + s[0] + sum(j * j for j in range(50))
        return acc

    def run(self):
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0

    def sample(self, covering_s=0.0):
        """Probe time for the `covering_s` seconds of operations before it.

        Longer stretches get more runs, whose median damps the probe's
        own run-to-run jitter."""
        runs = min(MAX_RUNS, 1 + int(covering_s / RUN_PER_S))
        return statistics.median(self.run() for _ in range(runs))


def at_reference_speed(seconds, probe_before, probe_after):
    """`seconds` rescaled by the probe times measured around them."""
    return seconds * REF_S / (0.5 * (probe_before + probe_after))
