"""Summary statistics shared by the benchmark and its spread check."""

import statistics

TAIL_BEYOND = 10


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples beyond it.

    Returns (value, percentile, n): the sorted sample at index
    n - beyond - 1, the share of samples at or below it in percent, and
    the sample count.  Raises ValueError when there are too few samples
    for any percentile to have `beyond` samples above it.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - beyond - 1
    if k < 0:
        raise ValueError(
            f"tail needs more than {beyond} samples, got {n}")
    return xs[k], 100.0 * (k + 1) / n, n


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median) over repeated runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")
