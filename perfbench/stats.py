"""Summary statistics shared by the benchmark: medians and percentiles.

A percentile is only reported when at least ``MIN_BEYOND`` samples lie beyond
it, so a p90 needs 100 samples and a p50 needs 20; asking for one with fewer
raises instead of printing a number the sample cannot support.
"""

import math
import statistics

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, q):
    """Nearest-rank ``q``-th percentile (0 < q < 100) of ``samples``."""
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def median(values):
    return statistics.median(values)
