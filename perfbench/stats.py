"""Statistics of the benchmark: percentiles, the sample-count rule and
request accounting.  Pure functions, tested by test_stats.py."""

import math

# A percentile is reported only when at least this many samples lie
# beyond it; otherwise one slow request moves it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least a
    share q of all samples at or below it (0 < q <= 1)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(n, q):
    """Number of samples beyond the nearest-rank q-percentile, on its
    side of the median: above it for q >= 0.5, below it otherwise."""
    rank = math.ceil(q * n)
    return n - rank if q >= 0.5 else rank - 1


def supported(n, q, min_beyond=MIN_BEYOND):
    """True when the q-percentile of n samples has min_beyond samples
    beyond it: the p90 needs at least 100 samples, the p10 101."""
    return n > 0 and beyond(n, q) >= min_beyond


def median(values):
    return percentile(values, 0.5)


# Every way a request can end.  Only "ok" counts as a success: a refused,
# failed, timed-out or mismatched request misses every latency limit.
OUTCOMES = ("ok", "mismatch", "refused", "failed", "timed_out")


def success_rate(tally):
    """Share of attempted requests whose output matched the reference.
    tally maps each of OUTCOMES (and "attempted") to a count; the
    outcomes must add up to the attempts."""
    attempted = tally["attempted"]
    if attempted <= 0:
        raise ValueError("no requests attempted")
    if sum(tally[k] for k in OUTCOMES) != attempted:
        raise ValueError("outcomes do not add up to the attempts: %r" % (tally,))
    return tally["ok"] / attempted


def ratio(part, whole):
    """part / whole over summed samples (e.g. span coverage)."""
    total = sum(whole)
    if total <= 0:
        raise ValueError("empty denominator")
    return sum(part) / total
