"""Order statistics, the steal share of a timed interval and the paired
verdict rule shared by run.py, compare.py and the tests."""

import math
import statistics

# Percentile levels a run may report as its tail.
TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(values, min_beyond=10):
    """The highest level in TAIL_LEVELS with at least min_beyond samples
    beyond it, as (level, value), or None when even the median lacks
    them."""
    supported = [p for p in TAIL_LEVELS if beyond(len(values), p) >= min_beyond]
    if not supported:
        return None
    return supported[-1], percentile(values, supported[-1])


def steal_share(ticks):
    """The share of the CPU time the machine wanted over an interval that
    the hypervisor gave to another guest, from /proc/stat samples
    (busy0, steal0, busy1, steal1) taken at its ends: steal over busy
    plus steal. A timed interval is netted of steal by scaling it by one
    minus this share, which assumes the steal fell evenly over the
    interval's busy CPUs."""
    busy0, steal0, busy1, steal1 = ticks
    stolen = steal1 - steal0
    wanted = busy1 - busy0 + stolen
    return stolen / wanted if wanted > 0 else 0.0


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def verdict(base, change, bound, better):
    """Judge paired runs of one metric on one workload.

    base[i] and change[i] are a pair. A gain needs the change to win at
    least nine tenths of all pairs, ties counting for neither side, and
    the medians to differ by more than the base's inter-quartile
    distance. Otherwise, when either side's spread is wider than the
    bound, nothing is concluded (unresolved) unless every change run
    reads better than every base run. Else the change is worse when its
    median is worse than the base's by more than the bound.

    Returns (verdict, wins, losses, ties)."""
    if len(base) != len(change):
        raise ValueError("unpaired runs")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    ties = len(base) - wins - losses
    if len(base) < 2:
        return "unresolved", wins, losses, ties
    b1, bm, b3 = quartiles(base)
    cm = statistics.median(change)
    if wins >= 0.9 * len(base) and sign * (cm - bm) > b3 - b1:
        return "improved", wins, losses, ties
    all_better = (min(change) > max(base)) if sign > 0 else (max(change) < min(base))
    spread = max(relative_spread(base), relative_spread(change))
    if spread > bound and not all_better:
        return "unresolved", wins, losses, ties
    if sign * (bm - cm) / bm > bound:
        return "worse", wins, losses, ties
    return "no worse", wins, losses, ties
