"""Small statistics helpers shared by the workloads and the tracer.

Everything here is pure and deterministic so it can be tested on its own
(see ``perfbench/tests``).
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be reported at, highest first.  A fixed ladder
#: keeps runs comparable: a run reports the same percentile as its
#: neighbours as long as its sample count stays inside one band.
TAIL_LADDER: tuple[float, ...] = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def tail_percentile(samples, min_beyond: int = MIN_BEYOND) -> tuple[float, float, int]:
    """``(percentile, value, sample_count)`` of the highest ladder
    percentile that still has at least ``min_beyond`` samples beyond it.

    The value is the nearest-rank percentile.  Raises ``ValueError`` when
    even the median would leave fewer than ``min_beyond`` samples above
    it: too few samples to report any tail.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)  # 1-based nearest rank
        if rank >= 1 and n - rank >= min_beyond:
            return p, xs[rank - 1], n
    raise ValueError(
        f"{n} samples: no percentile in {TAIL_LADDER} has "
        f"{min_beyond} samples beyond it"
    )


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``.

    Overlapping intervals count once.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of it its children cover.

    ``children`` are ``(start, end)`` intervals; overlapping children
    (threads, or children that outlive their parent) are not
    double-counted, and any part outside the span is ignored.
    """
    return (end - start) - covered_length(children, start, end)


def median(values) -> float:
    return float(statistics.median(values))
