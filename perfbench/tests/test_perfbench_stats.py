"""Tests of the benchmark's tail-percentile and self-time helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from stats import covered_length, self_time, tail_percentile  # noqa: E402


class TestTailPercentile:
    def test_highest_percentile_with_ten_beyond(self):
        # 1000 samples: p99 leaves exactly 10 above it.
        p, value, n = tail_percentile(range(1, 1001))
        assert (p, value, n) == (99.0, 990, 1000)

    def test_steps_down_when_p99_has_too_few_beyond(self):
        # 999 samples: p99 would leave 9, so p95 (49 beyond) is reported.
        p, value, n = tail_percentile(range(1, 1000))
        assert p == 95.0
        assert value == 950
        assert n == 999

    def test_every_reported_tail_has_ten_beyond(self):
        for n in (20, 21, 40, 99, 100, 101, 199, 200, 201, 1000, 5000):
            xs = list(range(n))
            p, value, _ = tail_percentile(xs)
            assert sum(1 for x in xs if x > value) >= 10

    def test_order_does_not_matter(self):
        xs = [5.0, 1.0, 9.0, 3.0] * 60
        assert tail_percentile(xs) == tail_percentile(sorted(xs))

    @pytest.mark.parametrize("n", [0, 1, 10, 19])
    def test_refuses_too_few_samples(self, n):
        with pytest.raises(ValueError):
            tail_percentile(range(n))

    def test_twenty_samples_give_the_median(self):
        p, value, _ = tail_percentile(range(20))
        assert (p, value) == (50.0, 9)


class TestSelfTime:
    def test_no_children(self):
        assert self_time(1.0, 4.0, []) == pytest.approx(3.0)

    def test_disjoint_children_subtract(self):
        assert self_time(0.0, 10.0, [(1.0, 2.0), (5.0, 8.0)]) == pytest.approx(6.0)

    def test_overlapping_children_count_once(self):
        # Two children covering 2..6 and 4..8 cover 6 units, not 8.
        assert self_time(0.0, 10.0, [(2.0, 6.0), (4.0, 8.0)]) == pytest.approx(4.0)

    def test_nested_children_count_once(self):
        assert self_time(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]) == pytest.approx(4.0)

    def test_children_clipped_to_the_span(self):
        assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == pytest.approx(2.0)

    def test_fully_covered_span_has_no_self_time(self):
        assert self_time(1.0, 2.0, [(0.0, 1.5), (1.2, 3.0)]) == pytest.approx(0.0)

    def test_child_outside_span_ignored(self):
        assert self_time(0.0, 1.0, [(2.0, 3.0)]) == pytest.approx(1.0)

    def test_covered_length_of_touching_intervals(self):
        assert covered_length([(0.0, 1.0), (1.0, 2.0)], 0.0, 5.0) == pytest.approx(2.0)


class TestCollector:
    def test_nested_spans_split_self_time(self):
        import time

        from layers import Collector

        c = Collector()
        inner = c.wrap("inner", lambda: time.sleep(0.02))

        def outer_body():
            inner()
            inner()

        outer = c.wrap("outer", outer_body)
        outer()
        tags = c.aggregate()["tags"]
        assert tags["inner"][2] == 2 and tags["outer"][2] == 1
        outer_self, outer_total, _ = tags["outer"]
        assert outer_total >= tags["inner"][1]
        assert outer_self == pytest.approx(outer_total - tags["inner"][1], abs=1e-6)
        assert c.unattributed([(0.0, 0.0)]) == 0.0
