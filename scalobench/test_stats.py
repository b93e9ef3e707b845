"""Tests of the benchmark's statistics rules.

    python3 -m unittest discover -s scalobench -p 'test_*.py'
"""

import math
import unittest

import stats


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertFalse(stats.supports(999, 99.0))
        self.assertTrue(stats.supports(1000, 99.0))
        self.assertTrue(stats.supports(20, 50.0))
        self.assertFalse(stats.supports(19, 50.0))

    def test_tail_picks_highest_supported(self):
        values = list(range(1, 10001))
        self.assertEqual(stats.tail(values), ("p99.9", 9990))
        self.assertEqual(stats.tail(values[:1000]), ("p99", 990))
        self.assertEqual(stats.tail(values[:200]), ("p95", 190))

    def test_small_sample_reports_max(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), ("max", 3.0))

    def test_nearest_rank(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(stats.percentile([1, 2], 50), 1)
        self.assertEqual(stats.percentile(list(range(100)), 99), 98)


class OpenLoop(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Sent 30 ms late behind a stall, served in 1 ms: 31 ms.
        due, sent, seen = 100.0, 130.0, 131.0
        self.assertEqual(stats.latency_ms(due, seen), 31.0)
        self.assertEqual(stats.lag_ms(due, sent), 30.0)

    def test_lag_is_never_negative(self):
        self.assertEqual(stats.lag_ms(10.0, 9.5), 0.0)


class Backlog(unittest.TestCase):
    def test_flat_backlog_is_not_growth(self):
        t = [i * 0.01 for i in range(100)]
        self.assertFalse(stats.backlog_growing(t, [5] * 100, 2000))

    def test_rising_backlog_is_growth(self):
        t = [i * 0.01 for i in range(100)]
        self.assertTrue(stats.backlog_growing(t, list(range(0, 400, 4)),
                                              2000))

    def test_growth_below_floor_is_noise(self):
        t = [i * 0.01 for i in range(100)]
        self.assertFalse(stats.backlog_growing(t, [0] * 50 + [10] * 50,
                                               100))

    def _step(self, rate, lat, backlog):
        return {"offered_qps": rate, "lat_ms": lat, "rejected": 0,
                "hung": 0, "incomplete": 0, "sent": len(lat),
                "backlog_t": [i * 0.01 for i in range(len(backlog))],
                "backlog_n": backlog}

    def test_ladder_takes_highest_passing_step(self):
        fast = [1.0] * 2000
        steps = [self._step(100, fast, [2] * 100),
                 self._step(200, fast, [3] * 100),
                 # Meets the limit but its backlog grows: fails.
                 self._step(300, fast, list(range(0, 1000, 10))),
                 self._step(250, [1.0] * 1900 + [50.0] * 100, [3] * 100)]
        # 200/s is the highest pass; its p99 (1 ms) and the 250/s
        # step's (50 ms) bracket the 20 ms limit.
        self.assertAlmostEqual(stats.max_qps(steps, limit_ms=20.0),
                               200 + 50 * math.log(20) / math.log(50))

    def test_failure_on_backlog_alone_gives_no_slope(self):
        fast = [1.0] * 2000
        steps = [self._step(200, fast, [3] * 100),
                 self._step(300, fast, list(range(0, 1000, 10)))]
        self.assertEqual(stats.max_qps(steps, limit_ms=20.0), 200)

    def test_ladder_interpolates_to_the_limit(self):
        # p99 10 ms at 200/s, 40 ms at 300/s: 20 ms is met halfway in
        # log space.
        steps = [self._step(200, [10.0] * 2000, [2] * 100),
                 self._step(300, [40.0] * 2000, [2] * 100)]
        self.assertAlmostEqual(stats.max_qps(steps, limit_ms=20.0), 250.0)

    def test_a_retried_failure_that_passes_counts_as_passing(self):
        fast, slow = [1.0] * 2000, [10.0] * 1900 + [90.0] * 100
        steps = [self._step(200, fast, [2] * 100),
                 self._step(300, slow, [2] * 100),  # one stall...
                 self._step(300, fast, [2] * 100),  # ...then it passes
                 self._step(400, slow, [2] * 100),
                 self._step(400, [10.0] * 1900 + [40.0] * 100, [2] * 100)]
        # 400/s failed twice; its lower p99 (40 ms) brackets the limit.
        self.assertAlmostEqual(stats.max_qps(steps, limit_ms=20.0),
                               300 + 100 * math.log(20) / math.log(40))

    def test_too_few_samples_fail_the_step(self):
        self.assertEqual(
            stats.max_qps([self._step(100, [1.0] * 500, [1] * 100)], 20.0),
            0.0)


class StepRule(unittest.TestCase):
    """The pass rule the binary mirrors while it steers the ladder."""

    def _step(self, lat, backlog, **misses):
        step = {"offered_qps": 100, "lat_ms": lat, "rejected": 0,
                "hung": 0, "incomplete": 0, "sent": len(lat),
                "backlog_t": [i * 0.01 for i in range(len(backlog))],
                "backlog_n": backlog}
        step.update(misses)
        return step

    def test_needs_a_thousand_samples(self):
        self.assertFalse(stats.step_passes(self._step([1.0] * 999, [0] * 8),
                                           20.0))
        self.assertTrue(stats.step_passes(self._step([1.0] * 1000, [0] * 8),
                                          20.0))

    def test_p99_at_the_limit_passes(self):
        # Nearest rank 990 of 1000: ten samples may exceed the limit.
        lat = [20.0] * 990 + [99.0] * 10
        self.assertTrue(stats.step_passes(self._step(lat, [0] * 8), 20.0))
        lat = [20.0] * 989 + [99.0] * 11
        self.assertFalse(stats.step_passes(self._step(lat, [0] * 8), 20.0))

    def test_backlog_growth_threshold(self):
        # 1000 requests: growth may reach max(16, 20) = 20 in flight.
        lat = [1.0] * 1000
        self.assertTrue(stats.step_passes(
            self._step(lat, [0, 0, 20, 20]), 20.0))
        self.assertFalse(stats.step_passes(
            self._step(lat, [0, 0, 21, 21]), 20.0))

    def test_any_miss_fails(self):
        lat = [1.0] * 1000
        for miss in ("rejected", "hung", "incomplete"):
            self.assertFalse(stats.step_passes(
                self._step(lat, [0] * 8, **{miss: 1}), 20.0))


class FailedFrac(unittest.TestCase):
    def test_refusals_count_as_misses(self):
        self.assertEqual(stats.failed_frac(100, rejected=5), 0.05)
        self.assertEqual(stats.failed_frac(100, rejected=2, hung=1,
                                           incomplete=1, wrong=1), 0.05)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.failed_frac(0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            {"start_ns": 0, "end_ns": 100, "parent": -1},
            {"start_ns": 10, "end_ns": 40, "parent": 0},
            {"start_ns": 30, "end_ns": 60, "parent": 0},  # overlaps
            {"start_ns": 90, "end_ns": 150, "parent": 0},  # clipped
        ]
        self.assertEqual(stats.self_times(spans), [40, 30, 30, 60])

    def test_layer_of(self):
        self.assertEqual(stats.layer_of("serve.submit"), "serve")


if __name__ == "__main__":
    unittest.main()
