"""Tests of the benchmark's statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def tally(**counts):
    t = {k: 0 for k in stats.OUTCOMES}
    t.update(counts)
    t["attempted"] = sum(t[k] for k in stats.OUTCOMES)
    return t


class Percentile(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 0.5), 50)
        self.assertEqual(stats.percentile(values, 0.9), 90)
        self.assertEqual(stats.percentile(values, 1.0), 100)
        self.assertEqual(stats.percentile(values, 0.001), 1)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 0.5), 3)
        self.assertEqual(stats.median([0.3, 0.1, 0.2]), 0.2)

    def test_selects_a_sample(self):
        # an even count takes the lower middle sample, never an average
        self.assertEqual(stats.median([1.0, 2.0, 3.0, 10.0]), 2.0)
        self.assertEqual(stats.percentile([7.0], 0.9), 7.0)

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0.0)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 1.5)


class TenBeyond(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        self.assertEqual(stats.beyond(100, 0.9), 10)
        self.assertTrue(stats.supported(100, 0.9))
        self.assertFalse(stats.supported(99, 0.9))
        self.assertFalse(stats.supported(32, 0.9))
        self.assertTrue(stats.supported(1000, 0.9))

    def test_p10_counts_samples_below(self):
        self.assertEqual(stats.beyond(110, 0.1), 10)
        self.assertEqual(stats.beyond(101, 0.1), 10)
        self.assertTrue(stats.supported(101, 0.1))
        self.assertFalse(stats.supported(100, 0.1))
        self.assertFalse(stats.supported(32, 0.1))
        self.assertEqual(stats.percentile(list(range(1, 111)), 0.1), 11)

    def test_median_needs_20_samples(self):
        self.assertFalse(stats.supported(19, 0.5))
        self.assertTrue(stats.supported(20, 0.5))

    def test_no_samples(self):
        self.assertFalse(stats.supported(0, 0.5))


class SuccessRate(unittest.TestCase):
    def test_all_ok(self):
        self.assertEqual(stats.success_rate(tally(ok=120)), 1.0)

    def test_every_failure_kind_counts(self):
        for kind in ("mismatch", "refused", "failed", "timed_out"):
            t = tally(ok=9, **{kind: 1})
            self.assertEqual(t["attempted"], 10)
            self.assertAlmostEqual(stats.success_rate(t), 0.9, msg=kind)

    def test_mixed(self):
        t = tally(ok=6, mismatch=1, refused=1, failed=1, timed_out=1)
        self.assertAlmostEqual(stats.success_rate(t), 0.6)

    def test_outcomes_must_add_up(self):
        t = tally(ok=5)
        t["attempted"] = 6  # one request with no outcome
        with self.assertRaises(ValueError):
            stats.success_rate(t)

    def test_nothing_attempted(self):
        with self.assertRaises(ValueError):
            stats.success_rate(tally())


class Ratio(unittest.TestCase):
    def test_coverage(self):
        self.assertAlmostEqual(stats.ratio([0.9, 1.9], [1.0, 2.0]), 2.8 / 3.0)
        with self.assertRaises(ValueError):
            stats.ratio([], [])


if __name__ == "__main__":
    unittest.main()
