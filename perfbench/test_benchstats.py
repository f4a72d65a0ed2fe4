"""Tests of the benchmark's statistics: percentile selection, the steal
share, the paired verdicts and compare.py's refusal of failed runs. Run
with `python3 perfbench/run.py --self-test`, or
`python3 -m unittest discover -s perfbench -p 'test_*.py'`."""

import unittest

import benchstats
import compare


class Percentiles(unittest.TestCase):
    def test_p90_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(benchstats.percentile(values, 90), 90)
        self.assertEqual(benchstats.percentile(values, 50), 50)
        self.assertEqual(benchstats.percentile(list(reversed(values)), 90), 90)
        self.assertEqual(benchstats.percentile([7.0], 90), 7.0)

    def test_p90_needs_no_interpolation(self):
        self.assertEqual(benchstats.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 90), 10)

    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(benchstats.tail_percentile(list(range(1000))), (99.0, 989))
        self.assertEqual(benchstats.tail_percentile(list(range(999)))[0], 95.0)
        self.assertEqual(benchstats.tail_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(benchstats.tail_percentile(list(range(99)))[0], 50.0)
        self.assertIsNone(benchstats.tail_percentile(list(range(19))))
        for n in (20, 100, 250, 1000, 20000):
            level, _ = benchstats.tail_percentile(list(range(n)))
            self.assertGreaterEqual(benchstats.beyond(n, level), 10)


class StealShare(unittest.TestCase):
    def test_share_of_wanted_time(self):
        # 300 busy ticks and 100 stolen: a quarter of the wanted time.
        self.assertEqual(benchstats.steal_share((1000, 50, 1300, 150)), 0.25)
        self.assertEqual(benchstats.steal_share((1000, 50, 1300, 50)), 0.0)

    def test_no_wanted_time_is_no_steal(self):
        self.assertEqual(benchstats.steal_share((1000, 50, 1000, 50)), 0.0)

    def test_netting_recovers_the_unstolen_time(self):
        # A 20 ms batch on a CPU stolen a fifth of the time ran for 16 ms.
        share = benchstats.steal_share((0, 0, 80, 20))
        self.assertAlmostEqual(20.0 * (1.0 - share), 16.0)


class Verdicts(unittest.TestCase):
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]

    def test_nine_of_ten_wins_is_a_gain(self):
        change = [b - 5.0 for b in self.base]
        change[3] = self.base[3] + 1.0  # one loss
        v, wins, losses, ties = benchstats.verdict(self.base, change, 0.1, "lower")
        self.assertEqual((v, wins, losses, ties), ("improved", 9, 1, 0))

    def test_eight_of_ten_wins_is_no_gain(self):
        change = [b - 5.0 for b in self.base]
        change[3] = self.base[3] + 1.0
        change[4] = self.base[4] + 1.0
        v, wins, _, _ = benchstats.verdict(self.base, change, 0.1, "lower")
        self.assertEqual((v, wins), ("no worse", 8))

    def test_ties_count_for_neither_side(self):
        change = [b - 5.0 for b in self.base]
        change[0] = self.base[0]
        v, wins, losses, ties = benchstats.verdict(self.base, change, 0.1, "lower")
        self.assertEqual((v, wins, losses, ties), ("improved", 9, 0, 1))
        change[1] = self.base[1]
        v, wins, _, ties = benchstats.verdict(self.base, change, 0.1, "lower")
        self.assertEqual((v, wins, ties), ("no worse", 8, 2))

    def test_gain_must_exceed_base_spread(self):
        change = [b - 0.1 for b in self.base]
        v, wins, _, _ = benchstats.verdict(self.base, change, 0.1, "lower")
        self.assertEqual((v, wins), ("no worse", 10))

    def test_higher_is_better(self):
        change = [b + 5.0 for b in self.base]
        self.assertEqual(benchstats.verdict(self.base, change, 0.1, "higher")[0], "improved")
        self.assertEqual(benchstats.verdict(self.base, change, 0.01, "lower")[0], "worse")

    def test_spread_wider_than_bound_is_unresolved(self):
        wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [w * 1.02 for w in wide]
        self.assertEqual(benchstats.verdict(wide, change, 0.1, "lower")[0], "unresolved")
        # ... unless every change run reads better than every base run.
        better = [55.0, 56.0, 57.0, 58.0, 59.0] * 2
        self.assertEqual(benchstats.verdict(wide, better, 0.1, "lower")[0], "no worse")

    def test_worse_beyond_bound(self):
        change = [b * 1.2 for b in self.base]
        self.assertEqual(benchstats.verdict(self.base, change, 0.1, "lower")[0], "worse")
        change = [b * 1.05 for b in self.base]
        self.assertEqual(benchstats.verdict(self.base, change, 0.1, "lower")[0], "no worse")


class FailedRuns(unittest.TestCase):
    @staticmethod
    def record(seed, failed, correct, trace=0):
        return {"correct": correct, "attempted": 100, "failed": failed,
                "metrics": {"qps": {"value": 1000.0 + seed, "unit": "queries/s"}},
                "host": {"workload": "w", "seed": seed, "trace": trace}}

    def test_clean_runs_are_compared(self):
        runs = compare.runs_of([("a.json", self.record(1, 0, True)),
                                ("b.json", self.record(2, 0, True)),
                                ("t.json", self.record(3, 0, True, trace=1))])
        self.assertEqual(runs, {"w": [(1, {"qps": 1001.0}), (2, {"qps": 1002.0})]})

    def test_a_failed_run_is_refused_by_name(self):
        for failed, correct in ((1, False), (1, True), (0, False)):
            with self.assertRaisesRegex(compare.FailedRun, "^b.json: %d of 100" % failed):
                compare.runs_of([("a.json", self.record(1, 0, True)),
                                 ("b.json", self.record(2, failed, correct))])

    def test_a_failed_traced_run_is_refused_too(self):
        with self.assertRaises(compare.FailedRun):
            compare.runs_of([("t.json", self.record(1, 2, False, trace=1))])


if __name__ == "__main__":
    unittest.main()
