"""Self-time arithmetic of the span recorder, on a synthetic nested span tree,
and the benchmark's metric definitions.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

import run
from spans import LAYER_METRICS, SpanRecorder, layer_metrics


class FakeClock:
    """Returns the queued timestamps in order."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # root [0, 100]
        #   a [10, 40]
        #     leaf [15, 20]
        #     leaf [25, 35]
        #   b [50, 90]
        #     a [60, 70]
        rec = SpanRecorder(clock=FakeClock(0, 10, 15, 20, 25, 35, 40, 50, 60, 70, 90, 100))
        rec.op = 7
        rec.begin("root")
        rec.begin("a")
        rec.begin("leaf")
        self.assertEqual(rec.end(), 5)
        rec.begin("leaf")
        rec.end()
        self.assertEqual(rec.end(), 30)
        rec.begin("b")
        rec.begin("a")
        rec.end()
        rec.end()
        self.assertEqual(rec.end(), 100)

        # root: 100 - (30 + 40); a: (30 - 15) + 10; leaf: 5 + 10; b: 40 - 10
        self.assertEqual(dict(rec.self_s), {"root": 30, "a": 25, "leaf": 15, "b": 30})
        self.assertEqual(dict(rec.calls), {"root": 1, "a": 2, "leaf": 2, "b": 1})
        self.assertEqual(sum(rec.self_s.values()), 100)
        self.assertEqual(rec.spans, [
            ["root", 0, 100, -1, 7],
            ["a", 10, 40, 0, 7],
            ["leaf", 15, 20, 1, 7],
            ["leaf", 25, 35, 1, 7],
            ["b", 50, 90, 0, 7],
            ["a", 60, 70, 4, 7],
        ])

    def test_keep_cap_does_not_change_self_time(self):
        rec = SpanRecorder(clock=FakeClock(0, 1, 3, 4, 8, 9), keep=2)
        rec.begin("root")
        for _ in range(2):
            rec.begin("child")
            rec.end()
        rec.end()
        self.assertEqual(len(rec.spans), 2)
        self.assertEqual(dict(rec.self_s), {"root": 3, "child": 6})

    def test_layer_metrics_are_means_per_op(self):
        totals = {"solver.solve.s": 3.0, "solver.solve.calls": 6, "solver.armijo.trials": 8,
                  "solver.armijo.accepted": 6, "experiments.lambda_solves": 4,
                  "experiments.warm_won": 1}
        m = layer_metrics(totals, ops=2)
        self.assertEqual(m["solver.solve.s"], 1.5)
        self.assertEqual(m["solver.solve.calls"], 3)
        self.assertEqual(m["solver.armijo.accept_ratio"], 0.75)
        self.assertEqual(m["experiments.warm_won_ratio"], 0.25)
        self.assertEqual(m["cli.main.s"], 0.0)


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_lists_match_the_code(self):
        bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]}, run.E2E_METRICS)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]},
                         LAYER_METRICS)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]), run.WORKLOADS)

    def test_every_workload_is_defined(self):
        sys.path.insert(0, str(run.SRC))
        import workloads
        self.assertEqual(tuple(workloads.WORKLOADS), run.WORKLOADS)


class TailQuantileTest(unittest.TestCase):
    def test_fixed_percentile_per_workload(self):
        self.assertEqual(run.tail_percentile(20), 75.0)   # 40 ops at least
        self.assertEqual(run.tail_percentile(1), 50.0)    # 2 ops at least

    def test_nearest_rank_never_below_upper_median(self):
        self.assertEqual(run.quantile(list(range(1, 21)), 75.0), 15)
        self.assertEqual(run.quantile([5, 1, 3, 2, 4], 50.0), 3)
        self.assertEqual(run.quantile([1, 2, 3, 4], 50.0), 3)
        self.assertEqual(run.quantile([7.0], 75.0), 7.0)

    def test_stats_within_passes_then_median_over_passes(self):
        passes = [[1, 2, 3, 4, 10], [2, 3, 4, 5, 11], [3, 4, 5, 6, 30]]
        self.assertEqual(run.latency_stats(passes, 75.0), (4, 5))
        # single-input workloads: the tail is the median of the ops
        self.assertEqual(run.latency_stats([[1.0], [3.0], [2.0], [9.0]], 50.0), (2.5, 2.5))


if __name__ == "__main__":
    unittest.main()
