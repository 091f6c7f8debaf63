"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks self-time arithmetic on synthetic span trees, that traced and untraced
calls give identical results, that an operation breaking an invariant counts
as failed, and that BENCHMARK.json names the metrics and workloads run.py
prints.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import Tracer, layer_metrics, self_times, under  # noqa: E402
from worker import Runner, process_caches  # noqa: E402
from workloads import WORKLOADS, Op, Workload, check_rector, p_regular_partitions, simples_count  # noqa: E402


def setUpModule():
    run.OUT.mkdir(exist_ok=True)


class SelfTimes(unittest.TestCase):
    def test_synthetic_tree(self):
        # a [0,10] holds b [1,4] and c [5,9]; c holds d [6,7]
        names = ["a", "b", "c", "d"]
        cols = {
            "fid": np.array([0, 1, 2, 3]),
            "parent": np.array([-1, 0, 0, 2]),
            "busy": np.array([10.0, 3.0, 4.0, 1.0]),
        }
        cols.update({k: np.full(4, -1) for k in ("rows", "cols", "pivots", "yielded", "returned", "found")})
        np.testing.assert_allclose(self_times(cols["parent"], cols["busy"]), [3.0, 3.0, 3.0, 1.0])
        m = layer_metrics(names, cols)
        self.assertEqual([m[f"{n}.self_s"] for n in names], [3.0, 3.0, 3.0, 1.0])
        self.assertEqual(m["a.calls"], 1)
        self.assertEqual(under(cols["fid"], cols["parent"], 2).tolist(), [False, False, False, True])

    def test_recursion_and_repeats_sum_per_function(self):
        # f calls f calls g; f's self time is summed over both spans
        names = ["f", "g"]
        cols = {"fid": np.array([0, 0, 1]), "parent": np.array([-1, 0, 1]), "busy": np.array([5.0, 2.0, 0.5])}
        cols.update({k: np.full(3, -1) for k in ("rows", "cols", "pivots", "yielded", "returned", "found")})
        m = layer_metrics(names, cols)
        self.assertEqual((m["f.calls"], m["f.self_s"], m["g.self_s"]), (2, 4.5, 0.5))

    def test_tracer_nesting_and_generators(self):
        tracer = Tracer()

        def leaf(x):
            time.sleep(0.002)
            return x + 1

        wleaf = tracer.wrap("leaf", leaf)

        def gen(n):
            for i in range(n):
                yield wleaf(i)

        wgen = tracer.wrap("gen", gen)

        def outer(n):
            total = 0
            for v in wgen(n):
                time.sleep(0.003)  # consumer work between items is outer's own time
                total += v
            return total

        wouter = tracer.wrap("outer", outer)
        self.assertEqual(wouter(3), 6)
        cols = tracer.arrays()
        names = [tracer.names[f] for f in cols["fid"]]
        self.assertEqual(names, ["outer", "gen", "leaf", "leaf", "leaf"])
        # leaves called while the generator runs hang under the generator span
        self.assertEqual(cols["parent"].tolist(), [-1, 0, 1, 1, 1])
        self.assertEqual(int(cols["yielded"][1]), 3)
        busy_gen = cols["busy"][1]
        self.assertLess(busy_gen, cols["end"][1] - cols["start"][1])
        selfs = self_times(cols["parent"], cols["busy"])
        self.assertAlmostEqual(float(selfs.sum()), float(cols["busy"][0]), places=9)
        self.assertGreater(selfs[0], 0.008)  # three 3 ms sleeps in the consumer


class TracedEqualsUntraced(unittest.TestCase):
    def test_wrapped_function_results(self):
        from functorlab import gf

        rng = np.random.default_rng(7)
        mats = [rng.integers(0, 3, size=(6, 5)) for _ in range(5)]
        plain = [gf.rref_dense(m, 3) for m in mats] + [gf.nullspace(m, 3) for m in mats]
        maps = [f.data for f in gf.enumerate_maps(2, 2, 2)]
        with Tracer():
            self.assertIsNot(gf.rref_dense, gf.rref_dense.__wrapped__)
            traced = [gf.rref_dense(m, 3) for m in mats] + [gf.nullspace(m, 3) for m in mats]
            tmaps = [f.data for f in gf.enumerate_maps(2, 2, 2)]
        self.assertFalse(hasattr(gf.rref_dense, "__wrapped__"))
        for a, b in zip(plain, traced):
            if isinstance(a, tuple):
                np.testing.assert_array_equal(a[0], b[0])
                self.assertEqual(a[1], b[1])
            else:
                np.testing.assert_array_equal(a, b)
        self.assertEqual(maps, tmaps)

    def test_reports_byte_identical(self):
        from functorlab import cli

        wl = Workload("small", (
            Op(tuple("--builtin representable --u-dim 0 --cap 3 --n-max 1 enumerate-simples".split()),
               lambda doc: []),
            Op(tuple("--builtin representable --u-dim 1 --cap 3 rector".split()), lambda doc: []),
        ))
        tmp = Path(tempfile.mkdtemp(dir=run.OUT))
        try:
            runner = Runner(cli, wl, seed=3, tmp=tmp)
            self.assertIsNotNone(runner.run_pass("untraced"))
            with Tracer() as tracer:
                self.assertIsNotNone(runner.run_pass("traced"))
        finally:
            shutil.rmtree(tmp)
        self.assertEqual((runner.attempted, runner.failed), (4, 0))
        self.assertGreater(len(tracer.fid), 0)


class CachesCleared(unittest.TestCase):
    def test_each_call_starts_with_empty_caches(self):
        from functorlab import cli, gf

        self.assertIn(gf.general_linear, process_caches())
        gf.general_linear(2, 1)
        # a group computation does not build element categories, so it leaves the cache empty
        op = Op(tuple("--p 3 simples-of-group --group sym:2".split()), lambda doc: [])
        tmp = Path(tempfile.mkdtemp(dir=run.OUT))
        try:
            self.assertEqual(Runner(cli, Workload("gl", (op,)), seed=0, tmp=tmp).run_op(0)[3], [])
        finally:
            shutil.rmtree(tmp)
        self.assertEqual(gf.general_linear.cache_info().currsize, 0)


class FailureCounting(unittest.TestCase):
    def _run(self, ops):
        from functorlab import cli

        tmp = Path(tempfile.mkdtemp(dir=run.OUT))
        try:
            runner = Runner(cli, Workload("broken", tuple(ops)), seed=0, tmp=tmp)
            elapsed = runner.run_pass("cold")
        finally:
            shutil.rmtree(tmp)
        return runner, elapsed

    def test_broken_invariant_counts_as_failed(self):
        # the rank-one base at cap 3 has fewer than 5 regular classes
        runner, elapsed = self._run([Op(tuple("--builtin representable --u-dim 1 --cap 3 rector".split()),
                                        check_rector)])
        self.assertEqual((runner.attempted, runner.failed), (1, 1))
        self.assertIsNone(elapsed)
        self.assertIn("classes", runner.failures[0])

    def test_error_exit_counts_as_failed(self):
        runner, elapsed = self._run([
            Op(tuple("--p 3 simples-of-group --group bogus:1".split()), lambda doc: []),
            Op(tuple("--builtin representable --u-dim 1 --cap 3 rector".split()), lambda doc: []),
        ])
        self.assertEqual((runner.attempted, runner.failed), (2, 1))
        self.assertIsNone(elapsed)
        self.assertIn("exit code 2", runner.failures[0])


class Definitions(unittest.TestCase):
    def test_partition_counts(self):
        self.assertEqual([p_regular_partitions(n, 2) for n in range(7)], [1, 1, 1, 2, 2, 3, 4])
        self.assertEqual(p_regular_partitions(5, 3), 5)
        self.assertEqual((simples_count(2, 3), simples_count(3, 2)), (5, 4))

    def test_benchmark_json_matches_run(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in doc["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, run.PER_LAYER)
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])


if __name__ == "__main__":
    unittest.main()
