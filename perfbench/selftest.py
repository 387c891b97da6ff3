"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric prints with its unit and matches BENCHMARK.json,
that spans nest inside their parents with non-negative self time, that
counters repeat exactly across two traced runs, that a wrong answer counts
as a failure, and that timings scale by the calibrations next to them.
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "prism3d": 8,
    "random3d": 12,
    "random2d": 12,
    "verify3d": 12,
}
SECONDS = 0.2
SEED = 5


def tiny(name):
    return workloads.WORKLOADS[name].with_size(TINY[name], pool=2)


def run_main(name, trace, out_dir):
    """bench.main on the tiny workload; returns (exit code, stdout lines)."""
    stdout = io.StringIO()
    with mock.patch.dict(bench.WORKLOADS, {name: tiny(name)}), \
            mock.patch.object(bench, "OUT", Path(out_dir)), \
            mock.patch.object(bench, "SETUP_REPEATS", 2), \
            contextlib.redirect_stdout(stdout):
        code = bench.main(["--workload", name, "--seed", str(SEED),
                           "--seconds", str(SECONDS), "--trace", str(trace)])
    return code, stdout.getvalue().splitlines()


def traced(name, workdir):
    return bench.run_traced(tiny(name), SEED, SECONDS, Path(workdir))


class BenchmarkSelfTest(unittest.TestCase):

    def test_metrics_print_with_units_and_match_the_manifest(self):
        manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in manifest[key]}
            for name in TINY:
                with self.subTest(workload=name, trace=trace), \
                        tempfile.TemporaryDirectory() as out:
                    code, lines = run_main(name, trace, out)
                    self.assertEqual(code, 0, lines)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     declared)
                    for metric, unit in declared.items():
                        self.assertTrue(any(line.split()[:1] == [metric]
                                            and line.split()[2] == unit
                                            for line in lines), (metric, lines))
                    if trace == 0:
                        self.assertTrue(any(line.split()[:1] == ["failed_ratio"]
                                            for line in lines))
                        for metric in declared:
                            self.assertGreater(result["metrics"][metric]["value"], 0)
                    env = json.loads(next(Path(out).glob("*.json")).read_text())["environment"]
                    for field in ("python", "cpu_count", "loadavg_before", "loadavg_after",
                                  "git_head", "seed", "samples"):
                        self.assertIn(field, env)

    def test_spans_nest_with_non_negative_self_time(self):
        for name in TINY:
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as tmp:
                originals = [getattr(m, a) for m, a, _ in tracing.TARGETS]
                tracer = traced(name, tmp)[-1]
                self.assertEqual(originals, [getattr(m, a) for m, a, _ in tracing.TARGETS])
                spans = tracer.spans
                self.assertTrue(spans)
                for solve, _, start, end, parent in spans:
                    self.assertLessEqual(start, end)
                    if parent >= 0:
                        p_solve, _, p_start, p_end, _ = spans[parent]
                        self.assertEqual(p_solve, solve)
                        self.assertLessEqual(p_start, start)
                        self.assertLessEqual(end, p_end)
                roots = [s for s in spans if s[4] < 0]
                self.assertTrue(all(s[1] == tracing.ROOT for s in roots))
                for per_name in tracer.per_solve():
                    for total, self_s, calls in per_name.values():
                        self.assertGreaterEqual(self_s, 0.0)
                        self.assertGreaterEqual(total, self_s)
                        self.assertGreater(calls, 0)

    def test_counters_repeat_exactly(self):
        counters = [m for m, unit in bench.units("per_layer").items() if unit == "count"]
        for name in TINY:
            with self.subTest(workload=name):
                runs = []
                for _ in range(2):
                    with tempfile.TemporaryDirectory() as tmp:
                        runs.append(traced(name, tmp)[0])
                self.assertEqual({m: runs[0][m] for m in counters},
                                 {m: runs[1][m] for m in counters})
                calls = runs[0]["exact.primitive_vector.calls"]
                if name == "random3d":
                    self.assertEqual(calls, 0)
                elif name in ("prism3d", "random2d"):
                    self.assertGreater(calls, 0)

    def test_wrong_reference_counts_as_failure(self):
        wrong = {"sq": Fraction(12345), "count": -1}
        for name in ("prism3d", "random3d"):
            with self.subTest(workload=name), tempfile.TemporaryDirectory() as out, \
                    mock.patch.object(workloads.Workload, "reference", return_value=wrong):
                code, lines = run_main(name, 0, out)
                result = json.loads(lines[-1])
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_reference_clock_scales_by_the_adjacent_calibrations(self):
        ref = refclock.REFERENCE_S
        with mock.patch.object(refclock, "calibrate", side_effect=[ref / 2, ref * 3 / 2, ref * 3]):
            clock = refclock.ReferenceClock()
            self.assertAlmostEqual(clock.scale(1.0), 1.0)  # mean of ref/2 and 3ref/2
            self.assertAlmostEqual(clock.scale(0.9), 0.9 / 2.25)  # mean of 3ref/2 and 3ref
        self.assertGreater(refclock.calibrate(), 0.0)

    def test_self_checking_run_fails_on_oracle_mismatch_or_charging_excess(self):
        good = {"exit_code": 0, "oracle_match": True, "charging": (4, 2)}
        self.assertIsNone(workloads.check(good, None))
        self.assertIsNotNone(workloads.check({**good, "exit_code": 4, "oracle_match": False}, None))
        self.assertIsNotNone(workloads.check({**good, "charging": (5, 2)}, None))
        self.assertIsNotNone(workloads.check({**good, "charging": (4, 3)}, None))
        self.assertIsNotNone(workloads.check({"seconds": 0.1, "error": "boom"}, None))


if __name__ == "__main__":
    unittest.main()
