"""Self-tests of the host-cost benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of a checkout; the first test builds the benchmark
(as run.py does) if it is not built yet.  Smoke-scale runs keep the
whole suite around a minute.
"""

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402  (perfbench/run.py)

SEED = 5
SCRATCH = run.OUT_DIR / "selftest"


def run_bench(*args):
    """(exit code, stdout lines) of run.py with the given arguments."""
    proc = subprocess.run([sys.executable, str(HERE.parent / "run.py"),
                           *args], capture_output=True, text=True,
                          cwd=run.ROOT, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def smoke_result(workload, trace, *extra):
    code, lines = run_bench("--workload", workload, "--seed", str(SEED),
                            "--seconds", "1", "--trace", str(trace),
                            "--scale", "smoke", *extra)
    if code != 0:
        raise AssertionError(f"run.py exited {code}")
    return json.loads(lines[-1])


class SmokeRun(unittest.TestCase):
    """A smoke-sized run prints exactly the names BENCHMARK.json lists."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads(run.BENCHMARK_JSON.read_text())

    def test_workload_names(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def check(self, workload, trace, section):
        result = smoke_result(workload, trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in self.spec[section]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, expected)
        return result

    def test_end_to_end_names(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, 0, "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_names_and_trace_file(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1, "per_layer")
                trace = run.OUT_DIR / f"trace-{workload}-seed{SEED}.json"
                events = json.loads(trace.read_text())["traceEvents"]
                self.assertTrue(any(e["name"] == "round" for e in events))


class CorrectnessGate(unittest.TestCase):

    def test_tampered_reference_fails(self):
        doc = run.invoke(run.build(), [
            "run", "--workload", "tail_mg1", "--seed", str(SEED),
            "--scale", "smoke", "--workers", "2", "--seconds", "1",
            "--rounds", "2"])
        reference = run.load_json(run.REFERENCE)
        self.assertEqual(run.account(doc, reference), (24, 0, {}))

        tampered = copy.deepcopy(reference)
        table = tampered["scales"]["smoke"]["tail_mg1"][str(SEED % 16)]
        table[sorted(table)[0]] = "0" * 32
        attempted, failed, reasons = run.account(doc, tampered)
        self.assertEqual((attempted, failed), (24, 2))
        self.assertEqual(reasons, {"digest differs from reference": 2})

    def test_unconverged_run_counts_as_failed(self):
        binary = run.build()
        doc = run.invoke(binary, [
            "run", "--workload", "tail_mg1", "--seed", str(SEED),
            "--scale", "smoke", "--workers", "2", "--seconds", "1",
            "--rounds", "1", "--max-batches", "8",
            "--relative-error", "1e-9"])
        attempted, failed, reasons = run.account(
            doc, run.load_json(run.REFERENCE))
        self.assertEqual(failed, attempted)
        self.assertEqual(reasons,
                         {"not converged within max_batches": attempted})

    def test_no_result_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.BENCHMARK_JSON, bare / "BENCHMARK.json")
        shutil.copytree(HERE.parent, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tail_mg1",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


class CompareRule(unittest.TestCase):
    """The same-host comparison rules on synthetic run sets."""

    BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(self):
        change = [v * 0.9 for v in self.BASE]
        row = run.compare_metric(self.BASE, change, "lower", 0.2)
        self.assertEqual(row["verdict"], "gain")
        self.assertEqual(row["change_wins"], 10)

        # Eight wins of ten is not enough, however large the gap.
        mixed = change[:8] + [v * 1.2 for v in self.BASE[8:]]
        row = run.compare_metric(self.BASE, mixed, "lower", 0.2)
        self.assertNotEqual(row["verdict"], "gain")

        # Ten wins by less than the parent's IQR is not a gain either.
        tiny = [v - 0.01 for v in self.BASE]
        row = run.compare_metric(self.BASE, tiny, "lower", 0.2)
        self.assertEqual(row["verdict"], "no regression")

    def test_regression_beyond_the_bound(self):
        worse = [v * 1.3 for v in self.BASE]
        self.assertEqual(
            run.compare_metric(self.BASE, worse, "lower", 0.2)["verdict"],
            "regression")
        higher_better = run.compare_metric(self.BASE, worse, "higher", 0.2)
        self.assertEqual(higher_better["verdict"], "gain")

    def test_gain_needs_ten_pairs(self):
        row = run.compare_metric(self.BASE[:9], [v * 0.5 for v in self.BASE[:9]],
                                 "lower", 0.2)
        self.assertEqual(row["change_wins"], 9)
        self.assertNotEqual(row["verdict"], "gain")
        row = run.compare_metric([100.0], [50.0], "lower", 0.2)
        self.assertNotEqual(row["verdict"], "gain")

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 65.0, 135.0, 75.0, 125.0]
        row = run.compare_metric(self.BASE, noisy, "lower", 0.1)
        self.assertEqual(row["verdict"], "unresolved")

    SPEC = json.loads(run.BENCHMARK_JSON.read_text())

    def record(self, seed, value, host="a"):
        return {"workload": "tail_mg1", "seed": seed, "trace": 0,
                "failed": 0, "fingerprint": {"cpu_model": host},
                "metrics": {m["name"]: {"value": value}
                            for m in self.SPEC["end_to_end"]}}

    def test_fingerprint_mismatch_is_refused(self):
        same = run.compare([self.record(s, 1.0) for s in range(3)],
                           [self.record(s, 1.0) for s in range(3)], self.SPEC)
        self.assertEqual(len(same), len(self.SPEC["end_to_end"]))
        with self.assertRaises(run.BenchError):
            run.compare([self.record(1, 1.0)], [self.record(1, 1.0, "b")],
                        self.SPEC)

    def test_runs_pair_by_seed(self):
        # File order does not matter: seed 1 pairs with seed 1.
        base = [self.record(s, 100.0 + 10 * s) for s in range(10)]
        change = [self.record(s, 95.0 + 10 * s) for s in reversed(range(10))]
        better = {m["name"]: m["better"] for m in self.SPEC["end_to_end"]}
        for row in run.compare(base, change, self.SPEC):
            self.assertEqual(row["change_wins"],
                             10 if better[row["metric"]] == "lower" else 0)

        # Different seeds, a missing run or a repeated seed is refused.
        for other in ([self.record(s + 1, 1.0) for s in range(10)],
                      [self.record(s, 1.0) for s in range(9)],
                      [self.record(s % 9, 1.0) for s in range(10)]):
            with self.subTest(seeds=[r["seed"] for r in other]):
                with self.assertRaises(run.BenchError):
                    run.compare(base, other, self.SPEC)


if __name__ == "__main__":
    unittest.main()
