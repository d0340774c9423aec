"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py        # from the root of the checkout

They check that the harness notices what it is there to notice: a
verification failure (through regver's own fault-injection hook), a
garbled golden file, exact counts that do not repeat, and a checkout
without the program.  Scratch files go under `.bench_build/perfbench/`.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BAD_ARGV = ["verify", "goncharov-wang", "--m", "3"]


def golden_of(doc: dict) -> dict:
    return {"envelope": doc["envelope"], "reports": doc["reports"]}


class KnownBadRun(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.good = run.run_cli_pass(ROOT, BAD_ARGV, "selftest-good")
        cls.golden = golden_of(cls.good["doc"])

    def test_honest_run_passes(self):
        self.assertEqual(self.good["exit_code"], 0)
        self.assertEqual(run.check_pass(self.good["doc"], self.golden), (1, []))

    def test_perturbed_run_is_counted_as_failed(self):
        bad = run.run_cli_pass(ROOT, BAD_ARGV + ["--perturb-cjm"], "selftest-bad")
        self.assertEqual(bad["exit_code"], 1)
        self.assertEqual(bad["doc"]["exit_code"], 1)
        attempted, failures = run.check_pass(bad["doc"], self.golden)
        self.assertGreater(len(failures) / attempted, 0)

    def test_garbled_golden_file_is_caught(self):
        path = run.scratch_dir(ROOT) / "selftest-golden.json"
        text = run.canonical(self.golden)
        path.write_text(text, encoding="utf-8")
        self.assertEqual(run.load_golden(path), self.golden)
        # truncated: no longer JSON
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        self.assertIsNone(run.load_golden(path))
        attempted, failures = run.check_pass(self.good["doc"], None)
        self.assertEqual(len(failures), attempted)
        # still JSON, but not in the canonical form the harness writes
        path.write_text(json.dumps(self.golden), encoding="utf-8")
        self.assertIsNone(run.load_golden(path))
        # canonical, but one recorded statistic changed
        edited = json.loads(text)
        edited["reports"][0]["report"]["stats"]["monomials"] += 1
        path.write_text(run.canonical(edited), encoding="utf-8")
        attempted, failures = run.check_pass(self.good["doc"],
                                             run.load_golden(path))
        self.assertEqual(failures, ["goncharov-wang: report differs from golden"])

    def test_committed_golden_files_load(self):
        for w in run.WORKLOADS:
            self.assertIsNotNone(run.load_golden(run.golden_path(w)), w)


class TracedCounts(unittest.TestCase):
    def test_counts_repeat_and_every_metric_is_emitted(self):
        argv = ["all", "--level", "quick"]
        passes = [run.run_cli_pass(ROOT, argv, f"selftest-quick{k}", traced=True)
                  for k in range(2)]
        for p in passes:
            self.assertEqual(p["exit_code"], 0)
        traces = [p["trace"] for p in passes]
        self.assertEqual(run.count_mismatches(traces), [])
        for name in run.EXACT_COUNTS[:3]:
            self.assertGreater(traces[0][1][name], 0, name)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = {m["name"] for m in spec["per_layer"]}
        self.assertEqual(set(run.per_layer(traces, 0.0)), names)
        # a count that moves between the passes is reported
        traces[1][1]["deligne.permutations"] += 1
        self.assertEqual(len(run.count_mismatches(traces)), 1)

    def test_suite_families(self):
        from tracer import suite_family
        sys.path.insert(0, str(ROOT / "src"))
        from regver.cli import suite_plan
        families = {suite_family(key) for key, _ in suite_plan(run.SWEEP_ARGS[2])}
        self.assertEqual(families, set(run.SUITE_FAMILIES))


class Normalization(unittest.TestCase):
    def test_machine_speed_cancels(self):
        # the second pass ran 1.5x slower, and so did the reference
        times = [[1.0, 2.0], [1.5, 3.0]]
        refs = [[0.05, 0.05], [0.075, 0.075]]
        self.assertAlmostEqual(run.normalized_time(times, refs),
                               3.0 * run.REF_NOMINAL_S / 0.05)

    def test_sampler_windows(self):
        from worker import SAMPLE_PERIOD_S, SpeedSampler
        p = SAMPLE_PERIOD_S
        sampler = SpeedSampler()
        sampler.samples = [(0.0, 0.01), (p, p + 0.01), (2 * p, 2 * p + 0.03)]
        # only the sample inside the call is taken out of its time
        self.assertAlmostEqual(sampler.busy(0.5 * p, 1.5 * p), 0.01)
        # a call's reference time is the mean of the samples within one
        # period of it
        self.assertAlmostEqual(sampler.speed(1.5 * p, 1.6 * p), 0.02)
        # far from every sample, the nearest one is used
        self.assertAlmostEqual(sampler.speed(9 * p, 9 * p), 0.03)

    def test_sampler_runs_while_the_main_thread_works(self):
        from worker import SAMPLE_PERIOD_S, SpeedSampler
        with SpeedSampler() as sampler:
            t0 = perf_counter()
            while perf_counter() - t0 < 3 * SAMPLE_PERIOD_S:
                pass
        self.assertGreaterEqual(len(sampler.samples), 2)

    def test_thread_sampler_runs_while_the_main_thread_waits(self):
        from worker import SAMPLE_PERIOD_S
        with run.ThreadSampler() as sampler:
            t0 = perf_counter()
            r = run.run_process([sys.executable, "-c", "import time; "
                                 f"time.sleep({4 * SAMPLE_PERIOD_S})"],
                                ROOT, run.scratch_dir(ROOT) / "selftest.sleep")
        self.assertEqual(r["exit_code"], 0)
        self.assertGreaterEqual(r["span"][0], t0)
        # the samples inside the child's span give its reference time
        self.assertGreater(sampler.speed(*r["span"]), 0)
        # a child too short to hold a sample takes the nearest one
        sampler.samples = [(0.0, 0.01), (1.0, 1.03)]
        self.assertAlmostEqual(sampler.speed(0.9, 0.95), 0.03)


class BareCheckout(unittest.TestCase):
    def test_fails_without_the_program(self):
        bare = run.scratch_dir(ROOT) / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "sweep-full", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, capture_output=True,
                           text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(r.returncode, 0)
        self.assertEqual(r.stdout, "")


if __name__ == "__main__":
    unittest.main()
