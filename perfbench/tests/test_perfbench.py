#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests -v

Each workload runs at a tiny size, untraced and traced, and must pass
every output check; a held-out seed is run and checked too. The
workload and metric names are pinned here, so renaming one in
BENCHMARK.json or the driver without changing this file fails. The last
test copies only BENCHMARK.json and perfbench/ into an empty directory
and expects the command to fail there without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402

WORKLOADS = ["sweep", "stream", "govern"]
END_TO_END = ["setup_s", "candidates_per_s", "query_ms_p50", "query_ms_tail",
              "peak_rss_mb"]
# Printed in the detail line (not bounded by BENCHMARK.json).
DETAIL_ONLY = {"sweep": ["failed_ratio"], "govern": ["failed_ratio"],
               "stream": ["failed_ratio", "windows_per_s", "publish_us_p50",
                          "publish_us_tail", "recover_s"]}
PER_LAYER = [
    "engine.predict.us_p50", "engine.predict_batch.parallel_eff",
    "engine.artifact.hit_ratio", "engine.try_apply.us_p50",
    "engine.governor.candidates_per_plan", "engine.governor.overhead_ratio",
    "core.solve.us_p50", "core.solve.iterations_mean",
    "core.solve.fallback_ratio", "core.fill_curve.us_p50",
    "core.fill_curve.builds", "core.rescale.us_p50",
    "core.power_assembly.us_p50", "online.sanitize.us_p50",
    "online.sanitize.quarantine_ratio", "online.builder.us_p50",
    "online.fit.us_p50", "online.resolve.us_p50",
    "online.journal.append_us_p50", "online.journal.sync_us_p50",
    "online.journal.bytes_per_event", "online.power_refit.us_p50",
    "online.power_refit.accept_ratio", "online.recover.events_per_s",
    "online.push.blocked_ratio", "online.backlog.max_windows",
    "trace.query.coverage", "trace.online.coverage", "trace.overhead_ratio",
]
SEED = 11
HELD_OUT_SEED = 7919  # never used while the benchmark was tuned


class NamesPinned(unittest.TestCase):
    def test_benchmark_json_names(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], WORKLOADS)
        self.assertEqual([m["name"] for m in spec["end_to_end"]], END_TO_END)
        self.assertEqual([m["name"] for m in spec["per_layer"]], PER_LAYER)
        self.assertEqual(spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(spec["paths"], ["perfbench"])

    def test_driver_workloads_match(self):
        self.assertEqual(run.WORKLOADS, WORKLOADS)


class TinyWorkloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def run_checked(self, workload, seed, trace):
        code, detail = run.run_driver(self.binary, workload, seed, 1.0, trace,
                                      tiny=True)
        self.assertIsNotNone(detail, "no result line")
        failed = [c for c in detail["checks"] if c["failed"]]
        self.assertEqual(failed, [], "output checks failed")
        self.assertEqual(code, 0)
        self.assertGreater(detail["attempted"], 0)
        self.assertEqual(detail["failed"], 0)
        return detail

    def test_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                d = self.run_checked(w, SEED, 0)
                for name in END_TO_END + DETAIL_ONLY[w]:
                    self.assertIn(name, d["metrics"])
                for name in END_TO_END:
                    self.assertGreater(d["metrics"][name]["value"], 0.0, name)

    def test_traced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                d = self.run_checked(w, SEED, 1)
                for name in PER_LAYER:
                    self.assertIn(name, d["metrics"])

    def test_held_out_seed(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.run_checked(w, HELD_OUT_SEED, 0)

    def test_same_seed_same_inputs(self):
        # The generator is the only consumer of the seed: the stream
        # workload's input counts repeat exactly for one seed.
        a = self.run_checked("stream", SEED, 0)["notes"]
        b = self.run_checked("stream", SEED, 0)["notes"]
        for key in ("windows_delivered", "phase_switches", "dvfs_steps",
                    "faults_injected"):
            self.assertEqual(a[key], b[key], key)


class BareDirectory(unittest.TestCase):
    def test_fails_without_sources(self):
        bare = os.path.join(run.build_dir(), "bare-%d" % os.getpid())
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                            os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", "sweep",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, env=env, capture_output=True, text=True,
                timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
