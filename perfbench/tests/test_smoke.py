#!/usr/bin/env python3
"""Smoke test of the whole-analysis benchmark: runs every workload in the
shrunken --smoke mode through perfbench/run.py, untraced and traced, and
checks the contract of its output.

    python3 perfbench/tests/test_smoke.py

  * the result line has exactly correct/attempted/failed/metrics, the
    outputs checked correct, and every BENCHMARK.json metric of the mode
    (end_to_end untraced, per_layer traced) is present with its unit;
  * the report line carries the issue's end-to-end metrics that apply to
    the workload, each with its unit, and the environment stamp;
  * the traced run's span file parses, every non-root span's parent exists,
    and the self times of each span tree sum to its root's duration;
  * in a directory holding only BENCHMARK.json and perfbench/, the command
    fails without printing a result line.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# End-to-end metrics of the benchmark's design, per workload (the report
# line carries them all; BENCHMARK.json's end_to_end list is the subset that
# applies to every workload).
REPORTED = {
    "sc42-cell": {"setup_s": "s", "analysis_wall_s": "s", "virtual_s": "vs",
                  "best_lnl": "lnL", "peak_rss_mb": "MiB",
                  "failed_frac": "ratio"},
    "wide-host": {"setup_s": "s", "analysis_wall_s": "s", "best_lnl": "lnL",
                  "peak_rss_mb": "MiB", "failed_frac": "ratio"},
    "serve-openloop": {"setup_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
                       "goodput_jobs_per_s": "jobs/s", "peak_rss_mb": "MiB",
                       "failed_frac": "ratio"},
}
ENV_STAMP = ("git_sha", "build_type", "compiler", "nproc", "loadavg",
             "host_threads", "device", "seed")
# A per-layer metric each workload must exercise (non-zero when traced).
EXERCISED = {
    "sc42-cell": ("cell.virtual_s", "kernel.newview_batch.calls",
                  "sched.signaled_offloads", "search_engine.self_s"),
    "wide-host": ("kernel.newview.calls", "kernel.wall_share",
                  "search.candidate_scores"),
    "serve-openloop": ("serve.jobs", "serve.submit_ms.p50", "serve.verify_ms",
                       "kernel.newview.calls"),
}
IDLE = {"wide-host": ("cell.virtual_s", "cell.dma_bytes", "serve.jobs")}


def run(workload, trace, cwd=ROOT, runner=RUN):
    return subprocess.run(
        [sys.executable, str(runner), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_result(self, workload, trace):
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], lines[0])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = BENCH["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, m["name"])
        report = json.loads(lines[0])["report"]
        for key in ENV_STAMP:
            self.assertIn(key, report["env"])
        return result, report

    def test_untraced_results(self):
        for workload, expected in REPORTED.items():
            with self.subTest(workload=workload):
                _, report = self.check_result(workload, 0)
                for name, unit in expected.items():
                    self.assertIn(name, report["metrics"])
                    self.assertEqual(report["metrics"][name]["unit"], unit)

    def test_traced_results_and_spans(self):
        for workload in REPORTED:
            with self.subTest(workload=workload):
                result, report = self.check_result(workload, 1)
                metrics = result["metrics"]
                for name in EXERCISED[workload]:
                    self.assertGreater(metrics[name]["value"], 0, name)
                for name in IDLE.get(workload, ()):
                    self.assertEqual(metrics[name]["value"], 0, name)
                self.check_spans(ROOT / report["env"]["trace_file"])

    def check_spans(self, path):
        doc = json.loads(path.read_text())
        spans = {s[0]: s for s in doc["spans"]}
        self.assertTrue(spans)
        children = defaultdict(list)
        for sid, parent, name, _group, start, end in doc["spans"]:
            self.assertLess(name, len(doc["names"]))
            self.assertLessEqual(start, end)
            if parent:
                self.assertIn(parent, spans, f"span {sid} lost its parent")
            children[parent].append(sid)

        def self_ns(sid):
            _, _, _, _, start, end = spans[sid]
            covered, reach = 0, start
            for c in sorted(children[sid], key=lambda c: spans[c][4]):
                lo, hi = max(spans[c][4], reach), min(spans[c][5], end)
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, min(spans[c][5], end))
            return end - start - covered

        def tree(sid):
            yield sid
            for c in children[sid]:
                yield from tree(c)

        for root in children[0]:
            total = sum(self_ns(s) for s in tree(root))
            self.assertEqual(total, spans[root][5] - spans[root][4])

    def test_fails_without_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("sc42-cell", 0, cwd=tmp,
                       runner=Path(tmp) / "perfbench" / "run.py")
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
