#!/usr/bin/env python3
"""Whole-analysis benchmark entry point.

    python3 perfbench/run.py --workload sc42-cell|wide-host|serve-openloop \\
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source tree.  Builds perfbench/ (and with it the
program's libraries from src/) into .bench_build/perfbench, runs one
workload, and prints two JSON lines on stdout:

  1. {"report": ...}  every metric the run measured, with its unit, the
     output checks and the environment the run ran in (git SHA, build type,
     compiler, nproc, load average, host threads, device model, seed);
  2. the result line: {"correct", "attempted", "failed", "metrics"}, where
     metrics are BENCHMARK.json's end_to_end metrics (--trace 0) or its
     per_layer metrics (--trace 1).

A traced run also writes its spans to .bench_build/perfbench/trace-<workload>.json.
Exits non-zero, without a result line, when the sources are missing, the
build fails, the workload fails or a declared metric is not produced.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sc42-cell", "wide-host", "serve-openloop")
RUN_TIMEOUT_S = 170


def die(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log):
    with open(log, "w") as out:
        done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-40:]
        die(f"{' '.join(map(str, cmd))} failed:\n" + "\n".join(tail))


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no program sources under {ROOT / 'src'}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD / "configure.log")
    run_logged(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                "--target", "rxc_perfbench"], BUILD / "build.log")
    return BUILD / "rxc_perfbench"


def git_sha():
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def check_spans(path):
    """Light check of a traced run's span file: it parses and every
    non-root span's parent exists (the smoke test checks more)."""
    doc = json.loads(Path(path).read_text())
    ids = {s[0] for s in doc["spans"]}
    for span in doc["spans"]:
        if span[1] != 0 and span[1] not in ids:
            die(f"{path}: span {span[0]} has no parent {span[1]}")
    return len(doc["spans"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken inputs (for the benchmark's own test)")
    args = ap.parse_args()

    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        die(f"missing {bench_file}", 2)
    declared = json.loads(bench_file.read_text())
    binary = build()

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_file = BUILD / f"trace-{args.workload}.json"
    if args.trace:
        cmd += ["--trace-out", str(trace_file)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        die(f"{args.workload} exited {done.returncode}:\n{done.stderr}")
    doc = json.loads(done.stdout.strip().splitlines()[-1])

    env = doc["env"]
    env["git_sha"] = git_sha()
    env["loadavg"] = " ".join(f"{x:.2f}" for x in os.getloadavg())
    env["seconds"] = str(args.seconds)
    if args.trace:
        env["spans"] = str(check_spans(trace_file))
        env["trace_file"] = str(trace_file.relative_to(ROOT))
    print(json.dumps({"report": doc}, sort_keys=True))

    wanted = declared["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = doc["metrics"].get(m["name"])
        if got is None:
            die(f"{args.workload} did not report metric {m['name']}")
        if got["unit"] != m["unit"]:
            die(f"metric {m['name']}: unit {got['unit']} != declared {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(doc["correct"]),
                      "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
