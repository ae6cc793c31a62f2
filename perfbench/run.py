#!/usr/bin/env python3
"""perfbench entry point: build the benchmark package, run one workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
library sources plus the driver into $CARGO_TARGET_DIR (default
.bench_build) with CMake in Release mode; later runs only rebuild what
changed. The driver prints one detail line (every metric with unit,
sample count and tail percentile, the output checks and provenance);
this script prints a summary, the detail line, and as its last line one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (names in BENCHMARK.json). The exit status is nonzero
when the build fails or any output check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["sweep", "stream", "govern"]


def metric_names(kind):
    """Names of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build():
    """Configure (once) and build; returns the driver binary path."""
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isdir(os.path.join(ROOT, "include", "repro"))):
        raise RuntimeError("library sources (src/, include/repro/) not found "
                           "next to " + HERE)
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_driver(binary, workload, seed, seconds, trace, tiny=False):
    """Run the driver once; returns (exit code, detail dict or None)."""
    journal_dir = os.path.join(build_dir(), "journal-%s-%d" % (workload,
                                                               os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
           "--journal-dir", journal_dir, "--git-sha", git_sha()]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170)
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    detail = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            detail = json.loads(line[len("PERFBENCH_RESULT "):])
    return proc.returncode, detail


def summary(detail):
    lines = []
    prov = detail["provenance"]
    lines.append("perfbench %s seed=%s trace=%s  (git %s, %s, %s, nproc %s, "
                 "threads %s)" % (detail["workload"], detail["seed"],
                                  detail["trace"], prov["git_sha"][:12],
                                  prov["compiler"], prov["build_type"],
                                  prov["nproc"], prov["threads"]))
    if not prov["release_build"]:
        lines.append("WARNING: not a Release build; timings are not "
                     "comparable")
    for name, m in detail["metrics"].items():
        pct = " p%g" % m["percentile"] if "percentile" in m else ""
        lines.append("  %-38s %16.6g %-6s n=%d%s" % (
            name, m["value"], m["unit"], m["samples"], pct))
    for c in detail["checks"]:
        status = "ok" if c["failed"] == 0 else "FAILED: " + c["detail"]
        lines.append("  check %-40s %d/%d %s" % (
            c["name"], c["attempted"] - c["failed"], c["attempted"], status))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    code, detail = run_driver(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    if detail is None:
        log("perfbench: the driver printed no result (exit %d)" % code)
        return 1
    print(summary(detail))
    print("PERFBENCH_DETAIL " + json.dumps(detail, sort_keys=True))
    names = metric_names("per_layer" if args.trace else "end_to_end")
    metrics = {}
    for name in names:
        m = detail["metrics"].get(name)
        if m is None:
            log("perfbench: metric %s missing from the driver output" % name)
            return 1
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    correct = code == 0 and detail["failed"] == 0 and all(
        c["failed"] == 0 for c in detail["checks"])
    print(json.dumps({"correct": correct, "attempted": detail["attempted"],
                      "failed": detail["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
