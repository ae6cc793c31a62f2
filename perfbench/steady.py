#!/usr/bin/env python3
"""Steadiness tool: run each workload N times and report the spread.

    python3 perfbench/steady.py [--runs 10] [--seconds 30]
                                [--workloads sweep,govern] [--seed-base 1000]

Every run uses another seed (seed-base, seed-base+1, ...). For every
end-to-end metric the driver prints, it reports the median and the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median. A metric with a bound in BENCHMARK.json is flagged
when its spread exceeds the bound and marked "~" when it exceeds a third
of it. The exit status is nonzero when a run fails or a metric is
flagged.
"""
import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def benchmark_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--seed-base", type=int, default=1000)
    args = ap.parse_args(argv)

    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    binary = run.build()
    limit = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bad = False
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            code, detail = run.run_driver(binary, workload, args.seed_base + i,
                                          args.seconds, 0)
            if code != 0 or detail is None:
                print("%s seed %d FAILED (exit %d)" % (
                    workload, args.seed_base + i, code))
                bad = True
                continue
            for name, m in detail["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("%s (%d runs, %gs each)" % (workload, args.runs, args.seconds))
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf") if q3 > q1 else 0.0
            bound = limit.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "FLAG"
                    bad = True
                elif spread > bound / 3:
                    flag = "~"
            print("  %-26s median %14.6g  q1 %14.6g  q3 %14.6g  spread %6.3f"
                  "  bound %s %s" % (name, q2, q1, q3, spread,
                                     "-" if bound is None else bound, flag))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
