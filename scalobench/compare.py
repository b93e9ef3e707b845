#!/usr/bin/env python3
"""Compare two sets of benchmark results against BENCHMARK.json's bounds.

    python3 scalobench/compare.py BASE_DIR NEW_DIR

Each directory holds the result.json files that run.py writes (one per
run, e.g. ten seeds per workload, under its --out). For every workload
and end-to-end metric it prints the median and quartiles of each side
and a verdict:

  regressed   the new median is worse than the base median by more
              than the metric's bound
  unresolved  the base runs spread wider than the bound, and not every
              new run beats every base run
  ok          otherwise

It refuses to compare (exit 2) when the two sides were measured with a
different CPU count, build type or SIMD mode, since such numbers are
not comparable. Exit 1 when any metric regressed.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STAMP_KEYS = ("nproc", "build_type", "simd", "simd_lanes")


def load(directory):
    runs = []
    for base, _, files in os.walk(directory):
        if "result.json" in files:
            with open(os.path.join(base, "result.json")) as f:
                result = json.load(f)
            if result.get("trace") == 0:
                runs.append(result)
    if not runs:
        sys.exit("compare: no untraced result.json under " + directory)
    return runs


def stamp_of(runs, side):
    stamps = {tuple(r["stamp"].get(k) for k in STAMP_KEYS) for r in runs}
    if len(stamps) != 1:
        print("compare: %s mixes stamps %s" % (side, sorted(stamps)))
        sys.exit(2)
    return stamps.pop()


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    base_stamp, new_stamp = stamp_of(base, "base"), stamp_of(new, "new")
    if base_stamp != new_stamp:
        print("compare: refusing to gate across hosts or builds: %s vs %s"
              % (dict(zip(STAMP_KEYS, base_stamp)),
                 dict(zip(STAMP_KEYS, new_stamp))))
        sys.exit(2)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)

    regressed = False
    for workload in sorted({r["workload"] for r in base + new}):
        b_runs = [r for r in base if r["workload"] == workload]
        n_runs = [r for r in new if r["workload"] == workload]
        if not b_runs or not n_runs:
            print("%s: missing on one side" % workload)
            continue
        print("%s (%d base, %d new runs)" % (workload, len(b_runs),
                                             len(n_runs)))
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            n = [r["metrics"][m["name"]]["value"] for r in n_runs]
            b_med, n_med = statistics.median(b), statistics.median(n)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
            beats = (max(n) < min(b) if m["better"] == "lower"
                     else min(n) > max(b))
            if beats:
                verdict = "ok"  # every new run beats every base run
            elif worse > m["bound"]:
                verdict = "regressed"
                regressed = True
            elif spread(b) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print("  %-16s base %-12.6g new %-12.6g %+7.1f%% worse "
                  "(bound %g%%, base spread %.1f%%)  %s"
                  % (m["name"], b_med, n_med, 100 * worse,
                     100 * m["bound"], 100 * spread(b), verdict))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
