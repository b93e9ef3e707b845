#!/usr/bin/env python3
"""Compare two google-benchmark JSON dumps (baseline vs current).

Prints a speedup table (baseline / current: >1 means the current tree
is faster) for every benchmark. Two enforcement levels:

 - Report-only (the default): regressions beyond the tolerance are
   printed loudly but the exit code stays 0, so noisy benchmarks can
   never turn the perf trajectory into a flaky gate.
 - Enforced subset (--enforce NAMES.json): a curated list of stable
   benchmarks whose regression (or disappearance) fails the gate with
   exit 2. Everything outside the list stays report-only.
 - --strict promotes ALL regressions to exit 2 (local use on a quiet
   machine).

Build-context checks (the keys gbench_main.cpp stamps):

 - --require-release exits 3 unless the current dump's context says
   scalo_build_type == Release: debug-adjacent numbers must never
   move a baseline. (The stock "library_build_type" context field
   describes the google-benchmark *library's* build, not the kernels,
   and is ignored here.)
 - When baseline and current were produced under different SIMD modes
   (context key scalo_simd: "wide" vs "scalar", or a baseline old
   enough to carry no stamp at all), the comparison is
   apples-to-oranges by design, so enforcement is downgraded to
   report-only for that run and a note is printed. This keeps the
   enforced gate green on forced-scalar CI builds without masking
   regressions on the matching-mode path.
 - The same downgrade applies when the dumps' num_cpus differ: a
   baseline recorded on another core count measures another machine.

    ci/compare_bench.py BENCH_kernels.json fresh.json \
        --tolerance 0.25 --enforce ci/bench_gate.json --require-release
"""

import argparse
import json
import signal
import sys

signal.signal(signal.SIGPIPE, signal.SIG_DFL)

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_dump(path):
    """Return (name -> real time in ns, context dict).

    With --benchmark_repetitions the dump holds both per-repetition
    entries and aggregates; prefer the median aggregate when present.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    plain, medians = {}, {}
    for entry in data.get("benchmarks", []):
        scale = _UNIT_NS.get(entry.get("time_unit", "ns"), 1.0)
        time_ns = entry["real_time"] * scale
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[entry["run_name"]] = time_ns
        else:
            plain.setdefault(entry["name"], time_ns)
    plain.update(medians)
    return plain, data.get("context", {})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="relative slowdown tolerated before a benchmark is "
        "flagged as regressed (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when any benchmark regressed (default: report only)",
    )
    parser.add_argument(
        "--enforce",
        metavar="NAMES_JSON",
        help="JSON array of benchmark names whose regression fails "
        "the gate (exit 2); benchmarks outside the list stay "
        "report-only",
    )
    parser.add_argument(
        "--require-release",
        action="store_true",
        help="exit 3 unless the current dump was produced by a "
        "Release build (context key scalo_build_type)",
    )
    args = parser.parse_args()

    base, base_ctx = load_dump(args.baseline)
    curr, curr_ctx = load_dump(args.current)

    if args.require_release:
        build = curr_ctx.get("scalo_build_type")
        if build is None:
            print(
                "NOTE: current dump carries no scalo_build_type "
                "context (predates gbench_main.cpp); cannot verify "
                "it is a Release build"
            )
        elif build != "Release":
            print(
                f"REFUSING comparison: current dump was built "
                f"'{build}', not Release — debug-adjacent numbers "
                f"are noise and must not move baselines"
            )
            return 3

    enforced = set()
    if args.enforce:
        with open(args.enforce, "r", encoding="utf-8") as fh:
            enforced = set(json.load(fh))

    # Baselines recorded in one SIMD mode, or on a different CPU
    # count, are not comparable to this run: downgrade enforcement,
    # keep the report.
    mismatches = []
    base_mode = base_ctx.get("scalo_simd")
    curr_mode = curr_ctx.get("scalo_simd")
    if curr_mode is not None and base_mode != curr_mode:
        mismatches.append(
            f"baseline is a "
            f"'{base_mode or 'pre-gate, mode-unstamped'}' build but "
            f"current is '{curr_mode}'"
        )
    base_cpus = base_ctx.get("num_cpus")
    curr_cpus = curr_ctx.get("num_cpus")
    if base_cpus != curr_cpus:
        mismatches.append(
            f"baseline ran on num_cpus={base_cpus} but current on "
            f"num_cpus={curr_cpus}"
        )
    if mismatches and (enforced or args.strict):
        print(
            f"NOTE: {'; '.join(mismatches)}: cross-configuration "
            f"numbers are expected to differ, downgrading to "
            f"report-only for this run"
        )
        enforced = set()
        args.strict = False

    regressed, improved, failing = [], [], []
    print(
        f"{'benchmark':<28} {'baseline':>12} {'current':>12} "
        f"{'speedup':>8}"
    )
    for name in sorted(base):
        gate = "enforced" if name in enforced else ""
        if name not in curr:
            print(f"{name:<28} {base[name]:>10.0f}ns {'MISSING':>12}")
            regressed.append(name)
            if name in enforced:
                failing.append(name)
            continue
        # speedup > 1: the current tree is faster than the baseline.
        speedup = base[name] / curr[name] if curr[name] > 0 else float("inf")
        mark = ""
        if speedup < 1.0 / (1.0 + args.tolerance):
            mark = "  REGRESSED"
            regressed.append(name)
            if name in enforced:
                failing.append(name)
        elif speedup > 1.0 + args.tolerance:
            mark = "  improved"
            improved.append(name)
        print(
            f"{name:<28} {base[name]:>10.0f}ns {curr[name]:>10.0f}ns "
            f"{speedup:>7.2f}x{mark}"
            + (f"  [{gate}]" if gate else "")
        )
    for name in sorted(set(curr) - set(base)):
        print(f"{name:<28} {'NEW':>12} {curr[name]:>10.0f}ns")

    print(
        f"\n{len(regressed)} regressed / {len(improved)} improved "
        f"(tolerance {args.tolerance:.0%}, "
        f"{len(enforced)} benchmarks enforced)"
    )
    if regressed:
        print("regressed:", ", ".join(regressed))
        if args.strict:
            return 2
        if failing:
            print("ENFORCED benchmarks regressed:", ", ".join(failing))
            return 2
        print("(report-only: no enforced benchmark regressed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
