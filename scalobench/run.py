#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 scalobench/run.py --workload query_serve --seed 1 \\
        --seconds 20 --trace 0 [--out .bench_out]

Run from the repository root. It builds scalobench/ (a CMake project
over the repository's sources) in Release into $CARGO_TARGET_DIR or
.bench_build, runs the workload, checks its outputs, prints every
metric by name and unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, pooled over three processes
of the workload that share the run's seconds; --trace 1 the per-layer
metrics derived from the spans of one traced process. The exit code is 0 only
when every correctness check passed. Files are written only under the
build directory and --out. See scalobench/NOTE.md.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # write nothing next to the sources
import stats  # noqa: E402

ROOT = os.path.dirname(HERE)
WORKLOADS = ("query_serve", "fabric_chaos")
BUILD_TYPE = "Release"
# serve::QueryClass order.
QUERY_CLASSES = ("q1", "q2_hash", "q2_exact", "q3")
# Per-run limit on the measured binaries; the whole run must end in 180 s.
RUN_TIMEOUT_S = 150
# Processes an untraced run splits its seconds over. Each process gets
# its own heap layout and thread placement, which move host times by
# several percent for the whole process; the run pools their samples.
PROCESSES = 3
# Layers each workload leaves idle. A traced run fails unless its spans
# show no call into them, and only then do their declared per-layer
# metrics that the workload does not report read 0.
BYPASSED = {
    "query_serve": ("sched", "sim", "net", "trace"),
    "fabric_chaos": ("serve", "app", "loadgen"),
}
# The repository's validator of exported Chrome traces.
TRACE_VALIDATOR = os.path.join(ROOT, "ci", "validate_trace.py")
# Event kinds the chaos plan must leave in the exported trace.
CHAOS_KINDS = ("fault-injected", "node-down", "node-recovered", "resched",
               "relay-failover", "partition-start", "partition-healed",
               "backbone-restitch")


def fail(message):
    print("scalobench: " + message, file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", default=".bench_out",
                        help="directory for results (default .bench_out)")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [1, 60]")
    return args


def build():
    """Configure once, then (re)build the benchmark binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SCALO sources next to scalobench/ (expected "
             "src/CMakeLists.txt at the repository root)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "scalobench"))
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            step = subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator,
                stdout=log, stderr=subprocess.STDOUT, timeout=600)
            if step.returncode:
                fail("cmake configure failed; see " + log_path)
        step = subprocess.run(
            ["cmake", "--build", build_dir, "--target", "scalobench",
             "--parallel", str(os.cpu_count() or 1)],
            stdout=log, stderr=subprocess.STDOUT, timeout=850)
        if step.returncode:
            fail("build failed; see " + log_path)
    return os.path.join(build_dir, "scalobench")


def source_digest():
    """Content hash of the library sources (checkouts may lack git)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def metric(table, name, value, unit, note=""):
    table[name] = {"value": float(value), "unit": unit, "note": note}


def pooled(raws, key):
    """The samples of key from every process, in one list."""
    return [v for raw in raws for v in raw[key]]


def span_durations(spans, name, scale):
    return [(s["end_ns"] - s["start_ns"]) * scale
            for s in spans if s["name"] == name]


def layer_self_times(spans):
    """Summed self time per layer, in seconds."""
    totals = {}
    for span, own in zip(spans, stats.self_times(spans)):
        layer = stats.layer_of(span["name"])
        totals[layer] = totals.get(layer, 0.0) + own * 1e-9
    return totals


def steps_named(raw, name):
    return [s for s in raw["steps"] if s["name"] == name]


def query_serve_metrics(raws, traced, checks):
    raw = raws[0]
    all_steps = pooled(raws, "steps")
    attempted = sum(s["sent"] for s in all_steps)
    failed = (sum(s["rejected"] + s["hung"] + s["incomplete"]
                  for s in all_steps) + sum(r["wrong"] for r in raws))
    failed_frac = stats.failed_frac(attempted, failed)
    ingest = pooled(raws, "ingest_s")
    ready = statistics.median(ingest)
    # The ladder was steered by the binary's copy of the pass rule.
    limit = raw["latency_limit_ms"]
    differ = [s["offered_qps"] for s in all_steps
              if stats.step_passes(s, limit) != s["passed"]]
    checks.append({"name": "ladder_rule_agrees", "ok": not differ,
                   "detail": "verdicts differ at %s qps" % differ})
    e2e, layer = {}, {}
    if not traced:
        setup = pooled(raws, "setup_s")
        metric(e2e, "setup_s", statistics.median(setup), "s",
               "engine + prefill ingest, median of %d" % len(setup))
        metric(e2e, "peak_rss_mb",
               max(r["peak_rss_kb"] for r in raws) / 1024.0, "MB")
        metric(e2e, "delivered_frac", 1.0 - failed_frac, "ratio",
               "%d requests" % attempted)
        metric(e2e, "ready_s", ready, "s",
               "ingestBatch of %d windows (%.0f windows/s), median of %d"
               % (raw["ingest_windows"], raw["ingest_windows"] / ready,
                  len(ingest)))
        unloaded = [v for r in raws for s in steps_named(r, "unloaded")
                    for v in s["lat_ms"]]
        metric(e2e, "latency_p50_ms", stats.percentile(unloaded, 50), "ms",
               "one request in flight, n=%d" % len(unloaded))
        # One ladder per process; the median of their max_qps.
        ladders = [steps_named(r, "ladder") for r in raws]
        metric(e2e, "capacity_per_s",
               statistics.median(stats.max_qps(l, limit) for l in ladders),
               "1/s", "max_qps: p99 <= %g ms, median of %d ladders of "
               "%s steps" % (limit, len(ladders),
                             "/".join(str(len(l)) for l in ladders)))
        return e2e, layer, attempted, failed

    light, heavy = steps_named(raw, "light")[0], steps_named(raw, "heavy")[0]
    spans = raw["spans"]
    us, ms = 1e-3, 1e-6
    for name, key, scale in (("serve.submit", "serve.submit_us", us),
                             ("serve.queue", "serve.queue_wait_ms", ms),
                             ("serve.handoff", "serve.handoff_ms", ms),
                             ("app.execute", "app.execute_ms", ms)):
        values = span_durations(spans, name, scale)
        unit = "us" if scale == us else "ms"
        metric(layer, key + ".p50", stats.percentile(values, 50), unit)
        metric(layer, key + ".p99", stats.percentile(values, 99), unit,
               "n=%d" % len(values))
    lookups = raw["plan_hits"] + raw["plan_misses"]
    metric(layer, "serve.plan_hit_ratio",
           raw["plan_hits"] / lookups if lookups else 0.0, "ratio")
    counts = raw["layer_counts"]
    metric(layer, "serve.rejected", counts["rejected"], "count")
    n = max(counts["requests"], 1)
    metric(layer, "app.shard_ms.max", counts["shard_ms_max"], "ms")
    for key in ("scanned", "bucket_hits", "dtw_comparisons", "matched"):
        metric(layer, "app." + key, counts[key] / n, "count",
               "per query")
    metric(layer, "app.matched_per_scanned",
           counts["matched"] / max(counts["scanned"], 1), "ratio")
    metric(layer, "app.matched_per_bucket_hit",
           counts["matched"] / max(counts["bucket_hits"], 1), "ratio")
    metric(layer, "app.ingest_us_per_window",
           1e6 * ready / raw["ingest_windows"], "us")
    lag = [v for s in (light, heavy) for v in s["lag_ms"]]
    metric(layer, "loadgen.lag_p99_ms", stats.percentile(lag, 99), "ms")
    metric(layer, "loadgen.backlog_end",
           max(light["backlog_end"], heavy["backlog_end"]), "count")
    metric(layer, "loadgen.failed_frac", failed_frac, "ratio")
    for step in (light, heavy):
        label, tail = stats.tail(step["lat_ms"])
        metric(layer, "loadgen.lat_p99_ms." + step["name"], tail, "ms",
               "%s of n=%d" % (label, len(step["lat_ms"])))
    for step in (light, heavy):
        metric(layer, "loadgen.lat_p50_ms." + step["name"],
               stats.percentile(step["lat_ms"], 50), "ms",
               "%g qps, open loop" % step["offered_qps"])
    for cls, name in enumerate(QUERY_CLASSES):
        lat = [v for v, c in zip(light["lat_ms"], light["class"]) if c == cls]
        metric(layer, "loadgen.lat_p50_ms.light." + name,
               stats.percentile(lat, 50) if lat else 0.0, "ms",
               "n=%d" % len(lat))
    untraced = steps_named(raw, "light_untraced")[0]
    metric(layer, "bench.trace_overhead_ms",
           stats.percentile(light["lat_ms"], 50) -
           stats.percentile(untraced["lat_ms"], 50), "ms",
           "light p50 traced minus untraced")
    return e2e, layer, attempted, failed


def count_kinds(path):
    """Events per "cat" (event kind) of an exported Chrome trace."""
    with open(path, "rb") as f:
        return collections.Counter(
            m.group(1).decode()
            for m in re.finditer(rb'"cat":\s*"([^"]*)"', f.read()))


def chaos_trace_checks(path):
    """Validate the exported chaos trace and look for each fault kind.

    The trace is removed once it passes; a failing one is kept for
    inspection.
    """
    proc = subprocess.run(
        [sys.executable, TRACE_VALIDATOR, path, "--require-fault-events",
         "--require-cluster-events"],
        capture_output=True, text=True, timeout=120)
    checks = [{"name": "trace_valid", "ok": proc.returncode == 0,
               "detail": (proc.stdout + proc.stderr).strip()[-300:]}]
    kinds = count_kinds(path) if os.path.isfile(path) else {}
    for kind in CHAOS_KINDS:
        count = kinds.get(kind, 0)
        checks.append({"name": "trace_has_" + kind, "ok": count > 0,
                       "detail": "%d events" % count})
    if all(c["ok"] for c in checks):
        os.remove(path)
    return checks


def fabric_metrics(raws, traced, checks):
    raw = raws[0]
    # Same seed, same simulation: every process must digest alike. The
    # first process's exported trace stands for all of them.
    digests = sorted({r["sim_digest"] for r in raws})
    checks.append({"name": "sim_digest_across_processes",
                   "ok": len(digests) == 1,
                   "detail": "%d processes: %s" % (len(raws), digests)})
    if raw["trace_path"]:
        checks.extend(chaos_trace_checks(raw["trace_path"]))
        if len(digests) == 1:
            for other in raws[1:]:
                os.remove(other["trace_path"])
    flows = raw["flows"]
    # Each flow counts alike, against the windows it would run on the
    # whole fabric, so a flow left without electrodes lowers it.
    delivered = (statistics.mean(f["completed"] / f["demanded"]
                                 for f in flows) if flows else 0.0)
    simulates = pooled(raws, "simulate_s")
    attempted = len(simulates)
    failed = 0 if all(c["ok"] for c in checks) else attempted
    simulate = statistics.median(simulates)
    e2e, layer = {}, {}
    if not traced:
        setup, deploys = pooled(raws, "setup_s"), pooled(raws, "deploy_s")
        metric(e2e, "setup_s", statistics.median(setup), "s",
               "system + flow set + each flow deployed alone, median of %d"
               % len(setup))
        metric(e2e, "peak_rss_mb",
               max(r["peak_rss_kb"] for r in raws) / 1024.0, "MB")
        metric(e2e, "delivered_frac", delivered, "ratio",
               "modeled, mean over flows of completed / demanded windows: "
               + ", ".join("%s %d/%d" % (f["name"], f["completed"],
                                         f["demanded"]) for f in flows))
        metric(e2e, "ready_s", statistics.median(deploys), "s",
               "deploy (boot ILP solve), median of %d" % len(deploys))
        metric(e2e, "latency_p50_ms", 1e3 * simulate, "ms",
               "simulate of %g simulated ms, median of %d" %
               (raw["simulated_ms"], len(simulates)))
        metric(e2e, "capacity_per_s", raw["events"] / simulate, "1/s",
               "simulated events per host second (%d events)" %
               raw["events"])
        return e2e, layer, attempted, failed

    spans = raw["spans"]
    c = raw["counters"]
    deploys = span_durations(spans, "sched.deploy", 1e-9)
    metric(layer, "sched.deploy_s", statistics.median(deploys), "s")
    metric(layer, "sched.modeled_mbps", raw["modeled_mbps"], "Mbps",
           "modeled")
    metric(layer, "sched.repaired_mbps", raw["repaired_mbps"], "Mbps",
           "modeled, after the last repair")
    metric(layer, "sched.flows_starved", c["flows_starved"], "count",
           "flows that ran no window")
    metric(layer, "sched.repairs", c["repairs"], "count")
    metric(layer, "sched.repair_via_ilp_ratio",
           c["repairs_via_ilp"] / c["repairs"] if c["repairs"] else 0.0,
           "ratio")
    repairs = span_durations(spans, "sched.repair", 1e-6)
    if repairs or not c["repairs"]:
        # Zero only when the run made no repair to replay.
        metric(layer, "sched.repair_ms.p50",
               statistics.median(repairs) if repairs else 0.0, "ms",
               "%d replayed" % len(repairs))
        metric(layer, "sched.repair_ms.max", max(repairs, default=0.0),
               "ms")
    sim_s = statistics.median(span_durations(spans, "sim.simulate", 1e-9))
    metric(layer, "sim.simulate_s", sim_s, "s")
    metric(layer, "sim.events", raw["events"], "count")
    metric(layer, "sim.ns_per_event", 1e9 * sim_s / max(raw["events"], 1),
           "ns")
    for key in ("packets_sent", "retransmissions", "relay_forwards",
                "relay_forwards_dropped", "exchange_timeouts"):
        metric(layer, "sim." + key, c[key], "count")
    metric(layer, "net.corrupted_ratio",
           c["packets_corrupted"] / c["packets_sent"]
           if c["packets_sent"] else 0.0, "ratio")
    metric(layer, "net.detect_latency_ms", c["detect_latency_ms"], "ms",
           "modeled")
    metric(layer, "sim.power_err_max", c["power_err_max"], "ratio",
           "vs the analytic model only")
    metric(layer, "sim.response_err_max", c["response_err_max"], "ratio",
           "vs the analytic model only")
    metric(layer, "trace.bytes", c["trace_bytes"], "B",
           "the facade's exported trace")
    for name in ("trace.record", "trace.export"):
        durations = span_durations(spans, name, 1e-9)
        if durations:
            metric(layer, name + "_s", sum(durations), "s")
    plain = [t for t, on in zip(raw["iteration_s"],
                                raw["iteration_traced"]) if not on]
    spanned = [t for t, on in zip(raw["iteration_s"],
                                  raw["iteration_traced"]) if on]
    metric(layer, "bench.trace_overhead_ms",
           1e3 * (statistics.median(spanned) - statistics.median(plain))
           if plain and spanned else 0.0, "ms",
           "iteration with spans minus without")
    return e2e, layer, attempted, failed


def run_workload(binary, args, out_dir, seconds, timeout):
    """One process of the workload; returns its raw.json."""
    os.makedirs(out_dir)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(seconds), "--trace", str(args.trace),
         "--out", out_dir],
        capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    sys.stdout.write(proc.stdout)
    raw_path = os.path.join(out_dir, "raw.json")
    if proc.returncode or not os.path.isfile(raw_path):
        fail("workload exited with %d" % proc.returncode)
    with open(raw_path) as f:
        return json.load(f)


def main():
    args = parse_args()
    binary = build()
    run_dir = os.path.abspath(os.path.join(
        args.out, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                         args.trace)))
    if os.path.isdir(run_dir):
        shutil.rmtree(run_dir)
    traced = bool(args.trace)
    # A traced run is one process: its spans and probes need no pooling.
    procs = 1 if traced else PROCESSES
    raws = [run_workload(binary, args,
                         run_dir if procs == 1 else
                         os.path.join(run_dir, "p%d" % k),
                         args.seconds / procs, RUN_TIMEOUT_S / procs)
            for k in range(procs)]
    os.makedirs(run_dir, exist_ok=True)
    raw = raws[0]

    derive = (query_serve_metrics if args.workload == "query_serve"
              else fabric_metrics)
    checks = pooled(raws, "checks")
    e2e, layer, attempted, failed = derive(raws, traced, checks)
    reported = layer if traced else e2e

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if traced else "end_to_end"]
    if traced:
        self_s = layer_self_times(raw["spans"])
        bypassed = BYPASSED[args.workload]
        touched = sorted({stats.layer_of(s["name"]) for s in raw["spans"]}
                         & set(bypassed))
        checks.append({"name": "bypassed_layers_idle", "ok": not touched,
                       "detail": "spans in %s" % touched})
        for spec in declared:
            name = spec["name"]
            if name.startswith("self_s."):
                # Measured: no span of the layer sums to zero.
                metric(reported, name,
                       self_s.get(name.split(".", 1)[1], 0.0), "s")
            elif (name not in reported and not touched and
                  stats.layer_of(name) in bypassed):
                metric(reported, name, 0.0, spec["unit"],
                       "layer bypassed: no call into it")
    for spec in declared:
        name = spec["name"]
        if reported.get(name, {}).get("unit") != spec["unit"]:
            checks.append({"name": "reported_" + name, "ok": False,
                           "detail": "missing or in another unit"})
    reported = {spec["name"]: reported[spec["name"]] for spec in declared
                if spec["name"] in reported}
    correct = all(c["ok"] for c in checks) and failed == 0

    stamp = dict(raw["stamp"], commit=commit(), source=source_digest())
    print("stamp " + " ".join("%s=%s" % kv for kv in sorted(stamp.items())))
    for check in checks:
        if not check["ok"]:
            print("FAILED %s %s" % (check["name"], check["detail"]))
    for name, m in reported.items():
        print("%-28s %14.6g %-6s %s" % (name, m["value"], m["unit"],
                                        m.get("note", "")))
    result = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in reported.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(dict(result, stamp=stamp, workload=args.workload,
                       seed=args.seed, trace=args.trace,
                       sim_digest=raw.get("sim_digest", ""),
                       checks=checks), f, indent=1)
    print(json.dumps(result))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
