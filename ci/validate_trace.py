#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON exported by sim::Trace.

Checks the structural invariants Perfetto / chrome://tracing rely on:

  - top level is an object with a "traceEvents" array
  - every event carries name/ph/ts/pid/tid
  - ph is one of B, E, i, M
  - every event category is a known sim::TraceEventKind name
  - non-metadata timestamps are monotonically non-decreasing (the
    exporter stable-sorts, so any regression here is a real bug)
  - B/E duration events are balanced per (pid, tid) lane
  - node-down / node-recovered instants alternate per node: a node
    cannot die twice without recovering in between, or recover while
    alive (a trailing node-down — a node still dead at the end of the
    run — is fine)
  - partition-start / partition-healed instants alternate per
    cluster (args.id carries the cluster): a cluster cannot be
    declared partitioned twice without healing in between, or heal
    while attached (a trailing partition-start — still severed at
    the end of the run — is fine)
  - every relay-failover is eventually followed by a
    backbone-restitch: a relay hand-off that never re-stitched the
    backbone schedule means the failover path silently lost the
    repair step

The input is read one line at a time, in bounded memory: the exporter
writes the array's opening line, then one event per line (each but the
last followed by a comma), then a closing "]}" line. A document in any
other layout, a malformed line, or a trace cut short fails.

Usage: ci/validate_trace.py trace.json [--require-fault-events]
       [--require-cluster-events]

--require-fault-events additionally fails when the trace holds no
fault-framework events at all; the chaos CI gate passes it so a
refactor can never silently stop exporting the failure story.
"""

import argparse
import json
import sys

# Mirrors sim::traceEventName's 23 kinds; the exporter writes the
# kind into the "cat" field, so an unknown category means the C++
# enum and this validator have drifted apart.
KNOWN_CATEGORIES = {
    "stage-start",
    "stage-finish",
    "packet-tx",
    "packet-rx",
    "packet-corrupt",
    "packet-retransmit",
    "nvm-write",
    "window-drop",
    "window-done",
    "exchange-start",
    "exchange-finish",
    "fault-injected",
    "node-down",
    "node-recovered",
    "exchange-timed-out",
    "resched",
    "relay-forward",
    "backbone-start",
    "backbone-finish",
    "relay-failover",
    "partition-start",
    "partition-healed",
    "backbone-restitch",
}

FAULT_CATEGORIES = {
    "fault-injected",
    "node-down",
    "node-recovered",
    "exchange-timed-out",
    "resched",
}

# Emitted only by the hierarchical (multi-cluster) fabric: relay
# hand-offs into the backbone, the backbone round spans, and the
# partition-tolerance story (failover, partition windows, re-stitch).
CLUSTER_CATEGORIES = {
    "relay-forward",
    "backbone-start",
    "backbone-finish",
    "relay-failover",
    "partition-start",
    "partition-healed",
    "backbone-restitch",
}


def fail(message: str) -> "int":
    print(f"validate_trace: FAIL: {message}", file=sys.stderr)
    return 1


class TraceError(Exception):
    """The document is not a well-formed exported trace."""


def trace_events(handle):
    """Yield the events of the exporter's one-event-per-line layout.

    Raises TraceError on a malformed line, a document in another
    layout, or a trace cut short before its closing line.
    """
    header = handle.readline()
    try:
        top = json.loads(header.rstrip("\n") + "]}")
    except json.JSONDecodeError as err:
        raise TraceError(f"not valid JSON: line 1: {err}") from None
    if not isinstance(top, dict) or top.get("traceEvents") != []:
        raise TraceError("top level must be an object with 'traceEvents'")
    expect_more = None  # None until the first event
    for number, line in enumerate(handle, start=2):
        text = line.rstrip("\n")
        if text == "]}":
            if expect_more:
                raise TraceError(
                    f"not valid JSON: line {number}: ']' after ','"
                )
            for rest in handle:
                if rest.strip():
                    raise TraceError(
                        f"not valid JSON: extra data after line {number}"
                    )
            return
        if expect_more is False:
            raise TraceError(
                f"not valid JSON: line {number}: no ',' before it"
            )
        expect_more = text.endswith(",")
        try:
            event = json.loads(text[:-1] if expect_more else text)
        except json.JSONDecodeError as err:
            raise TraceError(
                f"not valid JSON: line {number}: {err}"
            ) from None
        if not isinstance(event, dict):
            raise TraceError(f"line {number} is not an event object")
        yield event
    raise TraceError("truncated: no closing ']}' line")


def validate(events, args) -> int:
    """Check every invariant over an iterable of events."""
    last_ts = None
    open_spans = {}  # (pid, tid) -> depth
    counts = {}
    cat_counts = {}
    node_dead = {}  # pid -> currently declared dead
    cluster_partitioned = {}  # args.id (cluster) -> currently severed
    failovers_pending_restitch = 0
    index = -1
    for index, event in enumerate(events):
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                return fail(f"event {index} missing '{field}'")
        phase = event["ph"]
        counts[phase] = counts.get(phase, 0) + 1
        if phase not in ("B", "E", "i", "M"):
            return fail(f"event {index} has unknown ph '{phase}'")
        if phase == "M":  # metadata carries no timestamp/category
            continue
        cat = event.get("cat")
        if cat not in KNOWN_CATEGORIES:
            return fail(f"event {index} has unknown cat {cat!r}")
        cat_counts[cat] = cat_counts.get(cat, 0) + 1
        if "ts" not in event:
            return fail(f"event {index} missing 'ts'")
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            return fail(f"event {index} has bad ts {ts!r}")
        if last_ts is not None and ts < last_ts:
            return fail(
                f"event {index} ts {ts} < previous {last_ts} "
                "(export must be time-sorted)"
            )
        last_ts = ts
        lane = (event["pid"], event["tid"])
        if phase == "B":
            open_spans[lane] = open_spans.get(lane, 0) + 1
        elif phase == "E":
            depth = open_spans.get(lane, 0)
            if depth == 0:
                return fail(f"event {index}: 'E' without open 'B' on {lane}")
            open_spans[lane] = depth - 1
        if cat == "node-down":
            if node_dead.get(event["pid"], False):
                return fail(
                    f"event {index}: node {event['pid']} declared "
                    "dead twice without recovering"
                )
            node_dead[event["pid"]] = True
        elif cat == "node-recovered":
            if not node_dead.get(event["pid"], False):
                return fail(
                    f"event {index}: node {event['pid']} recovered "
                    "without a preceding node-down"
                )
            node_dead[event["pid"]] = False
        elif cat == "partition-start":
            cluster = event.get("args", {}).get("id")
            if cluster_partitioned.get(cluster, False):
                return fail(
                    f"event {index}: cluster {cluster} declared "
                    "partitioned twice without healing"
                )
            cluster_partitioned[cluster] = True
        elif cat == "partition-healed":
            cluster = event.get("args", {}).get("id")
            if not cluster_partitioned.get(cluster, False):
                return fail(
                    f"event {index}: cluster {cluster} healed "
                    "without a preceding partition-start"
                )
            cluster_partitioned[cluster] = False
        elif cat == "relay-failover":
            failovers_pending_restitch += 1
        elif cat == "backbone-restitch":
            failovers_pending_restitch = 0

    if index < 0:
        return fail("'traceEvents' must be a non-empty array")
    unbalanced = {lane: d for lane, d in open_spans.items() if d}
    if unbalanced:
        return fail(f"unclosed duration spans: {unbalanced}")
    if failovers_pending_restitch:
        return fail(
            f"{failovers_pending_restitch} relay-failover event(s) "
            "never followed by a backbone-restitch"
        )

    fault_events = sum(cat_counts.get(c, 0) for c in FAULT_CATEGORIES)
    if args.require_fault_events and fault_events == 0:
        return fail(
            "--require-fault-events: no fault-framework events "
            "(fault plan not exported?)"
        )
    cluster_events = sum(
        cat_counts.get(c, 0) for c in CLUSTER_CATEGORIES
    )
    if args.require_cluster_events and cluster_events == 0:
        return fail(
            "--require-cluster-events: no relay/backbone events "
            "(trace not from a multi-cluster run?)"
        )

    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    still_dead = sorted(p for p, dead in node_dead.items() if dead)
    extra = f" fault-events={fault_events}"
    if cluster_events:
        extra += f" cluster-events={cluster_events}"
    if still_dead:
        extra += f" still-dead-pids={still_dead}"
    still_severed = sorted(
        c for c, severed in cluster_partitioned.items() if severed
    )
    if still_severed:
        extra += f" still-partitioned-clusters={still_severed}"
    print(
        f"validate_trace: OK: {index + 1} events ({summary}){extra}"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("trace")
    parser.add_argument(
        "--require-fault-events",
        action="store_true",
        help="fail unless at least one fault-framework event "
        "(fault-injected/node-down/node-recovered/"
        "exchange-timed-out/resched) is present",
    )
    parser.add_argument(
        "--require-cluster-events",
        action="store_true",
        help="fail unless at least one hierarchical-fabric event "
        "(relay-forward/backbone-start/backbone-finish) is "
        "present (the trace must come from a multi-cluster run)",
    )
    args = parser.parse_args()

    with open(args.trace, encoding="utf-8") as handle:
        try:
            return validate(trace_events(handle), args)
        except TraceError as err:
            return fail(str(err))
        except UnicodeDecodeError as err:
            return fail(f"not valid JSON: {err}")


if __name__ == "__main__":
    sys.exit(main())
