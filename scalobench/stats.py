"""Statistics of the repository benchmark, kept apart so they can be tested.

Every rule the benchmark reports by lives here: which percentile a sample
supports, open-loop latency and generator lag, backlog growth on a rate
step, the max_qps ladder rule, failed_frac, and span self time.
"""

import math

# Percentiles the benchmark names, highest first.
STANDARD_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    # ceil(n * pct / 100) in integer tenths of a percent.
    rank = max(1, -(-len(ordered) * round(pct * 10) // 1000))
    return ordered[rank - 1]


def supports(n, pct):
    """Whether n samples leave at least MIN_BEYOND beyond percentile pct."""
    # In tenths of a percent, so 99.9 is exact.
    return n * (1000 - round(pct * 10)) >= MIN_BEYOND * 1000


def tail(values):
    """The highest standard percentile the sample supports.

    Returns (label, value): label is e.g. "p99"; a sample too small for
    any percentile reports its maximum, labelled "max".
    """
    if not values:
        raise ValueError("empty sample")
    for pct in STANDARD_PERCENTILES:
        if supports(len(values), pct):
            return "p%g" % pct, percentile(values, pct)
    return "max", max(values)


def latency_ms(due, seen):
    """Open-loop latency: from when the request was due, not when sent.

    A sender that stalls sends late, and the requests behind the stall
    are charged the wait.
    """
    return seen - due


def lag_ms(due, sent):
    """How late the generator ran for one request (never negative)."""
    return max(0.0, sent - due)


def backlog_growing(times, backlog, offered):
    """Whether a rate step left a growing backlog.

    Compares the mean in-flight count over the last quarter of the step
    with the first quarter; growth beyond max(16, 2% of the requests
    offered in the step) means the server fell behind the offered rate.
    """
    if len(backlog) < 4:
        return False
    quarter = max(1, len(backlog) // 4)
    first = sum(backlog[:quarter]) / quarter
    last = sum(backlog[-quarter:]) / quarter
    return last - first > max(16.0, 0.02 * offered)


def failed_frac(attempted, rejected=0, hung=0, incomplete=0, wrong=0):
    """Share of attempted requests that failed.

    A refused request counts as a miss like a hung, partial or wrong one.
    """
    if attempted <= 0:
        raise ValueError("nothing attempted")
    return (rejected + hung + incomplete + wrong) / attempted


def step_passes(step, limit_ms):
    """The max_qps rule for one ladder step (raw step dict from the run)."""
    lat = step["lat_ms"]
    if step["rejected"] or step["hung"] or step["incomplete"]:
        return False
    if not supports(len(lat), 99.0) or percentile(lat, 99.0) > limit_ms:
        return False
    return not backlog_growing(step["backlog_t"], step["backlog_n"],
                               step["sent"])


def max_qps(steps, limit_ms):
    """Highest offered rate whose p99 meets limit_ms without backlog growth.

    The ladder runs a failing step once more, so a rate passes when any
    of its steps passed; a rate that failed every time gives the lowest
    p99 it showed. The ladder's steps are discrete, so between the
    highest passing rate and the next failing rate above it the rate
    where p99 reaches the limit is interpolated (log p99 linear in
    rate). A rate that failed on backlog or refusals alone gives no
    slope and leaves the passing rate. Returns 0.0 when no step passes.
    """
    by_rate = {}
    for step in steps:
        by_rate.setdefault(step["offered_qps"], []).append(step)
    rated = []
    for rate, group in sorted(by_rate.items()):
        passed = [s for s in group if step_passes(s, limit_ms)]
        p99s = [percentile(s["lat_ms"], 99.0) for s in (passed or group)
                if s["lat_ms"]]
        rated.append((rate, bool(passed), min(p99s) if p99s else None))
    passing = [r for r in rated if r[1]]
    if not passing:
        return 0.0
    rate, _, p99 = max(passing)
    above = [r for r in rated if r[0] > rate and not r[1]]
    if not above:
        return rate
    next_rate, _, next_p99 = min(above)
    if next_p99 is None or next_p99 <= max(p99, limit_ms) or p99 <= 0:
        return rate
    share = ((math.log(limit_ms) - math.log(p99)) /
             (math.log(next_p99) - math.log(p99)))
    return rate + min(1.0, max(0.0, share)) * (next_rate - rate)


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus what children cover.

    spans: list of dicts with start_ns, end_ns, parent (index or -1).
    Children are clipped to their parent's interval. Returns a list of
    self times in nanoseconds, index-aligned with spans.
    """
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[int(span["parent"])]
            start = max(span["start_ns"], parent["start_ns"])
            end = min(span["end_ns"], parent["end_ns"])
            if end > start:
                children[int(span["parent"])].append((start, end))
    return [max(0, s["end_ns"] - s["start_ns"] - _covered(c))
            for s, c in zip(spans, children)]


def layer_of(name):
    """Layer of a span name: the part before the first dot."""
    return name.split(".", 1)[0]
