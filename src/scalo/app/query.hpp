/**
 * @file
 * Interactive human-in-the-loop queries (Sections 2.2 and 6.4):
 * clinicians retrieve recent neural data or verify device behaviour
 * without disrupting the running pipelines.
 *
 *  Q1: return all stored signal windows flagged as seizures;
 *  Q2: return all stored windows whose hash matches a given template
 *      (optionally exact DTW instead of hashes);
 *  Q3: return all data in a time range.
 *
 * The cost model combines the SC/NVM read path, on-node matching, and
 * the external 46 Mbps radio (which Section 6.4 identifies as the
 * bottleneck), plus a fixed dispatch/aggregation overhead calibrated
 * to the paper's 9 QPS at 7 MB / 5% matched.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scalo/signal/distance.hpp"
#include "scalo/util/types.hpp"

namespace scalo::app {

/** The three evaluated query shapes. */
enum class QueryKind
{
    Q1SeizureWindows,
    Q2TemplateMatch,
    Q3TimeRange,
};

/**
 * One interactive query, as a declarative descriptor: every shape
 * the engine can execute is a combination of a time range, an
 * optional seizure-flag filter, and an optional probe template with
 * hash and/or exact-DTW matching. The paper's Q1/Q2/Q3 are the three
 * corners of this space (Q1 = seizure filter, Q2 = probe, Q3 =
 * neither); filters compose, so e.g. "seizure windows shaped like
 * this template" is a single descriptor rather than a new engine
 * method. Built by hand, by the q1()/q2()/q3() shorthands, or
 * lowered from a stream.query(...) program.
 */
struct Query
{
    /** Inclusive capture-time range (us). */
    std::uint64_t t0Us = 0;
    std::uint64_t t1Us = UINT64_MAX;

    /** Keep only windows the resident detector flagged. */
    bool seizureOnly = false;

    /** Probe template; empty means no template matching. */
    std::vector<double> probe;

    /**
     * Exact confirmation threshold for probe matches (in units of
     * the configured @ref confirmMeasure); negative skips exact
     * confirmation and matches on hashes alone.
     */
    double dtwThreshold = -1.0;

    /**
     * Distance used for exact probe confirmation. DTW runs the
     * banded early-abandon kernel per candidate; Euclidean confirms
     * each node's surviving candidates where they are stored, in one
     * signal::euclideanDistanceMany() call per node (the DTW PE with
     * band = 1 degenerates to Euclidean, so the modeled cost is
     * unchanged). Only Dtw and Euclidean are valid here
     * (QueryEngine::accepts()).
     */
    signal::Measure confirmMeasure = signal::Measure::Dtw;

    /**
     * Probe path only: prefilter through the LSH hashes. With the
     * bucket index this touches candidate buckets instead of the
     * whole range; switching it off forces the pre-index full scan
     * (pure DTW when dtwThreshold >= 0, the legacy exact mode).
     */
    bool hashPrefilter = true;

    /**
     * Probe path only: probe the store's bucket index instead of
     * hash-matching a linear scan. Never changes the match set
     * (candidates are confirmed against the full signature); only
     * the windows touched — and therefore the modeled read cost —
     * differ.
     */
    bool useIndex = true;

    /**
     * Per-shard answer deadline on the modeled on-node latency: a
     * shard that cannot answer within it is dropped from the result
     * and the execution reports partial Coverage instead of blocking
     * on a slow or dying node. Zero (the default) waits for every
     * shard.
     */
    units::Millis shardDeadline{0.0};

    /**
     * Canonical form of this descriptor — the normalization contract
     * the plan cache and query dedup are defined on. Two descriptors
     * describe the same execution if and only if their normalized
     * forms are field-for-field equal (equivalently: their cacheKey()
     * bytes are equal). Normalization never changes what a query
     * matches or what its execution costs; it only resets fields the
     * engine would ignore to their defaults so that incidental
     * differences do not defeat caching:
     *
     *  1. Bounds stay as-is; an unset upper bound is already the
     *     defaulted UINT64_MAX ("everything since t0").
     *  2. No probe: the probe-only knobs are inert, so dtwThreshold
     *     := -1, confirmMeasure := Dtw, hashPrefilter := true,
     *     useIndex := true.
     *  3. Probe without exact confirmation (any negative
     *     dtwThreshold): dtwThreshold := -1 (the canonical "hashes
     *     only") and confirmMeasure := Dtw, since the measure is
     *     consulted only when confirming.
     *  4. hashPrefilter off: useIndex := false — the bucket index is
     *     only ever probed on the prefilter path.
     *  5. Non-positive shardDeadline values all mean "wait for every
     *     shard" and normalize to exactly 0.
     */
    Query normalized() const;

    /**
     * Stable byte encoding of normalized() with fixed field ordering
     * (t0Us, t1Us, seizureOnly, probe, dtwThreshold, confirmMeasure,
     * hashPrefilter, useIndex, shardDeadline) — the plan-cache key.
     * Equal keys <=> equivalent queries under the normalization
     * contract above. The encoding contains raw bytes (including
     * NULs); treat it as an opaque map key, not printable text.
     */
    std::string cacheKey() const;

    /** Q1: all seizure-flagged windows in [t0, t1]. */
    static Query
    q1(std::uint64_t t0_us, std::uint64_t t1_us)
    {
        Query query;
        query.t0Us = t0_us;
        query.t1Us = t1_us;
        query.seizureOnly = true;
        return query;
    }

    /**
     * Q2: windows in [t0, t1] matching @p probe_window (hashes, or
     * legacy full-scan DTW when @p dtw_threshold >= 0).
     */
    static Query
    q2(std::uint64_t t0_us, std::uint64_t t1_us,
       std::vector<double> probe_window, double dtw_threshold = -1.0,
       signal::Measure measure = signal::Measure::Dtw)
    {
        Query query;
        query.t0Us = t0_us;
        query.t1Us = t1_us;
        query.probe = std::move(probe_window);
        query.dtwThreshold = dtw_threshold;
        query.confirmMeasure = measure;
        // Legacy exact mode: DTW over the full range, no hashes.
        query.hashPrefilter = dtw_threshold < 0.0;
        return query;
    }

    /** Q3: everything in [t0, t1]. */
    static Query
    q3(std::uint64_t t0_us, std::uint64_t t1_us)
    {
        Query query;
        query.t0Us = t0_us;
        query.t1Us = t1_us;
        return query;
    }
};

/** Query parameters. */
struct QueryConfig
{
    std::size_t nodes = 11;
    /** Total data volume covered by the query, across nodes. */
    units::Megabytes data{7.0};
    /** Fraction of the data matching the predicate (Q1/Q2). */
    double matchedFraction = 0.05;
    /** Q2 only: exact DTW matching instead of hashes. */
    bool exactMatch = false;
};

/** Estimated cost of one query execution. */
struct QueryCost
{
    units::Millis latency{0.0};
    units::Hertz queriesPerSecond{0.0};
    /** Peak per-node power while serving the query. */
    units::Milliwatts power{0.0};
};

/** Evaluate the cost model. */
QueryCost estimateQuery(QueryKind kind, const QueryConfig &config);

/** Human-readable query name. */
const char *queryName(QueryKind kind);

/**
 * Time range of recent recording covered by @p data across
 * @p nodes at the full 96-electrode rate, e.g. 7 MB over 11 nodes is
 * about the last 110 ms (Figure 10's x-axis pairing).
 */
units::Millis timeRangeFor(units::Megabytes data, std::size_t nodes);

/** Fixed dispatch + aggregation overhead, calibrated. */
inline constexpr units::Millis kQueryDispatch{44.0};

/** Per-node query power with hash matching, Section 6.4. */
inline constexpr units::Milliwatts kHashQueryPower{3.57};

/** Per-node query power with exact DTW matching, Section 6.4. */
inline constexpr units::Milliwatts kDtwQueryPower{15.0};

} // namespace scalo::app
