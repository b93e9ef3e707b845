/**
 * @file
 * Executable interactive queries (Section 6.4): unlike the cost model
 * in query.hpp, the QueryEngine actually runs queries against data
 * stored on every node's SignalStore, returning the matched windows
 * alongside the modeled latency (NVM reads, per-window matching, and
 * the external-radio transfer of whatever actually matched). Queries
 * run concurrently with the resident pipelines and must not disturb
 * them — which is why they lean on hashes instead of exact scans.
 *
 * Every query is one declarative Query descriptor handed to
 * execute(). Execution is sharded: each node's store is scanned (or
 * bucket-probed) by a worker from a shared pool, per-node partials
 * carry their own QueryStats, and the merge is deterministic —
 * sorted by timestamp, ties broken by node — so the result is
 * bit-identical whichever parallelism the pool runs at.
 *
 * For the serving runtime the engine additionally separates per-query
 * setup from execution — compile() normalizes a descriptor and hashes
 * its probe into an immutable CompiledQuery the serve-layer plan
 * cache shares across submissions — and executes whole batches:
 * executeBatch() gathers candidates for every in-flight query per
 * node shard and coalesces their deferred Euclidean confirmations
 * into one batched distance-kernel sweep, returning results
 * bit-identical to one-at-a-time execution.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "scalo/app/query.hpp"
#include "scalo/app/store.hpp"
#include "scalo/lsh/hasher.hpp"
#include "scalo/net/cluster.hpp"
#include "scalo/util/thread_pool.hpp"

namespace scalo::app {

/** Per-node execution metrics for one query. */
struct QueryStats
{
    NodeId node = 0;
    /** Windows actually touched (read through the SC). */
    std::size_t scanned = 0;
    /** Windows surfaced by the bucket index (0 on scan paths). */
    std::size_t bucketHits = 0;
    /** Exact DTW comparisons run on this node. */
    std::size_t dtwComparisons = 0;
    /** Windows this node contributed to the result. */
    std::size_t matched = 0;
    /** Host wall-clock spent in this node's shard. */
    units::Millis wall{0.0};
    /** Modeled on-node latency: SC reads + matching. */
    units::Millis modeled{0.0};
    /**
     * Whether this shard's answer made it into the result (false for
     * nodes marked down and shards over the query's deadline).
     */
    bool answered = true;
};

/**
 * One cluster's slice of a query's shard fan-out. Only present when
 * the engine was handed a ClusterPlan: the fabric's failure domains
 * are clusters, so callers triaging a partial answer want to know
 * *which* cluster went dark, not just how many shards did.
 */
struct ClusterCoverage
{
    std::size_t cluster = 0;
    std::size_t answeredShards = 0;
    std::size_t totalShards = 0;

    bool complete() const { return answeredShards == totalShards; }
};

/** How much of the shard fan-out contributed to the answer. */
struct Coverage
{
    std::size_t answeredShards = 0;
    std::size_t totalShards = 0;
    /**
     * Per-cluster tallies in cluster-id order; empty unless the
     * engine has a cluster plan. Sums match the flat counts.
     */
    std::vector<ClusterCoverage> clusters;

    bool complete() const { return answeredShards == totalShards; }

    double
    fraction() const
    {
        return totalShards ? static_cast<double>(answeredShards) /
                                 static_cast<double>(totalShards)
                           : 1.0;
    }
};

/** The result of executing one query over the distributed stores. */
struct QueryExecution
{
    /**
     * Matched windows across all nodes (pointers into the stores),
     * sorted by timestamp, ties in node order.
     */
    std::vector<const StoredWindow *> matches;
    /** Windows touched across all nodes. */
    std::size_t scanned = 0;
    /** Modeled end-to-end latency. */
    units::Millis latency{0.0};
    /** Bytes shipped through the external radio. */
    std::size_t transferBytes = 0;
    /** Host wall-clock for the whole execution. */
    units::Millis wall{0.0};
    /** One entry per node, in node order. */
    std::vector<QueryStats> perNode;
    /** Shards answered vs. asked; partial under faults/deadlines. */
    Coverage coverage;

    double
    matchedFraction() const
    {
        return scanned ? static_cast<double>(matches.size()) /
                             static_cast<double>(scanned)
                       : 0.0;
    }
};

/** The distributed query processor. */
class QueryEngine
{
  public:
    /**
     * @param nodes           implant count
     * @param window_samples  analysis window length
     * @param seed            hash-family seed (must match ingest-side)
     * @param store_windows   ring capacity of every node's store
     */
    QueryEngine(std::size_t nodes, std::size_t window_samples,
                std::uint64_t seed = 7,
                std::size_t store_windows = 8'192);

    /**
     * Ingest one window on one node (hashes + stores it).
     *
     * @pre no executeBatch()/execute() call is in flight on this
     *      engine: the stores must be quiescent while queries read
     *      them (checked where contracts are compiled in).
     */
    void ingest(NodeId node, std::uint64_t timestamp_us,
                ElectrodeId electrode,
                const std::vector<double> &window,
                bool seizure_flagged);

    /** One window of an ingest batch (the arguments of ingest()). */
    struct IngestWindow
    {
        std::uint64_t timestampUs = 0;
        ElectrodeId electrode = 0;
        std::vector<double> samples;
        bool seizureFlagged = false;
    };

    /**
     * Ingest many windows on one node in one call: all signatures
     * are computed through one batched lsh::WindowHasher::hashMany()
     * sweep (one reusable scratch instead of a table allocation per
     * window), then the windows are appended in order. Store state
     * afterwards is identical to the equivalent sequence of
     * ingest() calls. Same quiescence precondition as ingest().
     */
    void ingestBatch(NodeId node, std::vector<IngestWindow> windows);

    /**
     * A query compiled for this engine: the normalized descriptor
     * plus the precomputed probe signature. Compilation is the
     * per-query setup work worth caching across submissions —
     * normalization and the LSH hash of the probe template — and a
     * CompiledQuery is immutable and engine-independent thereafter,
     * so one instance may be shared by any number of concurrent
     * executions (the serve-layer plan cache does exactly that).
     */
    struct CompiledQuery
    {
        /** The normalized descriptor (Query::normalized()). */
        Query query;
        /** Probe signature; default-constructed when no probe. */
        lsh::Signature probeHash;
    };

    /**
     * Validate @p query (range, probe size, confirm measure) and
     * compile it: normalize the descriptor and hash the probe.
     */
    CompiledQuery compile(const Query &query) const;

    /** Execute one query descriptor across all nodes. */
    QueryExecution execute(const Query &query) const;

    /** Execute a precompiled query (skips normalize + probe hash). */
    QueryExecution execute(const CompiledQuery &compiled) const;

    /**
     * Execute several queries as one cross-query batch: every node
     * shard gathers candidates for all queries in one pass,
     * deduplicates the confirmation candidates of every query on
     * that node into one SoA signal::WindowBatch (SignalStore
     * gather), and resolves the deferred Euclidean confirmations
     * through a single signal::euclideanDistanceBatch() sweep over
     * it (queries deduplicated onto the same CompiledQuery share
     * one coalesced kernel call). Results are returned in input
     * order and are bit-identical to executing each query alone —
     * batching changes wall-clock, never answers.
     *
     * Entries may repeat (the same plan submitted by several
     * tenants); repeated pointers are executed once and the
     * execution is replicated into each matching output slot.
     */
    std::vector<QueryExecution>
    executeBatch(const std::vector<const CompiledQuery *> &batch)
        const;

    /** Convenience overload: compiles (deduplicating equivalent
     *  descriptors via Query::cacheKey()) then batch-executes. */
    std::vector<QueryExecution>
    executeBatch(const std::vector<Query> &queries) const;

    /**
     * Runners fanning node shards out, the calling thread included
     * (threads - 1 workers; 1 = sequential), as util::ThreadPool's
     * width. The merge is deterministic, so this only changes
     * wall-clock.
     */
    void setParallelism(std::size_t threads);
    std::size_t parallelism() const { return threads; }

    /** Per-node store access. */
    const SignalStore &store(NodeId node) const;

    /**
     * Mark a node down (or back up): down shards are skipped at
     * dispatch and the execution reports partial coverage. Mirrors
     * the runtime's failure detector into the query path. The flags
     * are atomic, so a chaos driver may flip nodes while executions
     * are in flight; each execution observes each flag once, at its
     * own dispatch.
     */
    void setNodeDown(NodeId node, bool down = true);
    bool nodeDown(NodeId node) const;

    /**
     * Teach the engine the fabric's cluster partition. Executions
     * thereafter report cluster-granular Coverage, and whole clusters
     * may be marked unreachable with setClusterDown(). The plan must
     * partition exactly nodeCount() nodes.
     */
    void setClusterPlan(net::ClusterPlan plan);
    const net::ClusterPlan &clusterPlan() const { return plan; }

    /**
     * Mark every shard of @p cluster unreachable (or reachable
     * again): a backbone partition takes a whole cluster out of the
     * query fan-out at once, and its queries degrade to
     * prefix-consistent partial results instead of timing out.
     * Requires a cluster plan. Atomic like setNodeDown(); each batch
     * samples every cluster flag once, at dispatch, so all queries in
     * a batch see the same shard population.
     */
    void setClusterDown(std::size_t cluster, bool down = true);
    bool clusterDown(std::size_t cluster) const;

    std::size_t nodeCount() const { return stores.size(); }

    /**
     * executeBatch() calls currently running on this engine, the
     * count behind ingest()'s quiescence check. Always 0 where
     * contracts are compiled out: Release builds do not count.
     */
    std::size_t executionsInFlight() const;

    /** Analysis-window length queries must match. */
    std::size_t windowSampleCount() const { return windowSamples; }

    const lsh::WindowHasher &hasher() const { return windowHasher; }

  private:
    /** One node's shard: matches (timestamp-sorted) plus stats. */
    struct NodePartial
    {
        std::vector<const StoredWindow *> matches;
        QueryStats stats;
        /** Candidates awaiting batched Euclidean confirmation. */
        std::vector<const StoredWindow *> confirm;
    };

    /**
     * Scan/probe one node: fills matches for every path except the
     * deferred Euclidean confirms, which land in partial.confirm.
     */
    NodePartial gatherNode(NodeId node, const Query &query,
                           const lsh::Signature &probe_hash) const;

    /**
     * Resolve the deferred confirms with their batch-computed
     * @p confirm_dists and close the stats (matched, modeled cost).
     */
    void finalizeNode(NodePartial &partial, const Query &query,
                      const std::vector<double> &confirm_dists,
                      const SignalStore &node_store) const;

    /** Deterministic merge of one query's per-node partials. */
    QueryExecution assemble(const Query &query,
                            const std::vector<NodePartial> &partials,
                            units::Millis wall) const;

    std::size_t windowSamples;
    lsh::WindowHasher windowHasher;
    std::vector<SignalStore> stores;
    /** Nodes currently marked down (skipped at dispatch). */
    std::unique_ptr<std::atomic<bool>[]> downNodes;
    /** Fabric partition; empty until setClusterPlan(). */
    net::ClusterPlan plan;
    /** Clusters currently unreachable (skipped at dispatch). */
    std::unique_ptr<std::atomic<bool>[]> downClusters;
    std::size_t threads;
    /** Execution machinery, not logical state; rebuilt on resize. */
    mutable std::unique_ptr<util::ThreadPool> pool;
    /**
     * executeBatch() calls in flight, counted only where contracts
     * are compiled in. The member exists in every build so that the
     * class layout does not depend on a per-translation-unit macro.
     */
    std::unique_ptr<std::atomic<std::size_t>> inFlight =
        std::make_unique<std::atomic<std::size_t>>(0);
};

} // namespace scalo::app
