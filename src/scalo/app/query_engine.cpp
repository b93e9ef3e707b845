#include "scalo/app/query_engine.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "scalo/hw/pe.hpp"
#include "scalo/net/radio.hpp"
#include "scalo/signal/distance.hpp"
#include "scalo/signal/window_batch.hpp"
#include "scalo/util/contracts.hpp"
#include "scalo/util/logging.hpp"

namespace scalo::app {

namespace {

units::Millis
elapsed(std::chrono::steady_clock::time_point since)
{
    return units::Millis{
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - since)
            .count()};
}

/** CCHECK compares hashes in batches of 960 per PE invocation. */
units::Millis
hashMatchTime(std::size_t compared)
{
    return static_cast<double>(compared) / 960.0 *
           *hw::peSpec(hw::PeKind::CCHECK).latency;
}

units::Millis
dtwMatchTime(std::size_t compared)
{
    return static_cast<double>(compared) *
           *hw::peSpec(hw::PeKind::DTW).latency;
}

} // namespace

QueryEngine::QueryEngine(std::size_t nodes,
                         std::size_t window_samples,
                         std::uint64_t seed,
                         std::size_t store_windows)
    : windowSamples(window_samples),
      windowHasher(signal::Measure::Dtw, window_samples, seed),
      threads(util::ThreadPool::defaultThreads()),
      pool(std::make_unique<util::ThreadPool>(threads))
{
    SCALO_ASSERT(nodes >= 1, "need at least one node");
    stores.reserve(nodes);
    for (std::size_t node = 0; node < nodes; ++node)
        stores.emplace_back(store_windows);
    downNodes = std::make_unique<std::atomic<bool>[]>(nodes);
    for (std::size_t node = 0; node < nodes; ++node)
        downNodes[node].store(false, std::memory_order_relaxed);
}

void
QueryEngine::setNodeDown(NodeId node, bool down)
{
    SCALO_ASSERT(node < stores.size(), "node out of range");
    downNodes[node].store(down, std::memory_order_release);
}

bool
QueryEngine::nodeDown(NodeId node) const
{
    SCALO_ASSERT(node < stores.size(), "node out of range");
    return downNodes[node].load(std::memory_order_acquire);
}

void
QueryEngine::setClusterPlan(net::ClusterPlan new_plan)
{
    new_plan.validate();
    SCALO_ASSERT(new_plan.nodeCount() == stores.size(),
                 "cluster plan node count mismatch");
    plan = std::move(new_plan);
    const std::size_t clusters = plan.clusterCount();
    downClusters = std::make_unique<std::atomic<bool>[]>(clusters);
    for (std::size_t c = 0; c < clusters; ++c)
        downClusters[c].store(false, std::memory_order_relaxed);
}

void
QueryEngine::setClusterDown(std::size_t cluster, bool down)
{
    SCALO_ASSERT(!plan.empty(), "no cluster plan configured");
    SCALO_ASSERT(cluster < plan.clusterCount(),
                 "cluster out of range");
    downClusters[cluster].store(down, std::memory_order_release);
}

bool
QueryEngine::clusterDown(std::size_t cluster) const
{
    SCALO_ASSERT(!plan.empty(), "no cluster plan configured");
    SCALO_ASSERT(cluster < plan.clusterCount(),
                 "cluster out of range");
    return downClusters[cluster].load(std::memory_order_acquire);
}

void
QueryEngine::setParallelism(std::size_t new_threads)
{
    threads = std::max<std::size_t>(1, new_threads);
    pool = std::make_unique<util::ThreadPool>(threads);
}

void
QueryEngine::ingest(NodeId node, std::uint64_t timestamp_us,
                    ElectrodeId electrode,
                    const std::vector<double> &window,
                    bool seizure_flagged)
{
    SCALO_EXPECTS(executionsInFlight() == 0);
    SCALO_ASSERT(node < stores.size(), "node out of range");
    SCALO_ASSERT(window.size() == windowSamples,
                 "window size mismatch");
    StoredWindow stored;
    stored.timestampUs = timestamp_us;
    stored.electrode = electrode;
    stored.samples = window;
    stored.hash = windowHasher.hash(window);
    stored.seizureFlagged = seizure_flagged;
    stores[node].append(std::move(stored));
}

void
QueryEngine::ingestBatch(NodeId node,
                         std::vector<IngestWindow> windows)
{
    SCALO_EXPECTS(executionsInFlight() == 0);
    SCALO_ASSERT(node < stores.size(), "node out of range");
    std::vector<const std::vector<double> *> samples;
    samples.reserve(windows.size());
    for (const IngestWindow &window : windows) {
        SCALO_ASSERT(window.samples.size() == windowSamples,
                     "window size mismatch");
        samples.push_back(&window.samples);
    }

    // One batched hashing sweep (hashMany == per-window hash() bit
    // for bit), then ordered appends: the store ends up exactly as
    // after the equivalent ingest() sequence.
    lsh::SshScratch scratch;
    std::vector<lsh::Signature> hashes;
    windowHasher.hashMany(samples, scratch, hashes);

    for (std::size_t i = 0; i < windows.size(); ++i) {
        IngestWindow &window = windows[i];
        StoredWindow stored;
        stored.timestampUs = window.timestampUs;
        stored.electrode = window.electrode;
        stored.samples = std::move(window.samples);
        stored.hash = hashes[i];
        stored.seizureFlagged = window.seizureFlagged;
        stores[node].append(std::move(stored));
    }
}

std::size_t
QueryEngine::executionsInFlight() const
{
    return inFlight->load(std::memory_order_acquire);
}

const SignalStore &
QueryEngine::store(NodeId node) const
{
    SCALO_ASSERT(node < stores.size(), "node out of range");
    return stores[node];
}

QueryEngine::CompiledQuery
QueryEngine::compile(const Query &query) const
{
    SCALO_ASSERT(query.t0Us <= query.t1Us, "empty time range");
    const bool templated = !query.probe.empty();
    if (templated) {
        SCALO_ASSERT(query.probe.size() == windowSamples,
                     "probe size mismatch");
        SCALO_ASSERT(query.confirmMeasure == signal::Measure::Dtw ||
                         query.confirmMeasure ==
                             signal::Measure::Euclidean,
                     "confirm measure must be DTW or Euclidean");
    }
    CompiledQuery compiled;
    compiled.query = query.normalized();
    if (templated)
        compiled.probeHash = windowHasher.hash(compiled.query.probe);
    return compiled;
}

QueryEngine::NodePartial
QueryEngine::gatherNode(NodeId node, const Query &query,
                        const lsh::Signature &probe_hash) const
{
    const auto started = std::chrono::steady_clock::now();
    const SignalStore &node_store = stores[node];
    NodePartial partial;
    partial.stats.node = node;

    const bool templated = !query.probe.empty();
    const bool exact = templated && query.dtwThreshold >= 0.0;
    const bool euclidean_confirm =
        exact && query.confirmMeasure == signal::Measure::Euclidean;
    const std::size_t sakoe_band =
        std::max<std::size_t>(1, windowSamples / 10);

    // Candidate set: bucket probe when the index applies, else the
    // full range read. Either way, these are the windows actually
    // pulled through the SC, and what the read model charges.
    const bool via_index =
        templated && query.hashPrefilter && query.useIndex;
    std::vector<const StoredWindow *> touched =
        via_index
            ? node_store.candidates(probe_hash, query.t0Us,
                                    query.t1Us)
            : node_store.range(query.t0Us, query.t1Us);
    partial.stats.scanned = touched.size();
    if (via_index)
        partial.stats.bucketHits = touched.size();

    // This shard's scratch: one rolling-row workspace reused across
    // every DTW confirmation below. Euclidean confirmations are only
    // collected here — they resolve later through the batched
    // distance kernel, coalesced across every query in flight on
    // this node.
    signal::DtwScratch dtw_scratch;
    for (const StoredWindow *window : touched) {
        if (query.seizureOnly && !window->seizureFlagged)
            continue;
        if (templated) {
            if (query.hashPrefilter &&
                !probe_hash.matches(window->hash))
                continue;
            if (euclidean_confirm) {
                partial.confirm.push_back(window);
                continue;
            }
            if (exact) {
                ++partial.stats.dtwComparisons;
                // Abandoned rows return a lower bound that is already
                // above the cutoff, so the threshold decision — the
                // only thing consulted — is exact.
                if (signal::dtwDistanceEarlyAbandon(
                        query.probe, window->samples, sakoe_band,
                        query.dtwThreshold, dtw_scratch) >
                    query.dtwThreshold)
                    continue;
            }
        }
        partial.matches.push_back(window);
    }

    partial.stats.wall = elapsed(started);
    return partial;
}

void
QueryEngine::finalizeNode(NodePartial &partial, const Query &query,
                          const std::vector<double> &confirm_dists,
                          const SignalStore &node_store) const
{
    const auto started = std::chrono::steady_clock::now();
    const bool templated = !query.probe.empty();
    const bool exact = templated && query.dtwThreshold >= 0.0;

    if (!partial.confirm.empty()) {
        // Candidates stayed in timestamp order through the batch, so
        // appending the survivors keeps the matches list sorted for
        // the deterministic merge.
        SCALO_ASSERT(confirm_dists.size() == partial.confirm.size(),
                     "confirmation batch size mismatch");
        partial.stats.dtwComparisons += partial.confirm.size();
        for (std::size_t i = 0; i < partial.confirm.size(); ++i)
            if (confirm_dists[i] <= query.dtwThreshold)
                partial.matches.push_back(partial.confirm[i]);
    }
    partial.stats.matched = partial.matches.size();

    // Modeled on-node time: SC reads of the touched windows, plus
    // CCHECK hash batches and/or per-window DTW.
    units::Millis match{0.0};
    if (!templated || query.hashPrefilter)
        match += hashMatchTime(partial.stats.scanned);
    if (exact)
        match += dtwMatchTime(partial.stats.dtwComparisons);
    partial.stats.modeled =
        node_store.readCost(partial.stats.scanned) + match;

    partial.stats.wall += elapsed(started);
}

QueryExecution
QueryEngine::assemble(const Query &query,
                      const std::vector<NodePartial> &partials,
                      units::Millis wall) const
{
    QueryExecution execution;
    execution.perNode.reserve(partials.size());
    units::Millis slowest_node{0.0};
    bool deadline_hit = false;
    for (const NodePartial &partial : partials) {
        ++execution.coverage.totalShards;
        QueryStats stats = partial.stats;
        // A shard over the per-shard deadline contributes nothing:
        // the caller asked for a bounded answer, not a complete one.
        if (stats.answered && query.shardDeadline.count() > 0.0 &&
            stats.modeled > query.shardDeadline) {
            stats.answered = false;
            deadline_hit = true;
        }
        if (!stats.answered) {
            execution.perNode.push_back(stats);
            continue;
        }
        ++execution.coverage.answeredShards;
        execution.scanned += stats.scanned;
        slowest_node = units::max(slowest_node, stats.modeled);
        execution.matches.insert(execution.matches.end(),
                                 partial.matches.begin(),
                                 partial.matches.end());
        execution.perNode.push_back(stats);
    }
    // Giving up on a shard still means waiting until its deadline.
    if (deadline_hit)
        slowest_node = units::max(slowest_node, query.shardDeadline);
    // Cluster-granular coverage: fold the per-node answers into the
    // fabric's failure domains so a partitioned cluster is visible
    // as such, not as an anonymous count of missing shards.
    if (!plan.empty()) {
        execution.coverage.clusters.resize(plan.clusterCount());
        for (std::size_t c = 0; c < plan.clusterCount(); ++c)
            execution.coverage.clusters[c].cluster = c;
        for (const QueryStats &stats : execution.perNode) {
            ClusterCoverage &slice =
                execution.coverage.clusters[plan.clusterOf(
                    stats.node)];
            ++slice.totalShards;
            if (stats.answered)
                ++slice.answeredShards;
        }
    }
    // Merge: per-node lists are timestamp-sorted and concatenated in
    // node order, so a stable sort on timestamp yields the canonical
    // (timestamp, node) order.
    std::stable_sort(execution.matches.begin(),
                     execution.matches.end(),
                     [](const StoredWindow *a, const StoredWindow *b) {
                         return a->timestampUs < b->timestampUs;
                     });

    execution.transferBytes =
        execution.matches.size() * windowSamples * 2;
    // Nodes scan in parallel; the external radio serialises results.
    execution.latency =
        kQueryDispatch + slowest_node +
        net::externalRadio().transferTime(units::Bytes{
            static_cast<double>(execution.transferBytes)});
    execution.wall = wall;
    return execution;
}

QueryExecution
QueryEngine::execute(const Query &query) const
{
    return execute(compile(query));
}

QueryExecution
QueryEngine::execute(const CompiledQuery &compiled) const
{
    std::vector<QueryExecution> executions =
        executeBatch(std::vector<const CompiledQuery *>{&compiled});
    return std::move(executions.front());
}

std::vector<QueryExecution>
QueryEngine::executeBatch(
    const std::vector<const CompiledQuery *> &batch) const
{
    const auto started = std::chrono::steady_clock::now();
#if SCALO_CONTRACTS
    // The stores' binary-searched time slices assume nothing appends
    // underneath them; ingest() checks this count.
    struct InFlight
    {
        std::atomic<std::size_t> &count;
        explicit InFlight(std::atomic<std::size_t> &c) : count(c)
        {
            count.fetch_add(1, std::memory_order_acq_rel);
        }
        ~InFlight() { count.fetch_sub(1, std::memory_order_acq_rel); }
    } const in_flight(*inFlight);
#endif

    // Queries deduplicated onto one compiled plan (the serve-layer
    // cache hands several tenants the same object) execute once and
    // fan the execution back out to every requesting slot.
    std::vector<const CompiledQuery *> unique;
    std::vector<std::size_t> slot_of(batch.size());
    {
        std::unordered_map<const CompiledQuery *, std::size_t> seen;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const CompiledQuery *compiled = batch[i];
            SCALO_ASSERT(compiled != nullptr,
                         "null compiled query in batch");
            const auto [it, inserted] =
                seen.emplace(compiled, unique.size());
            if (inserted)
                unique.push_back(compiled);
            slot_of[i] = it->second;
        }
    }

    // partials[u][node]: per-query, per-node shard results. Each
    // node's column is written by exactly one pool worker, so the
    // fan-out stays deterministic whatever the pool width.
    std::vector<std::vector<NodePartial>> partials(unique.size());
    for (auto &rows : partials)
        rows.resize(stores.size());

    // Cluster reachability is sampled once per batch, before the
    // fan-out: a partition flipping mid-batch must not split one
    // cluster's shards into half answered, half skipped.
    std::vector<char> cluster_down(plan.clusterCount(), 0);
    for (std::size_t c = 0; c < cluster_down.size(); ++c)
        cluster_down[c] =
            downClusters[c].load(std::memory_order_acquire) ? 1 : 0;

    pool->parallelFor(stores.size(), [&](std::size_t node) {
        // Shards of down nodes are skipped at dispatch: the detector
        // already knows they cannot answer. The flag is sampled once
        // per node per batch, so every query in the batch sees the
        // same shard population. A node is also unreachable when its
        // whole cluster is partitioned off the backbone.
        const bool down =
            downNodes[node].load(std::memory_order_acquire) ||
            (!cluster_down.empty() &&
             cluster_down[plan.clusterOf(node)] != 0);

        // Confirmation candidates are deduplicated (by stored-window
        // identity) across every query in flight on this node into
        // one SoA WindowBatch: overlapping candidate sets — the
        // common case when tenants query the same time range — are
        // copied once and every job addresses them by row index.
        std::unordered_map<const StoredWindow *, std::uint32_t>
            row_of;
        std::vector<const StoredWindow *> gathered;
        std::vector<signal::BatchDistanceJob> jobs;
        std::vector<NodePartial *> job_partials;
        for (std::size_t u = 0; u < unique.size(); ++u) {
            NodePartial &partial = partials[u][node];
            if (down) {
                partial.stats.node = static_cast<NodeId>(node);
                partial.stats.answered = false;
                continue;
            }
            partial = gatherNode(static_cast<NodeId>(node),
                                 unique[u]->query,
                                 unique[u]->probeHash);
            if (partial.confirm.empty())
                continue;
            signal::BatchDistanceJob job;
            job.query = &unique[u]->query.probe;
            job.rows.reserve(partial.confirm.size());
            for (const StoredWindow *window : partial.confirm) {
                const auto [it, inserted] = row_of.emplace(
                    window,
                    static_cast<std::uint32_t>(gathered.size()));
                if (inserted)
                    gathered.push_back(window);
                job.rows.push_back(it->second);
            }
            jobs.push_back(std::move(job));
            job_partials.push_back(&partial);
        }

        // One coalesced verification sweep for every query on this
        // node; jobs sharing a probe share one kernel call over the
        // shared batch.
        signal::WindowBatch window_batch;
        SignalStore::gather(gathered, window_batch);
        signal::euclideanDistanceBatch(window_batch, jobs);

        static const std::vector<double> no_dists;
        std::size_t job_index = 0;
        for (std::size_t u = 0; u < unique.size(); ++u) {
            NodePartial &partial = partials[u][node];
            if (down || !partial.stats.answered)
                continue;
            const bool has_job =
                job_index < job_partials.size() &&
                job_partials[job_index] == &partial;
            finalizeNode(partial, unique[u]->query,
                         has_job ? jobs[job_index].distances
                                 : no_dists,
                         stores[node]);
            if (has_job)
                ++job_index;
        }
    });

    const units::Millis wall = elapsed(started);
    std::vector<QueryExecution> executions;
    executions.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        executions.push_back(assemble(batch[i]->query,
                                      partials[slot_of[i]], wall));
    return executions;
}

std::vector<QueryExecution>
QueryEngine::executeBatch(const std::vector<Query> &queries) const
{
    // Compile once per distinct descriptor so equivalent queries in
    // the batch share a plan (and therefore a coalesced kernel call).
    std::vector<std::unique_ptr<CompiledQuery>> compiled;
    std::unordered_map<std::string, std::size_t> by_key;
    std::vector<const CompiledQuery *> batch;
    batch.reserve(queries.size());
    for (const Query &query : queries) {
        const std::string key = query.cacheKey();
        const auto [it, inserted] =
            by_key.emplace(key, compiled.size());
        if (inserted)
            compiled.push_back(
                std::make_unique<CompiledQuery>(compile(query)));
        batch.push_back(compiled[it->second].get());
    }
    return executeBatch(batch);
}

} // namespace scalo::app
