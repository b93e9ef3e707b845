#include "naive_query_executor.hpp"

#include <algorithm>
#include <cmath>

#include "scalo/hw/pe.hpp"
#include "scalo/net/radio.hpp"
#include "scalo/signal/distance.hpp"

namespace scalo::app::naive {

namespace {

/**
 * The index's candidate rule: some band of @p probe has the same low
 * kBucketBits bits as the same band of @p hash. A window without a
 * signature shares no bucket with anything.
 */
bool
sharesBucket(const lsh::Signature &probe, const lsh::Signature &hash)
{
    const std::uint64_t mask =
        (std::uint64_t{1} << SignalStore::kBucketBits) - 1;
    const unsigned bands = std::min(probe.bandCount(), hash.bandCount());
    for (unsigned b = 0; b < bands; ++b)
        if ((probe.band(b) & mask) == (hash.band(b) & mask))
            return true;
    return false;
}

void
stableSortByTimestamp(std::vector<const StoredWindow *> &windows)
{
    std::stable_sort(windows.begin(), windows.end(),
                     [](const StoredWindow *a, const StoredWindow *b) {
                         return a->timestampUs < b->timestampUs;
                     });
}

struct NodeAnswer
{
    QueryStats stats;
    std::vector<const StoredWindow *> matches;
};

NodeAnswer
scanNode(const QueryEngine &engine, NodeId node, const Query &query,
         const lsh::Signature &probe_hash)
{
    const SignalStore &store = engine.store(node);
    const bool templated = !query.probe.empty();
    const bool exact = templated && query.dtwThreshold >= 0.0;
    const bool via_index =
        templated && query.hashPrefilter && query.useIndex;

    NodeAnswer answer;
    answer.stats.node = node;

    // The windows read through the SC: every window of the range, or
    // on the index path only those sharing a bucket with the probe.
    std::vector<const StoredWindow *> touched;
    for (std::size_t i = 0; i < store.size(); ++i) {
        const StoredWindow &window = store.at(i);
        if (window.timestampUs < query.t0Us ||
            window.timestampUs > query.t1Us)
            continue;
        if (via_index && !sharesBucket(probe_hash, window.hash))
            continue;
        touched.push_back(&window);
    }
    stableSortByTimestamp(touched);
    answer.stats.scanned = touched.size();
    answer.stats.bucketHits = via_index ? touched.size() : 0;

    const std::size_t band =
        std::max<std::size_t>(1, engine.windowSampleCount() / 10);
    for (const StoredWindow *window : touched) {
        if (query.seizureOnly && !window->seizureFlagged)
            continue;
        if (templated && query.hashPrefilter &&
            !probe_hash.matches(window->hash))
            continue;
        if (exact) {
            ++answer.stats.dtwComparisons;
            const double distance =
                query.confirmMeasure == signal::Measure::Euclidean
                    ? std::sqrt(signal::euclideanDistanceSquared(
                          query.probe.data(), window->samples.data(),
                          query.probe.size()))
                    : signal::dtwDistance(query.probe, window->samples,
                                          band);
            if (distance > query.dtwThreshold)
                continue;
        }
        answer.matches.push_back(window);
    }
    answer.stats.matched = answer.matches.size();

    // CCHECK compares 960 hashes per invocation; the DTW PE (band 1
    // for Euclidean) runs once per confirmed candidate.
    units::Millis match{0.0};
    if (!templated || query.hashPrefilter)
        match += static_cast<double>(answer.stats.scanned) / 960.0 *
                 *hw::peSpec(hw::PeKind::CCHECK).latency;
    if (exact)
        match += static_cast<double>(answer.stats.dtwComparisons) *
                 *hw::peSpec(hw::PeKind::DTW).latency;
    answer.stats.modeled = store.readCost(answer.stats.scanned) + match;
    return answer;
}

} // namespace

QueryExecution
execute(const QueryEngine &engine, const Query &query)
{
    const net::ClusterPlan &plan = engine.clusterPlan();
    const lsh::Signature probe_hash =
        query.probe.empty() ? lsh::Signature{}
                            : engine.hasher().hash(query.probe);

    QueryExecution execution;
    units::Millis slowest{0.0};
    bool deadline_hit = false;
    for (NodeId node = 0; node < engine.nodeCount(); ++node) {
        ++execution.coverage.totalShards;
        const bool down =
            engine.nodeDown(node) ||
            (!plan.empty() && engine.clusterDown(plan.clusterOf(node)));
        if (down) {
            QueryStats stats;
            stats.node = node;
            stats.answered = false;
            execution.perNode.push_back(stats);
            continue;
        }
        NodeAnswer answer = scanNode(engine, node, query, probe_hash);
        if (query.shardDeadline.count() > 0.0 &&
            answer.stats.modeled > query.shardDeadline) {
            answer.stats.answered = false;
            deadline_hit = true;
            execution.perNode.push_back(answer.stats);
            continue;
        }
        ++execution.coverage.answeredShards;
        execution.scanned += answer.stats.scanned;
        slowest = units::max(slowest, answer.stats.modeled);
        execution.matches.insert(execution.matches.end(),
                                 answer.matches.begin(),
                                 answer.matches.end());
        execution.perNode.push_back(answer.stats);
    }
    if (deadline_hit)
        slowest = units::max(slowest, query.shardDeadline);

    if (!plan.empty()) {
        for (std::size_t c = 0; c < plan.clusterCount(); ++c) {
            ClusterCoverage slice;
            slice.cluster = c;
            for (const QueryStats &stats : execution.perNode) {
                if (plan.clusterOf(stats.node) != c)
                    continue;
                ++slice.totalShards;
                if (stats.answered)
                    ++slice.answeredShards;
            }
            execution.coverage.clusters.push_back(slice);
        }
    }

    // Node order within equal timestamps: the concatenation above is
    // in node order and the sort is stable.
    stableSortByTimestamp(execution.matches);
    execution.transferBytes =
        execution.matches.size() * engine.windowSampleCount() * 2;
    execution.latency =
        kQueryDispatch + slowest +
        net::externalRadio().transferTime(units::Bytes{
            static_cast<double>(execution.transferBytes)});
    return execution;
}

} // namespace scalo::app::naive
