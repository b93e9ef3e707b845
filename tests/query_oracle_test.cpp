/**
 * @file
 * Differential test of the query path: QueryEngine::execute() and
 * executeBatch() against the naive full-scan executor
 * (naive_query_executor.hpp) on seeded random stores and queries.
 * The stores are small rings (1-64 windows) filled past capacity, with
 * timestamp ties, out-of-order bursts and fully shuffled timestamps,
 * so both the binary-searched fast path of SignalStore::range() /
 * candidates() and their scan fallback run. Equality is exact: the
 * same match pointers in the same order, the same per-node stats and
 * modelled cost, latency, transfer bytes and coverage. Every store is
 * drawn at two window lengths: a multiple of the distance kernel's
 * pack width, and one that leaves a scalar tail.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numbers>
#include <string>
#include <vector>

#include "naive_query_executor.hpp"
#include "scalo/util/rng.hpp"

namespace scalo::app {
namespace {

/** Window lengths: 32 fills whole packs, 37 leaves a scalar tail. */
constexpr std::size_t kWindowLengths[] = {32, 37};
constexpr std::size_t kShapes = 3;
constexpr std::uint64_t kFirstStamp = 1'000;

std::vector<double>
shapedWindow(std::size_t samples, std::size_t shape, double noise,
             Rng &rng)
{
    std::vector<double> out(samples);
    const double freq = 2.0 + 3.0 * static_cast<double>(shape);
    for (std::size_t i = 0; i < samples; ++i)
        out[i] = std::sin(2.0 * std::numbers::pi * freq *
                          static_cast<double>(i) /
                          static_cast<double>(samples)) +
                 rng.gaussian(0.0, noise);
    return out;
}

std::vector<double>
noiseWindow(std::size_t samples, Rng &rng)
{
    std::vector<double> out(samples);
    for (double &v : out)
        v = rng.gaussian();
    return out;
}

/** How the timestamps of one random store are drawn. */
enum class Order
{
    /** Non-decreasing, with ties. */
    Sorted,
    /** Non-decreasing except short bursts that step back in time. */
    Bursts,
    /** Uniformly random. */
    Shuffled,
};

struct RandomStores
{
    std::unique_ptr<QueryEngine> engine;
    /** Every timestamp ingested, for point queries. */
    std::vector<std::uint64_t> stamps;
    std::uint64_t maxStamp = kFirstStamp;
};

RandomStores
randomStores(std::size_t samples, Rng &rng)
{
    RandomStores out;
    const std::size_t nodes = 1 + rng.below(3);
    const std::size_t capacity = 1 + rng.below(64);
    out.engine = std::make_unique<QueryEngine>(nodes, samples, 7,
                                               capacity);
    out.engine->setParallelism(1 + rng.below(3));
    const auto order = static_cast<Order>(rng.below(3));

    for (NodeId node = 0; node < nodes; ++node) {
        const std::size_t count = 1 + rng.below(3 * capacity + 4);
        const bool batched = rng.below(2) == 0;
        std::vector<QueryEngine::IngestWindow> batch;
        std::uint64_t clock = kFirstStamp;
        std::size_t burst = 0;
        for (std::size_t w = 0; w < count; ++w) {
            QueryEngine::IngestWindow window;
            switch (order) {
              case Order::Sorted:
                clock += 10 * rng.below(4);
                window.timestampUs = clock;
                break;
              case Order::Bursts:
                if (burst == 0 && rng.uniform() < 0.08)
                    burst = 1 + rng.below(3);
                clock += 10 * rng.below(4);
                window.timestampUs =
                    burst > 0 ? clock - rng.below(clock - kFirstStamp + 1)
                              : clock;
                burst -= burst > 0 ? 1 : 0;
                break;
              case Order::Shuffled:
                window.timestampUs =
                    kFirstStamp + 10 * rng.below(2 * count + 1);
                break;
            }
            window.electrode = static_cast<ElectrodeId>(rng.below(4));
            const bool shaped = rng.uniform() < 0.4;
            window.samples =
                shaped ? shapedWindow(samples, rng.below(kShapes), 0.05,
                                      rng)
                       : noiseWindow(samples, rng);
            window.seizureFlagged =
                rng.uniform() < (shaped ? 0.6 : 0.05);
            out.stamps.push_back(window.timestampUs);
            out.maxStamp = std::max(out.maxStamp, window.timestampUs);
            if (batched)
                batch.push_back(std::move(window));
            else
                out.engine->ingest(node, window.timestampUs,
                                   window.electrode, window.samples,
                                   window.seizureFlagged);
        }
        if (batched)
            out.engine->ingestBatch(node, std::move(batch));
    }

    if (nodes >= 2 && rng.uniform() < 0.3) {
        out.engine->setClusterPlan(net::ClusterPlan::balanced(nodes, 2));
        if (rng.uniform() < 0.3)
            out.engine->setClusterDown(rng.below(2));
    }
    if (rng.uniform() < 0.2)
        out.engine->setNodeDown(static_cast<NodeId>(rng.below(nodes)));
    return out;
}

Query
randomQuery(Rng &rng, const RandomStores &stores)
{
    Query query;
    switch (rng.below(6)) {
      case 0: // everything
        query.t0Us = 0;
        query.t1Us = std::numeric_limits<std::uint64_t>::max();
        break;
      case 1: { // one instant, t0 == t1, on an ingested timestamp
        const std::uint64_t t =
            stores.stamps[rng.below(stores.stamps.size())];
        query.t0Us = query.t1Us = t;
        break;
      }
      case 2: // after every window
        query.t0Us = stores.maxStamp + 1 + rng.below(10);
        query.t1Us = query.t0Us + rng.below(100);
        break;
      case 3: // before every window
        query.t0Us = rng.below(kFirstStamp / 2);
        query.t1Us = query.t0Us + rng.below(kFirstStamp / 2);
        break;
      default: {
        const std::uint64_t a = rng.below(stores.maxStamp + 20);
        const std::uint64_t b = rng.below(stores.maxStamp + 20);
        query.t0Us = std::min(a, b);
        query.t1Us = std::max(a, b);
        break;
      }
    }

    const std::size_t samples = stores.engine->windowSampleCount();
    std::vector<double> probe =
        rng.uniform() < 0.8
            ? shapedWindow(samples, rng.below(kShapes), 0.05, rng)
            : noiseWindow(samples, rng);
    switch (rng.below(7)) {
      case 0: // Q1
        query.seizureOnly = true;
        break;
      case 1: // Q3
        break;
      case 2: // Q2 on hashes, through the bucket index
        query.probe = std::move(probe);
        break;
      case 3: // Q2 on hashes, linear scan
        query.probe = std::move(probe);
        query.useIndex = false;
        break;
      case 4: // legacy exact Q2: DTW over the whole range
        query = Query::q2(query.t0Us, query.t1Us, std::move(probe),
                          rng.uniform(0.0, 20.0));
        break;
      case 5: // hash-prefiltered DTW confirm
        query.probe = std::move(probe);
        query.dtwThreshold = rng.uniform(0.0, 20.0);
        query.useIndex = rng.below(2) == 0;
        break;
      default: // Euclidean confirm, prefiltered or not
        query.probe = std::move(probe);
        query.dtwThreshold = rng.uniform(0.0, 6.0);
        query.confirmMeasure = signal::Measure::Euclidean;
        query.hashPrefilter = rng.below(3) != 0;
        query.useIndex = rng.below(2) == 0;
        break;
    }
    if (!query.probe.empty() && rng.uniform() < 0.3)
        query.seizureOnly = true;
    if (rng.uniform() < 0.15)
        query.shardDeadline = units::Millis{rng.uniform(0.0, 0.2)};
    return query;
}

/** Whole-execution equality, host wall-clock fields excepted. */
void
expectSameExecution(const QueryExecution &got,
                    const QueryExecution &want, const std::string &where)
{
    ASSERT_EQ(got.matches.size(), want.matches.size()) << where;
    for (std::size_t i = 0; i < want.matches.size(); ++i)
        ASSERT_EQ(got.matches[i], want.matches[i])
            << where << " match " << i;
    EXPECT_EQ(got.scanned, want.scanned) << where;
    EXPECT_EQ(got.latency.count(), want.latency.count()) << where;
    EXPECT_EQ(got.transferBytes, want.transferBytes) << where;
    ASSERT_EQ(got.perNode.size(), want.perNode.size()) << where;
    for (std::size_t n = 0; n < want.perNode.size(); ++n) {
        const QueryStats &g = got.perNode[n];
        const QueryStats &w = want.perNode[n];
        const std::string at = where + " node " + std::to_string(n);
        EXPECT_EQ(g.node, w.node) << at;
        EXPECT_EQ(g.scanned, w.scanned) << at;
        EXPECT_EQ(g.bucketHits, w.bucketHits) << at;
        EXPECT_EQ(g.dtwComparisons, w.dtwComparisons) << at;
        EXPECT_EQ(g.matched, w.matched) << at;
        EXPECT_EQ(g.modeled.count(), w.modeled.count()) << at;
        EXPECT_EQ(g.answered, w.answered) << at;
    }
    EXPECT_EQ(got.coverage.answeredShards, want.coverage.answeredShards)
        << where;
    EXPECT_EQ(got.coverage.totalShards, want.coverage.totalShards)
        << where;
    ASSERT_EQ(got.coverage.clusters.size(),
              want.coverage.clusters.size())
        << where;
    for (std::size_t c = 0; c < want.coverage.clusters.size(); ++c) {
        EXPECT_EQ(got.coverage.clusters[c].cluster,
                  want.coverage.clusters[c].cluster)
            << where;
        EXPECT_EQ(got.coverage.clusters[c].answeredShards,
                  want.coverage.clusters[c].answeredShards)
            << where;
        EXPECT_EQ(got.coverage.clusters[c].totalShards,
                  want.coverage.clusters[c].totalShards)
            << where;
    }
}

TEST(QueryOracle, EngineEqualsNaiveExecutorOnRandomStores)
{
    constexpr std::uint64_t kStores = 240;
    constexpr std::size_t kQueriesPerStore = 14;

    for (const std::size_t samples : kWindowLengths) {
        SCOPED_TRACE("window length " + std::to_string(samples));
        // What the random draw covered, so a narrowed generator fails
        // here instead of passing vacuously.
        std::size_t ordered_stores = 0, disordered_stores = 0;
        std::size_t evicted_stores = 0, indexed_queries = 0;
        std::size_t bucket_hits = 0, probe_matches = 0, confirmed = 0;
        std::size_t euclidean_confirmed = 0;

        for (std::uint64_t seed = 0; seed < kStores; ++seed) {
            Rng rng(0x0dac1e00 + seed);
            const RandomStores stores = randomStores(samples, rng);
            const QueryEngine &engine = *stores.engine;
            for (NodeId node = 0; node < engine.nodeCount(); ++node) {
                const SignalStore &store = engine.store(node);
                ++(store.timeOrdered() ? ordered_stores
                                       : disordered_stores);
                evicted_stores += store.overwritten() > 0 ? 1 : 0;
            }

            std::vector<Query> queries;
            for (std::size_t q = 0; q < kQueriesPerStore; ++q)
                queries.push_back(randomQuery(rng, stores));
            // A repeat, so the batch path also deduplicates a plan.
            queries.push_back(queries.front());

            const std::vector<QueryExecution> batched =
                engine.executeBatch(queries);
            ASSERT_EQ(batched.size(), queries.size());
            for (std::size_t q = 0; q < queries.size(); ++q) {
                const Query &query = queries[q];
                const std::string where =
                    "seed " + std::to_string(seed) + " query " +
                    std::to_string(q);
                const QueryExecution want = naive::execute(engine, query);
                expectSameExecution(engine.execute(query), want, where);
                expectSameExecution(batched[q], want,
                                    where + " (batch)");
                if (::testing::Test::HasFatalFailure())
                    return;

                if (!query.probe.empty()) {
                    probe_matches += want.matches.size();
                    if (query.hashPrefilter && query.useIndex)
                        ++indexed_queries;
                }
                for (const QueryStats &stats : want.perNode) {
                    bucket_hits += stats.bucketHits;
                    confirmed += stats.dtwComparisons;
                    if (query.confirmMeasure ==
                        signal::Measure::Euclidean)
                        euclidean_confirmed += stats.dtwComparisons;
                }
            }
        }

        EXPECT_GT(ordered_stores, 100u);
        EXPECT_GT(disordered_stores, 100u);
        EXPECT_GT(evicted_stores, 100u);
        EXPECT_GT(indexed_queries, 200u);
        EXPECT_GT(bucket_hits, 0u);
        EXPECT_GT(probe_matches, 0u);
        EXPECT_GT(confirmed, 0u);
        EXPECT_GT(euclidean_confirmed, 0u);
    }
}

} // namespace
} // namespace scalo::app
