/**
 * @file
 * Concurrency and index-correctness tests for the sharded query
 * runtime: the thread pool itself, the invariant that execute() is
 * bit-identical at every parallelism (the merge is deterministic),
 * and the property that the bucket index never loses a hash match
 * under random ingest with ring-buffer overwrite churn, and, where
 * contracts are compiled in, that ingest overlapping an execution is
 * caught as a contract violation. This binary is the one to run under
 * -DSCALO_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numbers>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "scalo/app/query_engine.hpp"
#include "scalo/lsh/hasher.hpp"
#include "scalo/util/contracts.hpp"
#include "scalo/util/rng.hpp"
#include "scalo/util/thread_pool.hpp"

namespace scalo {
namespace {

// ---------------------------------------------------------------
// ThreadPool unit tests.

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    util::ThreadPool pool(8);
    constexpr std::size_t kCount = 10'000;
    std::vector<std::atomic<int>> hits(kCount);
    pool.parallelFor(kCount, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, InlineWhenSmall)
{
    util::ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 0u); // degenerates to the caller thread
    std::size_t sum = 0;
    pool.parallelFor(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum, 4'950u);
}

TEST(ThreadPool, ReusableAcrossLoops)
{
    util::ThreadPool pool(4);
    for (int round = 0; round < 50; ++round) {
        std::atomic<std::size_t> count{0};
        pool.parallelFor(64, [&](std::size_t) {
            count.fetch_add(1, std::memory_order_relaxed);
        });
        ASSERT_EQ(count.load(), 64u);
    }
}

TEST(ThreadPool, PropagatesFirstException)
{
    util::ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(32,
                                  [&](std::size_t i) {
                                      if (i == 7)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    // The pool survives a throwing loop.
    std::atomic<std::size_t> count{0};
    pool.parallelFor(8, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 8u);
}

/**
 * One loop of `pool.width()` iterations that only finish once all of
 * them have started, so it completes only if every worker woke up and
 * took an iteration. @return whether they met within 10 s
 */
bool
everyRunnerJoins(util::ThreadPool &pool)
{
    const std::size_t width = pool.width();
    std::atomic<std::size_t> arrived{0};
    std::atomic<bool> met{true};
    pool.parallelFor(width, [&](std::size_t) {
        arrived.fetch_add(1);
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (arrived.load() < width) {
            if (std::chrono::steady_clock::now() > deadline) {
                met = false;
                return;
            }
            std::this_thread::yield();
        }
    });
    return met.load();
}

TEST(ThreadPool, WidthCountsTheCaller)
{
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_EQ(pool.width(), 4u);
    EXPECT_EQ(util::ThreadPool(0).width(), 1u);
}

/** Sleep far past the pool's spin bound, so that its idle runners
 *  have blocked on the condition variable. */
void
sleepPastTheSpin()
{
    std::this_thread::sleep_for(util::ThreadPool::kSpin +
                                std::chrono::milliseconds(20));
}

// Workers are woken both while they still spin for work (a loop right
// after the last) and once they have blocked on the condition
// variable (a loop after a pause far past the spin bound).
TEST(ThreadPool, WakesSpinningAndBlockedWorkers)
{
    util::ThreadPool pool(4);
    for (int round = 0; round < 20; ++round)
        ASSERT_TRUE(everyRunnerJoins(pool)) << "back to back";
    for (int round = 0; round < 3; ++round) {
        sleepPastTheSpin();
        ASSERT_TRUE(everyRunnerJoins(pool)) << "after blocking";
    }
}

// A pool is joined promptly whether its workers still spin (destroyed
// right after a loop) or have blocked: the destructor's stop flag
// ends a spin at once.
TEST(ThreadPool, DestructionIsPrompt)
{
    const auto destroy_ms = [](bool pause) {
        auto pool = std::make_unique<util::ThreadPool>(4);
        std::atomic<std::size_t> count{0};
        pool->parallelFor(64, [&](std::size_t) { ++count; });
        EXPECT_EQ(count.load(), 64u);
        if (pause)
            sleepPastTheSpin();
        const auto start = std::chrono::steady_clock::now();
        pool.reset();
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    EXPECT_LT(destroy_ms(false), 5'000.0);
    EXPECT_LT(destroy_ms(true), 5'000.0);
}

// Whichever runner throws, and whether its peers spin or have blocked,
// the first exception reaches the caller and the pool stays usable.
TEST(ThreadPool, RethrowsWhetherWaitsSpinOrBlock)
{
    util::ThreadPool pool(4);
    for (const bool pause : {false, true}) {
        if (pause)
            sleepPastTheSpin();
        EXPECT_THROW(pool.parallelFor(64,
                                      [](std::size_t i) {
                                          if (i % 2 == 1)
                                              throw std::runtime_error(
                                                  "odd");
                                      }),
                     std::runtime_error);
        if (pause)
            sleepPastTheSpin();
        EXPECT_THROW(pool.parallelFor(4,
                                      [](std::size_t) {
                                          throw std::logic_error(
                                              "every one");
                                      }),
                     std::logic_error);
        EXPECT_TRUE(everyRunnerJoins(pool));
    }
}

// ---------------------------------------------------------------
// Parallel execution is bit-identical to the sequential path.

std::vector<double>
shapedWindow(double freq, std::size_t n, double phase, Rng &noise,
             double noise_sd)
{
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = std::sin(2.0 * std::numbers::pi * freq *
                              static_cast<double>(i) /
                              static_cast<double>(n) +
                          phase) +
                 noise.gaussian(0.0, noise_sd);
    return out;
}

class ShardedQueryFixture : public ::testing::Test
{
  protected:
    static constexpr std::size_t kNodes = 8;
    static constexpr std::size_t kSamples = 96;

    void
    SetUp() override
    {
        engine =
            std::make_unique<app::QueryEngine>(kNodes, kSamples, 7);
        Rng noise(41);
        // Electrode-major ingest per node so insertion order and
        // timestamp order diverge; every 7th window is a noisy copy
        // of the probe shape, every 11th is seizure-flagged.
        for (NodeId node = 0; node < kNodes; ++node) {
            for (ElectrodeId e = 0; e < 2; ++e) {
                for (std::uint64_t w = 0; w < 60; ++w) {
                    const std::uint64_t t = w * 4'000 + e * 1'700;
                    const bool probe_like = (w + e) % 7 == 0;
                    const bool seizure = (w + e) % 11 == 0;
                    auto window =
                        probe_like
                            ? shapedWindow(6.0, kSamples, 0.3,
                                           noise, 0.05)
                            : shapedWindow(noise.uniform(2.0, 20.0),
                                           kSamples,
                                           noise.uniform(0.0, 6.0),
                                           noise, 0.5);
                    engine->ingest(node, t, e, window, seizure);
                }
            }
        }
        Rng probe_noise(43);
        probe = shapedWindow(6.0, kSamples, 0.3, probe_noise, 0.05);
    }

    /** The query shapes the identity must hold for. */
    std::vector<app::Query>
    testQueries() const
    {
        std::vector<app::Query> queries;
        queries.push_back(app::Query::q1(0, 300'000));
        queries.push_back(app::Query::q2(0, 300'000, probe));
        queries.push_back(app::Query::q3(10'000, 150'000));
        auto no_index = app::Query::q2(0, 300'000, probe);
        no_index.useIndex = false;
        queries.push_back(no_index);
        auto legacy_dtw = app::Query::q2(0, 300'000, probe, 12.0);
        queries.push_back(legacy_dtw);
        auto confirmed = app::Query::q2(0, 300'000, probe);
        confirmed.dtwThreshold = 12.0;
        confirmed.seizureOnly = true;
        queries.push_back(confirmed);
        return queries;
    }

    static void
    expectIdentical(const app::QueryExecution &a,
                    const app::QueryExecution &b)
    {
        EXPECT_EQ(a.matches, b.matches); // same pointers, same order
        EXPECT_EQ(a.scanned, b.scanned);
        EXPECT_EQ(a.transferBytes, b.transferBytes);
        EXPECT_EQ(a.latency.count(), b.latency.count()); // modeled, exact
        ASSERT_EQ(a.perNode.size(), b.perNode.size());
        for (std::size_t n = 0; n < a.perNode.size(); ++n) {
            EXPECT_EQ(a.perNode[n].scanned, b.perNode[n].scanned);
            EXPECT_EQ(a.perNode[n].bucketHits,
                      b.perNode[n].bucketHits);
            EXPECT_EQ(a.perNode[n].dtwComparisons,
                      b.perNode[n].dtwComparisons);
            EXPECT_EQ(a.perNode[n].matched, b.perNode[n].matched);
            EXPECT_EQ(a.perNode[n].modeled.count(),
                      b.perNode[n].modeled.count());
        }
    }

    std::unique_ptr<app::QueryEngine> engine;
    std::vector<double> probe;
};

TEST_F(ShardedQueryFixture, ParallelResultsMatchSequential)
{
    for (const app::Query &query : testQueries()) {
        engine->setParallelism(1);
        const auto sequential = engine->execute(query);
        EXPECT_FALSE(sequential.matches.empty());
        for (std::size_t threads : {2u, 8u}) {
            engine->setParallelism(threads);
            expectIdentical(sequential, engine->execute(query));
        }
    }
}

TEST_F(ShardedQueryFixture, RepeatedParallelRunsAreStable)
{
    engine->setParallelism(8);
    const auto query = app::Query::q2(0, 300'000, probe);
    const auto first = engine->execute(query);
    for (int run = 0; run < 10; ++run)
        expectIdentical(first, engine->execute(query));
}

// ---------------------------------------------------------------
// Property: the bucket index never loses an exact hash match,
// under random ingest + overwrite churn.

TEST(BucketIndexProperty, CandidatesCoverHashMatches)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        Rng rng(seed);
        const std::size_t samples = 64;
        lsh::WindowHasher hasher(signal::Measure::Dtw, samples,
                                 seed);
        app::SignalStore store(96); // small ring: heavy churn
        for (std::uint64_t i = 0; i < 500; ++i) {
            app::StoredWindow window;
            // Timestamps jitter out of insertion order.
            window.timestampUs =
                i * 1'000 +
                static_cast<std::uint64_t>(rng.below(2'000));
            window.electrode =
                static_cast<ElectrodeId>(rng.below(4));
            window.samples.resize(samples);
            for (double &v : window.samples)
                v = rng.gaussian();
            window.hash = hasher.hash(window.samples);
            store.append(std::move(window));
        }
        ASSERT_GT(store.overwritten(), 0u);
        ASSERT_EQ(store.indexedWindows(), store.size());

        for (int p = 0; p < 20; ++p) {
            std::vector<double> probe(samples);
            for (double &v : probe)
                v = rng.gaussian();
            const lsh::Signature probe_hash = hasher.hash(probe);
            const std::uint64_t t0 = rng.below(300'000);
            const std::uint64_t t1 = t0 + rng.below(300'000);

            const auto candidates =
                store.candidates(probe_hash, t0, t1);
            // Exhaustive scan: every exact hash match in range must
            // be among the candidates.
            for (const app::StoredWindow *window :
                 store.range(t0, t1)) {
                if (!probe_hash.matches(window->hash))
                    continue;
                EXPECT_NE(std::find(candidates.begin(),
                                    candidates.end(), window),
                          candidates.end())
                    << "seed " << seed << " probe " << p
                    << " lost a hash match";
            }
            // And candidates never stray outside the time range.
            for (const app::StoredWindow *window : candidates) {
                EXPECT_GE(window->timestampUs, t0);
                EXPECT_LE(window->timestampUs, t1);
            }
        }
    }
}

// ---------------------------------------------------------------
// The quiescent-store precondition: ingest must not overlap an
// execution, whose binary-searched time slices assume the rings do
// not move underneath them.

#if SCALO_CONTRACTS
struct ContractViolation
{
};

void
throwingHandler(const char *, const char *, const char *, int)
{
    throw ContractViolation{};
}
#endif

TEST(QueryEngineContracts, IngestDuringExecutionViolatesQuiescence)
{
    // Contracts follow the build type: the check exists only where
    // the library was compiled with them on (Debug, sanitizers).
#if SCALO_CONTRACTS
    const util::ContractHandler previous =
        util::setContractHandler(&throwingHandler);
    constexpr std::size_t kSamples = 96;
    app::QueryEngine engine(1, kSamples, 7);
    Rng rng(29);
    const auto window = [&rng] {
        std::vector<double> samples(kSamples);
        for (double &v : samples)
            v = rng.gaussian();
        return samples;
    };
    for (std::uint64_t w = 0; w < 2'000; ++w)
        engine.ingest(0, w * 4'000, 0, window(), false);

    // Full-range exact DTW over every window keeps one batch in
    // flight long enough to ingest into; distinct thresholds keep
    // the plans apart.
    std::vector<app::Query> slow;
    for (int q = 0; q < 16; ++q)
        slow.push_back(app::Query::q2(0, UINT64_MAX, window(),
                                      1.0 + q));

    for (const bool batched : {false, true}) {
        EXPECT_EQ(engine.executionsInFlight(), 0u);
        std::atomic<bool> finished{false};
        std::thread runner([&] {
            engine.executeBatch(slow);
            finished.store(true);
        });
        while (engine.executionsInFlight() == 0 && !finished.load())
            std::this_thread::yield();
        bool violated = false;
        try {
            if (batched)
                engine.ingestBatch(0, {{8'000'000, 0, window(), false}});
            else
                engine.ingest(0, 8'000'000, 0, window(), false);
        } catch (const ContractViolation &) {
            violated = true;
        }
        runner.join();
        EXPECT_TRUE(violated) << (batched ? "ingestBatch" : "ingest");
    }

    // Quiescent again: ingest is allowed.
    EXPECT_EQ(engine.executionsInFlight(), 0u);
    EXPECT_NO_THROW(engine.ingest(0, 9'000'000, 0, window(), false));
    util::setContractHandler(previous);
#endif
}

} // namespace
} // namespace scalo
