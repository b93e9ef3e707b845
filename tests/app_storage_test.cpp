/**
 * @file
 * Unit tests for the storage substrate and the executable query
 * engine: ring-buffer semantics, layout-dependent read costs, the
 * LSH bucket index, and Query descriptors executed over data
 * actually stored on the nodes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "scalo/app/query_engine.hpp"
#include "scalo/app/store.hpp"
#include "scalo/util/rng.hpp"

namespace scalo::app {
namespace {

std::vector<double>
windowOf(double freq, std::size_t n, double phase, Rng *noise)
{
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = std::sin(2.0 * std::numbers::pi * freq *
                              static_cast<double>(i) /
                              static_cast<double>(n) +
                          phase);
        if (noise)
            out[i] += noise->gaussian(0.0, 0.05);
    }
    return out;
}

StoredWindow
makeWindow(std::uint64_t t, bool seizure)
{
    StoredWindow w;
    w.timestampUs = t;
    w.samples.assign(120, 0.5);
    w.seizureFlagged = seizure;
    return w;
}

TEST(SignalStore, AppendAndRange)
{
    SignalStore store(100);
    for (std::uint64_t t = 0; t < 10; ++t)
        store.append(makeWindow(t * 4'000, t == 5));
    EXPECT_EQ(store.size(), 10u);
    const auto slice = store.range(8'000, 20'000);
    ASSERT_EQ(slice.size(), 4u);
    EXPECT_EQ(slice.front()->timestampUs, 8'000u);
    EXPECT_EQ(slice.back()->timestampUs, 20'000u);
}

TEST(SignalStore, RingOverwritesOldest)
{
    SignalStore store(4);
    for (std::uint64_t t = 0; t < 10; ++t)
        store.append(makeWindow(t * 1'000, false));
    EXPECT_EQ(store.size(), 4u);
    EXPECT_EQ(store.overwritten(), 6u);
    EXPECT_TRUE(store.range(0, 5'000).empty());
    EXPECT_EQ(store.range(6'000, 9'000).size(), 4u);
}

TEST(SignalStore, RangeIsTimestampSortedAcrossElectrodes)
{
    // Electrode-major ingest: all of electrode 0's windows land
    // before electrode 1's, so insertion order diverges from
    // timestamp order — range() must still come back sorted, ties
    // in ingest order. A small capacity forces wraparound too.
    SignalStore store(12);
    for (ElectrodeId e = 0; e < 2; ++e) {
        for (std::uint64_t w = 0; w < 8; ++w) {
            StoredWindow window = makeWindow(w * 1'000 + e * 250,
                                             false);
            window.electrode = e;
            store.append(std::move(window));
        }
    }
    EXPECT_GT(store.overwritten(), 0u);
    const auto all = store.range(0, 100'000);
    ASSERT_EQ(all.size(), 12u);
    for (std::size_t i = 1; i < all.size(); ++i)
        EXPECT_LE(all[i - 1]->timestampUs, all[i]->timestampUs);
}

TEST(SignalStore, LayoutDrivesReadCost)
{
    SignalStore reorganised(100, true);
    SignalStore raw(100, false);
    // 10x faster reads with the electrode-major layout (Section 3.3).
    EXPECT_NEAR(raw.readCost(160) / reorganised.readCost(160),
                10.0, 1e-9);
    // Writes cost 5x more with reorganisation.
    for (int i = 0; i < 32; ++i) {
        reorganised.append(makeWindow(i, false));
        raw.append(makeWindow(i, false));
    }
    EXPECT_NEAR(reorganised.totalWriteCost() /
                    raw.totalWriteCost(),
                5.0, 1e-9);
}

TEST(SignalStore, TracksBytes)
{
    SignalStore store(100);
    store.append(makeWindow(0, false));
    EXPECT_GE(store.bytesStored(), 240u);
}

TEST(SignalStore, UnhashedWindowsAreNotIndexed)
{
    SignalStore store(100);
    for (std::uint64_t t = 0; t < 5; ++t)
        store.append(makeWindow(t, false)); // default (empty) hash
    EXPECT_EQ(store.indexedWindows(), 0u);
    EXPECT_TRUE(
        store.candidates(lsh::Signature(0, 2, 8), 0, 100).empty());
}

TEST(SignalStore, BucketIndexFollowsRingOverwrites)
{
    SignalStore store(4);
    for (std::uint64_t t = 0; t < 10; ++t) {
        StoredWindow window = makeWindow(t * 1'000, false);
        window.hash =
            lsh::Signature((t % 3) | ((t % 3) << 8), 2, 8);
        store.append(std::move(window));
    }
    EXPECT_EQ(store.indexedWindows(), 4u);
    // Probing each signature returns only retained windows, and the
    // union over probes covers exactly the ring contents.
    std::size_t total = 0;
    for (std::uint64_t v = 0; v < 3; ++v) {
        for (const StoredWindow *window :
             store.candidates(lsh::Signature(v | (v << 8), 2, 8), 0,
                              1'000'000)) {
            EXPECT_GE(window->timestampUs, 6'000u);
            ++total;
        }
    }
    EXPECT_EQ(total, 4u);
}

// ---- time-ordered ring: the bookkeeping behind range()'s and
// candidates()' binary-searched fast path and their scan fallback ----

StoredWindow
hashedWindow(std::uint64_t t, std::uint64_t band0, std::uint64_t band1)
{
    StoredWindow w = makeWindow(t, false);
    w.hash = lsh::Signature(band0 | (band1 << 8), 2, 8);
    return w;
}

/** range() by definition: full scan in ingest order, stable sort. */
std::vector<const StoredWindow *>
scanRange(const SignalStore &store, std::uint64_t t0, std::uint64_t t1)
{
    std::vector<const StoredWindow *> out;
    for (std::size_t i = 0; i < store.size(); ++i)
        if (store.at(i).timestampUs >= t0 && store.at(i).timestampUs <= t1)
            out.push_back(&store.at(i));
    std::stable_sort(out.begin(), out.end(),
                     [](const StoredWindow *a, const StoredWindow *b) {
                         return a->timestampUs < b->timestampUs;
                     });
    return out;
}

/** candidates() by definition: range() filtered by a shared band. */
std::vector<const StoredWindow *>
scanCandidates(const SignalStore &store, const lsh::Signature &probe,
               std::uint64_t t0, std::uint64_t t1)
{
    std::vector<const StoredWindow *> out;
    for (const StoredWindow *window : scanRange(store, t0, t1)) {
        const unsigned bands =
            std::min(probe.bandCount(), window->hash.bandCount());
        for (unsigned b = 0; b < bands; ++b) {
            if (probe.band(b) == window->hash.band(b)) {
                out.push_back(window);
                break;
            }
        }
    }
    return out;
}

/** range() and candidates() for every probe agree with a scan. */
void
expectAnswersMatchScan(const SignalStore &store, std::uint64_t t0,
                       std::uint64_t t1)
{
    EXPECT_EQ(store.range(t0, t1), scanRange(store, t0, t1))
        << "[" << t0 << ", " << t1 << "]";
    for (std::uint64_t a = 0; a < 3; ++a) {
        for (std::uint64_t b = 0; b < 3; ++b) {
            const lsh::Signature probe(a | (b << 8), 2, 8);
            EXPECT_EQ(store.candidates(probe, t0, t1),
                      scanCandidates(store, probe, t0, t1))
                << "[" << t0 << ", " << t1 << "] probe " << a << "/"
                << b;
        }
    }
}

TEST(SignalStoreTimeOrder, TiesStaySortedInIngestOrder)
{
    SignalStore store(16);
    for (const std::uint64_t t : {10, 10, 20, 20, 20, 30})
        store.append(hashedWindow(t, t % 3, 1));
    EXPECT_TRUE(store.timeOrdered());
    const auto ties = store.range(20, 20);
    ASSERT_EQ(ties.size(), 3u);
    for (std::size_t i = 0; i < ties.size(); ++i)
        EXPECT_EQ(ties[i], &store.at(2 + i));
    const auto all = store.range(0, 100);
    ASSERT_EQ(all.size(), store.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i], &store.at(i));
    expectAnswersMatchScan(store, 10, 20);
    expectAnswersMatchScan(store, 0, 1'000);
}

TEST(SignalStoreTimeOrder, OutOfOrderWindowFallsBackUntilEvicted)
{
    SignalStore store(4);
    for (const std::uint64_t t : {10, 20, 30})
        store.append(hashedWindow(t, t % 3, 0));
    EXPECT_TRUE(store.timeOrdered());
    store.append(hashedWindow(15, 0, 0)); // older than 30
    EXPECT_FALSE(store.timeOrdered());
    const auto sorted = store.range(0, 100);
    ASSERT_EQ(sorted.size(), 4u);
    EXPECT_EQ(sorted[1]->timestampUs, 15u);
    expectAnswersMatchScan(store, 0, 100);
    expectAnswersMatchScan(store, 12, 25);

    // Evicting 10 and then 20 leaves the (30, 15) pair retained.
    store.append(hashedWindow(40, 1, 1));
    EXPECT_FALSE(store.timeOrdered());
    store.append(hashedWindow(50, 2, 1));
    EXPECT_FALSE(store.timeOrdered());
    expectAnswersMatchScan(store, 0, 100);
    // Evicting 30, the inversion's older slot, restores the order.
    store.append(hashedWindow(60, 0, 2));
    EXPECT_TRUE(store.timeOrdered());
    EXPECT_EQ(store.at(0).timestampUs, 15u);
    expectAnswersMatchScan(store, 0, 100);
    expectAnswersMatchScan(store, 15, 50);
}

TEST(SignalStoreTimeOrder, CapacityOneIsAlwaysOrdered)
{
    SignalStore store(1);
    for (const std::uint64_t t : {30, 20, 20, 10, 40}) {
        store.append(hashedWindow(t, 1, 2));
        EXPECT_TRUE(store.timeOrdered()) << t;
        ASSERT_EQ(store.size(), 1u);
        EXPECT_EQ(store.range(t, t).size(), 1u);
        EXPECT_EQ(store.candidates(lsh::Signature(1 | (0 << 8), 2, 8),
                                   0, 100)
                      .size(),
                  1u);
        expectAnswersMatchScan(store, 0, 100);
        expectAnswersMatchScan(store, t + 1, 100);
    }
}

TEST(SignalStoreTimeOrder, ManyWrapsKeepSlicesExact)
{
    SignalStore store(8);
    Rng rng(5);
    std::uint64_t t = 0;
    for (int i = 0; i < 1'000; ++i) {
        t += 10 * rng.below(3);
        store.append(hashedWindow(t, rng.below(3), rng.below(3)));
        ASSERT_TRUE(store.timeOrdered());
        if (i % 97 == 0) {
            expectAnswersMatchScan(store, 0, t);
            expectAnswersMatchScan(store, t > 40 ? t - 40 : 0, t);
        }
    }
    EXPECT_EQ(store.overwritten(), 992u);
    EXPECT_EQ(store.indexedWindows(), 8u);
    expectAnswersMatchScan(store, t - 30, t - 10);
}

TEST(SignalStoreTimeOrder, UnsignedWindowsAreInRangeButNotCandidates)
{
    SignalStore store(16);
    for (std::uint64_t t = 0; t < 10; ++t) {
        if (t % 2 == 0)
            store.append(makeWindow(t * 10, false)); // no signature
        else
            store.append(hashedWindow(t * 10, 1, 1));
    }
    EXPECT_TRUE(store.timeOrdered());
    EXPECT_EQ(store.indexedWindows(), 5u);
    EXPECT_EQ(store.range(0, 100).size(), 10u);
    const auto hits =
        store.candidates(lsh::Signature(1 | (1 << 8), 2, 8), 0, 100);
    ASSERT_EQ(hits.size(), 5u);
    for (const StoredWindow *window : hits)
        EXPECT_EQ(window->hash.bandCount(), 2u);
    expectAnswersMatchScan(store, 15, 75);
}

TEST(SignalStoreTimeOrder, EmptyAndPointRanges)
{
    // The same bounds on an ordered store (fast path) and on one
    // holding an inversion (fallback).
    for (const bool ordered : {true, false}) {
        SignalStore store(32);
        for (std::uint64_t t = 1; t <= 20; ++t)
            store.append(hashedWindow(t * 10, t % 3, 0));
        if (!ordered)
            store.append(hashedWindow(55, 1, 0));
        EXPECT_EQ(store.timeOrdered(), ordered);
        const lsh::Signature probe(1, 2, 8);

        // t0 past every timestamp, t1 before every timestamp.
        EXPECT_TRUE(store.range(201, 500).empty());
        EXPECT_TRUE(store.candidates(probe, 201, 500).empty());
        EXPECT_TRUE(store.range(0, 9).empty());
        EXPECT_TRUE(store.candidates(probe, 0, 9).empty());
        // An inverted interval holds nothing.
        EXPECT_TRUE(store.range(100, 50).empty());
        EXPECT_TRUE(store.candidates(probe, 100, 50).empty());
        // t0 == t1: exactly the windows at that instant.
        const auto point = store.range(70, 70);
        ASSERT_EQ(point.size(), 1u);
        EXPECT_EQ(point.front()->timestampUs, 70u);
        EXPECT_TRUE(store.range(75, 75).empty());
        for (std::uint64_t t = 0; t <= 210; t += 5)
            expectAnswersMatchScan(store, t, t);
        expectAnswersMatchScan(store, 201, 500);
        expectAnswersMatchScan(store, 0, 9);
    }
}

class QueryEngineFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        engine = std::make_unique<QueryEngine>(3, 120, 7);
        Rng noise(3);
        // 3 nodes x 50 windows at 4 ms cadence; windows 20-24 are a
        // propagating seizure burst (same 6 Hz shape on every node).
        for (NodeId node = 0; node < 3; ++node) {
            for (std::uint64_t w = 0; w < 50; ++w) {
                const bool seizure = w >= 20 && w < 25;
                std::vector<double> window;
                if (seizure) {
                    window = windowOf(6.0, 120, 0.3, &noise);
                } else {
                    window.assign(120, 0.0);
                    for (auto &v : window)
                        v = noise.gaussian();
                }
                engine->ingest(node, w * 4'000,
                               static_cast<ElectrodeId>(node),
                               window, seizure);
            }
        }
    }

    std::unique_ptr<QueryEngine> engine;
};

TEST_F(QueryEngineFixture, Q1ReturnsExactlyFlaggedWindows)
{
    const auto result = engine->execute(Query::q1(0, 200'000));
    EXPECT_EQ(result.scanned, 150u);
    EXPECT_EQ(result.matches.size(), 15u); // 5 windows x 3 nodes
    for (const StoredWindow *window : result.matches)
        EXPECT_TRUE(window->seizureFlagged);
    EXPECT_GT(result.latency.count(), 0.0);
}

TEST_F(QueryEngineFixture, Q1TimeRangeRestricts)
{
    // Only the first half of the burst.
    const auto result = engine->execute(Query::q1(80'000, 88'000));
    EXPECT_EQ(result.matches.size(), 9u); // windows 20,21,22 x 3
}

TEST_F(QueryEngineFixture, Q2HashFindsSeizureShape)
{
    Rng noise(11);
    const auto probe = windowOf(6.0, 120, 0.3, &noise);
    const auto result =
        engine->execute(Query::q2(0, 200'000, probe));
    // Most seizure windows collide with the probe's hash; background
    // windows rarely do.
    std::size_t seizure_hits = 0, background_hits = 0;
    for (const StoredWindow *window : result.matches) {
        if (window->seizureFlagged)
            ++seizure_hits;
        else
            ++background_hits;
    }
    EXPECT_GE(seizure_hits, 8u);
    EXPECT_LT(background_hits, 30u);
}

TEST_F(QueryEngineFixture, Q2IndexTouchesFewerWindowsSameMatches)
{
    Rng noise(11);
    const auto probe = windowOf(6.0, 120, 0.3, &noise);
    auto indexed = Query::q2(0, 200'000, probe);
    auto scan = indexed;
    scan.useIndex = false;
    const auto via_index = engine->execute(indexed);
    const auto via_scan = engine->execute(scan);
    // Identical match set, but the index only reads candidate
    // buckets — so the modeled NVM cost charges fewer windows.
    ASSERT_EQ(via_index.matches.size(), via_scan.matches.size());
    for (std::size_t i = 0; i < via_index.matches.size(); ++i)
        EXPECT_EQ(via_index.matches[i], via_scan.matches[i]);
    EXPECT_LT(via_index.scanned, via_scan.scanned);
    EXPECT_LE(via_index.latency.count(), via_scan.latency.count());
    for (const QueryStats &stats : via_index.perNode)
        EXPECT_EQ(stats.bucketHits, stats.scanned);
}

TEST_F(QueryEngineFixture, Q2ExactConfirmationTightensMatches)
{
    Rng noise(13);
    const auto probe = windowOf(6.0, 120, 0.3, &noise);
    const auto hash_only =
        engine->execute(Query::q2(0, 200'000, probe));
    const auto exact =
        engine->execute(Query::q2(0, 200'000, probe, 15.0));
    EXPECT_LE(exact.matches.size(), hash_only.matches.size());
    for (const StoredWindow *window : exact.matches)
        EXPECT_TRUE(window->seizureFlagged);
    // Exact scanning costs more time.
    EXPECT_GT(exact.latency.count(), 0.0);
}

TEST_F(QueryEngineFixture, EuclideanConfirmMatchesBruteForce)
{
    // The batched-Euclidean confirm path must produce exactly the
    // match set of filtering candidates by per-pair distance.
    Rng noise(17);
    const auto probe = windowOf(6.0, 120, 0.3, &noise);
    const double threshold = 8.0;
    const auto hash_only =
        engine->execute(Query::q2(0, 200'000, probe));
    const auto confirmed = engine->execute(Query::q2(
        0, 200'000, probe, threshold, signal::Measure::Euclidean));

    std::vector<const StoredWindow *> expected;
    for (const StoredWindow *window : hash_only.matches)
        if (signal::euclideanDistance(probe, window->samples) <=
            threshold)
            expected.push_back(window);
    ASSERT_EQ(confirmed.matches.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(confirmed.matches[i], expected[i]);

    // Confirmation comparisons are counted like DTW's (the DTW PE
    // with band = 1 is the Euclidean unit).
    std::size_t compared = 0;
    for (const QueryStats &stats : confirmed.perNode)
        compared += stats.dtwComparisons;
    EXPECT_GE(compared, hash_only.matches.size());
}

TEST_F(QueryEngineFixture, HashPrefilteredDtwComposesFilters)
{
    // The descriptor expresses what used to need a new method: DTW
    // confirmation over bucket candidates only, optionally composed
    // with the seizure flag.
    Rng noise(13);
    const auto probe = windowOf(6.0, 120, 0.3, &noise);
    auto query = Query::q2(0, 200'000, probe);
    query.dtwThreshold = 15.0;
    const auto confirmed = engine->execute(query);
    std::size_t dtw_total = 0, bucket_total = 0;
    for (const QueryStats &stats : confirmed.perNode) {
        dtw_total += stats.dtwComparisons;
        bucket_total += stats.bucketHits;
    }
    EXPECT_GT(dtw_total, 0u);
    EXPECT_LE(dtw_total, bucket_total)
        << "DTW runs only on hash-confirmed candidates";
    for (const StoredWindow *window : confirmed.matches)
        EXPECT_TRUE(window->seizureFlagged);

    query.seizureOnly = true;
    const auto composed = engine->execute(query);
    EXPECT_LE(composed.matches.size(), confirmed.matches.size());
    for (const StoredWindow *window : composed.matches)
        EXPECT_TRUE(window->seizureFlagged);
}

TEST_F(QueryEngineFixture, Q3ReturnsEverything)
{
    const auto result = engine->execute(Query::q3(0, 200'000));
    EXPECT_EQ(result.matches.size(), 150u);
    EXPECT_EQ(result.transferBytes, 150u * 240u);
    // Q3 ships everything: slowest of the three.
    const auto q1 = engine->execute(Query::q1(0, 200'000));
    EXPECT_GT(result.latency.count(), q1.latency.count());
}

TEST_F(QueryEngineFixture, MatchedFractionComputed)
{
    const auto result = engine->execute(Query::q1(0, 200'000));
    EXPECT_NEAR(result.matchedFraction(), 15.0 / 150.0, 1e-12);
}

TEST_F(QueryEngineFixture, PerNodeStatsAddUp)
{
    const auto result = engine->execute(Query::q1(0, 200'000));
    ASSERT_EQ(result.perNode.size(), 3u);
    std::size_t scanned = 0, matched = 0;
    for (const QueryStats &stats : result.perNode) {
        scanned += stats.scanned;
        matched += stats.matched;
        EXPECT_GE(stats.modeled.count(), 0.0);
        EXPECT_GE(stats.wall.count(), 0.0);
    }
    EXPECT_EQ(scanned, result.scanned);
    EXPECT_EQ(matched, result.matches.size());
    EXPECT_EQ(result.perNode[0].node, 0u);
    EXPECT_EQ(result.perNode[2].node, 2u);
}

TEST_F(QueryEngineFixture, MergeIsTimestampOrdered)
{
    const auto result = engine->execute(Query::q3(0, 200'000));
    for (std::size_t i = 1; i < result.matches.size(); ++i)
        EXPECT_LE(result.matches[i - 1]->timestampUs,
                  result.matches[i]->timestampUs);
}

} // namespace
} // namespace scalo::app
