/**
 * Parity and property tests for the SIMD kernel layer (util/simd.hpp
 * and the wide kernels built on it). These run identically in the
 * wide (SCALO_SIMD=AUTO/WIDE) and forced-scalar (SCALO_SIMD=SCALAR)
 * builds — the pack abstraction guarantees bit-identical results
 * across modes, so every exact EXPECT here doubles as a cross-build
 * parity check. Coverage: pack semantics (including NaN ordering and
 * signed zero), kernels vs. the naive references across odd lengths
 * and remainder lanes (N % W != 0), empty inputs, NaN/denormal
 * payloads, batched-equals-per-pair bitwise guarantees, DtwScratch
 * reallocation churn, batched hashing, and the QueryEngine batch path
 * vs. serial execution.
 */

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "scalo/app/query.hpp"
#include "scalo/app/query_engine.hpp"
#include "scalo/app/store.hpp"
#include "scalo/linalg/kernels.hpp"
#include "scalo/lsh/hasher.hpp"
#include "scalo/lsh/ssh.hpp"
#include "scalo/signal/distance.hpp"
#include "scalo/signal/reference.hpp"
#include "scalo/util/aligned.hpp"
#include "scalo/util/rng.hpp"
#include "scalo/util/simd.hpp"

namespace {

using scalo::Rng;
using scalo::simd::dpack;
using scalo::simd::kLanes;

constexpr double kQuietNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenormal = std::numeric_limits<double>::denorm_min();
constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double>
randomSignal(Rng &rng, std::size_t n)
{
    std::vector<double> out(n);
    for (double &v : out)
        v = rng.gaussian(0.0, 1.0);
    return out;
}

/** Lengths exercising empty input, every remainder lane, and more. */
const std::vector<std::size_t> kAwkwardLengths = [] {
    std::vector<std::size_t> lengths{0, 1, 2, 3};
    for (std::size_t delta = 0; delta < kLanes; ++delta) {
        lengths.push_back(kLanes + delta);
        lengths.push_back(3 * kLanes + delta);
    }
    lengths.push_back(97);
    lengths.push_back(128);
    return lengths;
}();

TEST(SimdPack, RoundTripsLoadsAndStores)
{
    alignas(64) double in[kLanes];
    alignas(64) double out[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i)
        in[i] = static_cast<double>(i) - 2.5;
    dpack::load(in).store(out);
    for (std::size_t i = 0; i < kLanes; ++i)
        EXPECT_EQ(out[i], in[i]);

    // Unaligned forms accept any double-aligned pointer.
    std::vector<double> buf(kLanes + 1);
    for (std::size_t i = 0; i < kLanes; ++i)
        buf[i + 1] = in[i];
    dpack::loadu(buf.data() + 1).store(out);
    for (std::size_t i = 0; i < kLanes; ++i)
        EXPECT_EQ(out[i], in[i]);

    const dpack v = dpack::broadcast(3.25);
    for (std::size_t i = 0; i < kLanes; ++i)
        EXPECT_EQ(v[i], 3.25);
}

TEST(SimdPack, ArithmeticMatchesScalarPerLane)
{
    alignas(64) double xs[kLanes];
    alignas(64) double ys[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i) {
        xs[i] = 0.5 * static_cast<double>(i) - 1.0;
        ys[i] = 2.0 - static_cast<double>(i);
    }
    const dpack x = dpack::load(xs);
    const dpack y = dpack::load(ys);
    for (std::size_t i = 0; i < kLanes; ++i) {
        EXPECT_EQ((x + y)[i], xs[i] + ys[i]);
        EXPECT_EQ((x - y)[i], xs[i] - ys[i]);
        EXPECT_EQ((x * y)[i], xs[i] * ys[i]);
        EXPECT_EQ((-x)[i], -xs[i]);
        EXPECT_EQ(min(x, y)[i], std::min(xs[i], ys[i]));
        EXPECT_EQ(max(x, y)[i], std::max(xs[i], ys[i]));
        EXPECT_EQ(abs(x)[i], std::abs(xs[i]));
    }
}

TEST(SimdPack, MinMaxFollowStdSemanticsOnNans)
{
    // std::min(a, b) is (b < a) ? b : a: a NaN second argument loses
    // (comparison false keeps the first argument).
    const dpack a = dpack::broadcast(1.0);
    const dpack n = dpack::broadcast(kQuietNan);
    EXPECT_EQ(min(a, n)[0], 1.0);
    EXPECT_EQ(max(a, n)[0], 1.0);
    EXPECT_TRUE(std::isnan(min(n, a)[0]));
    EXPECT_TRUE(std::isnan(max(n, a)[0]));
}

TEST(SimdPack, AbsClearsSignOfZeroAndHandlesSpecials)
{
    alignas(64) double vals[kLanes];
    vals[0] = -0.0;
    vals[1] = -kDenormal;
    for (std::size_t i = 2; i < kLanes; ++i)
        vals[i] = (i % 2) ? -kInf : -3.5;
    const dpack r = abs(dpack::load(vals));
    EXPECT_FALSE(std::signbit(r[0]));
    EXPECT_EQ(r[1], kDenormal);
    for (std::size_t i = 2; i < kLanes; ++i)
        EXPECT_EQ(r[i], std::abs(vals[i]));
    EXPECT_TRUE(std::isnan(abs(dpack::broadcast(kQuietNan))[0]));
}

TEST(SimdPack, ReducesLeftToRight)
{
    alignas(64) double vals[kLanes];
    for (std::size_t i = 0; i < kLanes; ++i)
        vals[i] = static_cast<double>(i + 1) * 0.1;
    const dpack v = dpack::load(vals);
    double sum = vals[0];
    double lo = vals[0];
    for (std::size_t i = 1; i < kLanes; ++i) {
        sum += vals[i];
        lo = std::min(lo, vals[i]);
    }
    EXPECT_EQ(v.sum(), sum);
    EXPECT_EQ(v.lanesMin(), lo);
    EXPECT_EQ(dpack::zero().sum(), 0.0);
}

TEST(AlignedBuffer, GrowsOnlyAndStaysAligned)
{
    scalo::util::AlignedBuffer<double> buf;
    EXPECT_EQ(buf.capacity(), 0u);
    double *p1 = buf.ensure(10);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % 64, 0u);
    EXPECT_GE(buf.capacity(), 10u);
    // Shrinking requests never reallocate (pointer-stable).
    EXPECT_EQ(buf.ensure(4), p1);
    const std::size_t cap = buf.capacity();
    EXPECT_EQ(buf.ensure(cap), p1);
    // Growth reallocates, still aligned.
    double *p2 = buf.ensure(cap + 1);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p2) % 64, 0u);
    EXPECT_GE(buf.capacity(), cap + 1);
}

TEST(EuclideanParity, MatchesNaiveReferenceAcrossLengths)
{
    Rng rng(9001);
    for (const std::size_t n : kAwkwardLengths) {
        const auto a = randomSignal(rng, n);
        const auto b = randomSignal(rng, n);
        const double got = scalo::signal::euclideanDistance(a, b);
        const double want = scalo::signal::reference::naiveEuclidean(a, b);
        EXPECT_NEAR(got, want, 1e-9 * (1.0 + want)) << "n=" << n;
    }
}

TEST(EuclideanParity, ManyIsBitwiseEqualToPerPair)
{
    Rng rng(9002);
    for (const std::size_t n : kAwkwardLengths) {
        const auto query = randomSignal(rng, n);
        // 11 candidates: exercises the 4-wide blocks and the 3-wide
        // remainder of the batched kernel.
        std::vector<std::vector<double>> storage;
        for (int i = 0; i < 11; ++i)
            storage.push_back(randomSignal(rng, n));
        std::vector<const std::vector<double> *> candidates;
        for (const auto &c : storage)
            candidates.push_back(&c);

        const auto many =
            scalo::signal::euclideanDistanceMany(query, candidates);
        ASSERT_EQ(many.size(), candidates.size());
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const double per_pair = std::sqrt(
                scalo::signal::euclideanDistanceSquared(
                    query.data(), candidates[i]->data(), n));
            EXPECT_EQ(many[i], per_pair) << "n=" << n << " i=" << i;
        }
    }
}

TEST(EuclideanParity, PropagatesNansAndSurvivesDenormals)
{
    // NaN payload: the distance to a NaN-bearing candidate is NaN,
    // and does not leak into neighbouring outputs of the same block.
    const std::vector<double> query{1.0, 2.0, 3.0, 4.0, 5.0};
    std::vector<std::vector<double>> storage(5, query);
    storage[2][3] = kQuietNan;
    std::vector<const std::vector<double> *> candidates;
    for (const auto &c : storage)
        candidates.push_back(&c);
    const auto dists =
        scalo::signal::euclideanDistanceMany(query, candidates);
    for (std::size_t i = 0; i < dists.size(); ++i) {
        if (i == 2)
            EXPECT_TRUE(std::isnan(dists[i]));
        else
            EXPECT_EQ(dists[i], 0.0) << "i=" << i;
    }

    // Denormal payloads go through the kernels without trapping.
    std::vector<double> tiny(19, kDenormal);
    std::vector<double> zeros(19, 0.0);
    const double d = scalo::signal::euclideanDistance(tiny, zeros);
    EXPECT_GE(d, 0.0);
    EXPECT_TRUE(std::isfinite(d));
}

TEST(DtwParity, VectorizedBandMatchesNaiveAcrossShapes)
{
    Rng rng(9007);
    scalo::signal::DtwScratch scratch;
    for (const std::size_t n : {1u, 2u, 7u, 16u, 33u, 96u}) {
        for (const std::size_t m : {1u, 5u, 16u, 41u, 96u}) {
            const auto a = randomSignal(rng, n);
            const auto b = randomSignal(rng, m);
            for (const std::size_t band : {1u, 3u, 10u, 200u}) {
                const double want =
                    scalo::signal::reference::naiveDtw(a, b, band);
                const double got =
                    scalo::signal::dtwDistance(a, b, band, scratch);
                EXPECT_DOUBLE_EQ(got, want)
                    << "n=" << n << " m=" << m << " band=" << band;
            }
        }
    }
}

TEST(DtwParity, ScratchSurvivesShrinkingAndGrowingSweeps)
{
    Rng rng(9008);
    scalo::signal::DtwScratch scratch;
    EXPECT_EQ(scratch.reallocations(), 0u);

    // Largest candidate first: the rest of the sweep must reuse the
    // allocation whatever its size (the no-churn property the query
    // path relies on across mixed-size candidate sweeps).
    const std::vector<std::size_t> sweep{128, 64, 96, 16, 128, 1, 80};
    const auto probe = randomSignal(rng, 128);
    for (const std::size_t m : sweep) {
        const auto cand = randomSignal(rng, m);
        const double got =
            scalo::signal::dtwDistance(probe, cand, 10, scratch);
        const double want =
            scalo::signal::reference::naiveDtw(probe, cand, 10);
        EXPECT_DOUBLE_EQ(got, want) << "m=" << m;
    }
    EXPECT_EQ(scratch.reallocations(), 1u);
    const std::size_t settled = scratch.capacityBytes();

    // Growing past the high-water mark reallocates exactly once more.
    const auto big = randomSignal(rng, 300);
    scalo::signal::dtwDistance(probe, big, 10, scratch);
    EXPECT_EQ(scratch.reallocations(), 2u);
    EXPECT_GT(scratch.capacityBytes(), settled);
}

TEST(DtwParity, EarlyAbandonDecisionStaysExact)
{
    Rng rng(9009);
    scalo::signal::DtwScratch scratch;
    for (int trial = 0; trial < 30; ++trial) {
        const auto a = randomSignal(rng, 48);
        const auto b = randomSignal(rng, 48);
        const double exact = scalo::signal::dtwDistance(a, b, 5);
        for (const double cutoff :
             {0.5 * exact, exact, 1.5 * exact}) {
            const double got = scalo::signal::dtwDistanceEarlyAbandon(
                a, b, 5, cutoff, scratch);
            // Abandoned rows return a lower bound above the cutoff;
            // the threshold decision must match the exact kernel.
            EXPECT_EQ(got <= cutoff, exact <= cutoff)
                << "cutoff=" << cutoff << " exact=" << exact;
            if (exact <= cutoff) {
                EXPECT_DOUBLE_EQ(got, exact);
            }
        }
    }
}

TEST(LinalgParity, DotMatchesNaiveAcrossLengths)
{
    Rng rng(9010);
    for (const std::size_t n : kAwkwardLengths) {
        const auto a = randomSignal(rng, n);
        const auto b = randomSignal(rng, n);
        const double got = scalo::linalg::dot(a.data(), b.data(), n);
        double want = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            want += a[i] * b[i];
        EXPECT_NEAR(got, want, 1e-9 * (1.0 + std::abs(want)))
            << "n=" << n;
    }
}

TEST(LinalgParity, AxpyAndAddSubAreElementwiseExact)
{
    Rng rng(9011);
    for (const std::size_t n : kAwkwardLengths) {
        const auto x = randomSignal(rng, n);
        auto y = randomSignal(rng, n);
        auto want = y;
        const double alpha = rng.gaussian(0.0, 2.0);
        for (std::size_t i = 0; i < n; ++i)
            want[i] += alpha * x[i];
        scalo::linalg::axpy(alpha, x.data(), y.data(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(y[i], want[i]) << "n=" << n << " i=" << i;

        if (n == 0)
            continue;
        scalo::linalg::Matrix ma(1, n), mb(1, n);
        for (std::size_t i = 0; i < n; ++i) {
            ma.at(0, i) = x[i];
            mb.at(0, i) = want[i];
        }
        scalo::linalg::Matrix sum, diff;
        scalo::linalg::addInto(ma, mb, sum);
        scalo::linalg::subInto(ma, mb, diff);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(sum.at(0, i), x[i] + want[i]);
            EXPECT_EQ(diff.at(0, i), x[i] - want[i]);
        }
    }
}

TEST(BatchedHashing, HashManyMatchesPerWindowHash)
{
    Rng rng(9012);
    const std::size_t window_samples = 96;
    for (const auto measure :
         {scalo::signal::Measure::Euclidean,
          scalo::signal::Measure::Dtw, scalo::signal::Measure::Xcor,
          scalo::signal::Measure::Emd}) {
        const scalo::lsh::WindowHasher hasher(measure, window_samples,
                                              0xfeedULL);
        std::vector<std::vector<double>> storage;
        for (int i = 0; i < 12; ++i)
            storage.push_back(randomSignal(rng, window_samples));
        std::vector<const std::vector<double> *> windows;
        for (const auto &w : storage)
            windows.push_back(&w);

        scalo::lsh::SshScratch scratch;
        std::vector<scalo::lsh::Signature> batched;
        hasher.hashMany(windows, scratch, batched);
        ASSERT_EQ(batched.size(), windows.size());
        for (std::size_t i = 0; i < windows.size(); ++i) {
            const auto single = hasher.hash(*windows[i]);
            EXPECT_TRUE(batched[i].matches(single))
                << "measure="
                << scalo::signal::measureName(measure) << " i=" << i;
            EXPECT_EQ(batched[i].packed(), single.packed())
                << "measure="
                << scalo::signal::measureName(measure) << " i=" << i;
        }
    }
}

TEST(BatchedHashing, SshScratchTableStaysZeroBetweenCalls)
{
    scalo::lsh::SshParams params;
    params.seed = 77;
    const scalo::lsh::SshHasher hasher(params);
    Rng rng(9013);
    scalo::lsh::SshScratch scratch;
    for (int call = 0; call < 5; ++call) {
        const auto window = randomSignal(rng, 96);
        (void)hasher.signature(window, scratch);
        for (const std::uint32_t v : scratch.table)
            ASSERT_EQ(v, 0u) << "call " << call;
    }
}

TEST(QueryBatchPath, IngestBatchMatchesSerialIngest)
{
    Rng rng(9014);
    const std::size_t window_samples = 96;
    scalo::app::QueryEngine serial(1, window_samples, 42);
    scalo::app::QueryEngine batched(1, window_samples, 42);

    std::vector<scalo::app::QueryEngine::IngestWindow> windows;
    for (std::uint64_t i = 0; i < 24; ++i) {
        scalo::app::QueryEngine::IngestWindow w;
        w.timestampUs = 1'000 * i;
        w.electrode = static_cast<scalo::ElectrodeId>(i % 4);
        w.samples = randomSignal(rng, window_samples);
        w.seizureFlagged = (i % 5) == 0;
        windows.push_back(w);
        serial.ingest(0, w.timestampUs, w.electrode, w.samples,
                      w.seizureFlagged);
    }
    batched.ingestBatch(0, windows);

    const auto &ss = serial.store(0);
    const auto &bs = batched.store(0);
    ASSERT_EQ(ss.size(), bs.size());
    const auto sw = ss.range(0, ~0ULL);
    const auto bw = bs.range(0, ~0ULL);
    ASSERT_EQ(sw.size(), bw.size());
    for (std::size_t i = 0; i < sw.size(); ++i) {
        EXPECT_EQ(sw[i]->timestampUs, bw[i]->timestampUs);
        EXPECT_EQ(sw[i]->samples, bw[i]->samples);
        EXPECT_EQ(sw[i]->hash.packed(), bw[i]->hash.packed());
        EXPECT_EQ(sw[i]->seizureFlagged, bw[i]->seizureFlagged);
    }
}

TEST(QueryBatchPath, ExecuteBatchMatchesSerialExecution)
{
    Rng rng(9015);
    const std::size_t window_samples = 96;
    scalo::app::QueryEngine engine(3, window_samples, 7);
    std::vector<std::vector<double>> probes;
    for (int p = 0; p < 3; ++p)
        probes.push_back(randomSignal(rng, window_samples));

    for (std::uint64_t i = 0; i < 120; ++i) {
        // Noisy copies of the probes so confirmations actually fire.
        auto samples = probes[i % probes.size()];
        for (double &v : samples)
            v += rng.gaussian(0.0, 0.2);
        engine.ingest(static_cast<scalo::NodeId>(i % 3), 1'000 * i,
                      static_cast<scalo::ElectrodeId>(i % 4), samples,
                      false);
    }

    // Euclidean-confirm queries drive the batched confirm kernel over
    // the stored windows; overlapping time ranges put every query's
    // candidates on every node shard of the batch.
    std::vector<scalo::app::Query> queries;
    for (int p = 0; p < 3; ++p) {
        scalo::app::Query query;
        query.t0Us = 0;
        query.t1Us = 200'000;
        query.probe = probes[static_cast<std::size_t>(p)];
        query.confirmMeasure = scalo::signal::Measure::Euclidean;
        query.dtwThreshold = 6.0;
        query.hashPrefilter = false;
        queries.push_back(query);
    }

    const auto batch = engine.executeBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto alone = engine.execute(queries[i]);
        EXPECT_EQ(batch[i].matches, alone.matches) << "query " << i;
        EXPECT_EQ(batch[i].scanned, alone.scanned) << "query " << i;
    }
}

} // namespace
