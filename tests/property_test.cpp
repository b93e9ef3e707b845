/**
 * @file
 * Parameterized property tests: invariants swept across sizes, data
 * classes and seeds with TEST_P / INSTANTIATE_TEST_SUITE_P.
 *
 *  - every codec round-trips losslessly on every data class;
 *  - the LP solver matches brute-force enumeration on random ILPs;
 *  - distance measures obey metric-like properties at every length;
 *  - packets survive serialize/deserialize at every payload size and
 *    are never silently accepted when corrupted;
 *  - LSH signatures are reflexive and symmetric for every family
 *    configuration.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "scalo/compress/hcomp.hpp"
#include "scalo/compress/lic.hpp"
#include "scalo/compress/lz.hpp"
#include "scalo/compress/range_coder.hpp"
#include "scalo/ilp/solver.hpp"
#include "scalo/lsh/hasher.hpp"
#include "scalo/net/packet.hpp"
#include "scalo/signal/distance.hpp"
#include "scalo/signal/fft.hpp"
#include "scalo/util/rng.hpp"

namespace scalo {
namespace {

// ---------------------------------------------------------------
// Codec round-trip properties over (data class x size).

enum class DataClass
{
    Zeros,
    Constant,
    SmoothSine,
    NoisySine,
    WhiteNoise,
    Extremes,
};

std::vector<Sample>
makeSamples(DataClass cls, std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Sample> out(n, 0);
    switch (cls) {
      case DataClass::Zeros:
        break;
      case DataClass::Constant:
        std::fill(out.begin(), out.end(), Sample{1'234});
        break;
      case DataClass::SmoothSine:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = static_cast<Sample>(
                3'000.0 * std::sin(0.01 * static_cast<double>(i)));
        break;
      case DataClass::NoisySine:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = static_cast<Sample>(
                2'000.0 * std::sin(0.02 * static_cast<double>(i)) +
                rng.gaussian(0.0, 300.0));
        break;
      case DataClass::WhiteNoise:
        for (auto &v : out)
            v = static_cast<Sample>(rng.below(65'536) - 32'768);
        break;
      case DataClass::Extremes:
        for (std::size_t i = 0; i < n; ++i)
            out[i] = (i % 2) ? Sample{32'767} : Sample{-32'768};
        break;
    }
    return out;
}

using CodecParam = std::tuple<DataClass, std::size_t>;

class CodecRoundTrip : public ::testing::TestWithParam<CodecParam>
{
};

TEST_P(CodecRoundTrip, LicIsLossless)
{
    const auto [cls, n] = GetParam();
    const auto samples = makeSamples(cls, n, 1);
    EXPECT_EQ(compress::licDecompress(compress::licCompress(samples),
                                      samples.size()),
              samples);
}

TEST_P(CodecRoundTrip, NeuralStreamIsLossless)
{
    const auto [cls, n] = GetParam();
    const auto samples = makeSamples(cls, n, 2);
    const auto packed = compress::neuralStreamCompress(samples);
    EXPECT_EQ(compress::neuralStreamDecompress(packed,
                                               samples.size()),
              samples);
}

TEST_P(CodecRoundTrip, LzIsLossless)
{
    const auto [cls, n] = GetParam();
    const auto samples = makeSamples(cls, n, 3);
    std::vector<std::uint8_t> raw(samples.size() * 2);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        raw[2 * i] = static_cast<std::uint8_t>(samples[i] & 0xff);
        raw[2 * i + 1] =
            static_cast<std::uint8_t>((samples[i] >> 8) & 0xff);
    }
    EXPECT_EQ(compress::lzDecompress(compress::lzCompress(raw),
                                     raw.size()),
              raw);
}

TEST_P(CodecRoundTrip, HcompIsLossless)
{
    const auto [cls, n] = GetParam();
    const auto samples = makeSamples(cls, n, 4);
    std::vector<HashValue> hashes;
    for (Sample s : samples)
        hashes.push_back(static_cast<HashValue>(s & 0xff));
    const auto block = compress::compressHashes(hashes);
    EXPECT_EQ(compress::decompressHashes(block), hashes);
}

INSTANTIATE_TEST_SUITE_P(
    AllClassesAndSizes, CodecRoundTrip,
    ::testing::Combine(
        ::testing::Values(DataClass::Zeros, DataClass::Constant,
                          DataClass::SmoothSine, DataClass::NoisySine,
                          DataClass::WhiteNoise, DataClass::Extremes),
        ::testing::Values<std::size_t>(0, 1, 2, 120, 1'000)));

// ---------------------------------------------------------------
// LP solver vs brute force on random bounded integer programs.

class IlpAgainstBruteForce : public ::testing::TestWithParam<int>
{
};

TEST_P(IlpAgainstBruteForce, MatchesEnumeration)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7'919 + 3);
    // 3 integer variables in [0, 6], 3 random <= constraints.
    ilp::Model model;
    const int bound = 6;
    std::vector<int> vars;
    for (int v = 0; v < 3; ++v)
        vars.push_back(model.addVariable(
            std::string("x").append(std::to_string(v)), 0.0, bound,
            true));
    std::vector<std::array<double, 4>> rows;
    for (int c = 0; c < 3; ++c) {
        std::array<double, 4> row{};
        ilp::Expr expr;
        for (int v = 0; v < 3; ++v) {
            row[static_cast<std::size_t>(v)] =
                rng.uniform(0.0, 3.0);
            expr.push_back({vars[static_cast<std::size_t>(v)],
                            row[static_cast<std::size_t>(v)]});
        }
        row[3] = rng.uniform(4.0, 18.0);
        model.addConstraint(std::move(expr), ilp::Relation::LessEq,
                            row[3]);
        rows.push_back(row);
    }
    std::array<double, 3> objective{};
    ilp::Expr objective_expr;
    for (int v = 0; v < 3; ++v) {
        objective[static_cast<std::size_t>(v)] =
            rng.uniform(0.1, 5.0);
        objective_expr.push_back(
            {vars[static_cast<std::size_t>(v)],
             objective[static_cast<std::size_t>(v)]});
    }
    model.setObjective(std::move(objective_expr));

    // Brute force over the 7^3 lattice.
    double best = -1.0;
    for (int a = 0; a <= bound; ++a) {
        for (int b = 0; b <= bound; ++b) {
            for (int c = 0; c <= bound; ++c) {
                bool feasible = true;
                for (const auto &row : rows) {
                    if (row[0] * a + row[1] * b + row[2] * c >
                        row[3] + 1e-12) {
                        feasible = false;
                        break;
                    }
                }
                if (feasible) {
                    best = std::max(best, objective[0] * a +
                                              objective[1] * b +
                                              objective[2] * c);
                }
            }
        }
    }

    const auto solution = ilp::solveIlp(model);
    ASSERT_TRUE(solution.ok());
    EXPECT_NEAR(solution.objective, best, 1e-6);
    EXPECT_TRUE(model.feasible(solution.values));
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, IlpAgainstBruteForce,
                         ::testing::Range(0, 20));

// ---------------------------------------------------------------
// Distance-measure properties across window lengths.

class DistanceProperties
    : public ::testing::TestWithParam<std::size_t>
{
  protected:
    std::vector<double>
    randomWindow(Rng &rng) const
    {
        std::vector<double> out(GetParam());
        for (auto &v : out)
            v = rng.gaussian();
        return out;
    }
};

TEST_P(DistanceProperties, IdentityAndSymmetry)
{
    Rng rng(GetParam() * 13 + 1);
    const auto a = randomWindow(rng);
    const auto b = randomWindow(rng);
    for (auto m :
         {signal::Measure::Euclidean, signal::Measure::Dtw,
          signal::Measure::Emd}) {
        EXPECT_NEAR(signal::dissimilarity(m, a, a), 0.0, 1e-9)
            << signal::measureName(m);
        EXPECT_NEAR(signal::dissimilarity(m, a, b),
                    signal::dissimilarity(m, b, a), 1e-9)
            << signal::measureName(m);
        EXPECT_GE(signal::dissimilarity(m, a, b), 0.0);
    }
}

TEST_P(DistanceProperties, DtwLowerBoundedByBandedEuclidean)
{
    // DTW's optimal path can only lower the cost versus the diagonal.
    Rng rng(GetParam() * 17 + 5);
    const auto a = randomWindow(rng);
    const auto b = randomWindow(rng);
    EXPECT_LE(signal::dtwDistance(a, b, GetParam() / 4 + 2),
              signal::dtwDistance(a, b, 1) + 1e-9);
}

TEST_P(DistanceProperties, FftRoundTripAtEveryLength)
{
    Rng rng(GetParam() * 19 + 7);
    const std::size_t n = signal::nextPowerOfTwo(GetParam());
    std::vector<std::complex<double>> data(n);
    for (auto &x : data)
        x = {rng.gaussian(), rng.gaussian()};
    auto copy = data;
    const auto plan = signal::FftPlan::forSize(n);
    plan->forward(copy);
    plan->inverse(copy);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(copy[i] - data[i]), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(WindowLengths, DistanceProperties,
                         ::testing::Values<std::size_t>(4, 16, 60,
                                                        120, 240));

// ---------------------------------------------------------------
// Packet integrity across payload sizes and corruption.

class PacketProperties : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PacketProperties, CleanRoundTrip)
{
    Rng rng(GetParam() + 41);
    net::Packet packet;
    packet.source = 5;
    packet.type = net::PacketType::Feature;
    packet.payload.resize(GetParam());
    for (auto &b : packet.payload)
        b = static_cast<std::uint8_t>(rng.below(256));
    const auto result = net::deserialize(net::serialize(packet));
    ASSERT_TRUE(result.headerOk);
    ASSERT_TRUE(result.payloadOk);
    EXPECT_EQ(result.packet.payload, packet.payload);
}

TEST_P(PacketProperties, EveryPayloadBitFlipIsDetected)
{
    net::Packet packet;
    packet.type = net::PacketType::Hash;
    packet.payload.assign(std::max<std::size_t>(1, GetParam()),
                          0x5a);
    const auto wire = net::serialize(packet);
    // Flip a sample of payload bits; the CRC must catch each.
    for (std::size_t bit = 0;
         bit < packet.payload.size() * 8; bit += 13) {
        auto corrupted = wire;
        const std::size_t index =
            net::kPacketOverheadBytes - 4 + bit / 8;
        corrupted[index] ^= static_cast<std::uint8_t>(1u
                                                      << (bit % 8));
        const auto result = net::deserialize(corrupted);
        EXPECT_FALSE(result.headerOk && result.payloadOk)
            << "undetected flip at payload bit " << bit;
    }
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, PacketProperties,
                         ::testing::Values<std::size_t>(0, 1, 13, 96,
                                                        240, 256));

// ---------------------------------------------------------------
// Signature/hasher invariants across family configurations.

using HasherParam = std::tuple<signal::Measure, std::size_t>;

class HasherProperties
    : public ::testing::TestWithParam<HasherParam>
{
};

TEST_P(HasherProperties, ReflexiveDeterministicSymmetric)
{
    const auto [measure, n] = GetParam();
    const lsh::WindowHasher hasher(measure, n, 11);
    Rng rng(static_cast<std::uint64_t>(n) * 31 + 7);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<double> a(n), b(n);
        for (std::size_t i = 0; i < n; ++i) {
            a[i] = rng.gaussian();
            b[i] = rng.gaussian();
        }
        const auto ha = hasher.hash(a);
        // Reflexive: identical input always matches itself.
        EXPECT_TRUE(ha.matches(hasher.hash(a)));
        // Deterministic.
        EXPECT_TRUE(ha == hasher.hash(a));
        // Symmetric match relation.
        const auto hb = hasher.hash(b);
        EXPECT_EQ(ha.matches(hb), hb.matches(ha));
    }
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndLengths, HasherProperties,
    ::testing::Combine(
        ::testing::Values(signal::Measure::Euclidean,
                          signal::Measure::Dtw, signal::Measure::Xcor,
                          signal::Measure::Emd),
        ::testing::Values<std::size_t>(60, 120, 240)));

} // namespace
} // namespace scalo
