/**
 * @file
 * Google-benchmark microbenchmarks of the hot kernels every SCALO
 * pipeline leans on: FFT, Butterworth, DTW, the SSH/EMD hashes,
 * HCOMP compression, the Kalman step, Gauss-Jordan inversion, and
 * the LP solver.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hpp"
#include "scalo/compress/hcomp.hpp"
#include "scalo/compress/range_coder.hpp"
#include "scalo/util/aes.hpp"
#include "scalo/ilp/solver.hpp"
#include "scalo/linalg/kernels.hpp"
#include "scalo/linalg/matrix.hpp"
#include "scalo/linalg/reference.hpp"
#include "scalo/lsh/emd_hash.hpp"
#include "scalo/lsh/ssh.hpp"
#include "scalo/ml/kalman.hpp"
#include "scalo/signal/butterworth.hpp"
#include "scalo/signal/distance.hpp"
#include "scalo/signal/fft.hpp"
#include "scalo/signal/fft_plan.hpp"
#include "scalo/signal/reference.hpp"

namespace {

using namespace scalo;

std::vector<double>
window120(std::uint64_t seed)
{
    Rng rng(seed);
    return bench::baseWindow(120, rng);
}

void
BM_Fft128(benchmark::State &state)
{
    std::vector<std::complex<double>> data(128);
    Rng rng(1);
    for (auto &x : data)
        x = {rng.gaussian(), 0.0};
    const auto plan = signal::FftPlan::forSize(128);
    std::vector<std::complex<double>> copy(128);
    for (auto _ : state) {
        copy = data;
        plan->forward(copy);
        benchmark::DoNotOptimize(copy);
    }
}
BENCHMARK(BM_Fft128);

void
BM_Rfft128(benchmark::State &state)
{
    Rng rng(1);
    std::vector<double> data(128);
    for (auto &x : data)
        x = rng.gaussian();
    const auto plan = signal::FftPlan::forSize(128);
    std::vector<std::complex<double>> spectrum(65);
    std::vector<std::complex<double>> scratch;
    for (auto _ : state) {
        plan->rfft(data.data(), spectrum.data(), scratch);
        benchmark::DoNotOptimize(spectrum);
    }
}
BENCHMARK(BM_Rfft128);

void
BM_BandPowerScratch(benchmark::State &state)
{
    Rng rng(1);
    const auto input = bench::baseWindow(96, rng);
    const std::vector<signal::Band> bands{
        {1.0, 4.0}, {4.0, 8.0}, {8.0, 13.0}, {13.0, 30.0}};
    signal::SpectrumScratch scratch;
    std::vector<double> powers;
    for (auto _ : state) {
        signal::bandPower(input, 250.0, bands, scratch, powers);
        benchmark::DoNotOptimize(powers);
    }
}
BENCHMARK(BM_BandPowerScratch);

void
BM_Butterworth(benchmark::State &state)
{
    signal::ButterworthBandpass filter(2, 100.0, 3'000.0, 30'000.0);
    const auto input = window120(2);
    for (auto _ : state) {
        filter.reset();
        benchmark::DoNotOptimize(filter.apply(input));
    }
}
BENCHMARK(BM_Butterworth);

void
BM_DtwBanded(benchmark::State &state)
{
    const auto a = window120(3);
    const auto b = window120(4);
    signal::DtwScratch scratch;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            signal::dtwDistance(a, b, 12, scratch));
}
BENCHMARK(BM_DtwBanded);

void
BM_DtwBandedNaive(benchmark::State &state)
{
    const auto a = window120(3);
    const auto b = window120(4);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            signal::reference::naiveDtw(a, b, 12));
}
BENCHMARK(BM_DtwBandedNaive);

void
BM_DtwEarlyAbandon(benchmark::State &state)
{
    // Dissimilar windows with a tight cutoff: the common case on the
    // candidate-verification path, where most candidates abandon in
    // the first few rows.
    const auto a = window120(3);
    const auto b = window120(4);
    signal::DtwScratch scratch;
    const double cutoff =
        0.25 * signal::dtwDistance(a, b, 12, scratch);
    for (auto _ : state)
        benchmark::DoNotOptimize(signal::dtwDistanceEarlyAbandon(
            a, b, 12, cutoff, scratch));
}
BENCHMARK(BM_DtwEarlyAbandon);

void
BM_EuclideanBatch64(benchmark::State &state)
{
    const auto query = window120(3);
    std::vector<std::vector<double>> windows;
    for (std::uint64_t i = 0; i < 64; ++i)
        windows.push_back(window120(100 + i));
    std::vector<const std::vector<double> *> candidates;
    for (const auto &w : windows)
        candidates.push_back(&w);
    std::vector<double> out;
    for (auto _ : state) {
        signal::euclideanDistanceMany(query, candidates, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_EuclideanBatch64);

void
BM_EuclideanPerPair64(benchmark::State &state)
{
    const auto query = window120(3);
    std::vector<std::vector<double>> windows;
    for (std::uint64_t i = 0; i < 64; ++i)
        windows.push_back(window120(100 + i));
    std::vector<double> out(windows.size());
    for (auto _ : state) {
        for (std::size_t i = 0; i < windows.size(); ++i)
            out[i] = signal::reference::naiveEuclidean(query,
                                                       windows[i]);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_EuclideanPerPair64);

void
BM_MatMul64(benchmark::State &state)
{
    Rng rng(12);
    linalg::Matrix a(64, 64), b(64, 64), out;
    for (std::size_t r = 0; r < 64; ++r)
        for (std::size_t c = 0; c < 64; ++c) {
            a.at(r, c) = rng.gaussian();
            b.at(r, c) = rng.gaussian();
        }
    for (auto _ : state) {
        linalg::mulInto(a, b, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_MatMul64);

void
BM_MatMul64Naive(benchmark::State &state)
{
    Rng rng(12);
    linalg::Matrix a(64, 64), b(64, 64);
    for (std::size_t r = 0; r < 64; ++r)
        for (std::size_t c = 0; c < 64; ++c) {
            a.at(r, c) = rng.gaussian();
            b.at(r, c) = rng.gaussian();
        }
    for (auto _ : state)
        benchmark::DoNotOptimize(
            linalg::reference::naiveMul(a, b));
}
BENCHMARK(BM_MatMul64Naive);

void
BM_SshSignature(benchmark::State &state)
{
    const lsh::SshHasher hasher({});
    const auto input = window120(5);
    for (auto _ : state)
        benchmark::DoNotOptimize(hasher.signature(input));
}
BENCHMARK(BM_SshSignature);

void
BM_EmdHash(benchmark::State &state)
{
    const lsh::EmdHasher hasher({}, 120);
    const auto input = window120(6);
    for (auto _ : state)
        benchmark::DoNotOptimize(hasher.signature(input));
}
BENCHMARK(BM_EmdHash);

void
BM_HcompRoundTrip(benchmark::State &state)
{
    Rng rng(7);
    std::vector<HashValue> hashes;
    HashValue current = 3;
    for (int i = 0; i < 960; ++i) {
        if (rng.chance(0.1))
            current = static_cast<HashValue>(rng.below(32));
        hashes.push_back(current);
    }
    for (auto _ : state) {
        const auto block = compress::compressHashes(hashes);
        benchmark::DoNotOptimize(compress::decompressHashes(block));
    }
}
BENCHMARK(BM_HcompRoundTrip);

void
BM_KalmanStep96(benchmark::State &state)
{
    auto filter = ml::KalmanFilter::cursorDecoder(96, 0.05, 8);
    Rng rng(9);
    std::vector<double> obs(96);
    for (auto &v : obs)
        v = rng.gaussian();
    for (auto _ : state)
        benchmark::DoNotOptimize(filter.step(obs));
}
BENCHMARK(BM_KalmanStep96);

void
BM_Inverse16(benchmark::State &state)
{
    Rng rng(10);
    linalg::Matrix m(16, 16);
    for (std::size_t r = 0; r < 16; ++r) {
        for (std::size_t c = 0; c < 16; ++c)
            m.at(r, c) = rng.gaussian();
        m.at(r, r) += 8.0;
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(linalg::inverse(m));
}
BENCHMARK(BM_Inverse16);

void
BM_Aes128CtrBlock(benchmark::State &state)
{
    const Aes128::Key key{1, 2, 3};
    const Aes128 aes(key);
    std::vector<std::uint8_t> window(240, 0x5a);
    for (auto _ : state)
        benchmark::DoNotOptimize(aes.ctrCrypt(window, {7}));
}
BENCHMARK(BM_Aes128CtrBlock);

void
BM_NeuralStreamCodec(benchmark::State &state)
{
    Rng rng(11);
    std::vector<Sample> samples(3'000);
    double phase = 0.0;
    for (auto &s : samples) {
        phase += 0.012;
        s = static_cast<Sample>(2'000.0 * std::sin(phase) +
                                rng.gaussian(0.0, 30.0));
    }
    for (auto _ : state) {
        const auto packed = compress::neuralStreamCompress(samples);
        benchmark::DoNotOptimize(
            compress::neuralStreamDecompress(packed,
                                             samples.size()));
    }
}
BENCHMARK(BM_NeuralStreamCodec);

void
BM_IlpSchedulerShaped(benchmark::State &state)
{
    for (auto _ : state) {
        ilp::Model model;
        ilp::Expr objective, network;
        for (int node = 0; node < 8; ++node) {
            const int e = model.addVariable(
                std::string("e").append(std::to_string(node)), 0.0,
                200.0);
            model.addConstraint({{e, 0.08}}, ilp::Relation::LessEq,
                                12.0);
            objective.push_back({e, 1.0});
            network.push_back({e, 0.01});
        }
        model.addConstraint(std::move(network),
                            ilp::Relation::LessEq, 4.0);
        model.setObjective(std::move(objective));
        benchmark::DoNotOptimize(ilp::solveLp(model));
    }
}
BENCHMARK(BM_IlpSchedulerShaped);

} // namespace

// main() comes from gbench_main.cpp (build-context stamping).
