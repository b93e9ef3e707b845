/**
 * @file
 * Google-benchmark coverage of the serving runtime: the store layer
 * under it (SignalStore::range() and candidates() on a full ring,
 * time-ordered or holding one out-of-order window), compiling a
 * query cold vs. hitting the plan cache, executing a mixed batch
 * through QueryEngine::executeBatch() vs. one query at a time (the
 * cross-query coalescing win), and the end-to-end submit/wait
 * round-trip through a running QueryServer. Dumped to
 * BENCH_serve.json by ci/check.sh's serve gate and diffed (report
 * only) with ci/compare_bench.py.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <numbers>
#include <vector>

#include "scalo/app/store.hpp"
#include "scalo/serve/plan_cache.hpp"
#include "scalo/serve/query_server.hpp"
#include "scalo/util/rng.hpp"

namespace {

using namespace scalo;

constexpr std::size_t kNodes = 8;
constexpr std::size_t kSamples = 96;

std::vector<double>
probeShape(std::size_t n, double phase)
{
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = std::sin(2.0 * std::numbers::pi * 6.0 *
                              static_cast<double>(i) /
                              static_cast<double>(n) +
                          phase);
    return out;
}

/** A populated engine shared by every benchmark in this binary. */
app::QueryEngine &
sharedEngine()
{
    static auto engine = [] {
        auto e = std::make_unique<app::QueryEngine>(kNodes, kSamples,
                                                    7);
        Rng rng(11);
        for (NodeId node = 0; node < kNodes; ++node) {
            for (std::uint64_t w = 0; w < 200; ++w) {
                std::vector<double> window(kSamples);
                if (w % 6 == 0)
                    window = probeShape(kSamples, 0.3);
                else
                    for (double &v : window)
                        v = rng.gaussian();
                e->ingest(node, w * 4'000,
                          static_cast<ElectrodeId>(node % 4),
                          window, w % 9 == 0);
            }
        }
        return e;
    }();
    return *engine;
}

app::Query
mixedQuery(std::size_t i)
{
    const std::uint64_t t0 = (i % 5) * 60'000;
    const std::uint64_t t1 = t0 + 400'000;
    switch (i % 4) {
      case 0:
        return app::Query::q1(t0, t1);
      case 1:
        return app::Query::q2(t0, t1, probeShape(kSamples, 0.3));
      case 2:
        return app::Query::q2(t0, t1, probeShape(kSamples, 0.3),
                              6.0, signal::Measure::Euclidean);
      default:
        return app::Query::q3(t0, t1);
    }
}

/**
 * A full 8,192-window ring after 1,000 evictions, 4 ms apart. With
 * @p inverted one retained window is stamped 40 ms early, so the
 * store is not time-ordered and range()/candidates() take their scan
 * fallback. Band values come from 16 per band, so a probe's buckets
 * hold about 1/16 of the ring each.
 */
const app::SignalStore &
layerStore(bool inverted)
{
    static const auto build = [](bool with_inversion) {
        auto store = std::make_unique<app::SignalStore>(8'192);
        Rng rng(13);
        for (std::uint64_t w = 0; w < 8'192 + 1'000; ++w) {
            app::StoredWindow window;
            window.timestampUs = w * 4'000;
            if (with_inversion && w == 5'000)
                window.timestampUs -= 40'000;
            window.samples.assign(kSamples, 0.0);
            window.hash =
                lsh::Signature(rng.below(16) | (rng.below(16) << 8), 2, 8);
            store->append(std::move(window));
        }
        return store;
    };
    static const auto ordered = build(false);
    static const auto fallback = build(true);
    return inverted ? *fallback : *ordered;
}

/** 1,024 retained windows in the middle of layerStore()'s ring. */
constexpr std::uint64_t kSliceT0 = 4'000 * 4'000;
constexpr std::uint64_t kSliceT1 = kSliceT0 + 1'023 * 4'000;

void
BM_StoreRange(benchmark::State &state)
{
    const app::SignalStore &store = layerStore(state.range(0) != 0);
    std::size_t returned = 0;
    for (auto _ : state) {
        auto windows = store.range(kSliceT0, kSliceT1);
        returned = windows.size();
        benchmark::DoNotOptimize(windows);
    }
    state.counters["windows"] = static_cast<double>(returned);
}
BENCHMARK(BM_StoreRange)->Arg(0)->Arg(1);

void
BM_StoreCandidates(benchmark::State &state)
{
    const app::SignalStore &store = layerStore(state.range(0) != 0);
    const lsh::Signature probe(3 | (7 << 8), 2, 8);
    std::size_t returned = 0;
    for (auto _ : state) {
        auto windows = store.candidates(probe, kSliceT0, kSliceT1);
        returned = windows.size();
        benchmark::DoNotOptimize(windows);
    }
    state.counters["windows"] = static_cast<double>(returned);
}
BENCHMARK(BM_StoreCandidates)->Arg(0)->Arg(1);

void
BM_CompileCold(benchmark::State &state)
{
    app::QueryEngine &engine = sharedEngine();
    const auto query =
        app::Query::q2(0, 400'000, probeShape(kSamples, 0.3), 6.0,
                       signal::Measure::Euclidean);
    for (auto _ : state) {
        auto compiled = engine.compile(query);
        benchmark::DoNotOptimize(compiled);
    }
}
BENCHMARK(BM_CompileCold);

void
BM_PlanCacheHit(benchmark::State &state)
{
    app::QueryEngine &engine = sharedEngine();
    serve::PlanCache cache(16);
    const auto query =
        app::Query::q2(0, 400'000, probeShape(kSamples, 0.3), 6.0,
                       signal::Measure::Euclidean);
    cache.getOrCompile(engine, query); // warm
    for (auto _ : state) {
        auto plan = cache.getOrCompile(engine, query);
        benchmark::DoNotOptimize(plan);
    }
}
BENCHMARK(BM_PlanCacheHit);

void
BM_ExecuteSerial(benchmark::State &state)
{
    app::QueryEngine &engine = sharedEngine();
    const auto batch = static_cast<std::size_t>(state.range(0));
    std::vector<app::QueryEngine::CompiledQuery> compiled;
    for (std::size_t i = 0; i < batch; ++i)
        compiled.push_back(engine.compile(mixedQuery(i)));
    for (auto _ : state) {
        for (const auto &plan : compiled) {
            auto execution = engine.execute(plan);
            benchmark::DoNotOptimize(execution);
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_ExecuteSerial)->Arg(4)->Arg(16);

void
BM_ExecuteBatched(benchmark::State &state)
{
    app::QueryEngine &engine = sharedEngine();
    const auto batch = static_cast<std::size_t>(state.range(0));
    std::vector<app::QueryEngine::CompiledQuery> compiled;
    for (std::size_t i = 0; i < batch; ++i)
        compiled.push_back(engine.compile(mixedQuery(i)));
    std::vector<const app::QueryEngine::CompiledQuery *> plans;
    for (const auto &plan : compiled)
        plans.push_back(&plan);
    for (auto _ : state) {
        auto executions = engine.executeBatch(plans);
        benchmark::DoNotOptimize(executions);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * batch));
}
BENCHMARK(BM_ExecuteBatched)->Arg(4)->Arg(16);

void
BM_ServerSubmitWait(benchmark::State &state)
{
    app::QueryEngine &engine = sharedEngine();
    serve::ServeConfig config;
    config.dispatchers = 2;
    config.queueCapacity = 256;
    config.maxBatch = 16;
    serve::QueryServer server(engine, config);
    std::size_t i = 0;
    for (auto _ : state) {
        const auto submit =
            server.submit("bench", mixedQuery(i++));
        if (!submit.accepted())
            continue;
        auto response = server.wait(submit.id, 30'000.0);
        benchmark::DoNotOptimize(response);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ServerSubmitWait);

} // namespace

// main() comes from gbench_main.cpp (build-context stamping).
