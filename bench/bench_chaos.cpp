/**
 * @file
 * Google-benchmark coverage of the fault-handling paths: the cost of
 * an ILP re-solve when a node dies (cold and memo-warm), one cold LP
 * solve of the 128-node deployment's cluster sub-LP, the
 * heartbeat detector's bookkeeping, one backoff draw, the
 * end-to-end wall time of a fault-injected simulation run versus the
 * fault-free baseline of the same deployment, the 128-node chaos run
 * serial and at the default width, and the trace layer's record and
 * export cost on it (the export serial and at the default width, to a
 * file and into a discarding sink). Dumped to
 * BENCH_chaos.json by ci/check.sh's chaos gate and diffed (report
 * only) with ci/compare_bench.py.
 */

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "scalo/ilp/solver.hpp"
#include "scalo/net/failure_detector.hpp"
#include "scalo/net/retry.hpp"
#include "scalo/sched/scheduler.hpp"
#include "scalo/sched/workloads.hpp"
#include "scalo/sim/runtime/system_sim.hpp"
#include "scalo/util/rng.hpp"

namespace {

using namespace scalo;
using namespace scalo::units::literals;

sched::SystemConfig
fourNodeSystem()
{
    sched::SystemConfig system;
    system.nodes = 4;
    system.maxElectrodesPerNode = constants::kElectrodesPerNode;
    return system;
}

std::vector<sched::FlowSpec>
deploymentFlows()
{
    return {sched::seizureDetectionFlow(),
            sched::hashSimilarityFlow(net::Pattern::AllToAll)};
}

const sched::Schedule &
deploymentSchedule()
{
    static const sched::Schedule schedule = [] {
        const sched::Scheduler scheduler(fourNodeSystem());
        return scheduler.schedule(deploymentFlows(), {1.0, 3.0});
    }();
    return schedule;
}

/**
 * Time to remap a dead node's work via the full ILP re-solve, cold: a
 * fresh Scheduler (and so an empty solve memo) per iteration. Its
 * construction, a config copy, is inside the timed region.
 */
void
BM_RescheduleIlpCold(benchmark::State &state)
{
    const auto flows = deploymentFlows();
    const std::vector<double> priorities{1.0, 3.0};
    const sched::Schedule &original = deploymentSchedule();
    for (auto _ : state) {
        const sched::Scheduler scheduler(fourNodeSystem());
        benchmark::DoNotOptimize(scheduler.reschedule(
            flows, priorities, original, {1}));
    }
}
BENCHMARK(BM_RescheduleIlpCold);

/**
 * The same repair, warm: one Scheduler whose memo already holds the
 * re-solve, as when a repair recurs within one simulation.
 */
void
BM_RescheduleIlpWarm(benchmark::State &state)
{
    const sched::Scheduler scheduler(fourNodeSystem());
    const auto flows = deploymentFlows();
    const std::vector<double> priorities{1.0, 3.0};
    const sched::Schedule &original = deploymentSchedule();
    benchmark::DoNotOptimize(
        scheduler.reschedule(flows, priorities, original, {1}));
    for (auto _ : state)
        benchmark::DoNotOptimize(scheduler.reschedule(
            flows, priorities, original, {1}));
}
BENCHMARK(BM_RescheduleIlpWarm);

/** Heartbeat bookkeeping: one full miss/heard cycle across 4 nodes. */
void
BM_HeartbeatRound(benchmark::State &state)
{
    net::HeartbeatDetector detector(4, 3);
    for (auto _ : state) {
        for (std::size_t n = 0; n < 4; ++n)
            benchmark::DoNotOptimize(detector.recordMiss(n));
        for (std::size_t n = 0; n < 4; ++n)
            benchmark::DoNotOptimize(detector.recordHeard(n));
    }
}
BENCHMARK(BM_HeartbeatRound);

/** One jittered exponential-backoff draw. */
void
BM_BackoffDraw(benchmark::State &state)
{
    const net::RetryPolicy policy;
    Rng rng(7);
    std::size_t retry = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(policy.backoff(retry, rng));
        retry = retry % (policy.maxAttempts - 1) + 1;
    }
}
BENCHMARK(BM_BackoffDraw);

sim::SystemSimConfig
simConfig()
{
    sim::SystemSimConfig config;
    config.system = fourNodeSystem();
    config.flows = deploymentFlows();
    config.priorities = {1.0, 3.0};
    config.schedule = deploymentSchedule();
    config.duration = 200.0_ms;
    return config;
}

/** Fault-free runtime baseline for the crash run below. */
void
BM_SimulateFaultFree(benchmark::State &state)
{
    for (auto _ : state) {
        sim::SystemSim sim(simConfig());
        benchmark::DoNotOptimize(sim.run());
    }
}
BENCHMARK(BM_SimulateFaultFree)->Unit(benchmark::kMillisecond);

/**
 * The same 200 ms run with a crash at 100 ms: detection, retries, and
 * the mid-run reschedule are all on this path, so the delta against
 * BM_SimulateFaultFree is the price of the fault machinery.
 */
void
BM_SimulateWithCrash(benchmark::State &state)
{
    for (auto _ : state) {
        sim::SystemSimConfig config = simConfig();
        config.faults.crashes.push_back({1, 100.0_ms});
        sim::SystemSim sim(config);
        benchmark::DoNotOptimize(sim.run());
    }
}
BENCHMARK(BM_SimulateWithCrash)->Unit(benchmark::kMillisecond);

/** The 128-node, 8-cluster system of the chaos runs. */
sched::SystemConfig
chaosSystem()
{
    sched::SystemConfig system;
    system.nodes = 128;
    system.maxElectrodesPerNode = constants::kElectrodesPerNode;
    system.clusters = net::ClusterPlan::balanced(128, 8);
    return system;
}

std::vector<sched::FlowSpec>
chaosFlows()
{
    return {sched::seizureDetectionFlow(),
            sched::hashSimilarityFlow(net::Pattern::AllToAll),
            sched::spikeSortingFlow()};
}

const std::vector<double> kChaosPriorities{1.0, 3.0, 1.0};

/**
 * A 128-node, 8-cluster deployment under a seeded plan with every
 * fault kind the hierarchical runtime repairs: member crashes (one
 * reboots), a relay crash, a partition and a backbone BER spike.
 */
sim::SystemSimConfig
chaosConfig(bool record)
{
    sim::SystemSimConfig config;
    config.system = chaosSystem();
    config.flows = chaosFlows();
    config.priorities = kChaosPriorities;
    static const sched::Schedule schedule = [&config] {
        const sched::Scheduler scheduler(config.system);
        return scheduler.schedule(config.flows, config.priorities);
    }();
    config.schedule = schedule;
    config.duration = 200.0_ms;
    config.seed = 7;
    config.recordTrace = record;
    config.faults.crashes.push_back({17, 30.0_ms, 90.0_ms});
    config.faults.crashes.push_back({50, 110.0_ms});
    config.faults.relayCrashes.push_back({5, 50.0_ms});
    config.faults.partitions.push_back({3, 70.0_ms, 130.0_ms});
    config.faults.backboneBerSpikes.push_back({140.0_ms, 160.0_ms, 2e-4});
    return config;
}

/**
 * One cold LP solve of the chaos deployment's cluster sub-LP (a
 * balanced plan's clusters pose identical ones), straight through
 * ilp::solveLp with no memo: the solver layer under the deploy, and
 * so under fabric_chaos's ready_s.
 */
void
BM_SolveLpCold(benchmark::State &state)
{
    const sched::Scheduler scheduler(chaosSystem());
    const ilp::Model model =
        scheduler.clusterModel(chaosFlows(), kChaosPriorities, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(ilp::solveLp(model));
    state.counters["variables"] =
        static_cast<double>(model.variables().size());
    state.counters["constraints"] =
        static_cast<double>(model.constraints().size());
}
BENCHMARK(BM_SolveLpCold)->Unit(benchmark::kMillisecond);

/**
 * The chaos run with the event log off (0) and on (1): the difference
 * is the price of recording. Counters are tallied in both.
 */
void
BM_TraceRecord(benchmark::State &state)
{
    const bool record = state.range(0) != 0;
    std::size_t events = 0;
    for (auto _ : state) {
        sim::SystemSim sim(chaosConfig(record));
        benchmark::DoNotOptimize(sim.run());
        events = sim.trace().size();
    }
    state.counters["trace_events"] = static_cast<double>(events);
}
BENCHMARK(BM_TraceRecord)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/**
 * The recorded chaos run (a traced simulate) at one runner (/1) and
 * at the default width, one per CPU (/0): the engine's speed-up.
 */
void
BM_SimulateChaos(benchmark::State &state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        sim::SystemSimConfig config = chaosConfig(true);
        config.threads = threads;
        sim::SystemSim sim(std::move(config));
        benchmark::DoNotOptimize(sim.run());
    }
}
BENCHMARK(BM_SimulateChaos)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/**
 * Streaming the chaos run's recorded trace to a Chrome JSON file, at
 * one runner (/1) and at the default width, one per CPU (/0).
 */
void
BM_TraceExport(benchmark::State &state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    sim::SystemSim sim(chaosConfig(true));
    sim.run();
    const std::string path = (std::filesystem::temp_directory_path() /
                              "scalo_bench_chaos_trace.json")
                                 .string();
    for (auto _ : state) {
        if (!sim.trace().writeChromeJson(path, threads)) {
            state.SkipWithError("trace export failed");
            break;
        }
    }
    std::error_code ec;
    state.counters["trace_bytes"] =
        static_cast<double>(std::filesystem::file_size(path, ec));
    state.counters["trace_events"] =
        static_cast<double>(sim.trace().size());
    std::filesystem::remove(path, ec);
}
BENCHMARK(BM_TraceExport)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

/**
 * The same export into a sink that counts and discards the bytes, at
 * one runner (/1) and at the default width (/0): the exporter's own
 * cost, without the file system's (writing, and freeing the previous
 * iteration's file).
 */
void
BM_TraceExportDiscard(benchmark::State &state)
{
    const auto threads = static_cast<std::size_t>(state.range(0));
    sim::SystemSim sim(chaosConfig(true));
    sim.run();
    std::size_t bytes = 0;
    const sim::Trace::ChunkSink discard = [&bytes](std::string_view s) {
        bytes += s.size();
        return true;
    };
    for (auto _ : state) {
        bytes = 0;
        if (!sim.trace().exportChrome(discard, threads)) {
            state.SkipWithError("trace export failed");
            break;
        }
        benchmark::DoNotOptimize(bytes);
    }
    state.counters["trace_bytes"] = static_cast<double>(bytes);
    state.counters["trace_events"] =
        static_cast<double>(sim.trace().size());
}
BENCHMARK(BM_TraceExportDiscard)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

} // namespace

// main() comes from gbench_main.cpp (build-context stamping).
