/**
 * @file
 * Google-benchmark coverage of the fault-handling paths: the cost of
 * an ILP re-solve when a node dies (cold and memo-warm), the
 * heartbeat detector's bookkeeping, one backoff draw, and the
 * end-to-end wall time of a fault-injected simulation run versus the
 * fault-free baseline of the same deployment. Dumped to
 * BENCH_chaos.json by ci/check.sh's chaos gate and diffed (report
 * only) with ci/compare_bench.py.
 */

#include <benchmark/benchmark.h>

#include <vector>

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

} // namespace

// main() comes from gbench_main.cpp (build-context stamping).
