/**
 * @file
 * Parity tests for the parallel conservative discrete-event engine:
 * the clustered SystemSim advanced on worker threads must produce the
 * byte-identical trace and identical results as the serial engine at
 * every thread count, including under fault injection (a crash that
 * kills a cluster's relay mid-run). This is the property that makes
 * the parallel engine a pure wall-clock optimisation.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <string>
#include <vector>

#include "scalo/sched/scheduler.hpp"
#include "scalo/sched/workloads.hpp"
#include "scalo/sim/runtime/system_sim.hpp"

namespace scalo::sim {
namespace {

using namespace units::literals;

std::vector<sched::FlowSpec>
mixedFlows()
{
    return {sched::seizureDetectionFlow(),
            sched::hashSimilarityFlow(net::Pattern::AllToAll),
            sched::spikeSortingFlow()};
}

const std::vector<double> kPriorities{1.0, 3.0, 1.0};

/**
 * A 24-node fabric in 4 clusters of 6 (cluster 1 = nodes 6..11,
 * relay node 6), scheduled and configured for tracing.
 */
SystemSimConfig
clusteredSimConfig(units::Millis duration,
                   std::size_t nodes = 24,
                   std::size_t clusters = 4)
{
    sched::SystemConfig system;
    system.nodes = nodes;
    system.maxElectrodesPerNode = constants::kElectrodesPerNode;
    if (clusters > 1)
        system.clusters =
            net::ClusterPlan::balanced(nodes, clusters);
    const sched::Scheduler scheduler(system);

    SystemSimConfig config;
    config.system = system;
    config.flows = mixedFlows();
    config.priorities = kPriorities;
    config.schedule = scheduler.schedule(mixedFlows(), kPriorities);
    config.duration = duration;
    config.recordTrace = true;
    return config;
}

struct RunOutput
{
    std::string traceJson;
    SystemSimResult result;
};

/** Simulate and export at one width (1 = the serial engine). */
RunOutput
runWith(SystemSimConfig config, std::size_t threads)
{
    config.threads = threads;
    SystemSim sim(std::move(config));
    RunOutput out;
    out.result = sim.run();
    out.traceJson = sim.trace().toChromeJson(threads);
    return out;
}

/** Every relay-forward trace entry's pid (the forwarding node). */
std::vector<std::uint32_t>
relayForwardPids(const std::string &json)
{
    std::vector<std::uint32_t> pids;
    std::size_t pos = 0;
    const std::string cat = "\"cat\":\"relay-forward\"";
    while ((pos = json.find(cat, pos)) != std::string::npos) {
        const std::size_t pid_at = json.find("\"pid\":", pos);
        if (pid_at == std::string::npos)
            break;
        pids.push_back(static_cast<std::uint32_t>(
            std::strtoul(json.c_str() + pid_at + 6, nullptr, 10)));
        pos = pid_at;
    }
    return pids;
}

TEST(ParallelSim, TraceBytesMatchSerialAtEveryThreadCount)
{
    const SystemSimConfig config = clusteredSimConfig(100.0_ms);
    ASSERT_TRUE(config.schedule.feasible) << config.schedule.reason;

    const RunOutput serial = runWith(config, 1);
    const RunOutput two = runWith(config, 2);
    const RunOutput four = runWith(config, 4);
    const RunOutput per_cpu = runWith(config, 0);

    EXPECT_FALSE(serial.result.ranParallel);
    EXPECT_TRUE(two.result.ranParallel);
    EXPECT_TRUE(four.result.ranParallel);
    EXPECT_EQ(serial.result.clusters, 4u);

    ASSERT_FALSE(serial.traceJson.empty());
    EXPECT_EQ(serial.traceJson, two.traceJson);
    EXPECT_EQ(serial.traceJson, four.traceJson);
    EXPECT_EQ(serial.traceJson, per_cpu.traceJson);

    // The aggregated results agree field-for-field too.
    for (const RunOutput *run : {&two, &four, &per_cpu}) {
        EXPECT_EQ(serial.result.eventsExecuted,
                  run->result.eventsExecuted);
        ASSERT_EQ(serial.result.flows.size(),
                  run->result.flows.size());
        for (std::size_t f = 0; f < serial.result.flows.size();
             ++f) {
            const FlowSimStats &a = serial.result.flows[f];
            const FlowSimStats &b = run->result.flows[f];
            EXPECT_EQ(a.windowsCompleted, b.windowsCompleted);
            EXPECT_EQ(a.relayForwards, b.relayForwards);
            EXPECT_EQ(a.meanResponse.count(),
                      b.meanResponse.count());
            EXPECT_EQ(a.meanRound.count(), b.meanRound.count());
            EXPECT_EQ(a.retransmissions, b.retransmissions);
        }
        ASSERT_EQ(serial.result.nodes.size(),
                  run->result.nodes.size());
        for (std::size_t n = 0; n < serial.result.nodes.size(); ++n)
            EXPECT_EQ(serial.result.nodes[n].measuredPower.count(),
                      run->result.nodes[n].measuredPower.count());
    }
}

TEST(ParallelSim, ExplicitFlatPlanMatchesEmptyPlan)
{
    // A ClusterPlan::flat(N) plan is the degenerate one-cluster case
    // and must reproduce the legacy flat engine byte for byte.
    SystemSimConfig with_plan = clusteredSimConfig(100.0_ms, 8, 1);
    with_plan.system.clusters = net::ClusterPlan::flat(8);
    const SystemSimConfig without = clusteredSimConfig(100.0_ms, 8, 1);
    ASSERT_TRUE(with_plan.schedule.feasible);

    const RunOutput a = runWith(with_plan, 1);
    const RunOutput b = runWith(without, 1);
    EXPECT_EQ(a.result.clusters, 1u);
    ASSERT_FALSE(a.traceJson.empty());
    EXPECT_EQ(a.traceJson, b.traceJson);
}

TEST(ParallelSim, RepeatedParallelRunsAreDeterministic)
{
    const SystemSimConfig config = clusteredSimConfig(100.0_ms);
    const RunOutput first = runWith(config, 4);
    const RunOutput second = runWith(config, 4);
    ASSERT_FALSE(first.traceJson.empty());
    EXPECT_EQ(first.traceJson, second.traceJson);
}

TEST(ParallelSim, RelayCrashParityAndMigration)
{
    // Kill node 6 - cluster 1's relay - at 20 ms with no reboot. The
    // serial and parallel engines must detect it, reschedule only
    // cluster 1, and migrate relay duty to node 7, with identical
    // NodeDown/Resched sequences and trace bytes.
    SystemSimConfig config = clusteredSimConfig(150.0_ms);
    ASSERT_TRUE(config.schedule.feasible);
    config.faults.crashes.push_back({6, 20.0_ms});

    const RunOutput serial = runWith(config, 1);
    const RunOutput parallel = runWith(config, 4);

    ASSERT_FALSE(serial.traceJson.empty());
    EXPECT_EQ(serial.traceJson, parallel.traceJson);

    for (const RunOutput *run : {&serial, &parallel}) {
        ASSERT_EQ(run->result.nodesDown.size(), 1u);
        EXPECT_EQ(run->result.nodesDown[0].node, 6u);
        EXPECT_EQ(run->result.nodesDown[0].crashedAt.count(), 20.0);
        ASSERT_GE(run->result.reschedules.size(), 1u);
        EXPECT_EQ(run->result.reschedules[0].deadNodes,
                  (std::vector<std::size_t>{6}));
        EXPECT_EQ(run->result.reschedules[0].resolvedClusters,
                  (std::vector<std::size_t>{1}));
    }

    // Relay duty migrated: cluster 1's forwards come from node 6
    // before the death is detected and node 7 afterwards. Node ids
    // 6 and 7 belong to cluster 1 only, so filtering pids to {6, 7}
    // isolates that cluster's relay history.
    const std::vector<std::uint32_t> pids =
        relayForwardPids(serial.traceJson);
    ASSERT_FALSE(pids.empty());
    bool saw_old_relay = false;
    bool saw_new_relay = false;
    bool migrated_back = false;
    for (const std::uint32_t pid : pids) {
        if (pid == 6)
            saw_old_relay = true;
        if (pid == 7) {
            saw_new_relay = true;
        } else if (pid == 6 && saw_new_relay) {
            migrated_back = true;
        }
    }
    EXPECT_TRUE(saw_old_relay);
    EXPECT_TRUE(saw_new_relay);
    EXPECT_FALSE(migrated_back)
        << "relay fell back to the dead node";
}

TEST(ParallelSim, CountersOnlyModeMatchesTracedCounters)
{
    // Without recordTrace the clustered engine keeps only counters;
    // they must equal the fully-traced run's totals.
    SystemSimConfig traced = clusteredSimConfig(100.0_ms);
    SystemSimConfig counters = clusteredSimConfig(100.0_ms);
    counters.recordTrace = false;

    const RunOutput a = runWith(traced, 4);
    const RunOutput b = runWith(counters, 4);
    EXPECT_EQ(a.result.network.total(), b.result.network.total());
    ASSERT_EQ(a.result.flows.size(), b.result.flows.size());
    for (std::size_t f = 0; f < a.result.flows.size(); ++f) {
        EXPECT_EQ(a.result.flows[f].windowsCompleted,
                  b.result.flows[f].windowsCompleted);
        EXPECT_EQ(a.result.flows[f].relayForwards,
                  b.result.flows[f].relayForwards);
    }
}

} // namespace
} // namespace scalo::sim
