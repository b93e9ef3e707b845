/**
 * @file
 * Fault-injection framework tests: the retry/backoff policy, the
 * heartbeat failure detector, the FaultPlan interpreter, the
 * per-window channel conditions, graceful-degradation rescheduling,
 * partial query results under dead shards — and the end-to-end
 * acceptance scenario: a seeded crash of node 1 in the 4-node
 * Section 6 seizure-propagation deployment is detected within the
 * heartbeat bound, work is remapped onto the survivors, and the
 * system keeps producing windows. Every fault run is deterministic:
 * the same (plan, seed) pair yields a byte-identical trace, and an
 * empty plan leaves the happy path untouched.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "scalo/app/query_engine.hpp"
#include "scalo/core/system.hpp"
#include "scalo/net/channel.hpp"
#include "scalo/net/failure_detector.hpp"
#include "scalo/net/retry.hpp"
#include "scalo/sched/workloads.hpp"
#include "scalo/sim/faults/fault_injector.hpp"
#include "scalo/sim/faults/fault_plan.hpp"
#include "scalo/sim/runtime/system_sim.hpp"
#include "scalo/util/contracts.hpp"
#include "scalo/util/rng.hpp"

namespace scalo {
namespace {

using namespace units::literals;

// ---------------------------------------------------------------
// RetryPolicy.

TEST(RetryPolicy, AttemptBudget)
{
    net::RetryPolicy policy;
    policy.maxAttempts = 3;
    EXPECT_TRUE(policy.shouldRetry(0));
    EXPECT_TRUE(policy.shouldRetry(1));
    EXPECT_FALSE(policy.shouldRetry(2));
    policy.validate();
}

TEST(RetryPolicy, BackoffGrowsExponentiallyWithinJitterBounds)
{
    net::RetryPolicy policy;
    policy.backoffBase = 50.0_us;
    policy.backoffMultiplier = 2.0;
    policy.jitterFraction = 0.25;
    Rng rng(7);
    for (std::size_t retry = 1; retry <= 3; ++retry) {
        const double nominal =
            50.0 * std::pow(2.0, static_cast<double>(retry - 1));
        for (int draw = 0; draw < 32; ++draw) {
            const units::Micros wait = policy.backoff(retry, rng);
            EXPECT_GE(wait.count(), nominal * 0.75) << retry;
            EXPECT_LE(wait.count(), nominal * 1.25) << retry;
        }
    }
}

TEST(RetryPolicy, BackoffIsDeterministicPerSeed)
{
    const net::RetryPolicy policy;
    Rng a(11), b(11), c(12);
    bool any_differs = false;
    for (std::size_t retry = 1; retry <= 8; ++retry) {
        const double from_a = policy.backoff(retry, a).count();
        const double from_b = policy.backoff(retry, b).count();
        const double from_c = policy.backoff(retry, c).count();
        EXPECT_EQ(from_a, from_b);
        any_differs = any_differs || from_a != from_c;
    }
    EXPECT_TRUE(any_differs); // the jitter actually consumes the seed
}

TEST(RetryPolicy, MaxTotalBackoffBoundsEveryDrawnSequence)
{
    net::RetryPolicy policy;
    policy.maxAttempts = 4;
    const double cap = policy.maxTotalBackoff().count();
    Rng rng(3);
    for (int trial = 0; trial < 16; ++trial) {
        double total = 0.0;
        for (std::size_t retry = 1; retry < policy.maxAttempts;
             ++retry)
            total += policy.backoff(retry, rng).count();
        EXPECT_LE(total, cap + 1e-9);
    }
}

// ---------------------------------------------------------------
// HeartbeatDetector.

TEST(HeartbeatDetector, DeclaresDeadAtThreshold)
{
    net::HeartbeatDetector detector(4, 3);
    EXPECT_FALSE(detector.recordMiss(1));
    EXPECT_FALSE(detector.recordMiss(1));
    EXPECT_FALSE(detector.dead(1));
    EXPECT_TRUE(detector.recordMiss(1)); // third miss: newly dead
    EXPECT_TRUE(detector.dead(1));
    EXPECT_FALSE(detector.recordMiss(1)); // already dead: not "newly"
    EXPECT_EQ(detector.consecutiveMisses(1), 3u); // frozen once dead
}

TEST(HeartbeatDetector, HeardResetsAndRecovers)
{
    net::HeartbeatDetector detector(4, 2);
    detector.recordMiss(2);
    EXPECT_FALSE(detector.recordHeard(2)); // alive: nothing new
    EXPECT_EQ(detector.consecutiveMisses(2), 0u);
    detector.recordMiss(2);
    detector.recordMiss(2);
    EXPECT_TRUE(detector.dead(2));
    EXPECT_TRUE(detector.recordHeard(2)); // newly recovered
    EXPECT_FALSE(detector.dead(2));
    EXPECT_EQ(detector.consecutiveMisses(2), 0u);
}

TEST(HeartbeatDetector, DeadNodesAscendingAndLatencyBound)
{
    net::HeartbeatDetector detector(5, 1);
    detector.recordMiss(3);
    detector.recordMiss(0);
    detector.recordMiss(4);
    EXPECT_EQ(detector.deadNodes(),
              (std::vector<std::size_t>{0, 3, 4}));
    EXPECT_DOUBLE_EQ(detector.detectionLatency(4.0_ms).count(), 8.0);
}

TEST(HeartbeatDetector, DetectionLatencyScalesWithObservationCadence)
{
    // The bound is honest about the observation cadence: a detector
    // fed once per interval needs threshold+1 intervals, one fed k
    // times per interval crosses the same threshold in
    // ceil(threshold/k)+1.
    net::HeartbeatDetector detector(4, 3);
    EXPECT_DOUBLE_EQ(detector.detectionLatency(4.0_ms).count(),
                     16.0);
    EXPECT_DOUBLE_EQ(detector.detectionLatency(4.0_ms, 2).count(),
                     12.0);
    EXPECT_DOUBLE_EQ(detector.detectionLatency(4.0_ms, 3).count(),
                     8.0);
    // More observations than the threshold cannot beat one interval
    // (+1 for the window in flight), and zero is treated as one.
    EXPECT_DOUBLE_EQ(detector.detectionLatency(4.0_ms, 64).count(),
                     8.0);
    EXPECT_DOUBLE_EQ(detector.detectionLatency(4.0_ms, 0).count(),
                     16.0);
}

// ---------------------------------------------------------------
// FaultInjector.

TEST(FaultInjector, DropoutWindowIsHalfOpen)
{
    sim::FaultPlan plan;
    plan.dropouts.push_back({10.0_ms, 20.0_ms});
    sim::FaultInjector injector(plan, 1);
    EXPECT_FALSE(injector.inDropout(units::Micros{9'999.0}));
    EXPECT_TRUE(injector.inDropout(units::Micros{10'000.0}));
    EXPECT_TRUE(injector.inDropout(units::Micros{19'999.0}));
    EXPECT_FALSE(injector.inDropout(units::Micros{20'000.0}));
}

TEST(FaultInjector, LatestStartingBerSpikeWins)
{
    sim::FaultPlan plan;
    plan.berSpikes.push_back({0.0_ms, 100.0_ms, 1e-4});
    plan.berSpikes.push_back({50.0_ms, 80.0_ms, 1e-2});
    sim::FaultInjector injector(plan, 1);
    EXPECT_DOUBLE_EQ(injector.berOverrideAt(units::Micros{40'000.0}),
                     1e-4);
    EXPECT_DOUBLE_EQ(injector.berOverrideAt(units::Micros{60'000.0}),
                     1e-2);
    EXPECT_DOUBLE_EQ(injector.berOverrideAt(units::Micros{90'000.0}),
                     1e-4);
    EXPECT_LT(injector.berOverrideAt(units::Micros{200'000.0}), 0.0);
}

TEST(FaultInjector, OverlappingThrottlesMultiply)
{
    sim::FaultPlan plan;
    plan.throttles.push_back({0, 0.0_ms, 100.0_ms, 2.0});
    plan.throttles.push_back({0, 50.0_ms, 100.0_ms, 3.0});
    plan.throttles.push_back({1, 0.0_ms, 100.0_ms, 5.0});
    sim::FaultInjector injector(plan, 1);
    EXPECT_DOUBLE_EQ(injector.throttleAt(0, units::Micros{10'000.0}),
                     2.0);
    EXPECT_DOUBLE_EQ(injector.throttleAt(0, units::Micros{60'000.0}),
                     6.0);
    EXPECT_DOUBLE_EQ(injector.throttleAt(1, units::Micros{60'000.0}),
                     5.0);
    EXPECT_DOUBLE_EQ(injector.throttleAt(2, units::Micros{60'000.0}),
                     1.0);
}

TEST(FaultInjector, PartitionWindowIsHalfOpenPerCluster)
{
    sim::FaultPlan plan;
    plan.partitions.push_back({1, 10.0_ms, 20.0_ms});
    plan.partitions.push_back({1, 30.0_ms, 40.0_ms});
    sim::FaultInjector injector(plan, 1);
    EXPECT_FALSE(injector.inPartition(1, units::Micros{9'999.0}));
    EXPECT_TRUE(injector.inPartition(1, units::Micros{10'000.0}));
    EXPECT_TRUE(injector.inPartition(1, units::Micros{19'999.0}));
    EXPECT_FALSE(injector.inPartition(1, units::Micros{20'000.0}));
    EXPECT_TRUE(injector.inPartition(1, units::Micros{35'000.0}));
    // Only the named cluster is severed.
    EXPECT_FALSE(injector.inPartition(0, units::Micros{15'000.0}));
    EXPECT_FALSE(injector.inPartition(2, units::Micros{15'000.0}));
}

TEST(FaultInjector, BackboneBerSpikeWinsTiesOverPlanWide)
{
    sim::FaultPlan plan;
    plan.berSpikes.push_back({0.0_ms, 100.0_ms, 1e-4});
    plan.backboneBerSpikes.push_back({0.0_ms, 50.0_ms, 1e-2});
    sim::FaultInjector injector(plan, 1);
    // The intra-cluster view never sees the backbone spike.
    EXPECT_DOUBLE_EQ(injector.berOverrideAt(units::Micros{10'000.0}),
                     1e-4);
    // The backbone view: the backbone-specific spike wins the tie
    // while it covers t, then the plan-wide spike still applies.
    EXPECT_DOUBLE_EQ(
        injector.backboneBerOverrideAt(units::Micros{10'000.0}),
        1e-2);
    EXPECT_DOUBLE_EQ(
        injector.backboneBerOverrideAt(units::Micros{60'000.0}),
        1e-4);
    EXPECT_LT(
        injector.backboneBerOverrideAt(units::Micros{200'000.0}),
        0.0);
}

TEST(FaultInjector, NvmDrawsOnlyForConfiguredNodes)
{
    sim::FaultPlan plan;
    plan.nvmFailures.push_back({1, 0.5});
    // Interleave draws for an unconfigured node into one of two
    // same-seed injectors: the configured node's Bernoulli sequence
    // must be unaffected (unconfigured nodes consume no RNG state).
    sim::FaultInjector clean(plan, 42);
    sim::FaultInjector noisy(plan, 42);
    for (int i = 0; i < 200; ++i) {
        EXPECT_FALSE(noisy.nvmWriteFails(0));
        EXPECT_FALSE(noisy.nvmWriteFails(3));
        EXPECT_EQ(clean.nvmWriteFails(1), noisy.nvmWriteFails(1));
    }
    EXPECT_GT(clean.nvmFailuresDrawn(), 0u);
    EXPECT_LT(clean.nvmFailuresDrawn(), 200u);
    EXPECT_EQ(clean.nvmFailuresDrawn(), noisy.nvmFailuresDrawn());
}

// ---------------------------------------------------------------
// FaultPlan / channel contracts.

struct ContractViolation
{
    std::string kind;
};

void
throwingHandler(const char *kind, const char *, const char *, int)
{
    throw ContractViolation{kind};
}

class ContractGuard
{
  public:
    ContractGuard()
        : previous(util::setContractHandler(&throwingHandler))
    {
    }
    ~ContractGuard() { util::setContractHandler(previous); }

  private:
    util::ContractHandler previous;
};

TEST(FaultPlanContracts, ValidateRejectsMalformedPlans)
{
    // Contracts follow the build type (contracts_macros.hpp): the
    // violation half of this test only exists where the library was
    // compiled with them on — Debug and the sanitizer CI builds.
    const ContractGuard guard;
#if SCALO_CONTRACTS
    {
        sim::FaultPlan plan;
        plan.crashes.push_back({7, 10.0_ms}); // node out of range
        EXPECT_THROW(plan.validate(4), ContractViolation);
    }
    {
        sim::FaultPlan plan;
        plan.dropouts.push_back({20.0_ms, 10.0_ms}); // inverted
        EXPECT_THROW(plan.validate(4), ContractViolation);
    }
    {
        sim::FaultPlan plan;
        plan.nvmFailures.push_back({0, 1.5}); // probability > 1
        EXPECT_THROW(plan.validate(4), ContractViolation);
    }
    {
        sim::FaultPlan plan;
        plan.throttles.push_back({0, 0.0_ms, 10.0_ms, 0.5}); // < 1
        EXPECT_THROW(plan.validate(4), ContractViolation);
    }
#endif
    sim::FaultPlan ok;
    ok.crashes.push_back({3, 10.0_ms, 20.0_ms});
    ok.validate(4); // must not fire
}

TEST(FaultPlanContracts, HierarchicalKindsValidate)
{
    const ContractGuard guard;
#if SCALO_CONTRACTS
    {
        sim::FaultPlan plan; // cluster index out of range
        plan.relayCrashes.push_back({3, 10.0_ms});
        EXPECT_THROW(plan.validate(12, 3), ContractViolation);
    }
    {
        sim::FaultPlan plan; // inverted partition window
        plan.partitions.push_back({0, 20.0_ms, 10.0_ms});
        EXPECT_THROW(plan.validate(12, 3), ContractViolation);
    }
    {
        sim::FaultPlan plan; // BER above 1
        plan.backboneBerSpikes.push_back({0.0_ms, 10.0_ms, 1.5});
        EXPECT_THROW(plan.validate(12, 3), ContractViolation);
    }
    {
        sim::FaultPlan plan; // reboot before the crash
        plan.relayCrashes.push_back({0, 20.0_ms, 10.0_ms});
        EXPECT_THROW(plan.validate(12, 3), ContractViolation);
    }
#endif
    sim::FaultPlan ok;
    ok.relayCrashes.push_back({2, 10.0_ms, 20.0_ms});
    ok.partitions.push_back({1, 5.0_ms, 15.0_ms});
    ok.backboneBerSpikes.push_back({0.0_ms, 10.0_ms, 1e-3});
    ok.validate(12, 3); // must not fire
    // Callers that do not know their cluster plan yet pass 0: the
    // cluster-range half of the check is deferred, the rest holds.
    ok.validate(12);
}

TEST(ChannelFaults, SetBerContractAndRetarget)
{
    net::WirelessChannel channel(net::radioSpec(
                                     net::RadioDesign::LowPower),
                                 1);
    channel.setBer(0.0);
    channel.setBer(1.0);
    channel.setBer(1e-3);
    EXPECT_DOUBLE_EQ(channel.ber(), 1e-3);
#if SCALO_CONTRACTS
    const ContractGuard guard;
    EXPECT_THROW(channel.setBer(-0.1), ContractViolation);
    EXPECT_THROW(channel.setBer(1.5), ContractViolation);
#endif
}

TEST(ChannelFaults, OutageDropsEverythingDeterministically)
{
    net::WirelessChannel channel(net::radioSpec(
                                     net::RadioDesign::LowPower),
                                 1, /*ber_override=*/0.0);
    net::Packet packet;
    packet.source = 0;
    packet.destination = net::kBroadcast;
    packet.payload.assign(16, 0xab);

    channel.setOutage(true);
    for (int i = 0; i < 8; ++i)
        EXPECT_FALSE(channel.transmit(packet).headerOk);
    EXPECT_EQ(channel.stats().sent, 8u);
    EXPECT_EQ(channel.stats().headerDrops, 8u);

    channel.setOutage(false);
    EXPECT_TRUE(channel.transmit(packet).headerOk); // medium is back
}

// ---------------------------------------------------------------
// Graceful-degradation rescheduling.

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

double
nodeElectrodes(const sched::Schedule &schedule, std::size_t node)
{
    double total = 0.0;
    for (const sched::FlowAllocation &flow : schedule.flows)
        total += flow.electrodesPerNode[node];
    return total;
}

TEST(Reschedule, NeverAssignsWorkToDeadNodes)
{
    const sched::Scheduler scheduler(fourNodeSystem());
    const auto flows = deploymentFlows();
    const std::vector<double> priorities{1.0, 3.0};
    const sched::Schedule original =
        scheduler.schedule(flows, priorities);
    ASSERT_TRUE(original.feasible);

    const std::vector<std::vector<std::size_t>> dead_sets{
        {1}, {0, 1}, {1, 2, 3}};
    for (const auto &dead : dead_sets) {
        const sched::RescheduleResult result = scheduler.reschedule(
            flows, priorities, original, dead);
        ASSERT_TRUE(result.schedule.feasible)
            << "dead set size " << dead.size();
        EXPECT_EQ(result.deadNodes, dead);
        for (const std::size_t node : dead) {
            EXPECT_DOUBLE_EQ(nodeElectrodes(result.schedule, node),
                             0.0);
            EXPECT_DOUBLE_EQ(
                result.schedule.nodePower[node].count(), 0.0);
        }
        // Survivors still carry work.
        double survivor_total = 0.0;
        for (std::size_t node = 0; node < 4; ++node)
            if (std::find(dead.begin(), dead.end(), node) ==
                dead.end())
                survivor_total +=
                    nodeElectrodes(result.schedule, node);
        EXPECT_GT(survivor_total, 0.0);
        EXPECT_LE(result.throughputAfter.count(),
                  result.throughputBefore.count() + 1e-9);
    }
}

TEST(Reschedule, FallbackShedsDeadAndKeepsSurvivors)
{
    // The repair a reschedule keeps when its re-solve is not Optimal.
    const sched::Scheduler scheduler(fourNodeSystem());
    const auto flows = deploymentFlows();
    const sched::Schedule original =
        scheduler.schedule(flows, {1.0, 3.0});
    ASSERT_TRUE(original.feasible);

    const sched::Schedule repaired =
        scheduler.shedDeadNodes(flows, {1.0, 3.0}, original, {1});
    ASSERT_TRUE(repaired.feasible);
    EXPECT_DOUBLE_EQ(nodeElectrodes(repaired, 1), 0.0);
    // Survivors keep at least what they had: the fallback never
    // takes work away from a live node.
    for (const std::size_t node : {0u, 2u, 3u})
        EXPECT_GE(nodeElectrodes(repaired, node),
                  nodeElectrodes(original, node) - 1e-9);
    // The fallback never worsens the peak power. (The absolute cap is
    // the ILP's to enforce; its tangent-cut relaxation of the
    // quadratic term already lets the decoded power sit a hair above
    // it.)
    double original_peak = 0.0;
    for (const units::Milliwatts p : original.nodePower)
        original_peak = std::max(original_peak, p.count());
    for (std::size_t node = 0; node < 4; ++node)
        EXPECT_LE(repaired.nodePower[node].count(),
                  original_peak + 1e-6);
}

TEST(Reschedule, EmptyDeadSetReproducesTheOriginal)
{
    const sched::Scheduler scheduler(fourNodeSystem());
    const auto flows = deploymentFlows();
    const std::vector<double> priorities{1.0, 3.0};
    const sched::Schedule original =
        scheduler.schedule(flows, priorities);
    const sched::RescheduleResult result =
        scheduler.reschedule(flows, priorities, original, {});
    ASSERT_TRUE(result.schedule.feasible);
    for (std::size_t node = 0; node < 4; ++node)
        EXPECT_DOUBLE_EQ(nodeElectrodes(result.schedule, node),
                         nodeElectrodes(original, node));
    EXPECT_DOUBLE_EQ(result.throughputAfter.count(),
                     result.throughputBefore.count());
}

// ---------------------------------------------------------------
// End-to-end fault runs through the simulation runtime.

sim::SystemSimConfig
deploymentSimConfig(units::Millis duration)
{
    const sched::SystemConfig system = fourNodeSystem();
    const sched::Scheduler scheduler(system);
    sim::SystemSimConfig config;
    config.system = system;
    config.flows = deploymentFlows();
    config.priorities = {1.0, 3.0};
    config.schedule = scheduler.schedule(config.flows, {1.0, 3.0});
    config.duration = duration;
    return config;
}

// The acceptance scenario: node 1 crashes at t=5 s in the 4-node
// seizure-propagation deployment. The heartbeat detector must declare
// it dead within its worst-case bound, the scheduler must remap the
// work onto nodes {0, 2, 3}, and both flows must keep completing
// windows afterwards.
TEST(FaultRuns, CrashDetectedReschedledAndSurvived)
{
    sim::SystemSimConfig config = deploymentSimConfig(6'000.0_ms);
    ASSERT_TRUE(config.schedule.feasible);
    config.recordTrace = true;
    config.faults.crashes.push_back({1, 5'000.0_ms});
    sim::SystemSim sim(config);
    const sim::SystemSimResult result = sim.run();

    // Detection: within missThreshold+1 exchange rounds of the 4 ms
    // hash flow, plus the round-assembly deadline (one window).
    ASSERT_EQ(result.nodesDown.size(), 1u);
    const sim::NodeDownEvent &down = result.nodesDown.front();
    EXPECT_EQ(down.node, 1u);
    EXPECT_DOUBLE_EQ(down.crashedAt.count(), 5'000.0);
    const double bound =
        net::HeartbeatDetector(4, config.heartbeatMissThreshold)
            .detectionLatency(4.0_ms)
            .count() +
        4.0;
    EXPECT_GT(down.detectedAt.count(), down.crashedAt.count());
    EXPECT_LE(down.detectedAt.count() - down.crashedAt.count(),
              bound);

    // Degradation: one reschedule, off node 1, onto the survivors.
    ASSERT_EQ(result.reschedules.size(), 1u);
    const sim::RescheduleEvent &resched = result.reschedules.front();
    EXPECT_EQ(resched.deadNodes, (std::vector<std::size_t>{1}));
    EXPECT_LT(resched.throughputAfter.count(),
              resched.throughputBefore.count());

    // The system keeps producing: the exchange flow completes every
    // round including the post-crash second.
    const sim::FlowSimStats &hash = result.flows[1];
    EXPECT_EQ(hash.windowsCompleted, hash.windowsSubmitted);
    EXPECT_GT(hash.windowsCompleted, 1'400u);
    // The local flow only loses node 1's own windows.
    const sim::FlowSimStats &seizure = result.flows[0];
    EXPECT_GT(seizure.windowsCompleted, 5'500u);
    EXPECT_GT(seizure.windowsDropped, 0u);
    EXPECT_LT(seizure.windowsDropped, seizure.windowsSubmitted / 4);

    // The failure story is visible in the trace.
    const sim::TraceCounters totals = sim.trace().totals();
    EXPECT_EQ(totals[sim::TraceEventKind::FaultInjected], 1u);
    EXPECT_EQ(totals[sim::TraceEventKind::NodeDown], 1u);
    EXPECT_EQ(totals[sim::TraceEventKind::Resched], 1u);
    EXPECT_GT(totals[sim::TraceEventKind::ExchangeTimedOut], 0u);
    EXPECT_EQ(totals[sim::TraceEventKind::NodeRecovered], 0u);
}

TEST(FaultRuns, RebootRejoinsAndRestoresTheSchedule)
{
    sim::SystemSimConfig config = deploymentSimConfig(200.0_ms);
    ASSERT_TRUE(config.schedule.feasible);
    config.recordTrace = true;
    config.faults.crashes.push_back(
        {1, 40.0_ms, /*rebootAt=*/80.0_ms});
    sim::SystemSim sim(config);
    const sim::SystemSimResult result = sim.run();

    ASSERT_EQ(result.nodesDown.size(), 1u);
    ASSERT_GE(result.reschedules.size(), 2u);
    // The final reschedule runs against an empty dead set: the
    // recovered node gets its original allocation back.
    EXPECT_TRUE(result.reschedules.back().deadNodes.empty());
    EXPECT_DOUBLE_EQ(result.reschedules.back().throughputAfter.count(),
                     result.reschedules.front().throughputBefore.count());
    const sim::TraceCounters totals = sim.trace().totals();
    EXPECT_EQ(totals[sim::TraceEventKind::NodeDown], 1u);
    EXPECT_EQ(totals[sim::TraceEventKind::NodeRecovered], 1u);
    EXPECT_EQ(totals[sim::TraceEventKind::FaultInjected], 2u);
}

TEST(FaultRuns, DropoutLosesPacketsButNotTheSystem)
{
    sim::SystemSimConfig config = deploymentSimConfig(120.0_ms);
    ASSERT_TRUE(config.schedule.feasible);
    config.faults.dropouts.push_back({40.0_ms, 60.0_ms});
    sim::SystemSim sim(config);
    const sim::SystemSimResult result = sim.run();
    EXPECT_GT(result.packetsLost, 0u);
    EXPECT_GT(result.flows[1].retransmissions, 0u);
    for (const sim::FlowSimStats &flow : result.flows)
        EXPECT_GT(flow.windowsCompleted, 0u);
}

TEST(FaultRuns, NvmFailuresAreCountedAndBounded)
{
    sim::SystemSimConfig config = deploymentSimConfig(100.0_ms);
    ASSERT_TRUE(config.schedule.feasible);
    config.faults.nvmFailures.push_back({2, 0.5});
    sim::SystemSim sim(config);
    const sim::SystemSimResult result = sim.run();
    EXPECT_GT(result.nvmWriteFailures, 0u);
    // Only node 2's appends can fail; the others persist everything.
    sim::SystemSimConfig clean = deploymentSimConfig(100.0_ms);
    sim::SystemSim clean_sim(clean);
    const sim::SystemSimResult clean_result = clean_sim.run();
    for (const std::size_t node : {0u, 1u, 3u})
        EXPECT_EQ(result.nodes[node].nvmBytesWritten,
                  clean_result.nodes[node].nvmBytesWritten);
    EXPECT_LT(result.nodes[2].nvmBytesWritten,
              clean_result.nodes[2].nvmBytesWritten);
}

TEST(FaultRuns, ThrottleSlowsTheThrottledNodeOnly)
{
    sim::SystemSimConfig clean = deploymentSimConfig(100.0_ms);
    ASSERT_TRUE(clean.schedule.feasible);
    sim::SystemSim clean_sim(clean);
    const sim::SystemSimResult baseline = clean_sim.run();

    sim::SystemSimConfig config = deploymentSimConfig(100.0_ms);
    config.faults.throttles.push_back({0, 20.0_ms, 60.0_ms, 4.0});
    sim::SystemSim sim(config);
    const sim::SystemSimResult result = sim.run();
    // Throttling stretches the slowed node's pipeline: the local
    // flow's worst-case response can only get worse.
    EXPECT_GE(result.flows[0].maxResponse.count(),
              baseline.flows[0].maxResponse.count());
    for (const sim::FlowSimStats &flow : result.flows)
        EXPECT_GT(flow.windowsCompleted, 0u);
}

// ---------------------------------------------------------------
// Determinism properties.

TEST(FaultDeterminism, EmptyPlanLeavesTheHappyPathUntouched)
{
    sim::SystemSimConfig config = deploymentSimConfig(100.0_ms);
    ASSERT_TRUE(config.schedule.feasible);
    config.recordTrace = true;
    sim::SystemSim sim(config);
    const sim::SystemSimResult result = sim.run();

    EXPECT_TRUE(result.nodesDown.empty());
    EXPECT_TRUE(result.reschedules.empty());
    EXPECT_EQ(result.exchangeTimeouts, 0u);
    EXPECT_EQ(result.nvmWriteFailures, 0u);
    EXPECT_EQ(result.packetsLost, 0u);
    const sim::TraceCounters totals = sim.trace().totals();
    EXPECT_EQ(totals[sim::TraceEventKind::FaultInjected], 0u);
    EXPECT_EQ(totals[sim::TraceEventKind::NodeDown], 0u);
    EXPECT_EQ(totals[sim::TraceEventKind::NodeRecovered], 0u);
    EXPECT_EQ(totals[sim::TraceEventKind::ExchangeTimedOut], 0u);
    EXPECT_EQ(totals[sim::TraceEventKind::Resched], 0u);
}

TEST(FaultDeterminism, SameSeedSamePlanSameTraceBytes)
{
    const auto run_once = [] {
        sim::SystemSimConfig config =
            deploymentSimConfig(150.0_ms);
        config.recordTrace = true;
        config.faults.crashes.push_back(
            {1, 50.0_ms, /*rebootAt=*/100.0_ms});
        config.faults.dropouts.push_back({20.0_ms, 30.0_ms});
        config.faults.berSpikes.push_back({60.0_ms, 70.0_ms, 1e-3});
        config.faults.nvmFailures.push_back({2, 0.3});
        config.faults.throttles.push_back(
            {3, 10.0_ms, 90.0_ms, 2.0});
        sim::SystemSim sim(config);
        sim.run();
        return sim.trace().toChromeJson();
    };
    const std::string first = run_once();
    const std::string second = run_once();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find("node-down"), std::string::npos);
    EXPECT_NE(first.find("resched"), std::string::npos);
}

// ---------------------------------------------------------------
// Partial query results under dead shards and deadlines.

class PartialQueryFixture : public ::testing::Test
{
  protected:
    static constexpr std::size_t kNodes = 4;
    static constexpr std::size_t kSamples = 64;

    void
    SetUp() override
    {
        engine = std::make_unique<app::QueryEngine>(kNodes, kSamples,
                                                    7);
        Rng noise(17);
        // Node index rides in the electrode id so a match's origin
        // shard is recoverable from the result alone. Node 3 stores
        // 4x the data, so its shard is the modeled-latency straggler.
        for (NodeId node = 0; node < kNodes; ++node) {
            const std::uint64_t count = node == 3 ? 200 : 50;
            for (std::uint64_t w = 0; w < count; ++w) {
                std::vector<double> window(kSamples);
                for (double &sample : window)
                    sample = noise.gaussian(0.0, 1.0);
                engine->ingest(node, w * 1'000 + node, node, window,
                               (w % 3) == 0);
            }
        }
    }

    app::Query
    allWindows() const
    {
        app::Query query;
        query.t0Us = 0;
        query.t1Us = 1'000'000;
        return query;
    }

    std::unique_ptr<app::QueryEngine> engine;
};

TEST_F(PartialQueryFixture, DownShardYieldsPrefixConsistentSubset)
{
    const app::QueryExecution full = engine->execute(allWindows());
    EXPECT_TRUE(full.coverage.complete());
    ASSERT_FALSE(full.matches.empty());

    engine->setNodeDown(2);
    EXPECT_TRUE(engine->nodeDown(2));
    const app::QueryExecution partial =
        engine->execute(allWindows());
    EXPECT_EQ(partial.coverage.answeredShards, kNodes - 1);
    EXPECT_EQ(partial.coverage.totalShards, kNodes);
    EXPECT_FALSE(partial.coverage.complete());
    EXPECT_DOUBLE_EQ(partial.coverage.fraction(), 0.75);
    EXPECT_FALSE(partial.perNode[2].answered);

    // Nothing from the dead shard...
    for (const app::StoredWindow *window : partial.matches)
        EXPECT_NE(window->electrode, 2u);
    // ...and what remains is exactly the fault-free answer minus
    // node 2's contributions, in the same order (an ordered subset).
    std::vector<const app::StoredWindow *> expected;
    for (const app::StoredWindow *window : full.matches)
        if (window->electrode != 2u)
            expected.push_back(window);
    EXPECT_EQ(partial.matches, expected);

    engine->setNodeDown(2, false);
    const app::QueryExecution restored =
        engine->execute(allWindows());
    EXPECT_TRUE(restored.coverage.complete());
    EXPECT_EQ(restored.matches, full.matches);
}

TEST_F(PartialQueryFixture, ShardDeadlineDropsTheStraggler)
{
    const app::QueryExecution full = engine->execute(allWindows());
    double fastest = full.perNode[0].modeled.count();
    double slowest = fastest;
    for (const app::QueryStats &stats : full.perNode) {
        fastest = std::min(fastest, stats.modeled.count());
        slowest = std::max(slowest, stats.modeled.count());
    }
    ASSERT_LT(fastest, slowest); // node 3 really is the straggler

    app::Query bounded = allWindows();
    bounded.shardDeadline =
        units::Millis{(fastest + slowest) / 2.0};
    const app::QueryExecution partial = engine->execute(bounded);
    EXPECT_EQ(partial.coverage.answeredShards, kNodes - 1);
    EXPECT_FALSE(partial.perNode[3].answered);
    for (const app::StoredWindow *window : partial.matches)
        EXPECT_NE(window->electrode, 3u);
    // Giving up still costs the deadline.
    EXPECT_GE(partial.latency.count(),
              bounded.shardDeadline.count());
    // The straggler's windows are excluded from the scan accounting.
    EXPECT_LT(partial.scanned, full.scanned);
}

// ---------------------------------------------------------------
// Partition tolerance in the hierarchical fabric: relay failover,
// backbone re-stitching, and degraded-then-healed serving.

/** 12 nodes in 3 balanced TDMA clusters, the Section 6 flow pair. */
sim::SystemSimConfig
hierarchicalSimConfig(units::Millis duration)
{
    sched::SystemConfig system;
    system.nodes = 12;
    system.maxElectrodesPerNode = constants::kElectrodesPerNode;
    system.clusters = net::ClusterPlan::balanced(12, 3);
    const sched::Scheduler scheduler(system);
    sim::SystemSimConfig config;
    config.system = system;
    config.flows = deploymentFlows();
    config.priorities = {1.0, 3.0};
    config.schedule =
        scheduler.schedule(config.flows, config.priorities);
    config.duration = duration;
    return config;
}

// The hierarchical acceptance scenario (the tentpole contract): in a
// 12-node / 3-cluster deployment, cluster 2's relay crashes mid-run
// AND cluster 1 is severed from the backbone for 10 s. The run must
// complete with (a) the relay failover detected and relay duty
// migrated, (b) the backbone re-stitched with the throughput delta
// reported, (c) the partition declared at backbone cadence and healed
// when the window closes, and (d) both flows still completing
// windows throughout.
TEST(FaultRuns, RelayCrashAndClusterPartitionFailOverAndHeal)
{
    sim::SystemSimConfig config =
        hierarchicalSimConfig(12'000.0_ms);
    ASSERT_TRUE(config.schedule.feasible);
    config.recordTrace = true;
    // Cluster 1 severed for 10 s; cluster 2's relay dies at 6 s.
    config.faults.partitions.push_back(
        {1, 1'000.0_ms, 11'000.0_ms});
    config.faults.relayCrashes.push_back({2, 6'000.0_ms});
    sim::SystemSim sim(config);
    const sim::SystemSimResult result = sim.run();
    EXPECT_EQ(result.clusters, 3u);

    // (c) Partition declared within the backbone-cadence detection
    // bound — the detector observes once per backbone round of the
    // single networked flow (4 ms windows), plus one round-assembly
    // deadline of slack — and healed after the window closes.
    ASSERT_GE(result.partitions.size(), 2u);
    const sim::PartitionEvent &severed = result.partitions.front();
    EXPECT_EQ(severed.cluster, 1u);
    EXPECT_FALSE(severed.healed);
    const double bound =
        net::HeartbeatDetector(3, config.heartbeatMissThreshold)
            .detectionLatency(4.0_ms, 1)
            .count() +
        4.0;
    EXPECT_GT(severed.at.count(), 1'000.0);
    EXPECT_LE(severed.at.count() - 1'000.0, bound);
    bool healed = false;
    for (const sim::PartitionEvent &event : result.partitions)
        if (event.cluster == 1 && event.healed) {
            healed = true;
            EXPECT_GT(event.at.count(), 11'000.0);
            EXPECT_LE(event.at.count() - 11'000.0, bound);
        }
    EXPECT_TRUE(healed);
    EXPECT_GT(result.relayForwardsDropped, 0u);

    // (a) The relay crash: whoever held cluster 2's duty (node 8,
    // its first member) is declared dead within the intra-cluster
    // heartbeat bound, and the failover is traced.
    bool relay_dead = false;
    for (const sim::NodeDownEvent &down : result.nodesDown)
        if (down.node == 8) {
            relay_dead = true;
            EXPECT_DOUBLE_EQ(down.crashedAt.count(), 6'000.0);
            EXPECT_LE(down.detectedAt.count() - 6'000.0, bound);
        }
    EXPECT_TRUE(relay_dead);
    const sim::TraceCounters totals = sim.trace().totals();
    EXPECT_GE(totals[sim::TraceEventKind::RelayFailover], 1u);
    EXPECT_GE(totals[sim::TraceEventKind::PartitionStart], 1u);
    EXPECT_GE(totals[sim::TraceEventKind::PartitionHealed], 1u);

    // (b) The backbone re-stitched — at least once around the
    // unreachable cluster and once around the dead relay — with the
    // degradation delta reported.
    ASSERT_GE(result.restitches.size(), 2u);
    EXPECT_GE(totals[sim::TraceEventKind::BackboneRestitch], 2u);
    bool saw_unreachable = false;
    bool saw_dead_relay = false;
    for (const sim::RestitchEvent &restitch : result.restitches) {
        EXPECT_GT(restitch.throughputBefore.count(), 0.0);
        EXPECT_GT(restitch.throughputAfter.count(), 0.0);
        EXPECT_LE(restitch.throughputAfter.count(),
                  restitch.throughputBefore.count() + 1e-9);
        saw_unreachable =
            saw_unreachable ||
            std::find(restitch.unreachableClusters.begin(),
                      restitch.unreachableClusters.end(),
                      std::size_t{1}) !=
                restitch.unreachableClusters.end();
        saw_dead_relay =
            saw_dead_relay ||
            std::find(restitch.deadNodes.begin(),
                      restitch.deadNodes.end(), std::size_t{8}) !=
                restitch.deadNodes.end();
    }
    EXPECT_TRUE(saw_unreachable);
    EXPECT_TRUE(saw_dead_relay);

    // (d) The system kept producing throughout.
    for (const sim::FlowSimStats &flow : result.flows)
        EXPECT_GT(flow.windowsCompleted,
                  flow.windowsSubmitted / 2);
}

// Same-seed fault traces are byte-identical serial vs parallel at
// every thread count — the determinism contract extended to the new
// fault kinds (relay crash, partition, backbone BER spike).
TEST(FaultDeterminism, HierarchicalFaultTraceBytesAcrossThreadCounts)
{
    const auto run_once = [](std::size_t threads) {
        sim::SystemSimConfig config =
            hierarchicalSimConfig(2'400.0_ms);
        config.recordTrace = true;
        config.threads = threads;
        config.faults.partitions.push_back(
            {1, 800.0_ms, 1'600.0_ms});
        config.faults.relayCrashes.push_back({2, 1'200.0_ms});
        config.faults.backboneBerSpikes.push_back(
            {400.0_ms, 600.0_ms, 1e-3});
        sim::SystemSim sim(config);
        const sim::SystemSimResult result = sim.run();
        if (threads != 0) { // 0 is one runner per CPU of this host
            EXPECT_EQ(result.ranParallel, threads > 1);
        }
        return sim.trace().toChromeJson(threads);
    };
    const std::string serial = run_once(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_NE(serial.find("relay-failover"), std::string::npos);
    EXPECT_NE(serial.find("partition-start"), std::string::npos);
    EXPECT_NE(serial.find("partition-healed"), std::string::npos);
    EXPECT_NE(serial.find("backbone-restitch"), std::string::npos);
    for (const std::size_t threads : {0u, 2u, 4u, 8u})
        EXPECT_EQ(serial, run_once(threads))
            << "threads=" << threads;
}

// The empty-plan regression (satellite of the determinism contract):
// a fault-free run of the parallel engine must draw zero RNG from
// every fault stream — shared and per-node alike — so the happy path
// stays byte-identical as fault kinds accumulate.
TEST(FaultDeterminism, EmptyPlanDrawsNoFaultRngOnAnyStream)
{
    // Injector-level: exercising every query surface of an empty
    // plan consumes nothing.
    sim::FaultInjector injector(sim::FaultPlan{}, 42);
    injector.partitionNvmStreams(12);
    for (std::uint32_t node = 0; node < 12; ++node) {
        EXPECT_FALSE(injector.nvmWriteFails(node));
        injector.throttleAt(node, units::Micros{1'000.0});
    }
    injector.inDropout(units::Micros{1'000.0});
    injector.inPartition(0, units::Micros{1'000.0});
    injector.berOverrideAt(units::Micros{1'000.0});
    injector.backboneBerOverrideAt(units::Micros{1'000.0});
    for (const std::uint64_t draws : injector.rngDrawsPerStream())
        EXPECT_EQ(draws, 0u);

    // Engine-level: a full parallel multi-cluster run with an empty
    // plan leaves every stream untouched.
    sim::SystemSimConfig config = hierarchicalSimConfig(400.0_ms);
    ASSERT_TRUE(config.schedule.feasible);
    config.threads = 4;
    sim::SystemSim sim(config);
    const sim::SystemSimResult result = sim.run();
    EXPECT_TRUE(result.ranParallel);
    const std::vector<std::uint64_t> draws = sim.faultRngDraws();
    ASSERT_EQ(draws.size(), 13u); // shared + one per node
    for (const std::uint64_t count : draws)
        EXPECT_EQ(count, 0u);
    EXPECT_TRUE(result.partitions.empty());
    EXPECT_TRUE(result.restitches.empty());
    EXPECT_EQ(result.relayForwardsDropped, 0u);
}

// Cluster-granular degraded serving: with the fabric's cluster plan
// installed, a partitioned cluster's shards drop out of the fan-out
// as one failure domain, coverage names the cluster, the answer is a
// prefix-consistent subset, and the heal restores everything.
TEST(PartialQueryCoverage, PartitionedClusterDegradesAndRejoins)
{
    constexpr std::size_t kNodes = 12;
    constexpr std::size_t kSamples = 32;
    app::QueryEngine engine(kNodes, kSamples, 7);
    engine.setClusterPlan(net::ClusterPlan::balanced(kNodes, 3));
    Rng noise(23);
    for (NodeId node = 0; node < kNodes; ++node)
        for (std::uint64_t w = 0; w < 20; ++w) {
            std::vector<double> window(kSamples);
            for (double &sample : window)
                sample = noise.gaussian(0.0, 1.0);
            // Node id rides in the electrode so a match's origin
            // shard is recoverable from the result alone.
            engine.ingest(node, w * 1'000 + node, node, window,
                          false);
        }

    app::Query query;
    query.t0Us = 0;
    query.t1Us = 1'000'000;
    const app::QueryExecution full = engine.execute(query);
    EXPECT_TRUE(full.coverage.complete());
    ASSERT_EQ(full.coverage.clusters.size(), 3u);
    for (const app::ClusterCoverage &slice : full.coverage.clusters)
        EXPECT_TRUE(slice.complete());

    engine.setClusterDown(1);
    EXPECT_TRUE(engine.clusterDown(1));
    const app::QueryExecution partial = engine.execute(query);
    EXPECT_FALSE(partial.coverage.complete());
    EXPECT_EQ(partial.coverage.answeredShards, 8u);
    EXPECT_EQ(partial.coverage.totalShards, kNodes);
    ASSERT_EQ(partial.coverage.clusters.size(), 3u);
    EXPECT_TRUE(partial.coverage.clusters[0].complete());
    EXPECT_EQ(partial.coverage.clusters[1].answeredShards, 0u);
    EXPECT_EQ(partial.coverage.clusters[1].totalShards, 4u);
    EXPECT_TRUE(partial.coverage.clusters[2].complete());

    // Prefix-consistent: exactly the full answer minus cluster 1's
    // members (nodes 4-7), in the same order.
    std::vector<const app::StoredWindow *> expected;
    for (const app::StoredWindow *window : full.matches)
        if (window->electrode < 4 || window->electrode > 7)
            expected.push_back(window);
    EXPECT_EQ(partial.matches, expected);

    engine.setClusterDown(1, false);
    const app::QueryExecution restored = engine.execute(query);
    EXPECT_TRUE(restored.coverage.complete());
    EXPECT_EQ(restored.matches, full.matches);
}

} // namespace
} // namespace scalo
