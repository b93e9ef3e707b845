/**
 * @file
 * Scale-out tests of the decomposed scheduler: per-cluster sub-ILPs
 * plus greedy backbone stitching behind the flat Scheduler interface.
 * Covers feasibility at 64 nodes, bit-identity with the monolithic
 * solve below the decomposition threshold, the bounded optimality gap
 * of the decomposition, incremental rescheduling at 256 nodes, the
 * repair fallback, the out-of-range repair id checks, every repair
 * solving via the ILP on random dead sets, and the solve memo: one distinct sub-ILP for a
 * balanced plan, warm repairs bit-identical to fresh ones, and
 * concurrent repairs on one shared Scheduler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "scalo/sched/scheduler.hpp"
#include "scalo/sched/workloads.hpp"
#include "scalo/util/rng.hpp"
#include "scalo/util/thread_pool.hpp"

namespace scalo::sched {
namespace {

using namespace units::literals;

std::vector<FlowSpec>
mixedFlows()
{
    return {seizureDetectionFlow(),
            hashSimilarityFlow(net::Pattern::AllToAll),
            spikeSortingFlow()};
}

const std::vector<double> kPriorities{1.0, 3.0, 1.0};

SystemConfig
clusteredConfig(std::size_t nodes, std::size_t clusters)
{
    SystemConfig config;
    config.nodes = nodes;
    config.maxElectrodesPerNode = constants::kElectrodesPerNode;
    if (clusters > 1)
        config.clusters = net::ClusterPlan::balanced(nodes, clusters);
    return config;
}

/** Max nodePower entry, 0 when empty. */
double
maxPowerMw(const Schedule &schedule)
{
    double max = 0.0;
    for (const units::Milliwatts p : schedule.nodePower)
        max = std::max(max, p.count());
    return max;
}

TEST(SchedScale, Decomposed64Feasible)
{
    const Scheduler scheduler(clusteredConfig(64, 8));
    ASSERT_TRUE(scheduler.decomposed());
    const Schedule schedule =
        scheduler.schedule(mixedFlows(), kPriorities);
    ASSERT_TRUE(schedule.feasible) << schedule.reason;

    ASSERT_EQ(schedule.flows.size(), 3u);
    for (const FlowAllocation &alloc : schedule.flows) {
        ASSERT_EQ(alloc.electrodesPerNode.size(), 64u);
        EXPECT_GT(alloc.totalElectrodes, 0.0) << alloc.flow;
        for (const double e : alloc.electrodesPerNode) {
            EXPECT_GE(e, 0.0);
            EXPECT_LE(e, constants::kElectrodesPerNode + 1e-6);
        }
    }
    // The per-node power cap binds cluster-locally too.
    ASSERT_EQ(schedule.nodePower.size(), 64u);
    EXPECT_LE(maxPowerMw(schedule),
              constants::kPowerCap.count() + 1e-6);
    EXPECT_GT(schedule.totalThroughput.count(), 0.0);
}

TEST(SchedScale, MonolithicBelowThresholdIsBitIdenticalToFlat)
{
    // 16 nodes in 4 clusters sits below the monolithic threshold
    // (48), so the clustered scheduler must keep the dense solve and
    // reproduce the flat allocation bit for bit.
    const Scheduler clustered(clusteredConfig(16, 4));
    const Scheduler flat(clusteredConfig(16, 1));
    ASSERT_FALSE(clustered.decomposed());
    ASSERT_EQ(clustered.plan().clusterCount(), 4u);

    const Schedule a = clustered.schedule(mixedFlows(), kPriorities);
    const Schedule b = flat.schedule(mixedFlows(), kPriorities);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t f = 0; f < a.flows.size(); ++f) {
        EXPECT_EQ(a.flows[f].electrodesPerNode,
                  b.flows[f].electrodesPerNode);
        EXPECT_EQ(a.flows[f].totalElectrodes,
                  b.flows[f].totalElectrodes);
    }
    EXPECT_EQ(a.totalThroughput.count(), b.totalThroughput.count());
}

TEST(SchedScale, DecompositionGapIsBounded)
{
    // The decomposed solve trades optimality for cluster-sized
    // sub-problems; the stitched schedule must stay within a modest
    // factor of the monolithic optimum (and never beat it, since the
    // monolithic solve sees the whole feasible region).
    const Scheduler scheduler(clusteredConfig(64, 8));
    ASSERT_TRUE(scheduler.decomposed());
    const std::vector<FlowSpec> flows = mixedFlows();
    const Schedule decomposed =
        scheduler.scheduleDecomposed(flows, kPriorities);
    const Schedule monolithic =
        scheduler.scheduleMonolithic(flows, kPriorities);
    ASSERT_TRUE(decomposed.feasible) << decomposed.reason;
    ASSERT_TRUE(monolithic.feasible) << monolithic.reason;

    const double dec = decomposed.weightedThroughput.count();
    const double mono = monolithic.weightedThroughput.count();
    ASSERT_GT(mono, 0.0);
    EXPECT_LE(dec, mono * (1.0 + 1e-6));
    EXPECT_GE(dec, 0.60 * mono)
        << "decomposition gap above 40%: " << dec << " vs " << mono;
}

TEST(SchedScale, Reschedule256TouchesOnlyAffectedClusters)
{
    // 256 nodes in 16 clusters of 16; kill two nodes of cluster 3
    // (nodes 48..63). The incremental path must re-solve only that
    // cluster and keep every other column bit-identical.
    const Scheduler scheduler(clusteredConfig(256, 16));
    ASSERT_TRUE(scheduler.decomposed());
    const std::vector<FlowSpec> flows = mixedFlows();
    const Schedule original =
        scheduler.schedule(flows, kPriorities);
    ASSERT_TRUE(original.feasible) << original.reason;

    const std::vector<std::size_t> dead{49, 55};
    const RescheduleResult result =
        scheduler.reschedule(flows, kPriorities, original, dead);
    ASSERT_TRUE(result.schedule.feasible);
    EXPECT_EQ(result.resolvedClusters,
              (std::vector<std::size_t>{3}));
    EXPECT_EQ(result.deadNodes, dead);

    for (const FlowAllocation &alloc : result.schedule.flows)
        for (const std::size_t n : dead)
            EXPECT_EQ(alloc.electrodesPerNode[n], 0.0);

    // Columns outside cluster 3 are untouched.
    for (std::size_t f = 0; f < flows.size(); ++f)
        for (std::size_t n = 0; n < 256; ++n) {
            if (n >= 48 && n < 64)
                continue;
            EXPECT_EQ(result.schedule.flows[f].electrodesPerNode[n],
                      original.flows[f].electrodesPerNode[n])
                << "flow " << f << " node " << n;
        }
    EXPECT_LE(maxPowerMw(result.schedule),
              constants::kPowerCap.count() + 1e-6);
    EXPECT_LE(result.throughputAfter.count(),
              result.throughputBefore.count() + 1e-9);
}

TEST(SchedScale, RescheduleClusterMatchesFullReschedule)
{
    // rescheduleCluster (the simulator's concurrent entry point)
    // must agree with reschedule() on the repaired columns of the
    // affected cluster.
    const Scheduler scheduler(clusteredConfig(64, 8));
    const std::vector<FlowSpec> flows = mixedFlows();
    const Schedule original =
        scheduler.schedule(flows, kPriorities);
    ASSERT_TRUE(original.feasible);

    const std::vector<std::size_t> dead{18};
    const std::size_t cluster = scheduler.plan().clusterOf(18);
    const RescheduleResult via_cluster =
        scheduler.rescheduleCluster(flows, kPriorities, original,
                                    dead, cluster);
    ASSERT_TRUE(via_cluster.schedule.feasible);
    EXPECT_EQ(via_cluster.resolvedClusters,
              (std::vector<std::size_t>{cluster}));
    for (const FlowAllocation &alloc : via_cluster.schedule.flows)
        EXPECT_EQ(alloc.electrodesPerNode[18], 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f)
        for (std::size_t n = 0; n < 64; ++n) {
            if (scheduler.plan().clusterOf(n) == cluster)
                continue;
            EXPECT_EQ(
                via_cluster.schedule.flows[f].electrodesPerNode[n],
                original.flows[f].electrodesPerNode[n]);
        }
}

TEST(SchedScale, FallbackShedsDeadWorkAt64)
{
    // The repair a decomposed reschedule keeps when its re-solves are
    // not Optimal.
    const Scheduler scheduler(clusteredConfig(64, 8));
    const std::vector<FlowSpec> flows = mixedFlows();
    const Schedule original =
        scheduler.schedule(flows, kPriorities);
    ASSERT_TRUE(original.feasible);

    const std::vector<std::size_t> dead{3, 12, 40};
    const Schedule repaired =
        scheduler.shedDeadNodes(flows, kPriorities, original, dead);
    ASSERT_TRUE(repaired.feasible);
    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowAllocation &alloc = repaired.flows[f];
        for (const std::size_t n : dead)
            EXPECT_EQ(alloc.electrodesPerNode[n], 0.0);
        for (std::size_t n = 0; n < 64; ++n) {
            EXPECT_GE(alloc.electrodesPerNode[n], 0.0);
            if (std::find(dead.begin(), dead.end(), n) == dead.end()) {
                EXPECT_GE(alloc.electrodesPerNode[n],
                          original.flows[f].electrodesPerNode[n]);
            }
        }
    }
    EXPECT_LE(maxPowerMw(repaired),
              constants::kPowerCap.count() + 1e-6);
    EXPECT_LE(maxPowerMw(repaired), maxPowerMw(original) + 1e-6);
}

TEST(SchedScale, RepairRejectsOutOfRangeIds)
{
    // Hard checks, live in every build type: an unchecked id would
    // index past the alive mask or the plan's offsets.
    for (const std::size_t clusters : {1u, 8u}) {
        const Scheduler scheduler(clusteredConfig(64, clusters));
        const std::vector<FlowSpec> flows = mixedFlows();
        const Schedule original =
            scheduler.schedule(flows, kPriorities);
        ASSERT_TRUE(original.feasible);
        EXPECT_THROW(scheduler.reschedule(flows, kPriorities, original,
                                          {3, 64}),
                     std::logic_error);
        EXPECT_THROW(scheduler.restitchBackbone(flows, kPriorities,
                                                original, {200}),
                     std::logic_error);
        EXPECT_THROW(scheduler.restitchBackbone(flows, kPriorities,
                                                original, {3},
                                                {clusters}),
                     std::logic_error);
        EXPECT_THROW(scheduler.rescheduleCluster(flows, kPriorities,
                                                 original, {64}, 0),
                     std::logic_error);
        EXPECT_THROW(scheduler.rescheduleCluster(flows, kPriorities,
                                                 original, {3},
                                                 clusters),
                     std::logic_error);
        EXPECT_THROW(scheduler.shedDeadNodes(flows, kPriorities,
                                             original, {64}),
                     std::logic_error);
    }
}

TEST(SchedScale, RandomRepairsAllSolveViaIlp)
{
    // Allocating nothing is always feasible, so no repair ever needs
    // the fallback: every entry re-solves via the ILP, whatever dies.
    struct Shape
    {
        std::size_t nodes, clusters;
    };
    Rng rng(2023);
    for (const Shape shape : {Shape{4, 1}, Shape{16, 4}, Shape{64, 8},
                              Shape{128, 8}}) {
        const Scheduler scheduler(
            clusteredConfig(shape.nodes, shape.clusters));
        const net::ClusterPlan &plan = scheduler.plan();
        const std::vector<FlowSpec> flows = mixedFlows();
        const Schedule original =
            scheduler.schedule(flows, kPriorities);
        ASSERT_TRUE(original.feasible) << original.reason;
        for (int trial = 0; trial < 4; ++trial) {
            std::vector<std::size_t> dead;
            const std::size_t count = 1 + rng.below(shape.nodes - 1);
            for (std::size_t i = 0; i < count; ++i)
                dead.push_back(rng.below(shape.nodes));
            const std::size_t cluster = rng.below(plan.clusterCount());
            std::vector<std::size_t> cluster_dead;
            for (const std::size_t n : plan.members(cluster))
                if (rng.chance(0.5))
                    cluster_dead.push_back(n);
            std::vector<std::size_t> unreachable;
            for (std::size_t c = 0; c < plan.clusterCount(); ++c)
                if (rng.chance(0.25))
                    unreachable.push_back(c);

            const std::string what = std::to_string(shape.nodes) + "/" +
                                     std::to_string(shape.clusters) +
                                     " trial " + std::to_string(trial);
            EXPECT_TRUE(
                scheduler.reschedule(flows, kPriorities, original, dead)
                    .viaIlp)
                << what;
            EXPECT_TRUE(scheduler
                            .rescheduleCluster(flows, kPriorities,
                                               original, cluster_dead,
                                               cluster)
                            .viaIlp)
                << what;
            EXPECT_TRUE(scheduler
                            .restitchBackbone(flows, kPriorities,
                                              original, dead,
                                              unreachable)
                            .viaIlp)
                << what;
        }
    }
}

TEST(SchedScale, Balanced128SolvesOneDistinctSubIlp)
{
    // Eight identical clusters pose the same sub-ILP up to naming:
    // the memo solves it once and answers the other seven.
    const Scheduler scheduler(clusteredConfig(128, 8));
    ASSERT_TRUE(scheduler.decomposed());
    const Schedule schedule =
        scheduler.schedule(mixedFlows(), kPriorities);
    ASSERT_TRUE(schedule.feasible) << schedule.reason;
    EXPECT_EQ(scheduler.solveCounts().solved, 1u);
    EXPECT_EQ(scheduler.solveCounts().reused, 7u);
}

/** Every electrode count and node power of @p s, as raw bits. */
std::vector<std::uint64_t>
scheduleBits(const Schedule &s)
{
    std::vector<std::uint64_t> out{s.feasible ? 1u : 0u};
    for (const FlowAllocation &alloc : s.flows)
        for (const double e : alloc.electrodesPerNode)
            out.push_back(std::bit_cast<std::uint64_t>(e));
    for (const units::Milliwatts p : s.nodePower)
        out.push_back(std::bit_cast<std::uint64_t>(p.count()));
    return out;
}

/** One repair call of the sequence below. */
struct Repair
{
    enum Kind { Full, Cluster, Restitch } kind;
    std::vector<std::size_t> dead;
    std::size_t cluster = 0;
    std::vector<std::size_t> unreachable = {};
};

RescheduleResult
runRepair(const Scheduler &scheduler, const Schedule &original,
          const Repair &repair)
{
    const std::vector<FlowSpec> flows = mixedFlows();
    switch (repair.kind) {
      case Repair::Full:
        return scheduler.reschedule(flows, kPriorities, original,
                                    repair.dead);
      case Repair::Cluster:
        return scheduler.rescheduleCluster(
            flows, kPriorities, original, repair.dead, repair.cluster);
      case Repair::Restitch:
        break;
    }
    return scheduler.restitchBackbone(flows, kPriorities, original,
                                      repair.dead, repair.unreachable);
}

TEST(SchedScale, WarmMemoRepairsMatchFreshSchedulers)
{
    // 64 nodes in 8 clusters of 8. Node 10 sits where node 18 does in
    // its cluster, so some repairs repeat a sub-ILP across clusters.
    const SystemConfig config = clusteredConfig(64, 8);
    const Scheduler warm(config);
    const Schedule original = warm.schedule(mixedFlows(), kPriorities);
    ASSERT_TRUE(original.feasible) << original.reason;
    EXPECT_EQ(scheduleBits(original),
              scheduleBits(Scheduler(config).schedule(mixedFlows(),
                                                      kPriorities)));

    const std::vector<Repair> sequence{
        {Repair::Cluster, {18}, 2},
        {Repair::Full, {18}},
        {Repair::Restitch, {18}, 0, {5}},
        {Repair::Cluster, {10}, 1},
        {Repair::Cluster, {18}, 2},
        {Repair::Full, {10, 18}},
        {Repair::Restitch, {10, 18}},
        {Repair::Restitch, {}, 0, {3}},
    };
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        const Scheduler fresh(config);
        EXPECT_EQ(scheduleBits(runRepair(warm, original, sequence[i])
                                   .schedule),
                  scheduleBits(runRepair(fresh, original, sequence[i])
                                   .schedule))
            << "repair " << i;
    }
    EXPECT_GT(warm.solveCounts().reused, 7u)
        << "the sequence never hit the memo";
}

TEST(SchedScale, ConcurrentRescheduleClusterOnSharedScheduler)
{
    // Every cluster repaired at once, twice over, through one shared
    // Scheduler (the parallel simulator's pattern): each result must
    // equal the same repair on a private, fresh Scheduler.
    const SystemConfig config = clusteredConfig(64, 8);
    const Scheduler shared(config);
    const Schedule original =
        shared.schedule(mixedFlows(), kPriorities);
    ASSERT_TRUE(original.feasible) << original.reason;

    const std::size_t clusters = shared.plan().clusterCount();
    std::vector<Repair> repairs;
    for (std::size_t round = 0; round < 2; ++round)
        for (std::size_t c = 0; c < clusters; ++c)
            repairs.push_back(
                {Repair::Cluster, {shared.plan().members(c)[1 + c % 3]},
                 c});

    std::vector<std::vector<std::uint64_t>> concurrent(repairs.size());
    util::ThreadPool pool(4);
    pool.parallelFor(repairs.size(), [&](std::size_t i) {
        concurrent[i] = scheduleBits(
            runRepair(shared, original, repairs[i]).schedule);
    });
    for (std::size_t i = 0; i < repairs.size(); ++i)
        EXPECT_EQ(concurrent[i],
                  scheduleBits(runRepair(Scheduler(config), original,
                                         repairs[i])
                                   .schedule))
            << "repair " << i;
    EXPECT_GE(shared.solveCounts().reused, clusters);
}

} // namespace
} // namespace scalo::sched
