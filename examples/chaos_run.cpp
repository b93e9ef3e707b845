/**
 * @file
 * Fault-injection demo: run the 4-node Section 6 deployment
 * (seizure detection + hash-similarity propagation tracking) while a
 * FaultPlan breaks things, and print the failure / detection /
 * reschedule / QoS timeline the runtime produces.
 *
 * Scenarios (--scenario):
 *   crash       node 1 crashes at 5/6 of the run and stays down
 *   dropout     the shared radio is gone for 150 ms mid-run
 *   nvm         node 2's NVM fails 30% of its appends
 *   throttle    node 0 runs 3x slower over the middle third
 *   combined    all of the above
 *   partition   (hierarchical, 12 nodes / 3 clusters) cluster 1 is
 *               severed from the backbone over the middle third;
 *               its TDMA keeps running, forwards are dropped, the
 *               backbone re-stitches around it, queries degrade to
 *               cluster-granular partial coverage, and the heal
 *               restores everything
 *   relay-crash (hierarchical) cluster 1's relay dies mid-run;
 *               relay duty migrates, the failover is detected at
 *               backbone cadence, and the backbone re-stitches
 *
 * Pass `--trace out.json` to export a Chrome trace-event JSON and
 * watch the FaultInjected / NodeDown / Resched (plus, on the
 * hierarchical scenarios, RelayFailover / PartitionStart /
 * PartitionHealed / BackboneRestitch) markers next to the pipeline
 * lanes in Perfetto (ui.perfetto.dev). `--threads N` sets the
 * runners of the multi-cluster engine and of the trace export (0, the
 * default, is one per CPU; 1 is serial); the trace bytes stay the
 * same at every width.
 *
 * Exits 0 only when the scenario's degradation contract held (e.g.
 * the crash was detected, work was rescheduled, and windows kept
 * completing afterwards).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "scalo/core/system.hpp"
#include "scalo/sched/workloads.hpp"
#include "scalo/util/table.hpp"

namespace {

struct Args
{
    std::string scenario = "crash";
    std::string tracePath;
    double durationMs = 6000.0;
    /** Simulation and export runners: 0 = one per CPU, 1 = serial. */
    std::size_t threads = 0;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
            args.scenario = argv[++i];
        } else if (std::strcmp(argv[i], "--trace") == 0 &&
                   i + 1 < argc) {
            args.tracePath = argv[++i];
        } else if (std::strcmp(argv[i], "--duration") == 0 &&
                   i + 1 < argc) {
            args.durationMs = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            char *end = nullptr;
            const unsigned long threads =
                std::strtoul(argv[++i], &end, 10);
            if (*end != '\0' || argv[i][0] == '-')
                return false;
            args.threads = static_cast<std::size_t>(threads);
        } else {
            return false;
        }
    }
    return args.durationMs > 0.0;
}

/**
 * The partition scenario's query-side demo: ingest one window per
 * node, run the same full-range query with cluster 1 unreachable and
 * again after the heal, and print the cluster-granular coverage the
 * engine reports for each. Returns true when the degraded execution
 * answered exactly the two reachable clusters and the healed one
 * answered everything.
 */
bool
queryCoverageDemo(const scalo::core::ScaloSystem &system,
                  std::size_t partitioned_cluster)
{
    using namespace scalo;
    constexpr std::size_t kWindowSamples = 32;
    app::QueryEngine engine =
        system.makeQueryEngine(kWindowSamples);
    const std::vector<double> window(kWindowSamples, 0.25);
    for (std::size_t node = 0; node < engine.nodeCount(); ++node)
        engine.ingest(static_cast<NodeId>(node),
                      /*timestamp_us=*/1000 * (node + 1),
                      /*electrode=*/0, window,
                      /*seizure_flagged=*/false);

    const auto print_coverage = [](const char *label,
                                   const app::QueryExecution &ex) {
        std::printf("  %s: %zu/%zu shards", label,
                    ex.coverage.answeredShards,
                    ex.coverage.totalShards);
        for (const app::ClusterCoverage &slice :
             ex.coverage.clusters)
            std::printf("  cluster %zu: %zu/%zu", slice.cluster,
                        slice.answeredShards, slice.totalShards);
        std::printf("%s\n", ex.coverage.complete()
                                ? "  (complete)"
                                : "  (partial)");
    };

    engine.setClusterDown(partitioned_cluster);
    const app::QueryExecution degraded =
        engine.execute(app::Query{});
    print_coverage("partitioned", degraded);

    engine.setClusterDown(partitioned_cluster, /*down=*/false);
    const app::QueryExecution healed = engine.execute(app::Query{});
    print_coverage("healed     ", healed);

    bool ok = !degraded.coverage.complete() &&
              healed.coverage.complete();
    for (const app::ClusterCoverage &slice :
         degraded.coverage.clusters)
        ok = ok && (slice.cluster == partitioned_cluster
                        ? slice.answeredShards == 0
                        : slice.complete());
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scalo;
    using namespace scalo::units::literals;

    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::printf("usage: %s [--scenario "
                    "crash|dropout|nvm|throttle|combined|partition|"
                    "relay-crash] "
                    "[--duration ms] [--trace out.json] "
                    "[--threads N]\n",
                    argv[0]);
        return 2;
    }

    // The hierarchical scenarios exercise the clustered fabric: 12
    // nodes in 3 TDMA clusters bridged by the relay backbone. The
    // flat scenarios keep the original 4-node deployment.
    const bool wantPartition = args.scenario == "partition";
    const bool wantRelayCrash = args.scenario == "relay-crash";
    const bool hierarchical = wantPartition || wantRelayCrash;

    core::ScaloConfig config;
    config.nodes = hierarchical ? 12 : 4;
    config.clusters = hierarchical ? 3 : 1;
    core::ScaloSystem system(config);
    std::printf("%s\n", system.describe().c_str());

    // The Section 6 seizure-propagation deployment: local detection
    // on every implant plus the all-to-all hash exchange that tracks
    // propagation, exchange prioritised.
    const std::vector<sched::FlowSpec> flows{
        sched::seizureDetectionFlow(),
        sched::hashSimilarityFlow(net::Pattern::AllToAll)};
    const std::vector<double> priorities{1.0, 3.0};
    const sched::Schedule schedule = system.deploy(flows, priorities);
    if (!schedule.feasible) {
        std::printf("deployment failed: %s\n",
                    schedule.reason.c_str());
        return 1;
    }

    // Assemble the scenario's fault plan against the run length.
    const units::Millis duration{args.durationMs};
    const bool wantCrash =
        args.scenario == "crash" || args.scenario == "combined";
    const bool wantDropout =
        args.scenario == "dropout" || args.scenario == "combined";
    const bool wantNvm =
        args.scenario == "nvm" || args.scenario == "combined";
    const bool wantThrottle =
        args.scenario == "throttle" || args.scenario == "combined";
    if (!wantCrash && !wantDropout && !wantNvm && !wantThrottle &&
        !hierarchical) {
        std::printf("unknown scenario '%s'\n",
                    args.scenario.c_str());
        return 2;
    }

    // The cluster the hierarchical scenarios break (balanced(12, 3)
    // puts nodes 4-7 here, relay duty starting on node 4).
    constexpr std::uint32_t kVictimCluster = 1;

    sim::FaultPlan plan;
    const units::Millis crash_at = duration * (5.0 / 6.0);
    if (wantCrash)
        plan.crashes.push_back({/*node=*/1, crash_at});
    if (wantDropout)
        plan.dropouts.push_back(
            {duration * 0.5, duration * 0.5 + 150.0_ms});
    if (wantNvm)
        plan.nvmFailures.push_back({/*node=*/2, /*probability=*/0.3});
    if (wantThrottle)
        plan.throttles.push_back({/*node=*/0, duration * (1.0 / 3.0),
                                  duration * (2.0 / 3.0),
                                  /*slowdown=*/3.0});
    const units::Millis partition_from = duration * (1.0 / 3.0);
    const units::Millis partition_to = duration * (2.0 / 3.0);
    if (wantPartition)
        plan.partitions.push_back(
            {kVictimCluster, partition_from, partition_to});
    if (wantRelayCrash)
        plan.relayCrashes.push_back(
            {kVictimCluster, duration * (1.0 / 3.0)});

    std::printf("\nscenario '%s': %zu fault(s) over %.0f ms\n",
                args.scenario.c_str(), plan.size(),
                duration.count());
    if (wantCrash)
        std::printf("  t=%7.1f ms  node 1 crashes (stays down)\n",
                    crash_at.count());
    if (wantDropout)
        std::printf("  t=%7.1f ms  radio dropout for 150 ms\n",
                    (duration * 0.5).count());
    if (wantNvm)
        std::printf("  (whole run)  node 2 NVM fails 30%% of "
                    "appends\n");
    if (wantThrottle)
        std::printf("  t=%7.1f ms  node 0 throttled 3x until "
                    "t=%.1f ms\n",
                    (duration * (1.0 / 3.0)).count(),
                    (duration * (2.0 / 3.0)).count());
    if (wantPartition)
        std::printf("  t=%7.1f ms  cluster %u severed from the "
                    "backbone until t=%.1f ms\n",
                    partition_from.count(), kVictimCluster,
                    partition_to.count());
    if (wantRelayCrash)
        std::printf("  t=%7.1f ms  cluster %u's relay crashes "
                    "(stays down; duty migrates)\n",
                    (duration * (1.0 / 3.0)).count(),
                    kVictimCluster);

    core::SimulateOptions options;
    options.duration = duration;
    options.tracePath = args.tracePath;
    options.faults = plan;
    options.priorities = priorities;
    options.threads = args.threads;
    const sim::SystemSimResult result =
        system.simulate(flows, schedule, options);

    // Failure / detection / reschedule timeline.
    std::printf("\ntimeline:\n");
    for (const sim::NodeDownEvent &down : result.nodesDown) {
        if (down.crashedAt.count() >= 0.0)
            std::printf("  t=%7.1f ms  node %u declared dead "
                        "(crashed t=%.1f ms, detection latency "
                        "%.1f ms)\n",
                        down.detectedAt.count(), down.node,
                        down.crashedAt.count(),
                        (down.detectedAt - down.crashedAt).count());
        else
            std::printf("  t=%7.1f ms  node %u declared dead "
                        "(no crash injected: false positive)\n",
                        down.detectedAt.count(), down.node);
    }
    for (const sim::RescheduleEvent &resched : result.reschedules) {
        std::string dead;
        for (const std::size_t n : resched.deadNodes)
            dead.append(dead.empty() ? "" : ",")
                .append(std::to_string(n));
        std::printf("  t=%7.1f ms  reschedule via %s around {%s}: "
                    "throughput %.2f -> %.2f Mbps, peak power "
                    "%.2f -> %.2f mW\n",
                    resched.at.count(),
                    resched.viaIlp ? "ILP" : "fallback",
                    dead.c_str(), resched.throughputBefore.count(),
                    resched.throughputAfter.count(),
                    resched.maxNodePowerBefore.count(),
                    resched.maxNodePowerAfter.count());
    }
    for (const sim::PartitionEvent &partition : result.partitions)
        std::printf("  t=%7.1f ms  cluster %zu %s\n",
                    partition.at.count(), partition.cluster,
                    partition.healed
                        ? "rejoined the backbone (partition healed)"
                        : "declared partitioned (backbone silence)");
    for (const sim::RestitchEvent &restitch : result.restitches) {
        std::string unreachable;
        for (const std::size_t c : restitch.unreachableClusters)
            unreachable.append(unreachable.empty() ? "" : ",")
                .append(std::to_string(c));
        std::printf("  t=%7.1f ms  backbone re-stitched via %s "
                    "(unreachable clusters {%s}): throughput "
                    "%.2f -> %.2f Mbps\n",
                    restitch.at.count(),
                    restitch.viaIlp ? "ILP" : "fallback",
                    unreachable.c_str(),
                    restitch.throughputBefore.count(),
                    restitch.throughputAfter.count());
    }
    if (result.nodesDown.empty() && result.reschedules.empty() &&
        result.partitions.empty() && result.restitches.empty())
        std::printf("  (no nodes declared dead)\n");
    std::printf("  exchange timeouts: %llu, packets lost after "
                "retries: %llu, NVM write failures: %llu, relay "
                "forwards dropped: %llu\n",
                static_cast<unsigned long long>(
                    result.exchangeTimeouts),
                static_cast<unsigned long long>(result.packetsLost),
                static_cast<unsigned long long>(
                    result.nvmWriteFailures),
                static_cast<unsigned long long>(
                    result.relayForwardsDropped));

    // The query path's view of the partition: cluster-granular
    // coverage while the cluster is unreachable, full coverage after
    // the heal.
    bool coverage_ok = true;
    if (wantPartition) {
        std::printf("\nquery coverage under the partition:\n");
        coverage_ok = queryCoverageDemo(system, kVictimCluster);
    }

    // Degraded QoS summary.
    std::printf("\n");
    TextTable table({"flow", "submitted", "completed", "dropped",
                     "mean resp (ms)", "max resp (ms)", "retx",
                     "sustainable"});
    for (const sim::FlowSimStats &flow : result.flows) {
        table.addRow({flow.flow,
                      std::to_string(flow.windowsSubmitted),
                      std::to_string(flow.windowsCompleted),
                      std::to_string(flow.windowsDropped),
                      TextTable::num(flow.meanResponse.count(), 3),
                      TextTable::num(flow.maxResponse.count(), 3),
                      std::to_string(flow.retransmissions),
                      flow.sustainable ? "yes" : "degraded"});
    }
    table.print();
    if (!args.tracePath.empty())
        std::printf("\ntrace written to %s (open in Perfetto; look "
                    "for fault-injected / node-down / resched "
                    "instants)\n",
                    args.tracePath.c_str());

    // Scenario contracts: the run only "passes" when the degradation
    // machinery actually engaged and the system kept producing.
    bool ok = true;
    for (const sim::FlowSimStats &flow : result.flows)
        ok = ok && flow.windowsCompleted > 0;
    if (wantCrash) {
        bool node1_detected = false;
        for (const sim::NodeDownEvent &down : result.nodesDown)
            node1_detected = node1_detected || down.node == 1;
        ok = ok && node1_detected && !result.reschedules.empty();
    }
    if (wantDropout)
        ok = ok && result.packetsLost > 0;
    if (wantNvm)
        ok = ok && result.nvmWriteFailures > 0;
    if (wantPartition) {
        // The degradation contract of a backbone partition: forwards
        // were dropped at the severed link, the silence was declared
        // and later healed, the backbone re-stitched, and queries
        // degraded to (then recovered from) partial coverage.
        bool declared = false;
        bool healed = false;
        for (const sim::PartitionEvent &partition :
             result.partitions) {
            if (partition.cluster != kVictimCluster)
                continue;
            declared = declared || !partition.healed;
            healed = healed || partition.healed;
        }
        ok = ok && result.relayForwardsDropped > 0 && declared &&
             healed && !result.restitches.empty() && coverage_ok;
    }
    if (wantRelayCrash) {
        // Relay failover contract: the old relay was declared dead,
        // duty migrated (the run kept completing windows), and the
        // backbone re-stitched around the death.
        bool relay_dead = false;
        for (const sim::NodeDownEvent &down : result.nodesDown)
            relay_dead = relay_dead || down.node == 4;
        ok = ok && relay_dead && !result.restitches.empty();
    }
    std::printf("\n%s\n", ok ? "scenario contract held"
                             : "SCENARIO CONTRACT VIOLATED");
    return ok ? 0 : 1;
}
