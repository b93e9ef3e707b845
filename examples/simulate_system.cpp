/**
 * @file
 * Schedule the Section 6 application flows with the ILP, execute the
 * schedule through the node-level discrete-event runtime
 * (sim::SystemSim), and print the analytic predictions next to the
 * simulated measurements - the cross-validation loop of Section 3.5.
 *
 * Defaults to the paper's 4-implant flat fabric. Pass `--nodes N`
 * and `--clusters K` to generate a hierarchical topology instead: N
 * implants partitioned into K balanced TDMA clusters bridged by a
 * relay backbone, scheduled with the decomposed per-cluster
 * formulation and executed by the clustered engine (`--threads N`
 * sets its runners and the trace export's: 0, the default, is one per
 * CPU and 1 is serial; the result is byte-identical at every width).
 *
 * Pass `--trace out.json` to export a Chrome trace-event JSON of the
 * run; open it in Perfetto (ui.perfetto.dev) or chrome://tracing to
 * see per-node pipeline stages, TDMA exchange rounds, backbone
 * relays, packet corruptions, and NVM writes on a shared timeline.
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

void
usage(const char *argv0)
{
    std::printf("usage: %s [--nodes N] [--clusters K] [--threads T]"
                " [--duration MS] [--trace out.json]\n",
                argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace scalo;
    using namespace scalo::units::literals;

    std::string trace_path;
    std::size_t nodes = 4;
    std::size_t clusters = 1;
    std::size_t threads = 0;
    double duration_ms = 400.0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--nodes") == 0 &&
                   i + 1 < argc) {
            nodes = static_cast<std::size_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--clusters") == 0 &&
                   i + 1 < argc) {
            clusters = static_cast<std::size_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            threads = static_cast<std::size_t>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (std::strcmp(argv[i], "--duration") == 0 &&
                   i + 1 < argc) {
            duration_ms = std::strtod(argv[++i], nullptr);
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (nodes < 1 || clusters < 1 || clusters > nodes ||
        duration_ms <= 0.0) {
        usage(argv[0]);
        return 2;
    }

    // The Section 6 application mix: detection, propagation
    // tracking, and spike sorting concurrently, detection
    // prioritised. On a clustered fabric the decomposed formulation
    // keeps each sub-ILP at cluster size, so wide fabrics schedule
    // in seconds; a wide flat fabric pays the monolithic solve.
    core::ScaloConfig config;
    config.nodes = nodes;
    config.clusters = clusters;
    core::ScaloSystem system(config);
    std::printf("%s\n\n", system.describe().c_str());

    const std::vector<sched::FlowSpec> flows{
        sched::seizureDetectionFlow(),
        sched::hashSimilarityFlow(net::Pattern::AllToAll),
        sched::spikeSortingFlow()};
    const sched::Schedule schedule =
        system.deploy(flows, {1.0, 3.0, 1.0});
    if (!schedule.feasible) {
        std::printf("deployment failed: %s\n",
                    schedule.reason.c_str());
        return 1;
    }

    // Execute the schedule event-by-event.
    core::SimulateOptions options;
    options.duration = units::Millis{duration_ms};
    options.tracePath = trace_path;
    options.threads = threads;
    const sim::SystemSimResult result =
        system.simulate(flows, schedule, options);

    std::printf("analytic vs event-driven, %.0f ms of streaming "
                "(%zu events, %zu cluster%s, %s engine):\n\n",
                result.duration.count(), result.eventsExecuted,
                result.clusters, result.clusters == 1 ? "" : "s",
                result.ranParallel ? "parallel" : "serial");

    TextTable flow_table({"flow", "windows", "resp sim (ms)",
                          "resp ILP (ms)", "round sim (ms)",
                          "round ILP (ms)", "relays", "retx",
                          "sustainable"});
    for (const sim::FlowSimStats &f : result.flows) {
        flow_table.addRow(
            {f.flow, std::to_string(f.windowsCompleted),
             TextTable::num(f.meanResponse.count(), 3),
             TextTable::num(f.analyticResponse.count(), 3),
             TextTable::num(f.meanRound.count(), 3),
             TextTable::num(f.analyticRound.count(), 3),
             std::to_string(f.relayForwards),
             std::to_string(f.retransmissions),
             f.sustainable && f.analyticallySustainable ? "yes"
                                                        : "NO"});
    }
    flow_table.print();
    std::printf("\n");

    // On wide fabrics the per-node table is noise; summarise.
    if (nodes <= 16) {
        TextTable node_table({"node", "power sim (mW)",
                              "power ILP (mW)", "NVM written (KB)",
                              "NVM util", "trace events"});
        for (const sim::NodeSimStats &n : result.nodes) {
            node_table.addRow(
                {std::to_string(n.node),
                 TextTable::num(n.measuredPower.count(), 3),
                 TextTable::num(n.analyticPower.count(), 3),
                 TextTable::num(n.nvmBytesWritten / 1024.0, 1),
                 TextTable::num(n.nvmUtilization * 100.0, 2) + "%",
                 std::to_string(n.counters.total())});
        }
        node_table.print();
    } else {
        double max_sim = 0.0;
        double max_ilp = 0.0;
        double sum_sim = 0.0;
        std::uint64_t nvm_total = 0;
        for (const sim::NodeSimStats &n : result.nodes) {
            max_sim = std::max(max_sim, n.measuredPower.count());
            max_ilp = std::max(max_ilp, n.analyticPower.count());
            sum_sim += n.measuredPower.count();
            nvm_total += n.nvmBytesWritten;
        }
        std::printf("nodes: %zu, max power sim %.3f mW (ILP %.3f), "
                    "mean %.3f mW, NVM %.1f KB total\n",
                    result.nodes.size(), max_sim, max_ilp,
                    sum_sim / static_cast<double>(nodes),
                    nvm_total / 1024.0);
    }

    std::printf("\nnetwork: %s\n", result.network.summary().c_str());
    if (!trace_path.empty())
        std::printf("trace written to %s (open in Perfetto or "
                    "chrome://tracing)\n",
                    trace_path.c_str());
    return 0;
}
