/**
 * @file
 * fabric_chaos: a system designer deploys the mixed Section 6 flow set
 * through core::ScaloSystem::deploy (the ILP boot solve) on 128 nodes
 * in 8 clusters and checks it in the event-driven runtime through
 * ScaloSystem::simulate under a seeded FaultPlan (node crash and
 * reboot, a relay crash, a cluster partition, a backbone BER spike)
 * with the Chrome trace exported, as a user debugging a fault
 * timeline would. The boot solve, the scheduler's repair path, the
 * event engine and Trace record/export do the work.
 *
 * Only user-level defaults are used: no SimulateOptions::parallel or
 * threads, no sync quantum, no forced scheduler entry points.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "scalo/core/system.hpp"
#include "scalo/util/rng.hpp"

namespace scalobench {
namespace {

using namespace scalo;

struct Shape
{
    std::size_t nodes;
    std::size_t clusters;
    /** Simulated streaming duration per simulate() call. */
    double durationMs;
};

constexpr Shape kChaos{128, 8, 500.0};
/** Set-ups timed per run; each deploys every flow on its own. */
constexpr int kSetupRepeats = 5;
/** Analytic-vs-simulated agreement contract of the runtime. */
constexpr double kAgreement = 0.05;

std::vector<sched::FlowSpec>
mixedFlows()
{
    return {sched::seizureDetectionFlow(),
            sched::hashSimilarityFlow(net::Pattern::AllToAll),
            sched::spikeSortingFlow()};
}

const std::vector<double> kPriorities{1.0, 3.0, 1.0};

/**
 * The seeded chaos plan: every fault kind the hierarchical runtime
 * repairs, at jittered instants spread over the run so their repairs
 * do not coalesce into one barrier.
 */
sim::FaultPlan
chaosPlan(std::uint64_t seed, const Shape &shape)
{
    Rng rng(seed ^ 0xc4a05ULL);
    const double d = shape.durationMs;
    const auto at = [&](double fraction) {
        return units::Millis{d * (fraction + rng.uniform(-0.02, 0.02))};
    };
    const std::size_t per_cluster = shape.nodes / shape.clusters;
    const auto cluster_pick = [&](std::size_t avoid_a,
                                  std::size_t avoid_b) {
        std::size_t c = 0;
        do {
            c = rng.below(shape.clusters);
        } while (c == avoid_a || c == avoid_b);
        return c;
    };
    const std::size_t relay_cluster = cluster_pick(shape.clusters,
                                                   shape.clusters);
    const std::size_t cut_cluster =
        cluster_pick(relay_cluster, shape.clusters);
    const std::size_t crash_cluster =
        cluster_pick(relay_cluster, cut_cluster);
    // A non-relay member (relays sit at the cluster's first alive
    // node), so the crash and the relay crash stay separate repairs.
    const auto member = [&](std::size_t cluster) {
        return static_cast<std::uint32_t>(
            cluster * per_cluster + 1 + rng.below(per_cluster - 1));
    };

    sim::FaultPlan plan;
    plan.crashes.push_back(
        {member(crash_cluster), at(0.15), at(0.45)});
    plan.crashes.push_back({member(cut_cluster), at(0.55)});
    plan.crashes.push_back({member(relay_cluster), at(0.08), at(0.3)});
    plan.crashes.push_back({member(crash_cluster), at(0.6), at(0.9)});
    plan.relayCrashes.push_back(
        {static_cast<std::uint32_t>(relay_cluster), at(0.25)});
    plan.partitions.push_back(
        {static_cast<std::uint32_t>(cut_cluster), at(0.35), at(0.65)});
    plan.backboneBerSpikes.push_back({at(0.72), at(0.82), 2e-4});
    return plan;
}

/** FNV-1a over a canonical text of every simulated statistic. */
class Digest
{
  public:
    void
    add(double v)
    {
        char buffer[32];
        std::snprintf(buffer, sizeof buffer, "%.17g;", v);
        add(std::string(buffer));
    }
    void
    add(const std::string &text)
    {
        for (const unsigned char c : text) {
            hash ^= c;
            hash *= 0x100000001b3ULL;
        }
    }
    std::string
    hex() const
    {
        char buffer[20];
        std::snprintf(buffer, sizeof buffer, "%016llx",
                      static_cast<unsigned long long>(hash));
        return buffer;
    }

  private:
    std::uint64_t hash = 0xcbf29ce484222325ULL;
};

std::string
simDigest(const sim::SystemSimResult &r)
{
    Digest d;
    const auto u = [&](std::uint64_t v) {
        d.add(static_cast<double>(v));
    };
    for (const sim::FlowSimStats &f : r.flows) {
        d.add(f.flow);
        u(f.windowsSubmitted), u(f.windowsCompleted), u(f.windowsDropped);
        d.add(f.meanResponse.count()), d.add(f.maxResponse.count());
        d.add(f.analyticResponse.count()), d.add(f.meanRound.count());
        d.add(f.maxRound.count()), d.add(f.analyticRound.count());
        u(f.packetsSent), u(f.packetsCorrupted), u(f.retransmissions);
        u(f.packetsLost), u(f.relayForwards);
        u(f.sustainable), u(f.analyticallySustainable);
    }
    for (const sim::NodeSimStats &n : r.nodes) {
        u(n.node), d.add(n.measuredPower.count());
        d.add(n.analyticPower.count()), u(n.nvmBytesWritten);
        u(n.nvmPagesProgrammed), d.add(n.nvmUtilization);
        for (const std::uint64_t c : n.counters.count)
            u(c);
    }
    for (const std::uint64_t c : r.network.count)
        u(c);
    d.add(r.duration.count()), u(r.eventsExecuted), u(r.clusters);
    for (const sim::NodeDownEvent &e : r.nodesDown)
        u(e.node), d.add(e.crashedAt.count()), d.add(e.detectedAt.count());
    for (const sim::RescheduleEvent &e : r.reschedules) {
        d.add(e.at.count()), u(e.viaIlp);
        for (const std::size_t n : e.deadNodes)
            u(n);
        d.add(e.throughputAfter.count());
        d.add(e.maxNodePowerAfter.count());
    }
    for (const sim::PartitionEvent &e : r.partitions)
        u(e.cluster), d.add(e.at.count()), u(e.healed);
    for (const sim::RestitchEvent &e : r.restitches) {
        d.add(e.at.count()), u(e.viaIlp);
        for (const std::size_t n : e.deadNodes)
            u(n);
        for (const std::size_t c : e.unreachableClusters)
            u(c);
        d.add(e.throughputAfter.count());
    }
    u(r.exchangeTimeouts), u(r.nvmWriteFailures), u(r.packetsLost);
    u(r.relayForwardsDropped);
    return d.hex();
}

/**
 * Windows @p spec would run if the fabric carried it on every node:
 * one window per cadence period of the simulated duration, per node
 * for a local flow, once fabric-wide for a networked (exchanging)
 * flow. Delivery is counted against this demand, so a flow the
 * schedule leaves without electrodes counts as undelivered.
 */
double
demandedWindows(const sched::FlowSpec &spec, const Shape &shape)
{
    const double per_node =
        std::floor(shape.durationMs / spec.window.count() + 1e-9);
    return spec.network ? per_node
                        : per_node * static_cast<double>(shape.nodes);
}

double
relativeError(double measured, double analytic)
{
    if (analytic == 0.0)
        return measured == 0.0 ? 0.0 : 1.0;
    return std::abs(measured - analytic) / std::abs(analytic);
}

/**
 * The runtime checked against its own analytic model on a fault-free
 * run: worst relative error of per-flow mean response and per-node
 * power, and whether every flow kept up. Flows that ran no window
 * have no response to compare.
 */
struct Agreement
{
    bool sustainable = true;
    double responseErr = 0.0;
    double powerErr = 0.0;
};

Agreement
agreement(const sim::SystemSimResult &r)
{
    Agreement a;
    for (const sim::FlowSimStats &f : r.flows) {
        a.sustainable = a.sustainable && f.sustainable;
        if (f.windowsSubmitted > 0)
            a.responseErr = std::max(
                a.responseErr, relativeError(f.meanResponse.count(),
                                             f.analyticResponse.count()));
    }
    for (const sim::NodeSimStats &n : r.nodes)
        a.powerErr = std::max(a.powerErr,
                              relativeError(n.measuredPower.count(),
                                            n.analyticPower.count()));
    return a;
}

/**
 * The scheduler view ScaloSystem builds internally (its
 * schedulerConfig() is private). Traced runs use it to drive
 * SystemSim and Scheduler::reschedule directly; the facade-equality
 * check below fails the run if this copy ever drifts.
 */
sched::SystemConfig
schedulerView(const core::ScaloConfig &config)
{
    sched::SystemConfig sys;
    sys.nodes = config.nodes;
    sys.powerCap = config.powerCap;
    sys.radio = &net::radioSpec(config.radio);
    sys.maxElectrodesPerNode = constants::kElectrodesPerNode;
    if (config.clusters > 1)
        sys.clusters =
            net::ClusterPlan::balanced(config.nodes, config.clusters);
    return sys;
}

} // namespace

int
runFabricChaos(const Options &options)
{
    const Shape shape = kChaos;
    const Clock::time_point begin = Clock::now();
    const Clock::time_point deadline =
        begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(options.seconds));
    SpanRecorder spans(options.trace, begin);
    const std::string trace_path = options.out + "/chaos.trace.json";

    core::ScaloConfig config;
    config.nodes = shape.nodes;
    config.clusters = shape.clusters;
    config.seed = options.seed;

    std::vector<double> setup_s, deploy_s, simulate_s, iteration_s;
    std::vector<bool> iteration_traced;
    std::vector<std::string> digests;
    sim::SystemSimResult result;
    sched::Schedule schedule;
    std::vector<sched::FlowSpec> flows;
    sim::FaultPlan plan;

    // Set-up: the system, the flow set (and fault plan), and what the
    // fabric carries of each flow deployed on its own, the reference
    // of the flows_carried check. Timed a few times, before deploy
    // and simulate churn the heap.
    std::vector<double> alone;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        const Clock::time_point start = Clock::now();
        const core::ScaloSystem system(config);
        flows = mixedFlows();
        plan = chaosPlan(options.seed, shape);
        plan.validate(shape.nodes, shape.clusters);
        alone.clear();
        for (const sched::FlowSpec &flow : flows) {
            const sched::Schedule own = system.deploy({flow}, {1.0});
            alone.push_back(own.feasible ? own.flows[0].totalElectrodes
                                         : 0.0);
        }
        setup_s.push_back(seconds(start, Clock::now()));
    }

    // Traced runs alternate iterations without and with spans, so the
    // span overhead is measured inside one process over the same
    // stretch of time; they always make one iteration of each.
    const int min_iterations = options.trace ? 2 : 1;
    for (int it = 0; it < min_iterations || Clock::now() < deadline; ++it) {
        const bool traced = options.trace && it % 2 == 1;
        const Clock::time_point it_start = Clock::now();
        const core::ScaloSystem system(config);
        flows = mixedFlows();
        plan = chaosPlan(options.seed, shape);
        const Clock::time_point setup_end = Clock::now();

        const Clock::time_point deploy_start = Clock::now();
        schedule = system.deploy(flows, kPriorities);
        const Clock::time_point deploy_end = Clock::now();
        if (!schedule.feasible)
            break;

        core::SimulateOptions sim_options;
        sim_options.duration = units::Millis{shape.durationMs};
        sim_options.priorities = kPriorities;
        sim_options.faults = plan;
        sim_options.tracePath = trace_path;
        const Clock::time_point sim_start = Clock::now();
        result = system.simulate(flows, schedule, sim_options);
        const Clock::time_point sim_end = Clock::now();

        deploy_s.push_back(seconds(deploy_start, deploy_end));
        simulate_s.push_back(seconds(sim_start, sim_end));
        iteration_s.push_back(seconds(it_start, sim_end));
        iteration_traced.push_back(traced);
        digests.push_back(simDigest(result));
        if (traced) {
            const std::int64_t root =
                spans.add("bench.iteration", it_start, sim_end);
            spans.add("bench.setup", it_start, setup_end, root);
            spans.add("sched.deploy", deploy_start, deploy_end, root);
            spans.add("sim.simulate", sim_start, sim_end, root);
        }
        // Traced runs keep half the budget for the layer probes.
        if (options.trace &&
            seconds(begin, Clock::now()) > 0.5 * options.seconds &&
            it > 0)
            break;
    }

    const long peak_kb = peakRssKb();
    std::vector<Check> checks;
    checks.push_back({"schedule_feasible", schedule.feasible,
                      schedule.reason});
    const std::string digest = digests.empty() ? "" : digests.front();
    checks.push_back(
        {"sim_digest_repeats",
         !digests.empty() &&
             std::all_of(digests.begin(), digests.end(),
                         [&](const std::string &d) { return d == digest; }),
         std::to_string(digests.size()) + " runs"});

    double packets = 0, corrupted = 0, retransmissions = 0;
    double relay_forwards = 0, starved = 0;
    std::string uncarried;
    for (std::size_t i = 0; i < result.flows.size(); ++i) {
        const sim::FlowSimStats &f = result.flows[i];
        packets += static_cast<double>(f.packetsSent);
        corrupted += static_cast<double>(f.packetsCorrupted);
        retransmissions += static_cast<double>(f.retransmissions);
        relay_forwards += static_cast<double>(f.relayForwards);
        if (f.windowsSubmitted == 0) {
            ++starved;
            // A flow the fabric carries on its own must run in the mix.
            if (alone[i] > 0.0)
                uncarried += f.flow + " ";
        }
    }
    checks.push_back({"flows_carried",
                      !result.flows.empty() && uncarried.empty(),
                      uncarried.empty() ? ""
                                        : "no windows for " + uncarried});
    double detect_ms = 0.0;
    std::size_t detected = 0;
    for (const sim::NodeDownEvent &e : result.nodesDown)
        if (e.crashedAt.count() >= 0.0) {
            detect_ms += e.detectedAt.count() - e.crashedAt.count();
            ++detected;
        }
    detect_ms = detected ? detect_ms / static_cast<double>(detected) : 0.0;

    // The facade's exported trace stays under --out for run.py, which
    // validates it and counts its event kinds.
    std::error_code size_ec;
    const double trace_bytes = static_cast<double>(
        std::filesystem::file_size(trace_path, size_ec));
    // Under injected faults the surviving nodes carry repaired work, so
    // the 5% analytic contract applies to fault-free runs only: it is
    // checked on an untimed fault-free run of the same deployment.
    Agreement agreed;
    if (schedule.feasible) {
        core::SimulateOptions calm;
        calm.duration = units::Millis{shape.durationMs};
        calm.priorities = kPriorities;
        agreed = agreement(
            core::ScaloSystem(config).simulate(flows, schedule, calm));
    }
    checks.push_back({"flows_sustainable", agreed.sustainable,
                      "fault-free run"});
    checks.push_back({"response_within_5pct",
                      agreed.responseErr <= kAgreement,
                      "max relative error " +
                          std::to_string(agreed.responseErr)});
    checks.push_back({"power_within_5pct", agreed.powerErr <= kAgreement,
                      "max relative error " +
                          std::to_string(agreed.powerErr)});
    checks.push_back({"faults_detected", !result.nodesDown.empty(),
                      std::to_string(result.nodesDown.size()) +
                          " nodes declared down"});
    checks.push_back({"partition_seen", result.partitions.size() >= 2,
                      std::to_string(result.partitions.size()) +
                          " partition transitions"});
    checks.push_back({"backbone_restitched",
                      !result.restitches.empty(),
                      std::to_string(result.restitches.size()) +
                          " restitches"});
    checks.push_back({"trace_exported", !size_ec && trace_bytes > 0,
                      trace_path});

    // ---- traced-only layer probes ----------------------------------
    std::size_t repairs_via_ilp = 0;
    const std::size_t repairs =
        result.reschedules.size() + result.restitches.size();
    for (const sim::RescheduleEvent &e : result.reschedules)
        repairs_via_ilp += e.viaIlp;
    for (const sim::RestitchEvent &e : result.restitches)
        repairs_via_ilp += e.viaIlp;

    if (options.trace && schedule.feasible) {
        // Repair cost: replay every recorded dead set through the
        // public whole-system repair entry.
        const sched::Scheduler scheduler(schedulerView(config));
        std::vector<std::vector<std::size_t>> dead_sets;
        for (const sim::RescheduleEvent &e : result.reschedules)
            dead_sets.push_back(e.deadNodes);
        for (const sim::RestitchEvent &e : result.restitches)
            dead_sets.push_back(e.deadNodes);
        const Clock::time_point replay_start = Clock::now();
        const std::int64_t root =
            spans.add("bench.repair_replay", replay_start, replay_start);
        for (const std::vector<std::size_t> &dead : dead_sets) {
            const Clock::time_point start = Clock::now();
            scheduler.reschedule(flows, kPriorities, schedule, dead);
            spans.add("sched.repair", start, Clock::now(), root);
        }
        spans.close(root, Clock::now());
    }

    if (options.trace && schedule.feasible) {
        // Trace cost: the same run with recording off and on, then
        // the export on its own.
        const auto direct = [&](bool record) {
            sim::SystemSimConfig sim_config;
            sim_config.system = schedulerView(config);
            sim_config.flows = flows;
            sim_config.schedule = schedule;
            sim_config.duration = units::Millis{shape.durationMs};
            sim_config.seed = config.seed;
            sim_config.recordTrace = record;
            sim_config.faults = plan;
            sim_config.priorities = kPriorities;
            return sim::SystemSim(std::move(sim_config));
        };
        const Clock::time_point plain_start = Clock::now();
        sim::SystemSim plain = direct(false);
        const sim::SystemSimResult plain_result = plain.run();
        const Clock::time_point plain_end = Clock::now();
        sim::SystemSim recorded = direct(true);
        recorded.run();
        const Clock::time_point recorded_end = Clock::now();
        const std::string probe_path = options.out + "/probe.trace.json";
        const bool exported = recorded.trace().writeChromeJson(probe_path);
        const Clock::time_point export_end = Clock::now();
        std::error_code ec;
        const bool written = std::filesystem::file_size(probe_path, ec) > 0;
        std::filesystem::remove(probe_path, ec);
        const double record_s = seconds(plain_end, recorded_end) -
                                seconds(plain_start, plain_end);
        const std::int64_t probe_root =
            spans.add("bench.trace_probe", plain_start, export_end);
        spans.add("sim.run", plain_start, plain_end, probe_root);
        const std::int64_t rec = spans.add("sim.run_recorded", plain_end,
                                           recorded_end, probe_root);
        // The recording share of the recorded run is the trace
        // layer's self time: the part an unrecorded run does not do.
        const auto record_span =
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(std::max(0.0, record_s)));
        spans.add("trace.record", recorded_end - record_span,
                  recorded_end, rec);
        spans.add("trace.export", recorded_end, export_end, probe_root);
        checks.push_back({"probe_trace_exported", exported && written,
                          probe_path});
        checks.push_back({"facade_equals_direct_run",
                          simDigest(plain_result) == digest,
                          simDigest(plain_result) + " vs " + digest});
    }

    for (const Check &check : checks)
        if (!check.ok)
            std::fprintf(stderr, "CHECK FAILED: %s %s\n",
                         check.name.c_str(), check.detail.c_str());
    std::printf("sim_digest %s\n", digest.c_str());

    JsonWriter json;
    json.beginObject()
        .value("workload", options.workload)
        .value("seed", static_cast<double>(options.seed))
        .value("trace", options.trace);
    writeStamp(json);
    json.value("nodes", static_cast<double>(shape.nodes))
        .value("clusters", static_cast<double>(shape.clusters))
        .value("simulated_ms", shape.durationMs)
        .numbers("setup_s", setup_s)
        .numbers("deploy_s", deploy_s)
        .numbers("simulate_s", simulate_s)
        .numbers("iteration_s", iteration_s);
    json.beginArray("iteration_traced");
    for (const bool t : iteration_traced)
        json.number(t ? 1.0 : 0.0);
    json.endArray();
    json.value("trace_path", trace_path)
        .value("peak_rss_kb", static_cast<double>(peak_kb))
        .value("sim_digest", digest)
        .value("events", static_cast<double>(result.eventsExecuted))
        .value("modeled_mbps", schedule.weightedThroughput.count());
    // Per flow: windows demanded, submitted and completed, and the
    // electrodes the fabric gives it in the mix and on its own.
    json.beginArray("flows");
    for (std::size_t i = 0; i < result.flows.size(); ++i) {
        const sim::FlowSimStats &f = result.flows[i];
        json.beginObject()
            .value("name", f.flow)
            .value("demanded", demandedWindows(flows[i], shape))
            .value("submitted", static_cast<double>(f.windowsSubmitted))
            .value("completed", static_cast<double>(f.windowsCompleted))
            .value("electrodes", schedule.flows[i].totalElectrodes)
            .value("electrodes_alone", alone[i])
            .endObject();
    }
    json.endArray();
    double repaired_mbps = schedule.weightedThroughput.count();
    if (!result.restitches.empty())
        repaired_mbps = result.restitches.back().throughputAfter.count();
    json.value("repaired_mbps", repaired_mbps)
        .beginObject("counters")
        .value("packets_sent", packets)
        .value("packets_corrupted", corrupted)
        .value("retransmissions", retransmissions)
        .value("relay_forwards", relay_forwards)
        .value("relay_forwards_dropped",
               static_cast<double>(result.relayForwardsDropped))
        .value("flows_starved", starved)
        .value("exchange_timeouts",
               static_cast<double>(result.exchangeTimeouts))
        .value("detect_latency_ms", detect_ms)
        .value("power_err_max", agreed.powerErr)
        .value("response_err_max", agreed.responseErr)
        .value("repairs", static_cast<double>(repairs))
        .value("repairs_via_ilp", static_cast<double>(repairs_via_ilp))
        .value("trace_bytes", trace_bytes)
        .endObject();
    writeChecks(json, checks);
    writeSpans(json, spans);
    json.endObject();
    if (!writeFile(options.out + "/raw.json", json.str()))
        return 1;
    return 0;
}

} // namespace scalobench
