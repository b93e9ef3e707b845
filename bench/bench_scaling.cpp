/**
 * @file
 * The hierarchical-fabric scaling curve: nodes x {schedule time, sim
 * wall time, peak memory} for {flat, clustered} x {serial, parallel},
 * emitted as google-benchmark-format JSON so ci/compare_bench.py can
 * track BENCH_scaling.json report-only.
 *
 * This binary carries its own main (the grid is a cross product with
 * per-cell feasibility rules, not a timing loop): each cell runs
 * once — the workloads are deterministic and seconds long, so
 * repetition buys nothing — and cells the flat fabric cannot reach
 * (the monolithic ILP past 256 nodes) are omitted rather than timed
 * out. A parity cell per size asserts the parallel engine's trace is
 * byte-identical to the serial reference before any number is
 * reported.
 *
 *     ./bench/bench_scaling [out.json]
 *     ./bench/bench_scaling --help
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "scalo/sched/scheduler.hpp"
#include "scalo/sched/workloads.hpp"
#include "scalo/sim/runtime/system_sim.hpp"

namespace {

using namespace scalo;
using namespace scalo::units::literals;

using Clock = std::chrono::steady_clock;

double
elapsedMs(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** A VmHWM/VmRSS line of /proc/self/status, in KiB (0 if absent). */
long
statusKb(const char *key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind(key, 0) == 0)
            return std::strtol(line.c_str() + std::strlen(key),
                               nullptr, 10);
    return 0;
}

/**
 * Reset the process peak-RSS watermark so VmHWM reads as a per-cell
 * peak rather than a whole-run high-water mark. Best-effort: kernels
 * without a writable clear_refs leave VmHWM monotone, which only
 * overstates the peaks.
 */
void
resetPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** One emitted benchmark entry (google-benchmark JSON shape). */
struct Entry
{
    std::string name;
    double realMs = 0.0;
    /** User counters appended verbatim to the entry. */
    std::vector<std::pair<std::string, double>> counters;
};

std::vector<sched::FlowSpec>
mixedFlows()
{
    return {sched::seizureDetectionFlow(),
            sched::hashSimilarityFlow(net::Pattern::AllToAll),
            sched::spikeSortingFlow()};
}

const std::vector<double> kPriorities{1.0, 3.0, 1.0};

sched::SystemConfig
systemFor(std::size_t nodes, std::size_t clusters)
{
    sched::SystemConfig system;
    system.nodes = nodes;
    system.maxElectrodesPerNode = constants::kElectrodesPerNode;
    if (clusters > 1)
        system.clusters =
            net::ClusterPlan::balanced(nodes, clusters);
    return system;
}

sim::SystemSimConfig
simConfigFor(const sched::SystemConfig &system,
             const sched::Schedule &schedule,
             units::Millis duration)
{
    sim::SystemSimConfig config;
    config.system = system;
    config.flows = mixedFlows();
    config.priorities = kPriorities;
    config.schedule = schedule;
    config.duration = duration;
    config.recordTrace = false; // counters only: bounded memory
    return config;
}

Entry
timeSim(const std::string &name, sim::SystemSimConfig config,
        bool parallel, std::size_t threads)
{
    config.parallel = parallel;
    config.threads = threads;
    resetPeakRss();
    const Clock::time_point start = Clock::now();
    sim::SystemSim simulator(std::move(config));
    const sim::SystemSimResult result = simulator.run();
    Entry entry;
    entry.realMs = elapsedMs(start);
    entry.name = name;
    entry.counters = {
        {"events", static_cast<double>(result.eventsExecuted)},
        {"clusters", static_cast<double>(result.clusters)},
        {"ran_parallel", result.ranParallel ? 1.0 : 0.0},
        {"peak_rss_kb", static_cast<double>(statusKb("VmHWM:"))},
    };
    return entry;
}

/** Serial-vs-parallel byte parity of the traced run at this size. */
bool
tracesMatch(const sched::SystemConfig &system,
            const sched::Schedule &schedule)
{
    const auto trace_of = [&](bool parallel) {
        sim::SystemSimConfig config =
            simConfigFor(system, schedule, 50.0_ms);
        config.recordTrace = true;
        config.parallel = parallel;
        config.threads = 4;
        sim::SystemSim simulator(std::move(config));
        simulator.run();
        return simulator.trace().toChromeJson();
    };
    const std::string serial = trace_of(false);
    return !serial.empty() && serial == trace_of(true);
}

std::string
jsonNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    return buffer;
}

void
writeJson(const std::string &path, const std::vector<Entry> &entries)
{
    std::ofstream out(path, std::ios::binary);
    const std::time_t now = std::time(nullptr);
    char stamp[64];
    std::strftime(stamp, sizeof stamp, "%FT%T%z",
                  std::localtime(&now));
    out << "{\n  \"context\": {\n"
        << "    \"date\": \"" << stamp << "\",\n"
        << "    \"executable\": \"bench_scaling\",\n"
        << "    \"num_cpus\": "
        << std::thread::hardware_concurrency() << ",\n"
#ifdef SCALO_BENCH_CONFIG
        << "    \"scalo_build_type\": \"" << SCALO_BENCH_CONFIG
        << "\",\n"
#endif
#ifdef SCALO_BENCH_MARCH
        << "    \"scalo_march\": \"" << SCALO_BENCH_MARCH << "\",\n"
#endif
        << "    \"scalo_bench\": \"scaling\"\n  },\n"
        << "  \"benchmarks\": [";
    bool first = true;
    for (const Entry &entry : entries) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "    {\n      \"name\": \"" << entry.name << "\",\n"
            << "      \"run_name\": \"" << entry.name << "\",\n"
            << "      \"run_type\": \"iteration\",\n"
            << "      \"iterations\": 1,\n"
            << "      \"real_time\": " << jsonNumber(entry.realMs)
            << ",\n      \"cpu_time\": " << jsonNumber(entry.realMs)
            << ",\n      \"time_unit\": \"ms\"";
        for (const auto &[key, value] : entry.counters)
            out << ",\n      \"" << key
                << "\": " << jsonNumber(value);
        out << "\n    }";
    }
    out << "\n  ]\n}\n";
}

constexpr const char *kUsage =
    "usage: bench_scaling [OUT.json] [--benchmark_out=OUT.json]\n"
    "                     [--benchmark_out_format=json]\n"
    "                     [--benchmark_format=console]\n"
    "Runs the scaling grid once and writes it as google-benchmark\n"
    "JSON to OUT.json (default: BENCH_scaling.json in the current\n"
    "directory). Progress goes to stderr. No other option exists.\n";

/** The value of @p arg if it spells @p flag=VALUE, else null. */
const char *
flagValue(const char *arg, const char *flag)
{
    const std::size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 && arg[n] == '='
               ? arg + n + 1
               : nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    // Accept a bare output path and the google-benchmark flags
    // ci/check.sh's bench harness passes, so it can drive this binary
    // like the gbench ones. Anything else is refused before any work
    // runs or any file is written: a typo must not silently run the
    // whole grid or name the output file.
    std::string out_path = "BENCH_scaling.json";
    bool have_path = false;
    const auto refuse = [](const std::string &why) {
        std::fprintf(stderr, "bench_scaling: %s\n%s", why.c_str(),
                     kUsage);
        return 2;
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const char *value = nullptr;
        if (std::strcmp(arg, "--help") == 0) {
            std::fputs(kUsage, stdout);
            return 0;
        }
        if ((value = flagValue(arg, "--benchmark_out"))) {
            if (*value == '\0')
                return refuse("--benchmark_out needs a path");
            if (have_path)
                return refuse("more than one output path");
            out_path = value;
            have_path = true;
        } else if ((value = flagValue(arg, "--benchmark_out_format"))) {
            if (std::strcmp(value, "json") != 0)
                return refuse("only --benchmark_out_format=json is "
                              "supported");
        } else if ((value = flagValue(arg, "--benchmark_format"))) {
            if (std::strcmp(value, "console") != 0)
                return refuse("only --benchmark_format=console is "
                              "supported");
        } else if (arg[0] == '-') {
            return refuse(std::string("unknown option '") + arg + "'");
        } else {
            if (have_path)
                return refuse("more than one output path");
            out_path = arg;
            have_path = true;
        }
    }
    // 16-wide clusters past 64 nodes; small fabrics keep 4 so the
    // clustered engine is exercised (the scheduler still solves them
    // monolithically below its threshold).
    const std::size_t sizes[] = {16, 64, 128, 256, 512};
    /** The monolithic simplex past this size is the intractable
     *  baseline the decomposition exists to replace; omit it. */
    const std::size_t monolithic_limit = 256;
    const units::Millis sim_duration{100.0};

    std::vector<Entry> entries;
    for (const std::size_t nodes : sizes) {
        const std::size_t clusters =
            nodes <= 64 ? 4 : nodes / 16;
        const std::string suffix = "/nodes:" + std::to_string(nodes);
        std::fprintf(stderr, "[bench_scaling] %zu nodes...\n",
                     nodes);

        const sched::SystemConfig flat_system = systemFor(nodes, 1);
        const sched::SystemConfig clustered_system =
            systemFor(nodes, clusters);
        const sched::Scheduler flat_scheduler(flat_system);
        const sched::Scheduler clustered_scheduler(clustered_system);

        // Scheduling: the dense monolithic solve vs the decomposed
        // per-cluster formulation (forced entry points, so the
        // comparison is meaningful below the auto threshold too).
        sched::Schedule flat_schedule;
        if (nodes <= monolithic_limit) {
            resetPeakRss();
            const Clock::time_point start = Clock::now();
            flat_schedule = flat_scheduler.scheduleMonolithic(
                mixedFlows(), kPriorities);
            Entry entry;
            entry.name = "BM_ScheduleMonolithic" + suffix;
            entry.realMs = elapsedMs(start);
            entry.counters = {
                {"feasible", flat_schedule.feasible ? 1.0 : 0.0},
                {"peak_rss_kb",
                 static_cast<double>(statusKb("VmHWM:"))}};
            entries.push_back(entry);
        }
        resetPeakRss();
        const Clock::time_point decomposed_start = Clock::now();
        const sched::Schedule clustered_schedule =
            clustered_scheduler.scheduleDecomposed(mixedFlows(),
                                                   kPriorities);
        {
            Entry entry;
            entry.name = "BM_ScheduleDecomposed" + suffix;
            entry.realMs = elapsedMs(decomposed_start);
            // Sub-ILPs solved vs answered by the scheduler's memo.
            const ilp::SolveMemo::Counts solves =
                clustered_scheduler.solveCounts();
            entry.counters = {
                {"feasible",
                 clustered_schedule.feasible ? 1.0 : 0.0},
                {"clusters", static_cast<double>(clusters)},
                {"subilps_solved", static_cast<double>(solves.solved)},
                {"subilps_reused", static_cast<double>(solves.reused)},
                {"peak_rss_kb",
                 static_cast<double>(statusKb("VmHWM:"))}};
            entries.push_back(entry);
        }
        if (!clustered_schedule.feasible) {
            std::fprintf(stderr,
                         "[bench_scaling] %zu nodes: decomposed "
                         "schedule infeasible: %s\n",
                         nodes, clustered_schedule.reason.c_str());
            return 1;
        }

        // Simulation: the flat serialized medium (where its schedule
        // is still computable) and the clustered engine, serial and
        // parallel.
        if (flat_schedule.feasible)
            entries.push_back(timeSim(
                "BM_SimFlatSerial" + suffix,
                simConfigFor(flat_system, flat_schedule,
                             sim_duration),
                false, 0));
        entries.push_back(timeSim(
            "BM_SimClusteredSerial" + suffix,
            simConfigFor(clustered_system, clustered_schedule,
                         sim_duration),
            false, 0));
        entries.push_back(timeSim(
            "BM_SimClusteredParallel" + suffix,
            simConfigFor(clustered_system, clustered_schedule,
                         sim_duration),
            true, 4));

        // Parity: the parallel trace must be byte-identical to the
        // serial reference before the timings above mean anything.
        const Clock::time_point parity_start = Clock::now();
        const bool parity =
            tracesMatch(clustered_system, clustered_schedule);
        Entry entry;
        entry.name = "BM_TraceParity" + suffix;
        entry.realMs = elapsedMs(parity_start);
        entry.counters = {{"byte_identical", parity ? 1.0 : 0.0}};
        entries.push_back(entry);
        if (!parity) {
            std::fprintf(stderr,
                         "[bench_scaling] %zu nodes: serial and "
                         "parallel traces DIVERGE\n",
                         nodes);
            return 1;
        }
    }

    writeJson(out_path, entries);
    std::fprintf(stderr, "[bench_scaling] wrote %s\n",
                 out_path.c_str());
    return 0;
}
