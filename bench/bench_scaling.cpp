/**
 * @file
 * The hierarchical-fabric scaling curve: nodes x {schedule time, sim
 * wall time, peak memory} for {flat, clustered} x {serial, default
 * width}, emitted as google-benchmark-format JSON so
 * ci/compare_bench.py can track BENCH_scaling.json report-only.
 *
 * This binary carries its own main (the grid is a cross product with
 * per-cell feasibility rules, not a timing loop). Each timed cell runs
 * kRepetitions times, every run in a forked child process so that its
 * peak RSS is its own, and reports the median time with the min and
 * max as counters: single runs swung by up to ±40 %. Cells the flat
 * fabric cannot reach (the monolithic ILP past 256 nodes) are omitted
 * rather than timed out. A parity cell per size asserts the default
 * width's trace is byte-identical to the serial reference before any
 * number is reported. The JSON goes to stdout unless a path is given.
 *
 *     ./bench/bench_scaling [out.json] > scaling.json
 *     ./bench/bench_scaling --help
 */

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
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

/** Runs of every timed cell; its entry reports their median. */
constexpr int kRepetitions = 5;

/** What one run of a cell measured. */
struct Run
{
    double ms = 0.0;
    /** Counters, in emission order. */
    std::vector<std::pair<std::string, double>> counters;
};

/** One emitted benchmark entry (google-benchmark JSON shape). */
struct Entry
{
    std::string name;
    double realMs = 0.0;
    int iterations = 1;
    /** User counters appended verbatim to the entry. */
    std::vector<std::pair<std::string, double>> counters;
};

/**
 * Run @p body in a forked child and return what it measured, with the
 * child's peak RSS appended as peak_rss_kb; empty if the child failed.
 * A fresh process gives each run its own heap and its own VmHWM
 * watermark.
 */
std::optional<Run>
inChild(const std::function<Run()> &body)
{
    int fds[2];
    if (pipe(fds) != 0)
        return std::nullopt;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return std::nullopt;
    }
    if (pid == 0) {
        close(fds[0]);
        Run run = body();
        run.counters.emplace_back(
            "peak_rss_kb", static_cast<double>(statusKb("VmHWM:")));
        std::ostringstream text;
        text.precision(17);
        text << run.ms << '\n';
        for (const auto &[key, value] : run.counters)
            text << key << ' ' << value << '\n';
        const std::string bytes = text.str();
        std::size_t written = 0;
        while (written < bytes.size()) {
            const ssize_t n = write(fds[1], bytes.data() + written,
                                    bytes.size() - written);
            if (n <= 0)
                _exit(1);
            written += static_cast<std::size_t>(n);
        }
        _exit(0);
    }
    close(fds[1]);
    std::string bytes;
    char buffer[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buffer, sizeof buffer)) > 0)
        bytes.append(buffer, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return std::nullopt;
    std::istringstream text(bytes);
    Run run;
    text >> run.ms;
    std::string key;
    double value = 0.0;
    while (text >> key >> value)
        run.counters.emplace_back(key, value);
    return run;
}

/**
 * Run @p body kRepetitions times, each in its own child, into one
 * entry: the median time, min_ms and max_ms, the first run's counters
 * (the workloads are deterministic) and the largest peak_rss_kb.
 */
std::optional<Entry>
measure(const std::string &name, const std::function<Run()> &body)
{
    std::vector<Run> runs;
    for (int r = 0; r < kRepetitions; ++r) {
        std::optional<Run> run = inChild(body);
        if (!run)
            return std::nullopt;
        runs.push_back(std::move(*run));
    }
    std::vector<double> ms;
    for (const Run &run : runs)
        ms.push_back(run.ms);
    std::sort(ms.begin(), ms.end());
    Entry entry;
    entry.name = name;
    entry.realMs = ms[ms.size() / 2];
    entry.iterations = kRepetitions;
    entry.counters = runs.front().counters;
    for (auto &[key, value] : entry.counters)
        if (key == "peak_rss_kb")
            for (const Run &run : runs)
                for (const auto &[k, v] : run.counters)
                    if (k == key)
                        value = std::max(value, v);
    entry.counters.emplace_back("min_ms", ms.front());
    entry.counters.emplace_back("max_ms", ms.back());
    return entry;
}

/** The counter @p key of @p entry (0 if absent). */
double
counter(const Entry &entry, const std::string &key)
{
    for (const auto &[k, v] : entry.counters)
        if (k == key)
            return v;
    return 0.0;
}

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

/** Time one run at @p threads runners (0 = one per CPU). */
Run
timeSim(sim::SystemSimConfig config, std::size_t threads)
{
    config.threads = threads;
    const Clock::time_point start = Clock::now();
    sim::SystemSim simulator(std::move(config));
    const sim::SystemSimResult result = simulator.run();
    Run run;
    run.ms = elapsedMs(start);
    run.counters = {
        {"events", static_cast<double>(result.eventsExecuted)},
        {"clusters", static_cast<double>(result.clusters)},
        {"ran_parallel", result.ranParallel ? 1.0 : 0.0},
    };
    return run;
}

/** Serial-vs-default-width byte parity of the traced run (the
 *  simulation and the export) at this size. */
bool
tracesMatch(const sched::SystemConfig &system,
            const sched::Schedule &schedule)
{
    const auto trace_of = [&](std::size_t threads) {
        sim::SystemSimConfig config =
            simConfigFor(system, schedule, 50.0_ms);
        config.recordTrace = true;
        config.threads = threads;
        sim::SystemSim simulator(std::move(config));
        simulator.run();
        return simulator.trace().toChromeJson(threads);
    };
    const std::string serial = trace_of(1);
    return !serial.empty() && serial == trace_of(0);
}

std::string
jsonNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.6g", value);
    return buffer;
}

void
writeJson(std::ostream &out, const std::vector<Entry> &entries)
{
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
            << "      \"iterations\": " << entry.iterations << ",\n"
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
    "Runs the scaling grid (each timed cell 5 times, the median\n"
    "reported) and writes it as google-benchmark JSON to OUT.json,\n"
    "or to stdout when no path is given.\n"
    "Progress goes to stderr. No other option exists.\n";

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
    std::string out_path;
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
    const auto fail = [](const std::string &why) {
        std::fprintf(stderr, "[bench_scaling] %s\n", why.c_str());
        return 1;
    };
    for (const std::size_t nodes : sizes) {
        const std::size_t clusters =
            nodes <= 64 ? 4 : nodes / 16;
        const std::string suffix = "/nodes:" + std::to_string(nodes);
        std::fprintf(stderr, "[bench_scaling] %zu nodes...\n",
                     nodes);

        const sched::SystemConfig flat_system = systemFor(nodes, 1);
        const sched::SystemConfig clustered_system =
            systemFor(nodes, clusters);
        // Every timed run builds its own Scheduler, so none is
        // answered from a previous run's solve memo. The schedules
        // the simulation cells run are solved here, untimed.
        const bool monolithic = nodes <= monolithic_limit;
        sched::Schedule flat_schedule;
        if (monolithic)
            flat_schedule = sched::Scheduler(flat_system)
                                .scheduleMonolithic(mixedFlows(),
                                                    kPriorities);
        const sched::Schedule clustered_schedule =
            sched::Scheduler(clustered_system)
                .scheduleDecomposed(mixedFlows(), kPriorities);
        if (!clustered_schedule.feasible)
            return fail(std::to_string(nodes) +
                        " nodes: decomposed schedule infeasible: " +
                        clustered_schedule.reason);

        std::vector<std::optional<Entry>> cells;
        // Scheduling: the monolithic solve vs the decomposed
        // per-cluster formulation (forced entry points, so the
        // comparison is meaningful below the auto threshold too).
        if (monolithic)
            cells.push_back(
                measure("BM_ScheduleMonolithic" + suffix, [&] {
                    const Clock::time_point start = Clock::now();
                    const sched::Scheduler scheduler(flat_system);
                    const sched::Schedule schedule =
                        scheduler.scheduleMonolithic(mixedFlows(),
                                                     kPriorities);
                    return Run{elapsedMs(start),
                               {{"feasible",
                                 schedule.feasible ? 1.0 : 0.0}}};
                }));
        cells.push_back(measure("BM_ScheduleDecomposed" + suffix, [&] {
            const Clock::time_point start = Clock::now();
            const sched::Scheduler scheduler(clustered_system);
            const sched::Schedule schedule =
                scheduler.scheduleDecomposed(mixedFlows(), kPriorities);
            const double ms = elapsedMs(start);
            // Sub-ILPs solved vs answered by the scheduler's memo.
            const ilp::SolveMemo::Counts solves =
                scheduler.solveCounts();
            return Run{
                ms,
                {{"feasible", schedule.feasible ? 1.0 : 0.0},
                 {"clusters", static_cast<double>(clusters)},
                 {"subilps_solved", static_cast<double>(solves.solved)},
                 {"subilps_reused",
                  static_cast<double>(solves.reused)}}};
        }));

        // Simulation: the flat serialized medium (where its schedule
        // is still computable) and the clustered engine, serial
        // (threads = 1) and at the default width (one runner per
        // CPU, capped at the cluster count).
        if (flat_schedule.feasible)
            cells.push_back(measure("BM_SimFlatSerial" + suffix, [&] {
                return timeSim(simConfigFor(flat_system, flat_schedule,
                                            sim_duration),
                               1);
            }));
        cells.push_back(measure("BM_SimClusteredSerial" + suffix, [&] {
            return timeSim(simConfigFor(clustered_system,
                                        clustered_schedule,
                                        sim_duration),
                           1);
        }));
        cells.push_back(measure("BM_SimClusteredParallel" + suffix, [&] {
            return timeSim(simConfigFor(clustered_system,
                                        clustered_schedule,
                                        sim_duration),
                           0);
        }));
        for (std::optional<Entry> &cell : cells) {
            if (!cell)
                return fail(std::to_string(nodes) +
                            " nodes: a measured run failed");
            entries.push_back(std::move(*cell));
        }

        // Parity, once (a check, not a timing): the parallel trace
        // must be byte-identical to the serial reference before the
        // timings above mean anything.
        const std::optional<Run> parity = inChild([&] {
            const Clock::time_point start = Clock::now();
            const bool same =
                tracesMatch(clustered_system, clustered_schedule);
            return Run{elapsedMs(start),
                       {{"byte_identical", same ? 1.0 : 0.0}}};
        });
        if (!parity)
            return fail(std::to_string(nodes) +
                        " nodes: the parity run failed");
        Entry entry{"BM_TraceParity" + suffix, parity->ms, 1,
                    parity->counters};
        entries.push_back(entry);
        if (counter(entry, "byte_identical") != 1.0)
            return fail(std::to_string(nodes) +
                        " nodes: serial and parallel traces DIVERGE");
    }

    if (!have_path) {
        writeJson(std::cout, entries);
        return std::cout.flush() ? 0 : 1;
    }
    std::ofstream out(out_path, std::ios::binary);
    writeJson(out, entries);
    if (!out.flush())
        return fail("cannot write " + out_path);
    std::fprintf(stderr, "[bench_scaling] wrote %s\n",
                 out_path.c_str());
    return 0;
}
