/**
 * @file
 * Cross-validation and determinism tests for the node-level
 * simulation runtime (sim::SystemSim): the event-driven execution of
 * an ILP schedule must agree with the scheduler's analytic power,
 * response-time, and sustainability predictions within 5% for every
 * Section 6 flow, and a fixed-seed run must be byte-reproducible.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "scalo/core/system.hpp"
#include "scalo/sched/workloads.hpp"
#include "scalo/sim/runtime/system_sim.hpp"

namespace scalo::sim {
namespace {

using namespace units::literals;

/** The Section 6 flow library, one entry per application task. */
std::vector<sched::FlowSpec>
sectionSixFlows()
{
    return {
        sched::seizureDetectionFlow(),
        sched::hashSimilarityFlow(net::Pattern::AllToAll),
        sched::dtwSimilarityFlow(net::Pattern::OneToAll),
        sched::miSvmFlow(),
        sched::miKfFlow(),
        sched::miNnFlow(),
        sched::spikeSortingFlow(),
    };
}

SystemSimConfig
configFor(const sched::FlowSpec &flow, std::size_t nodes = 4,
          std::size_t clusters = 1)
{
    sched::SystemConfig system;
    system.nodes = nodes;
    system.maxElectrodesPerNode = constants::kElectrodesPerNode;
    if (clusters > 1)
        system.clusters = net::ClusterPlan::balanced(nodes, clusters);
    const sched::Scheduler scheduler(system);

    SystemSimConfig config;
    config.system = system;
    config.flows = {flow};
    config.schedule = scheduler.schedule({flow}, {1.0});
    return config;
}

double
relativeError(double measured, double analytic)
{
    if (analytic == 0.0)
        return measured == 0.0 ? 0.0 : 1.0;
    return std::abs(measured - analytic) / std::abs(analytic);
}

// The tentpole claim: for every Section 6 flow scheduled alone, the
// event-driven execution agrees with the ILP's static predictions
// within 5% on per-node power and end-to-end response time, and both
// sides agree the schedule is sustainable.
TEST(SystemSimCrossValidation, SectionSixFlowsWithinFivePercent)
{
    for (const sched::FlowSpec &flow : sectionSixFlows()) {
        SystemSimConfig config = configFor(flow);
        ASSERT_TRUE(config.schedule.feasible) << flow.name;

        SystemSim sim(config);
        const SystemSimResult result = sim.run();

        ASSERT_EQ(result.flows.size(), 1u) << flow.name;
        const FlowSimStats &stats = result.flows[0];
        EXPECT_GT(stats.windowsCompleted, 0u) << flow.name;
        EXPECT_EQ(stats.windowsDropped, 0u) << flow.name;
        EXPECT_TRUE(stats.sustainable) << flow.name;
        EXPECT_TRUE(stats.analyticallySustainable) << flow.name;
        EXPECT_LE(relativeError(stats.meanResponse.count(),
                                stats.analyticResponse.count()),
                  0.05)
            << flow.name << ": simulated "
            << stats.meanResponse.count() << " ms vs analytic "
            << stats.analyticResponse.count() << " ms";

        ASSERT_EQ(result.nodes.size(),
                  config.schedule.nodePower.size())
            << flow.name;
        for (const NodeSimStats &node : result.nodes)
            EXPECT_LE(relativeError(node.measuredPower.count(),
                                    node.analyticPower.count()),
                      0.05)
                << flow.name << " node " << node.node
                << ": simulated " << node.measuredPower.count()
                << " mW vs analytic "
                << node.analyticPower.count() << " mW";
    }
}

// A multi-flow deployment through the ScaloSystem facade also
// cross-validates: deploy() then simulate() on the same flow set.
TEST(SystemSimCrossValidation, FacadeDeployThenSimulate)
{
    core::ScaloConfig config;
    config.nodes = 4;
    const core::ScaloSystem system(config);

    const std::vector<sched::FlowSpec> flows = {
        sched::seizureDetectionFlow(),
        sched::spikeSortingFlow(),
    };
    const sched::Schedule schedule = system.deploy(flows, {1.0, 1.0});
    ASSERT_TRUE(schedule.feasible);

    const SystemSimResult result = system.simulate(flows, schedule);
    ASSERT_EQ(result.flows.size(), flows.size());
    for (const FlowSimStats &stats : result.flows) {
        EXPECT_TRUE(stats.sustainable) << stats.flow;
        EXPECT_EQ(stats.windowsDropped, 0u) << stats.flow;
    }
    for (const NodeSimStats &node : result.nodes)
        EXPECT_LE(relativeError(node.measuredPower.count(),
                                node.analyticPower.count()),
                  0.05)
            << "node " << node.node;
}

// Networked flows exercise the BER channel: packets flow, and the
// hash flow's corrupted packets are retransmitted in extra slots.
// Cluster media and the backbone send and count through one path, so
// the identities hold on the flat fabric and on 12 nodes in 3
// clusters whose backbone runs through a BER spike.
TEST(SystemSim, NetworkedFlowMovesPackets)
{
    const sched::FlowSpec flow =
        sched::hashSimilarityFlow(net::Pattern::AllToAll);
    SystemSimConfig clustered = configFor(flow, 12, 3);
    clustered.faults.backboneBerSpikes.push_back(
        {0.0_ms, 400.0_ms, 1e-3});
    for (const SystemSimConfig &config : {configFor(flow), clustered}) {
        const std::size_t clusters =
            config.system.clusters.empty()
                ? 1
                : config.system.clusters.clusterCount();
        SCOPED_TRACE(clusters);
        ASSERT_TRUE(config.schedule.feasible);
        SystemSim sim(config);
        const SystemSimResult result = sim.run();
        ASSERT_EQ(result.clusters, clusters);
        const FlowSimStats &stats = result.flows[0];
        EXPECT_GT(stats.packetsSent, 0u);
        // Tx and retransmit events land on the sending nodes (relays
        // on the backbone); the media record corruptions and accepted
        // receptions.
        std::uint64_t node_tx = 0;
        std::uint64_t node_retransmits = 0;
        for (const NodeSimStats &node : result.nodes) {
            node_tx += node.counters[TraceEventKind::PacketTx];
            node_retransmits +=
                node.counters[TraceEventKind::PacketRetransmit];
        }
        EXPECT_EQ(stats.packetsSent, node_tx);
        EXPECT_EQ(stats.retransmissions, node_retransmits);
        EXPECT_EQ(stats.packetsCorrupted,
                  result.network[TraceEventKind::PacketCorrupt]);
        EXPECT_GT(stats.meanRound.count(), 0.0);
        EXPECT_GT(result.network[TraceEventKind::ExchangeFinish], 0u);
        if (clusters > 1) {
            EXPECT_GT(stats.relayForwards, 0u);
            EXPECT_GT(result.network[TraceEventKind::BackboneFinish],
                      0u);
        }
    }
}

// NVM write traffic streams through each node's storage controller.
TEST(SystemSim, NvmTrafficReachesStorage)
{
    SystemSimConfig config =
        configFor(sched::seizureDetectionFlow());
    ASSERT_TRUE(config.schedule.feasible);
    SystemSim sim(config);
    const SystemSimResult result = sim.run();
    for (const NodeSimStats &node : result.nodes) {
        EXPECT_GT(node.nvmBytesWritten, 0u) << node.node;
        EXPECT_GT(node.nvmPagesProgrammed, 0u) << node.node;
        EXPECT_GT(node.nvmUtilization, 0.0) << node.node;
        EXPECT_LT(node.nvmUtilization, 1.0) << node.node;
    }
}

// Two runs with the same seed must produce byte-identical traces (and
// therefore byte-identical Chrome JSON exports).
TEST(SystemSimDeterminism, SameSeedSameTraceBytes)
{
    const auto run_once = [] {
        SystemSimConfig config = configFor(
            sched::hashSimilarityFlow(net::Pattern::AllToAll));
        config.recordTrace = true;
        config.duration = 100.0_ms;
        SystemSim sim(config);
        sim.run();
        return sim.trace().toChromeJson();
    };
    const std::string first = run_once();
    const std::string second = run_once();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

// A different seed perturbs the channel, so the trace differs (guards
// against the determinism test passing because the seed is ignored).
TEST(SystemSimDeterminism, DifferentSeedDifferentTrace)
{
    const auto run_once = [](std::uint64_t seed) {
        SystemSimConfig config = configFor(
            sched::hashSimilarityFlow(net::Pattern::AllToAll));
        config.recordTrace = true;
        config.duration = 100.0_ms;
        config.seed = seed;
        SystemSim sim(config);
        sim.run();
        return sim.trace().toChromeJson();
    };
    EXPECT_NE(run_once(1), run_once(2));
}

// Property: simultaneous events on the shared engine run in
// scheduling (FIFO) order regardless of how many tie at one instant.
TEST(SystemSimDeterminism, FifoTieBreakProperty)
{
    for (std::size_t ties = 1; ties <= 64; ties *= 2) {
        Simulator simulator;
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < ties; ++i)
            simulator.at(10.0_us,
                         [&order, i] { order.push_back(i); });
        simulator.run();
        ASSERT_EQ(order.size(), ties);
        for (std::size_t i = 0; i < ties; ++i)
            EXPECT_EQ(order[i], i) << "ties=" << ties;
    }
}

// The exported trace is structurally sound: no counters without
// events, balanced duration pairs, and monotone timestamps after the
// stable sort the exporter applies.
TEST(SystemSimTrace, ExportIsWellFormed)
{
    SystemSimConfig config = configFor(
        sched::dtwSimilarityFlow(net::Pattern::OneToAll));
    config.recordTrace = true;
    config.duration = 100.0_ms;
    SystemSim sim(config);
    const SystemSimResult result = sim.run();

    const Trace &trace = sim.trace();
    ASSERT_FALSE(trace.empty());
    EXPECT_EQ(trace.totals().total(), trace.size());

    // Counters surfaced per node must match a direct scan.
    for (const NodeSimStats &node : result.nodes)
        EXPECT_EQ(node.counters.total(),
                  trace.counters(node.node).total());

    const std::string json = trace.toChromeJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("process_name"), std::string::npos);
}

static_assert(sizeof(TraceEvent) <= 40,
              "a trace event stays a compact POD");

/** The exporter's spelling of @p value. */
std::string
traceReal(double value)
{
    char buf[kTraceNumberChars];
    return {buf, formatTraceReal(buf, value)};
}

/** The spelling the exporter must keep: printf "%.6g". */
std::string
printfReal(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
}

// The streaming exporter's number writer spells every real exactly as
// "%.6g" did: rounding ties at the sixth digit, the fixed/exponent
// switch at 1e-5 and 1e6, zeros of both signs, denormals, the range
// ends and non-finite values.
TEST(TraceFormat, RealMatchesPrintfG)
{
    const double edges[] = {
        0.0, -0.0, 1e-5, 1e-4, 9.999995e-5, 0.1, 1.0, -1.0, 0.5,
        999999.4, 999999.5, 1e6, -1e6, 123456.5, 123455.5, 1234565.0,
        2.5e-7, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX,
        -DBL_MAX, std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()};
    for (const double value : edges)
        EXPECT_EQ(traceReal(value), printfReal(value))
            << "bits " << std::bit_cast<std::uint64_t>(value);

    // Mixed exponents: a random mantissa scaled across the whole
    // range, plus raw bit patterns (which include NaN payloads).
    std::mt19937_64 rng(0x7ace);
    std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
    std::uniform_int_distribution<int> exponent(-330, 308);
    for (int i = 0; i < 100'000; ++i) {
        const double value =
            i % 4 == 3 ? std::bit_cast<double>(rng())
                       : mantissa(rng) * std::pow(10.0, exponent(rng));
        ASSERT_EQ(traceReal(value), printfReal(value))
            << "bits " << std::bit_cast<std::uint64_t>(value);
    }
}

// Integers keep std::to_string's digits across the whole range.
TEST(TraceFormat, UintMatchesToString)
{
    std::mt19937_64 rng(0x1d);
    std::vector<std::uint64_t> values{
        0, 1, 9, 10, std::numeric_limits<std::uint32_t>::max(),
        std::numeric_limits<std::uint64_t>::max()};
    for (int i = 0; i < 1000; ++i)
        values.push_back(rng() >> (i % 64));
    for (const std::uint64_t value : values) {
        char buf[kTraceNumberChars];
        EXPECT_EQ(std::string(buf, formatTraceUint(buf, value)),
                  std::to_string(value));
    }
}

// Merging traces remaps interned names: per-cluster buffers that
// interned the same labels in different orders export exactly as one
// trace that recorded everything, and the export's order is (time,
// record index) with names escaped.
TEST(TraceFormat, AppendRemapsNamesAndKeepsStableOrder)
{
    Trace whole, first, second;
    const auto both = [&](Trace &part, double us, TraceEventKind kind,
                          std::uint32_t node, const char *name,
                          double value) {
        part.record(units::Micros{us}, kind, node, 1, name, 7, value);
        whole.record(units::Micros{us}, kind, node, 1, name, 7, value);
    };
    both(first, 20, TraceEventKind::StageStart, 0, "FFT", 0.0);
    both(first, 10, TraceEventKind::PacketTx, 1, "a\"b\\c\n", 2.5);
    both(first, 20, TraceEventKind::StageFinish, 0, "FFT", 0.0);
    both(second, 10, TraceEventKind::NvmWrite, 2, "a\"b\\c\n", 1e6);
    both(second, 5, TraceEventKind::PacketRx, Trace::mediumNode(1),
         "FFT", -0.0);
    both(second, 20, TraceEventKind::BackboneStart,
         Trace::kBackboneNode, "FFT", 1.0);

    Trace merged;
    merged.append(std::move(first));
    merged.append(std::move(second));
    EXPECT_TRUE(first.empty());
    ASSERT_EQ(merged.size(), 6u);
    EXPECT_EQ(merged.toChromeJson(), whole.toChromeJson());
    EXPECT_EQ(merged.counters(Trace::mediumNode(1))
                  [TraceEventKind::PacketRx],
              1u);
    EXPECT_EQ(merged.counters(Trace::kBackboneNode).total(), 1u);
    EXPECT_EQ(merged.totals().total(), 6u);

    const std::string expected =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"node 0\"}},\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"node 1\"}},\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
        "\"args\":{\"name\":\"node 2\"}},\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4294901761,"
        "\"tid\":0,\"args\":{\"name\":\"medium 1\"}},\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":4294967293,"
        "\"tid\":0,\"args\":{\"name\":\"backbone\"}},\n"
        "{\"name\":\"FFT\",\"cat\":\"packet-rx\",\"ph\":\"i\",\"ts\":5,"
        "\"pid\":4294901761,\"tid\":1,\"s\":\"t\","
        "\"args\":{\"id\":7,\"value\":-0}},\n"
        "{\"name\":\"a\\\"b\\\\c\\n\",\"cat\":\"packet-tx\",\"ph\":\"i\","
        "\"ts\":10,\"pid\":1,\"tid\":1,\"s\":\"t\","
        "\"args\":{\"id\":7,\"value\":2.5}},\n"
        "{\"name\":\"a\\\"b\\\\c\\n\",\"cat\":\"nvm-write\",\"ph\":\"i\","
        "\"ts\":10,\"pid\":2,\"tid\":1,\"s\":\"t\","
        "\"args\":{\"id\":7,\"value\":1e+06}},\n"
        "{\"name\":\"FFT\",\"cat\":\"stage-start\",\"ph\":\"B\",\"ts\":20,"
        "\"pid\":0,\"tid\":1,\"args\":{\"id\":7,\"value\":0}},\n"
        "{\"name\":\"FFT\",\"cat\":\"stage-finish\",\"ph\":\"E\","
        "\"ts\":20,\"pid\":0,\"tid\":1,\"args\":{\"id\":7,\"value\":0}},\n"
        "{\"name\":\"FFT\",\"cat\":\"backbone-start\",\"ph\":\"B\","
        "\"ts\":20,\"pid\":4294967293,\"tid\":1,"
        "\"args\":{\"id\":7,\"value\":1}}\n"
        "]}\n";
    EXPECT_EQ(merged.toChromeJson(), expected);
    EXPECT_EQ(Trace{}.toChromeJson(),
              "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

// The file export streams the same bytes as toChromeJson() and
// reports a failed write or open instead of dropping it.
TEST(TraceFormat, FileExportMatchesStringAndReportsFailure)
{
    SystemSimConfig config = configFor(
        sched::hashSimilarityFlow(net::Pattern::AllToAll));
    config.recordTrace = true;
    config.duration = 100.0_ms;
    SystemSim sim(config);
    sim.run();
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        "scalo_system_sim_test_trace.json";
    ASSERT_TRUE(sim.trace().writeChromeJson(path.string()));
    std::ifstream file(path, std::ios::binary);
    const std::string written{std::istreambuf_iterator<char>(file),
                              std::istreambuf_iterator<char>()};
    std::filesystem::remove(path);
    EXPECT_EQ(written, sim.trace().toChromeJson());

    EXPECT_FALSE(sim.trace().writeChromeJson(
        (path.parent_path() / "no-such-directory" / "t.json")
            .string()));
    if (std::filesystem::exists("/dev/full")) {
        EXPECT_FALSE(sim.trace().writeChromeJson("/dev/full"));
    }
}

// The file export overwrites an existing file in place and cuts it to
// the new length: a longer or a shorter old file leaves exactly the
// exported bytes.
TEST(TraceFormat, FileExportReplacesAnExistingFile)
{
    Trace trace;
    trace.record(units::Micros{5.0}, TraceEventKind::PacketTx, 1, 0,
                 "tx", 3, 1.5);
    const std::string expected = trace.toChromeJson();
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        "scalo_system_sim_test_overwrite.json";
    for (const std::size_t old_size :
         {std::size_t{0}, expected.size() / 2, expected.size() * 3}) {
        {
            std::ofstream old(path, std::ios::binary | std::ios::trunc);
            old << std::string(old_size, '#');
        }
        ASSERT_TRUE(trace.writeChromeJson(path.string()));
        std::ifstream file(path, std::ios::binary);
        const std::string written{std::istreambuf_iterator<char>(file),
                                  std::istreambuf_iterator<char>()};
        EXPECT_EQ(written, expected) << "old file of " << old_size;
    }
    std::filesystem::remove(path);
}

/** One recorded event, kept by the test's reference exporter. */
struct Recorded
{
    std::uint64_t timeUs;
    TraceEventKind kind;
    std::uint32_t node;
    std::uint32_t lane;
    std::string name;
    std::uint64_t id;
    double value;
};

/** The Chrome export spelled out naively: a stable sort by time and
 *  one snprintf-style field at a time. */
std::string
referenceExport(std::vector<Recorded> events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const Recorded &a, const Recorded &b) {
                         return a.timeUs < b.timeUs;
                     });
    std::vector<std::uint32_t> pids;
    for (const Recorded &event : events)
        pids.push_back(event.node);
    std::sort(pids.begin(), pids.end());
    pids.erase(std::unique(pids.begin(), pids.end()), pids.end());
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    const char *separator = "\n";
    for (const std::uint32_t pid : pids) {
        const std::string label =
            pid == Trace::kNetworkNode    ? "network"
            : pid == Trace::kBackboneNode ? "backbone"
            : pid >= Trace::kMediumBase
                ? "medium " + std::to_string(pid - Trace::kMediumBase)
                : "node " + std::to_string(pid);
        out += separator;
        separator = ",\n";
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
               std::to_string(pid) + ",\"tid\":0,\"args\":{\"name\":\"" +
               label + "\"}}";
    }
    for (const Recorded &event : events) {
        std::string name;
        for (const char c : event.name)
            name += c == '"' ? std::string("\\\"") : std::string(1, c);
        const char phase =
            event.kind == TraceEventKind::StageStart ||
                    event.kind == TraceEventKind::ExchangeStart ||
                    event.kind == TraceEventKind::BackboneStart
                ? 'B'
            : event.kind == TraceEventKind::StageFinish ||
                    event.kind == TraceEventKind::ExchangeFinish ||
                    event.kind == TraceEventKind::BackboneFinish
                ? 'E'
                : 'i';
        char value[64];
        std::snprintf(value, sizeof(value), "%.6g", event.value);
        out += separator;
        separator = ",\n";
        out += "{\"name\":\"" + name + "\",\"cat\":\"" +
               std::string(traceEventName(event.kind)) +
               "\",\"ph\":\"" + phase +
               "\",\"ts\":" + std::to_string(event.timeUs) +
               ",\"pid\":" + std::to_string(event.node) +
               ",\"tid\":" + std::to_string(event.lane) +
               (phase == 'i' ? ",\"s\":\"t\"" : "") +
               ",\"args\":{\"id\":" + std::to_string(event.id) +
               ",\"value\":" + value + "}}";
    }
    return out + "\n]}\n";
}

/**
 * A seeded random trace of @p count events, recorded into one trace or
 * split over up to three appended parts (partial blocks mid-log).
 * Timestamps come from a range of @p times values, so ties abound,
 * within a chunk and across chunk edges.
 */
Trace
randomTrace(std::mt19937_64 &rng, std::size_t count, std::uint64_t times,
            std::vector<Recorded> &recorded)
{
    static const char *const kNames[] = {"FFT", "hash \"q\"", "DTW",
                                         "tx", "relay"};
    const std::uint32_t nodes[] = {0,
                                   1,
                                   5,
                                   63,
                                   Trace::kNetworkNode,
                                   Trace::kBackboneNode,
                                   Trace::mediumNode(3)};
    std::vector<Trace> parts(1 + rng() % 3);
    recorded.clear();
    for (std::size_t i = 0; i < count; ++i) {
        const Recorded event{
            rng() % times,
            static_cast<TraceEventKind>(rng() % kTraceEventKinds),
            nodes[rng() % std::size(nodes)],
            static_cast<std::uint32_t>(rng() % 4),
            kNames[rng() % std::size(kNames)],
            rng() % 1000,
            static_cast<double>(rng() % 100'000) / 7.0};
        // Parts fill in order, so record order is preserved overall.
        const std::size_t part = i * parts.size() / std::max<std::size_t>(count, 1);
        parts[part].record(units::Micros{static_cast<double>(event.timeUs)},
                           event.kind, event.node, event.lane,
                           event.name, event.id, event.value);
        recorded.push_back(event);
    }
    Trace whole;
    for (Trace &part : parts)
        whole.append(std::move(part));
    return whole;
}

// The chunked, pooled export writes exactly the bytes of a naive
// stable-sort reference at every width, on traces of 0 and 1 events,
// just below, at and above one chunk, and across several chunks.
TEST(TraceFormat, ParallelExportMatchesSerialAndReference)
{
    constexpr std::size_t kChunk = Trace::kExportChunkEvents;
    std::mt19937_64 rng(0xc4a0);
    const std::size_t sizes[] = {0,          1,          2,
                                 kChunk - 1, kChunk,     kChunk + 1,
                                 2 * kChunk, 3 * kChunk + 17,
                                 9 * kChunk + 5};
    std::vector<Recorded> recorded;
    for (const std::size_t count : sizes)
        for (const std::uint64_t times : {std::uint64_t{3},
                                          std::uint64_t{1'000'000}}) {
            const Trace trace = randomTrace(rng, count, times, recorded);
            ASSERT_EQ(trace.size(), count);
            const std::string serial = trace.toChromeJson(1);
            ASSERT_EQ(serial, referenceExport(recorded))
                << count << " events, " << times << " timestamps";
            for (const std::size_t width : {2u, 3u, 4u, 8u, 0u})
                ASSERT_EQ(trace.toChromeJson(width), serial)
                    << count << " events at width " << width;
        }
}

// A sink that refuses chunk k ends the export: it returns false and no
// later chunk is offered, and what was taken is a prefix of the full
// export, at every width.
TEST(TraceFormat, ExportStopsAtTheFirstRefusedChunk)
{
    std::mt19937_64 rng(0x5eed);
    std::vector<Recorded> recorded;
    const Trace trace = randomTrace(
        rng, 6 * Trace::kExportChunkEvents + 3, 50, recorded);
    const std::string full = trace.toChromeJson(1);
    for (const std::size_t width : {1u, 4u})
        for (const std::size_t refuse : {0u, 1u, 2u, 5u, 7u, 8u}) {
            std::size_t calls = 0;
            std::string taken;
            const bool ok = trace.exportChrome(
                [&](std::string_view chunk) {
                    if (calls++ == refuse)
                        return false;
                    taken.append(chunk);
                    return true;
                },
                width);
            // Head, 7 event chunks, tail: 9 chunks in all.
            EXPECT_FALSE(ok) << "refusing chunk " << refuse;
            EXPECT_EQ(calls, refuse + 1) << "width " << width;
            EXPECT_EQ(full.compare(0, taken.size(), taken), 0);
        }
    std::size_t calls = 0;
    EXPECT_TRUE(trace.exportChrome(
        [&](std::string_view) { return ++calls > 0; }, 4));
    EXPECT_EQ(calls, 9u);
}

// The sort key packs the timestamp above the record index in 64 bits;
// a trace that does not fit is refused before anything is sent.
TEST(TraceFormat, PackedKeyOverflowIsRefused)
{
    const auto four_events = [](double last_us) {
        Trace trace;
        for (const double us : {1.0, 2.0, 3.0, last_us})
            trace.record(units::Micros{us}, TraceEventKind::PacketTx, 0,
                         0, "tx");
        return trace;
    };
    // Record indices 0..3 take 2 bits: a 62-bit timestamp fits, a
    // 63-bit one does not.
    const Trace fits = four_events(std::ldexp(1.0, 61));
    EXPECT_NE(fits.toChromeJson().find("\"ts\":2305843009213693952"),
              std::string::npos);
    const Trace too_late = four_events(std::ldexp(1.0, 62));
    std::size_t calls = 0;
    EXPECT_FALSE(too_late.exportChrome([&](std::string_view) {
        ++calls;
        return true;
    }));
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(too_late.toChromeJson(), "");
}

} // namespace
} // namespace scalo::sim
