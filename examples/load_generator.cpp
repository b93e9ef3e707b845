/**
 * @file
 * Serving-runtime load generator: drive a multi-tenant QueryServer
 * with thousands of concurrent mixed queries while a chaos plan
 * crashes and reboots nodes underneath it, then report the serving
 * envelope — per-tenant and per-class p50/p95/p99, plan-cache hit
 * rate, coverage under degradation.
 *
 * The run has two phases. Prefill: the server starts paused, so
 * submissions pile up in the admission queue until the in-flight
 * target (default 1200) is reached — a deterministic way to prove
 * the server really holds >= 1000 concurrent queries. Sustain: the
 * dispatchers resume, the chaos driver replays the fault plan, and
 * the generator keeps the queue near the target until the submission
 * budget is spent. When the server says Overloaded or QuotaExceeded
 * (submit never blocks), the sender sleeps until in-flight work has
 * drained below the target and then retries.
 *
 * Exits 0 only when the serving contract held:
 *   - peak in-flight reached the target (>= --min-inflight);
 *   - every accepted ticket reached a terminal state (zero hangs);
 *   - overload was rejected, not hung, and the rejection rate stayed
 *     under --max-reject-rate;
 *   - every completed execution carried valid coverage, and the
 *     chaos window actually produced partial results.
 *
 * Usage: load_generator [--queries N] [--inflight N]
 *        [--min-inflight N] [--tenants N] [--nodes N] [--seed S]
 *        [--max-reject-rate F] [--no-chaos]
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "scalo/core/system.hpp"
#include "scalo/serve/chaos.hpp"
#include "scalo/serve/query_server.hpp"
#include "scalo/util/rng.hpp"
#include "scalo/util/table.hpp"

namespace {

using namespace scalo;

struct Args
{
    std::size_t queries = 4000;
    std::size_t inflightTarget = 1200;
    std::size_t minInflight = 1000;
    std::size_t tenants = 4;
    std::size_t nodes = 8;
    std::uint64_t seed = 20260807;
    double maxRejectRate = 0.5;
    bool chaos = true;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const auto next = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc)
                return nullptr;
            return argv[++i];
        };
        if (const char *v = next("--queries"))
            args.queries = std::strtoull(v, nullptr, 10);
        else if (const char *v = next("--inflight"))
            args.inflightTarget = std::strtoull(v, nullptr, 10);
        else if (const char *v = next("--min-inflight"))
            args.minInflight = std::strtoull(v, nullptr, 10);
        else if (const char *v = next("--tenants"))
            args.tenants = std::strtoull(v, nullptr, 10);
        else if (const char *v = next("--nodes"))
            args.nodes = std::strtoull(v, nullptr, 10);
        else if (const char *v = next("--seed"))
            args.seed = std::strtoull(v, nullptr, 10);
        else if (const char *v = next("--max-reject-rate"))
            args.maxRejectRate = std::atof(v);
        else if (std::strcmp(argv[i], "--no-chaos") == 0)
            args.chaos = false;
        else
            return false;
    }
    return args.queries > 0 && args.tenants > 0 && args.nodes > 0 &&
           args.inflightTarget >= args.minInflight;
}

/** A 6 Hz seizure-like template, index-varied so a few distinct
 *  probes circulate (and repeat, for plan-cache hits). */
std::vector<double>
probeShape(std::size_t n, std::size_t variant)
{
    std::vector<double> out(n);
    const double phase =
        0.3 * static_cast<double>(variant % 5);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = std::sin(2.0 * std::numbers::pi * 6.0 *
                              static_cast<double>(i) /
                              static_cast<double>(n) +
                          phase);
    return out;
}

/** The mixed-workload descriptor for submission @p i. */
app::Query
mixedQuery(std::size_t i, std::size_t samples,
           std::uint64_t span_us)
{
    const std::uint64_t t0 = (i % 7) * (span_us / 8);
    const std::uint64_t t1 = t0 + span_us / 2;
    switch (i % 4) {
      case 0:
        return app::Query::q1(t0, t1);
      case 1:
        return app::Query::q2(t0, t1, probeShape(samples, i));
      case 2: {
        app::Query q = app::Query::q2(t0, t1,
                                      probeShape(samples, i), 6.0,
                                      signal::Measure::Euclidean);
        q.hashPrefilter = true;
        return q;
      }
      default:
        return app::Query::q3(t0, t1);
    }
}

void
printMetricsRow(TextTable &table, const std::string &name,
                const serve::Metrics &m)
{
    table.addRow({name, std::to_string(m.submitted),
                  std::to_string(m.completed),
                  std::to_string(m.partial),
                  std::to_string(m.cancelled),
                  std::to_string(m.rejected()),
                  TextTable::num(m.p50(), 2),
                  TextTable::num(m.p95(), 2),
                  TextTable::num(m.p99(), 2),
                  TextTable::num(100.0 * m.coverageFraction(), 1) +
                      "%"});
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::printf(
            "usage: %s [--queries N] [--inflight N] "
            "[--min-inflight N] [--tenants N] [--nodes N] "
            "[--seed S] [--max-reject-rate F] [--no-chaos]\n",
            argv[0]);
        return 2;
    }

    core::ScaloConfig config;
    config.nodes = args.nodes;
    config.seed = args.seed;
    core::ScaloSystem system(config);
    std::printf("%s\n", system.describe().c_str());

    // Populate the stores: a few hundred windows per node, with a
    // seizure burst in the middle so Q1 has something to find.
    constexpr std::size_t kSamples = 96;
    constexpr std::uint64_t kWindowsPerNode = 240;
    constexpr std::uint64_t kStrideUs = 4'000;
    // Sender back-off step while the server drains after a rejection.
    constexpr std::chrono::microseconds kBackoff{200};
    app::QueryEngine engine = system.makeQueryEngine(kSamples);
    Rng rng(args.seed);
    for (NodeId node = 0; node < engine.nodeCount(); ++node) {
        for (std::uint64_t w = 0; w < kWindowsPerNode; ++w) {
            const bool seizure = w >= 100 && w < 120;
            std::vector<double> window(kSamples);
            if (seizure)
                window = probeShape(kSamples, w);
            else
                for (double &v : window)
                    v = rng.gaussian();
            engine.ingest(node, w * kStrideUs,
                          static_cast<ElectrodeId>(node % 4),
                          window, seizure);
        }
    }
    const std::uint64_t span_us = kWindowsPerNode * kStrideUs;

    serve::ServeConfig serve_config;
    serve_config.dispatchers = 4;
    serve_config.queueCapacity = args.inflightTarget + 256;
    serve_config.tenantQuota =
        args.inflightTarget / args.tenants + 256;
    serve_config.maxBatch = 32;
    serve_config.planCacheCapacity = 64;
    serve_config.startPaused = true;
    serve::QueryServer server(engine, serve_config);

    // Chaos: one node bounces early, another goes down mid-run and
    // stays down — the surviving shards keep answering and results
    // go partial, not missing.
    sim::FaultPlan plan;
    if (args.chaos && args.nodes >= 3) {
        plan.crashes.push_back(
            {/*node=*/1, units::Millis{0.0}, units::Millis{400.0}});
        plan.crashes.push_back({/*node=*/2, units::Millis{50.0}});
    }
    serve::ChaosDriver chaos(server, plan, /*time_scale=*/1.0);

    const std::vector<std::string> tenantNames = [&] {
        std::vector<std::string> names;
        for (std::size_t t = 0; t < args.tenants; ++t)
            names.push_back("tenant-" + std::to_string(t));
        return names;
    }();

    // ---- phase 1: prefill the paused server to the target -------
    std::vector<serve::TicketId> tickets;
    tickets.reserve(args.queries);
    std::size_t submitted = 0;
    std::size_t rejected = 0;
    std::size_t attempts = 0;
    while (server.inFlight() < args.inflightTarget &&
           submitted < args.queries) {
        const app::Query query =
            mixedQuery(submitted, kSamples, span_us);
        ++attempts;
        const serve::SubmitResult result = server.submit(
            tenantNames[submitted % tenantNames.size()], query);
        if (result.accepted()) {
            tickets.push_back(result.id);
            ++submitted;
        } else {
            ++rejected;
        }
    }
    const std::size_t prefillPeak = server.peakInFlight();
    std::printf("\nprefill: %zu queries queued (target %zu), peak "
                "in-flight %zu\n",
                submitted, args.inflightTarget, prefillPeak);

    // ---- phase 2: sustain under chaos ---------------------------
    chaos.start();
    server.resume();
    while (submitted < args.queries) {
        const app::Query query =
            mixedQuery(submitted, kSamples, span_us);
        ++attempts;
        const serve::SubmitResult result = server.submit(
            tenantNames[submitted % tenantNames.size()], query);
        if (result.accepted()) {
            tickets.push_back(result.id);
            ++submitted;
        } else {
            // Typed back-pressure: submit never blocks. Back off until
            // the dispatchers have drained in-flight work below the
            // target, then retry the same query. (Retrying at once
            // spun: every retry counted as a rejection, and since a
            // batch claim frees maxBatch slots, a multiple of the
            // tenant count, every burst ended on the same tenant.)
            ++rejected;
            do
                std::this_thread::sleep_for(kBackoff);
            while (server.inFlight() >= args.inflightTarget);
        }
    }

    // Exercise cancellation on a slice of the tail.
    std::size_t cancelRequested = 0;
    for (std::size_t i = tickets.size() - tickets.size() / 50;
         i < tickets.size(); ++i)
        cancelRequested += server.cancel(tickets[i]) ? 1 : 0;

    // ---- collect: every accepted ticket must go terminal --------
    std::size_t done = 0;
    std::size_t cancelled = 0;
    std::size_t hangs = 0;
    std::size_t partials = 0;
    std::size_t badCoverage = 0;
    for (const serve::TicketId id : tickets) {
        const auto response = server.wait(id, /*timeout_ms=*/30'000);
        if (!response) {
            ++hangs;
            continue;
        }
        if (response->state == serve::TicketState::Cancelled) {
            ++cancelled;
            continue;
        }
        if (response->state != serve::TicketState::Done)
            continue;
        ++done;
        const app::Coverage &coverage =
            response->execution.coverage;
        const bool valid =
            coverage.totalShards == engine.nodeCount() &&
            coverage.answeredShards <= coverage.totalShards &&
            coverage.answeredShards ==
                static_cast<std::size_t>(std::count_if(
                    response->execution.perNode.begin(),
                    response->execution.perNode.end(),
                    [](const app::QueryStats &s) {
                        return s.answered;
                    }));
        if (!valid)
            ++badCoverage;
        if (!coverage.complete())
            ++partials;
    }
    chaos.stop();
    server.stop();

    // ---- report -------------------------------------------------
    std::printf("\n%zu attempts: %zu accepted, %zu rejected "
                "(rate %.1f%%); %zu done, %zu cancelled "
                "(%zu requested), %zu hung\n",
                attempts, submitted, rejected,
                100.0 * static_cast<double>(rejected) /
                    static_cast<double>(attempts),
                done, cancelled, cancelRequested, hangs);
    std::printf("chaos: %zu/%zu flips applied; %zu partial "
                "results, %zu invalid coverages\n",
                chaos.applied(), chaos.scheduled(), partials,
                badCoverage);
    const serve::PlanCache::Stats cache = server.planCacheStats();
    std::printf("plan cache: %llu hits / %llu misses (%.1f%% hit "
                "rate), %zu resident, %llu evictions\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                100.0 * cache.hitRate(), cache.size,
                static_cast<unsigned long long>(cache.evictions));

    const std::vector<std::string> header{
        "", "submitted", "done", "partial", "cancelled", "rejected",
        "p50 (ms)", "p95 (ms)", "p99 (ms)", "coverage"};
    std::printf("\nper tenant:\n");
    TextTable tenantTable(header);
    for (const std::string &tenant : server.tenants())
        printMetricsRow(tenantTable, tenant,
                        server.tenantMetrics(tenant));
    printMetricsRow(tenantTable, "TOTAL", server.totals());
    tenantTable.print();

    std::printf("\nper query class:\n");
    TextTable classTable(header);
    for (std::size_t c = 0; c < serve::kQueryClasses; ++c) {
        const auto cls = static_cast<serve::QueryClass>(c);
        printMetricsRow(classTable, serve::queryClassName(cls),
                        server.classMetrics(cls));
    }
    classTable.print();

    // ---- the serving contract -----------------------------------
    bool ok = true;
    if (server.peakInFlight() < args.minInflight) {
        std::printf("\nFAIL: peak in-flight %zu < target %zu\n",
                    server.peakInFlight(), args.minInflight);
        ok = false;
    }
    if (hangs > 0) {
        std::printf("\nFAIL: %zu tickets never went terminal\n",
                    hangs);
        ok = false;
    }
    const double rejectRate = static_cast<double>(rejected) /
                              static_cast<double>(attempts);
    if (rejectRate > args.maxRejectRate) {
        std::printf("\nFAIL: rejection rate %.2f above bound %.2f\n",
                    rejectRate, args.maxRejectRate);
        ok = false;
    }
    if (badCoverage > 0) {
        std::printf("\nFAIL: %zu executions with invalid coverage\n",
                    badCoverage);
        ok = false;
    }
    if (args.chaos && chaos.applied() > 0 && partials == 0) {
        std::printf("\nFAIL: chaos downed nodes but no partial "
                    "results surfaced\n");
        ok = false;
    }
    std::printf("\n%s\n", ok ? "serving contract held"
                             : "SERVING CONTRACT VIOLATED");
    return ok ? 0 : 1;
}
