/**
 * @file
 * Concurrency tests for the QueryServer: many client threads
 * submitting, polling, and cancelling against live dispatcher
 * threads while a chaos thread flips nodes down and up. All suite
 * names start with "QueryServer" so ci/check.sh's TSan gate picks
 * this binary up — the point of these tests is to run them under
 * -DSCALO_SANITIZE=thread, where any lock-ordering or data-race bug
 * in the serving runtime becomes a hard failure.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numbers>
#include <thread>
#include <vector>

#include "scalo/serve/chaos.hpp"
#include "scalo/serve/query_server.hpp"
#include "scalo/util/rng.hpp"

namespace scalo {
namespace {

constexpr std::size_t kNodes = 4;
constexpr std::size_t kSamples = 64;

std::vector<double>
probeShape(std::size_t n, double phase)
{
    std::vector<double> out(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = std::sin(2.0 * std::numbers::pi * 6.0 *
                              static_cast<double>(i) /
                              static_cast<double>(n) +
                          phase);
    return out;
}

std::unique_ptr<app::QueryEngine>
makeEngine()
{
    auto engine =
        std::make_unique<app::QueryEngine>(kNodes, kSamples, 7);
    Rng rng(11);
    for (NodeId node = 0; node < kNodes; ++node) {
        for (std::uint64_t w = 0; w < 64; ++w) {
            std::vector<double> window(kSamples);
            if (w % 5 == 0)
                window = probeShape(kSamples, 0.3);
            else
                for (double &v : window)
                    v = rng.gaussian();
            engine->ingest(node, w * 4'000,
                           static_cast<ElectrodeId>(node % 4),
                           window, w % 9 == 0);
        }
    }
    return engine;
}

app::Query
mixedQuery(std::size_t i)
{
    switch (i % 4) {
      case 0:
        return app::Query::q1(0, 300'000);
      case 1:
        return app::Query::q2(0, 300'000,
                              probeShape(kSamples, 0.3));
      case 2:
        return app::Query::q2(0, 300'000,
                              probeShape(kSamples, 0.3), 6.0,
                              signal::Measure::Euclidean);
      default:
        return app::Query::q3(10'000, 200'000);
    }
}

TEST(QueryServerConcurrency, ConcurrentSubmitWaitFromManyTenants)
{
    auto engine = makeEngine();
    serve::ServeConfig config;
    config.dispatchers = 3;
    config.queueCapacity = 256;
    config.tenantQuota = 128;
    serve::QueryServer server(*engine, config);

    constexpr std::size_t kClients = 6;
    constexpr std::size_t kPerClient = 40;
    std::atomic<std::size_t> completed{0};
    std::atomic<std::size_t> failures{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            const std::string tenant =
                "tenant-" + std::to_string(c % 3);
            for (std::size_t i = 0; i < kPerClient; ++i) {
                const auto submit =
                    server.submit(tenant, mixedQuery(c + i));
                if (!submit.accepted())
                    continue; // typed back-pressure is fine
                const auto response =
                    server.wait(submit.id, /*timeout_ms=*/30'000);
                if (!response ||
                    response->state != serve::TicketState::Done) {
                    ++failures;
                    continue;
                }
                if (response->execution.coverage.totalShards !=
                    kNodes)
                    ++failures;
                ++completed;
            }
        });
    }
    for (auto &client : clients)
        client.join();
    EXPECT_EQ(failures.load(), 0u);
    EXPECT_GT(completed.load(), 0u);
    EXPECT_EQ(server.totals().completed, completed.load());
    EXPECT_TRUE(server.drain(1'000.0));
}

TEST(QueryServerConcurrency, SubmitPollCancelRaces)
{
    auto engine = makeEngine();
    serve::ServeConfig config;
    config.dispatchers = 2;
    config.queueCapacity = 128;
    config.tenantQuota = 128;
    config.maxBatch = 4;
    serve::QueryServer server(*engine, config);

    constexpr std::size_t kClients = 4;
    constexpr std::size_t kPerClient = 50;
    std::atomic<std::size_t> anomalies{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (std::size_t i = 0; i < kPerClient; ++i) {
                const auto submit = server.submit(
                    std::string("t").append(std::to_string(c)),
                    mixedQuery(i));
                if (!submit.accepted())
                    continue;
                if (i % 3 == 0)
                    server.cancel(submit.id); // race vs dispatch
                // Poll until terminal; the result is handed out
                // exactly once, so Unknown after a terminal poll is
                // the contract, not an anomaly.
                for (;;) {
                    const auto response = server.poll(submit.id);
                    if (response.state ==
                            serve::TicketState::Done ||
                        response.state ==
                            serve::TicketState::Cancelled)
                        break;
                    if (response.state ==
                        serve::TicketState::Unknown) {
                        ++anomalies; // lost without a terminal poll
                        break;
                    }
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto &client : clients)
        client.join();
    EXPECT_EQ(anomalies.load(), 0u);
    const auto totals = server.totals();
    EXPECT_EQ(totals.completed + totals.cancelled,
              totals.submitted);
}

TEST(QueryServerConcurrency, ServingWhileChaosFlipsNodes)
{
    auto engine = makeEngine();
    serve::ServeConfig config;
    config.dispatchers = 2;
    config.queueCapacity = 256;
    config.tenantQuota = 256;
    serve::QueryServer server(*engine, config);

    // A tight crash/reboot cycle so flips land mid-execution.
    sim::FaultPlan plan;
    for (int round = 0; round < 10; ++round) {
        const double at = 1.0 + round * 4.0;
        plan.crashes.push_back({/*node=*/1, units::Millis{at},
                                units::Millis{at + 2.0}});
    }
    serve::ChaosDriver chaos(server, plan, /*time_scale=*/1.0);
    chaos.start();

    std::atomic<std::size_t> badCoverage{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 3; ++c) {
        clients.emplace_back([&, c] {
            for (std::size_t i = 0; i < 60; ++i) {
                const auto submit = server.submit(
                    std::string("t").append(std::to_string(c)),
                    mixedQuery(i));
                if (!submit.accepted())
                    continue;
                const auto response =
                    server.wait(submit.id, 30'000.0);
                if (!response ||
                    response->state != serve::TicketState::Done)
                    continue;
                const auto &coverage =
                    response->execution.coverage;
                if (coverage.totalShards != kNodes ||
                    coverage.answeredShards > coverage.totalShards)
                    ++badCoverage;
            }
        });
    }
    for (auto &client : clients)
        client.join();
    chaos.stop();
    EXPECT_EQ(badCoverage.load(), 0u);
    EXPECT_GT(server.totals().completed, 0u);
}

TEST(QueryServerConcurrency, StopWhileClientsSubmit)
{
    auto engine = makeEngine();
    serve::ServeConfig config;
    config.dispatchers = 2;
    serve::QueryServer server(*engine, config);

    std::atomic<bool> go{true};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < 3; ++c) {
        clients.emplace_back([&] {
            std::size_t i = 0;
            while (go.load(std::memory_order_relaxed)) {
                const auto submit =
                    server.submit("t", mixedQuery(i++));
                if (submit.status ==
                    serve::SubmitStatus::ShuttingDown)
                    break;
                if (submit.accepted())
                    server.poll(submit.id);
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.stop();
    go.store(false);
    for (auto &client : clients)
        client.join();
    EXPECT_EQ(server.submit("t", mixedQuery(0)).status,
              serve::SubmitStatus::ShuttingDown);
    // Accounting closed: nothing is left mid-flight.
    EXPECT_EQ(server.inFlight(), 0u);
}

} // namespace
} // namespace scalo
