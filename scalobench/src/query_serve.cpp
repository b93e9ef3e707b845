/**
 * @file
 * query_serve: clinicians' interactive queries as an open loop.
 *
 * One sender thread (the caller) submits seeded arrivals of the
 * Q1 / Q2-hash / Q2-exact (Euclidean confirm) / Q3 mix from several
 * tenants to a serve::QueryServer; one collector thread waits for
 * each ticket in submission order (a single dispatcher completes
 * batches in FIFO order, so waiting on the oldest ticket never hides
 * a later completion). Every request is timed from the moment it was
 * due, so a sender stall is charged to the requests behind it.
 *
 * The server runs over a 16-node, 4-cluster engine from
 * core::ScaloSystem::makeQueryEngine whose stores were filled through
 * ingestBatch past their ring capacity: 512-sample windows make the
 * retained samples (16 x 8192 x 4 KiB = 512 MiB) larger than the
 * host's last-level cache, and each node evicts 1808 windows. The
 * descriptors come from a hot set larger than the plan cache plus a
 * unique tail, so plan caching and in-batch dedup help only in part,
 * and time ranges run from narrow to wide so the bucket-index path
 * (Q2) and the range-scan path (Q1, Q3) both run.
 *
 * Phases: a warm-up, an unloaded step (one request in flight, the
 * gated latency), the fixed `light` and `heavy` rates, then a rate
 * ladder for max_qps (geometric steps from the heavy rate, then
 * bisection; a failing step is run twice). Traced runs replace the
 * unloaded step and the ladder with an untraced copy of the light
 * step, so the span overhead is measured inside one process.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <numbers>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "scalo/core/system.hpp"
#include "scalo/serve/query_server.hpp"
#include "scalo/util/rng.hpp"

namespace scalobench {
namespace {

using namespace scalo;

// ---- fabric and data ---------------------------------------------
constexpr std::size_t kNodes = 16;
constexpr std::size_t kClusters = 4;
constexpr std::size_t kSamples = 512;
/** Per node; SignalStore's ring keeps the newest 8192. */
constexpr std::size_t kWindowsPerNode = 10'000;
constexpr std::size_t kRetained = 8'192;
constexpr std::uint64_t kStrideUs = 4'000;
constexpr std::size_t kTemplates = 8;
constexpr double kTemplateShare = 0.06;
constexpr double kTemplateNoise = 0.15;
constexpr int kSetupRepeats = 3;

// ---- serving (fixed so busy threads stay within 4 CPUs) ----------
constexpr std::size_t kDispatchers = 1;
/** 1 = shards run inline on the dispatcher (no pool wake-ups). */
constexpr std::size_t kEngineThreads = 1;
constexpr std::size_t kTenants = 4;
/**
 * The busy threads each get a CPU of their own, the same in every
 * process. Left to the scheduler, the placement is settled per
 * process, and many whole processes served at a max_qps about a
 * quarter lower than the rest (2.2k against 2.8k qps).
 */
constexpr int kSenderCpu = 0;
constexpr int kCollectorCpu = 1;
constexpr int kDispatcherCpu = 2;
constexpr int kPinnedCpus = 3;
/** Larger than ServeConfig's default plan-cache capacity (128). */
constexpr std::size_t kHotSet = 192;
/** Share of requests with a descriptor never seen before. */
constexpr double kUniqueShare = 0.25;
/** Q2-exact confirmation threshold of examples/load_generator.cpp. */
constexpr double kEuclideanThreshold = 6.0;

// ---- load --------------------------------------------------------
/**
 * Fixed offered rates, set from the max_qps this workload measured
 * (median 2 230 qps over five seeds, 4 vCPU, Release; see NOTE.md):
 * light is about a fifth of it, so the queue is nearly always empty,
 * and heavy about 0.8 of it, so requests queue behind each other.
 */
constexpr double kLightQps = 400.0;
constexpr double kHeavyQps = 1'750.0;
/** max_qps: the p99 latency limit a passing ladder step meets. */
constexpr double kLatencyLimitMs = 50.0;
/** Shares of the process's seconds: the unloaded step gives the
 *  gated latency, so it is the longest; the ladder takes what is
 *  left. */
constexpr double kUnloadedShare = 0.3;
constexpr double kLightShare = 0.2;
constexpr double kHeavyShare = 0.1;
constexpr double kLadderStepShare = 0.06;
/**
 * Ladder rates: geometric from the heavy rate, up while steps pass or
 * down while they fail, until a pass and a fail bracket max_qps; then
 * bisections. Fixed rates, not fractions of a measured capacity, so
 * one run's verdicts compare with another's.
 */
constexpr double kLadderRatio = 1.15;
constexpr int kLadderMaxSteps = 16;
constexpr int kBisections = 2;
/** Requests per ladder step, at least: p99 needs 1000. */
constexpr double kLadderSamples = 1'200.0;
/** One request in this many is re-run serially and compared. */
constexpr std::uint64_t kCompareEvery = 16;
constexpr double kHangMs = 5'000.0;
/** The sender sleeps until this long before each due time, then spins. */
constexpr auto kSpin = std::chrono::microseconds(300);

struct Corpus
{
    std::vector<double> noise;
    std::vector<std::vector<double>> templates;

    explicit Corpus(std::uint64_t seed)
    {
        Rng rng(seed);
        noise.resize(std::size_t{1} << 20);
        for (double &v : noise)
            v = rng.gaussian();
        for (std::size_t k = 0; k < kTemplates; ++k) {
            std::vector<double> shape(kSamples);
            const double freq = 3.0 + static_cast<double>(k);
            for (std::size_t i = 0; i < kSamples; ++i)
                shape[i] = std::sin(2.0 * std::numbers::pi * freq *
                                        static_cast<double>(i) /
                                        static_cast<double>(kSamples) +
                                    0.4 * static_cast<double>(k));
            templates.push_back(std::move(shape));
        }
    }

    /** Template @p k plus light noise, or a pure-noise window. */
    void
    fill(Rng &rng, std::vector<double> &out, std::optional<std::size_t> k)
        const
    {
        out.resize(kSamples);
        const std::size_t offset = rng.below(noise.size() - kSamples);
        if (k) {
            for (std::size_t i = 0; i < kSamples; ++i)
                out[i] = templates[*k][i] +
                         kTemplateNoise * noise[offset + i];
        } else {
            std::copy_n(noise.begin() + static_cast<long>(offset),
                        kSamples, out.begin());
        }
    }
};

/**
 * One descriptor of the Q1 / Q2-hash / Q2-exact / Q3 mix. @p u_class
 * picks the class (a quarter each, the mix of
 * examples/load_generator.cpp) and @p u_width the range
 * width, log-uniform from narrow to wide; both are in [0, 1). The
 * range position and the probe come from @p rng.
 */
app::Query
makeQuery(Rng &rng, const Corpus &corpus, double u_class, double u_width)
{
    const double lo = static_cast<double>(
        (kWindowsPerNode - kRetained) * kStrideUs);
    const double span =
        static_cast<double>(kWindowsPerNode * kStrideUs) - lo;
    const auto range = [&](double narrow, double wide) {
        const double f = narrow * std::pow(wide / narrow, u_width);
        const double t0 = lo + rng.uniform() * (1.0 - f) * span;
        return std::pair{static_cast<std::uint64_t>(t0),
                         static_cast<std::uint64_t>(t0 + f * span)};
    };
    const auto probe = [&] {
        std::vector<double> p;
        corpus.fill(rng, p, rng.below(kTemplates));
        return p;
    };
    if (u_class < 0.25) {
        const auto [t0, t1] = range(1e-3, 0.1);
        return app::Query::q1(t0, t1);
    }
    if (u_class < 0.5) {
        const auto [t0, t1] = range(1e-3, 0.1);
        return app::Query::q2(t0, t1, probe());
    }
    if (u_class < 0.75) {
        const auto [t0, t1] = range(1e-3, 0.1);
        app::Query q = app::Query::q2(t0, t1, probe(),
                                      kEuclideanThreshold,
                                      signal::Measure::Euclidean);
        q.hashPrefilter = true;
        return q;
    }
    const auto [t0, t1] = range(1e-4, 0.005);
    return app::Query::q3(t0, t1);
}

/** Bit-identity of a served execution and a serial one. */
bool
sameExecution(const app::QueryExecution &a, const app::QueryExecution &b)
{
    if (a.matches != b.matches || a.scanned != b.scanned ||
        a.latency.count() != b.latency.count() ||
        a.transferBytes != b.transferBytes ||
        a.coverage.answeredShards != b.coverage.answeredShards ||
        a.coverage.totalShards != b.coverage.totalShards ||
        a.perNode.size() != b.perNode.size())
        return false;
    for (std::size_t i = 0; i < a.perNode.size(); ++i) {
        const app::QueryStats &x = a.perNode[i];
        const app::QueryStats &y = b.perNode[i];
        if (x.node != y.node || x.scanned != y.scanned ||
            x.bucketHits != y.bucketHits ||
            x.dtwComparisons != y.dtwComparisons ||
            x.matched != y.matched ||
            x.modeled.count() != y.modeled.count() ||
            x.answered != y.answered)
            return false;
    }
    return true;
}

struct Sample
{
    app::Query query;
    app::QueryExecution served;
};

/** Everything known about one request; written by the sender before
 *  hand-off and by the collector after. */
struct Request
{
    Clock::time_point due{}, sendStart{}, sendEnd{}, seen{};
    serve::SubmitStatus status = serve::SubmitStatus::Invalid;
    serve::TicketId ticket = serve::kInvalidTicket;
    bool done = false, hung = false, complete = false;
    serve::QueryClass cls = serve::QueryClass::Q3Range;
    double serveMs = 0.0, wallMs = 0.0, shardMaxMs = 0.0;
    double scanned = 0, bucketHits = 0, dtw = 0, matched = 0;
    std::unique_ptr<Sample> sample;
};

/** What one rate step reports (raw; stats.py derives the rest). */
struct Step
{
    std::string name;
    double offeredQps = 0.0;
    /** Time the last request went out, from the step's start. */
    double seconds = 0.0;
    std::vector<Request> requests;
    /** (seconds since step start, in flight) sampled while sending. */
    std::vector<double> backlogT, backlogN;
    double backlogEnd = 0.0;
};

class LoadGenerator
{
  public:
    LoadGenerator(serve::QueryServer &server, const Corpus &corpus,
           std::uint64_t seed, SpanRecorder &spans)
        : server(server), corpus(corpus), seed(seed), spans(spans)
    {
        // The hot set is stratified, not sampled: its class mix and
        // width spread are the same for every seed, so the seed moves
        // positions and probes but not the cost distribution.
        Rng rng(seed ^ 0x407ULL);
        const double golden = 0.6180339887498949;
        for (std::size_t i = 0; i < kHotSet; ++i) {
            const double u_class = (static_cast<double>(i) + 0.5) /
                                   static_cast<double>(kHotSet);
            const double u_width =
                std::fmod(static_cast<double>(i) * golden, 1.0);
            hot.push_back(makeQuery(rng, corpus, u_class, u_width));
        }
        for (std::size_t t = 0; t < kTenants; ++t)
            tenants.push_back("tenant-" + std::to_string(t));
        collector = std::thread([this] { collect(); });
    }

    ~LoadGenerator()
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            stopping = true;
        }
        cv.notify_all();
        collector.join();
    }

    LoadGenerator(const LoadGenerator &) = delete;
    LoadGenerator &operator=(const LoadGenerator &) = delete;

    /**
     * Open loop: @p rate Poisson arrivals per second for @p secs.
     * Returns once every accepted request was collected (or declared
     * hung).
     */
    Step &
    run(const std::string &name, double rate, double secs,
        bool traced_spans)
    {
        steps.emplace_back();
        Step &step = steps.back();
        step.name = name;
        step.offeredQps = rate;
        Rng rng(seed * 1'000'003ULL + steps.size());
        std::vector<double> offsets;
        const auto gap = [&] {
            return -std::log(1.0 - rng.uniform()) / rate;
        };
        for (double t = gap(); t < secs; t += gap())
            offsets.push_back(t);
        if (offsets.empty())
            offsets.push_back(0.0);
        step.requests.resize(offsets.size());
        tracing = traced_spans;

        const Clock::time_point start = Clock::now();
        std::size_t accepted = 0;
        Clock::time_point next_sample = start;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            Request &req = step.requests[i];
            req.due = start + toDuration(offsets[i]);
            // Sleep to just short of the due time, then spin: an idle
            // virtual CPU wakes late, and that lag would be the
            // generator's, not the server's.
            std::this_thread::sleep_until(req.due - kSpin);
            while (Clock::now() < req.due)
                std::this_thread::yield();
            if (submit(rng, req, i)) {
                ++accepted;
                {
                    std::lock_guard<std::mutex> lock(mtx);
                    pending.push_back(&req);
                }
                cv.notify_one();
            }
            if (req.sendEnd >= next_sample) {
                step.backlogT.push_back(seconds(start, req.sendEnd));
                step.backlogN.push_back(
                    static_cast<double>(accepted - completed.load()));
                next_sample = req.sendEnd + std::chrono::milliseconds(10);
            }
        }
        const Clock::time_point sent_end = Clock::now();
        step.backlogEnd = static_cast<double>(accepted - completed.load());
        step.seconds = seconds(start, sent_end);

        // Drain: the collector bounds every wait, so this ends.
        while (completed.load() < accepted)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        completed.store(0);
        return step;
    }

    /**
     * One request in flight for @p secs: each is sent as soon as the
     * previous one is done, and the sender polls its ticket instead of
     * blocking, so the server never waits on an idle CPU to wake. This
     * is the service latency with no queueing and no wake-up of an
     * idle virtual CPU, which on a shared host varies several-fold
     * with the neighbours' load.
     */
    Step &
    runUnloaded(const std::string &name, double secs)
    {
        steps.emplace_back();
        Step &step = steps.back();
        step.name = name;
        Rng rng(seed * 1'000'003ULL + steps.size());
        tracing = false;
        const Clock::time_point start = Clock::now();
        const Clock::time_point stop_at = start + toDuration(secs);
        for (std::size_t i = 0; Clock::now() < stop_at; ++i) {
            Request &req = step.requests.emplace_back();
            req.due = Clock::now();
            if (!submit(rng, req, i))
                continue;
            const Clock::time_point hang_at =
                req.sendStart + std::chrono::milliseconds(
                                    static_cast<long>(kHangMs));
            for (;;) {
                serve::QueryResponse response = server.poll(req.ticket);
                if (response.state == serve::TicketState::Done ||
                    response.state == serve::TicketState::Cancelled) {
                    req.seen = Clock::now();
                    record(req, response);
                    break;
                }
                if (Clock::now() > hang_at) {
                    req.seen = Clock::now();
                    req.hung = true;
                    server.cancel(req.ticket);
                    break;
                }
                std::this_thread::yield();
            }
        }
        step.seconds = seconds(start, Clock::now());
        step.offeredQps =
            static_cast<double>(step.requests.size()) / step.seconds;
        return step;
    }

    std::deque<Step> steps;

  private:
    /**
     * Fill and submit request @p i of a step: a descriptor from the
     * hot set or a unique one, every kCompareEvery-th (seeded) kept
     * for the serial comparison. @return whether it was accepted.
     */
    bool
    submit(Rng &rng, Request &req, std::size_t i)
    {
        const bool unique = rng.uniform() < kUniqueShare;
        std::optional<app::Query> fresh;
        if (unique)
            fresh = makeQuery(rng, corpus, rng.uniform(), rng.uniform());
        const app::Query &query =
            unique ? *fresh : hot[rng.below(kHotSet)];
        if (rng.below(kCompareEvery) == 0)
            req.sample = std::make_unique<Sample>(Sample{query, {}});

        req.cls = serve::classify(query);
        req.sendStart = Clock::now();
        const serve::SubmitResult result =
            server.submit(tenants[i % kTenants], query);
        req.sendEnd = Clock::now();
        req.status = result.status;
        req.ticket = result.id;
        return result.accepted();
    }

    static Clock::duration
    toDuration(double secs)
    {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(secs));
    }

    void
    collect()
    {
        pinToCpuSlot(kCollectorCpu, kPinnedCpus);
        for (;;) {
            Request *req = nullptr;
            {
                std::unique_lock<std::mutex> lock(mtx);
                cv.wait(lock, [&] { return stopping || !pending.empty(); });
                if (pending.empty())
                    return;
                req = pending.front();
                pending.pop_front();
            }
            std::optional<serve::QueryResponse> response =
                server.wait(req->ticket, kHangMs);
            req->seen = Clock::now();
            if (!response) {
                req->hung = true;
                server.cancel(req->ticket);
            } else {
                record(*req, *response);
            }
            completed.fetch_add(1);
        }
    }

    void
    record(Request &req, serve::QueryResponse &response)
    {
        req.done = response.state == serve::TicketState::Done;
        const app::QueryExecution &exec = response.execution;
        req.complete = req.done && exec.coverage.complete();
        req.serveMs = response.serveMs;
        req.wallMs = exec.wall.count();
        for (const app::QueryStats &s : exec.perNode) {
            req.scanned += static_cast<double>(s.scanned);
            req.bucketHits += static_cast<double>(s.bucketHits);
            req.dtw += static_cast<double>(s.dtwComparisons);
            req.matched += static_cast<double>(s.matched);
            req.shardMaxMs = std::max(req.shardMaxMs, s.wall.count());
        }
        if (req.sample)
            req.sample->served = std::move(response.execution);
        if (!tracing)
            return;
        // The submit span is timed around the call; queue, execute
        // and handoff are the intervals the response reports. The
        // queue wait (serveMs - execution wall) starts inside submit,
        // so the submit span nests in it.
        const auto at = [&](double ms) {
            return req.sendStart +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double, std::milli>(ms));
        };
        const std::uint64_t id = req.ticket;
        const Clock::time_point executed = at(req.serveMs - req.wallMs);
        const std::int64_t root =
            spans.add("bench.request", req.due, req.seen, -1, id);
        spans.add("loadgen.lag", req.due, req.sendStart, root, id);
        const std::int64_t queued =
            spans.add("serve.queue", req.sendStart, executed, root, id);
        spans.add("serve.submit", req.sendStart, req.sendEnd, queued, id);
        spans.add("app.execute", executed, at(req.serveMs), root, id);
        spans.add("serve.handoff", at(req.serveMs), req.seen, root, id);
    }

    serve::QueryServer &server;
    const Corpus &corpus;
    std::uint64_t seed;
    SpanRecorder &spans;
    std::vector<app::Query> hot;
    std::vector<std::string> tenants;

    std::mutex mtx;
    std::condition_variable cv;
    std::deque<Request *> pending;
    bool stopping = false;
    /** Read by the collector only while it handles a request the
     *  sender handed over after setting it. */
    std::atomic<bool> tracing{false};
    std::atomic<std::size_t> completed{0};
    std::thread collector;
};

/**
 * The ladder's pass rule, stats.py's step_passes to the letter (run.py
 * fails the run if the two disagree on any step): no refused, hung or
 * partial request; a p99 (nearest rank) within the limit on at least
 * 1000 samples, so 10 lie beyond it; and no backlog growth, i.e. the
 * mean in-flight count of the last quarter of the backlog samples
 * exceeds the first quarter's by at most max(16, 2 % of the requests).
 */
bool
stepPasses(const Step &step)
{
    std::vector<double> lat;
    for (const Request &r : step.requests) {
        if (r.status != serve::SubmitStatus::Accepted || r.hung ||
            !r.complete)
            return false;
        lat.push_back(millis(r.due, r.seen));
    }
    if (lat.size() < 1000)
        return false;
    std::sort(lat.begin(), lat.end());
    const std::size_t rank = (lat.size() * 990 + 999) / 1000;
    if (lat[rank - 1] > kLatencyLimitMs)
        return false;
    const std::vector<double> &backlog = step.backlogN;
    if (backlog.size() < 4)
        return true;
    const std::size_t quarter = backlog.size() / 4;
    const double n = static_cast<double>(quarter);
    const double first =
        std::accumulate(backlog.begin(),
                        backlog.begin() + static_cast<long>(quarter), 0.0) /
        n;
    const double last =
        std::accumulate(backlog.end() - static_cast<long>(quarter),
                        backlog.end(), 0.0) /
        n;
    return last - first <=
           std::max(16.0, 0.02 * static_cast<double>(step.requests.size()));
}

void
writeStep(JsonWriter &json, const Step &step)
{
    std::vector<double> lat_ms, lag_ms, cls;
    double rejected = 0, hung = 0, incomplete = 0;
    for (const Request &r : step.requests) {
        if (r.status != serve::SubmitStatus::Accepted) {
            ++rejected;
            continue;
        }
        hung += r.hung;
        incomplete += !r.hung && !r.complete;
        lag_ms.push_back(millis(r.due, r.sendStart));
        if (r.hung || !r.done)
            continue;
        lat_ms.push_back(millis(r.due, r.seen));
        cls.push_back(static_cast<double>(r.cls));
    }
    json.beginObject()
        .value("name", step.name)
        .value("offered_qps", step.offeredQps)
        .value("passed", stepPasses(step))
        .value("seconds", step.seconds)
        .value("sent", static_cast<double>(step.requests.size()))
        .value("rejected", rejected)
        .value("hung", hung)
        .value("incomplete", incomplete)
        .value("backlog_end", step.backlogEnd)
        .numbers("backlog_t", step.backlogT)
        .numbers("backlog_n", step.backlogN)
        .numbers("lat_ms", lat_ms)
        .numbers("lag_ms", lag_ms)
        .numbers("class", cls)
        .endObject();
}

} // namespace

int
runQueryServe(const Options &options)
{
    const Clock::time_point begin = Clock::now();
    SpanRecorder spans(options.trace, begin);
    const Corpus corpus(options.seed);

    core::ScaloConfig config;
    config.nodes = kNodes;
    config.clusters = kClusters;
    const core::ScaloSystem system(config);

    // ---- set-up: engine + prefill, repeated; the last one serves --
    std::vector<double> setup_s, ingest_s;
    std::optional<app::QueryEngine> engine;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        engine.reset();
        Rng rng(options.seed ^ 0x1a6e57ULL);
        const Clock::time_point start = Clock::now();
        engine.emplace(system.makeQueryEngine(kSamples));
        engine->setParallelism(kEngineThreads);
        double program_s = seconds(start, Clock::now());
        double ingest = 0.0;
        for (NodeId node = 0; node < kNodes; ++node) {
            std::vector<app::QueryEngine::IngestWindow> batch(
                kWindowsPerNode);
            for (std::size_t w = 0; w < kWindowsPerNode; ++w) {
                app::QueryEngine::IngestWindow &win = batch[w];
                win.timestampUs = w * kStrideUs;
                win.electrode = static_cast<ElectrodeId>(w % 96);
                const bool templated = rng.uniform() < kTemplateShare;
                std::optional<std::size_t> k;
                if (templated)
                    k = rng.below(kTemplates);
                corpus.fill(rng, win.samples, k);
                win.seizureFlagged =
                    rng.uniform() < (templated ? 0.7 : 0.005);
            }
            const Clock::time_point ingest_start = Clock::now();
            engine->ingestBatch(node, std::move(batch));
            ingest += seconds(ingest_start, Clock::now());
        }
        setup_s.push_back(program_s + ingest);
        ingest_s.push_back(ingest);
    }

    std::vector<Check> checks;
    bool evicted = true;
    for (NodeId node = 0; node < kNodes; ++node)
        evicted = evicted && engine->store(node).overwritten() > 0 &&
                  engine->store(node).size() == kRetained;
    checks.push_back({"stores_evicted", evicted,
                      "every ring filled past capacity"});

    serve::ServeConfig serve_config;
    serve_config.dispatchers = kDispatchers;
    // Admission never refuses in this workload: overload shows up as
    // backlog and latency, which the ladder detects.
    serve_config.queueCapacity = std::size_t{1} << 20;
    serve_config.tenantQuota = std::size_t{1} << 20;
    // The dispatcher inherits the CPU of the thread that starts it.
    pinToCpuSlot(kDispatcherCpu, kPinnedCpus);
    serve::QueryServer server(*engine, serve_config);
    pinToCpuSlot(kSenderCpu, kPinnedCpus);

    const double secs = options.seconds;
    serve::PlanCache::Stats cache_before{}, cache_after{};
    {
        LoadGenerator load(server, corpus, options.seed, spans);
        load.run("warmup", kLightQps, std::min(0.5, 0.05 * secs), false);
        if (options.trace)
            load.run("light_untraced", kLightQps, kLightShare * secs,
                     false);
        if (!options.trace)
            load.runUnloaded("unloaded", kUnloadedShare * secs);
        cache_before = server.planCacheStats();
        load.run("light", kLightQps, kLightShare * secs, options.trace);
        load.run("heavy", kHeavyQps, kHeavyShare * secs, options.trace);
        cache_after = server.planCacheStats();

        if (!options.trace) {
            // Each step runs long enough for a supported p99. A failing
            // step runs once more, so one host stall cannot end the
            // climb at a rate the server sustains.
            const auto passes = [&](double rate) {
                const double len =
                    std::max(kLadderStepShare * secs, kLadderSamples / rate);
                return stepPasses(load.run("ladder", rate, len, false)) ||
                       stepPasses(load.run("ladder", rate, len, false));
            };
            double pass = 0.0, fail = 0.0, rate = kHeavyQps;
            for (int i = 0; i < kLadderMaxSteps && (pass == 0.0 ||
                                                    fail == 0.0);
                 ++i) {
                if (passes(rate)) {
                    pass = rate;
                    rate *= kLadderRatio;
                } else {
                    fail = rate;
                    rate /= kLadderRatio;
                }
            }
            for (int b = 0; pass > 0.0 && fail > 0.0 && b < kBisections;
                 ++b) {
                const double mid = 0.5 * (pass + fail);
                if (passes(mid))
                    pass = mid;
                else
                    fail = mid;
            }
        }

        // ---- correctness: served == serial, nothing hung --------
        server.stop();
        std::size_t compared = 0, wrong = 0;
        for (const Step &step : load.steps)
            for (const Request &r : step.requests) {
                if (!r.sample || !r.done || r.hung)
                    continue;
                ++compared;
                wrong += !sameExecution(r.sample->served,
                                        engine->execute(r.sample->query));
            }
        checks.push_back({"batch_equals_serial", wrong == 0 && compared > 0,
                          std::to_string(wrong) + " of " +
                              std::to_string(compared) + " differ"});

        JsonWriter json;
        json.beginObject()
            .value("workload", options.workload)
            .value("seed", static_cast<double>(options.seed))
            .value("trace", options.trace);
        writeStamp(json);
        json.numbers("setup_s", setup_s)
            .numbers("ingest_s", ingest_s)
            .value("ingest_windows",
                   static_cast<double>(kNodes * kWindowsPerNode))
            .value("latency_limit_ms", kLatencyLimitMs)
            .value("compared", static_cast<double>(compared))
            .value("wrong", static_cast<double>(wrong))
            .value("plan_hits",
                   static_cast<double>(cache_after.hits - cache_before.hits))
            .value("plan_misses", static_cast<double>(cache_after.misses -
                                                      cache_before.misses));
        json.beginArray("steps");
        for (const Step &step : load.steps)
            writeStep(json, step);
        json.endArray();

        // Per-request layer counts of the fixed-rate steps.
        json.beginObject("layer_counts");
        double n = 0, scanned = 0, bucket = 0, dtw = 0, matched = 0;
        double shard_max = 0, rejected = 0;
        for (const Step &step : load.steps) {
            if (step.name != "light" && step.name != "heavy")
                continue;
            for (const Request &r : step.requests) {
                rejected += r.status != serve::SubmitStatus::Accepted;
                if (!r.done)
                    continue;
                ++n;
                scanned += r.scanned, bucket += r.bucketHits;
                dtw += r.dtw, matched += r.matched;
                shard_max = std::max(shard_max, r.shardMaxMs);
            }
        }
        json.value("requests", n)
            .value("scanned", scanned)
            .value("bucket_hits", bucket)
            .value("dtw_comparisons", dtw)
            .value("matched", matched)
            .value("shard_ms_max", shard_max)
            .value("rejected", rejected)
            .endObject();
        json.value("peak_rss_kb", static_cast<double>(peakRssKb()));
        writeChecks(json, checks);
        writeSpans(json, spans);
        json.endObject();
        if (!writeFile(options.out + "/raw.json", json.str()))
            return 1;
    }
    for (const Check &check : checks)
        if (!check.ok)
            std::fprintf(stderr, "CHECK FAILED: %s %s\n",
                         check.name.c_str(), check.detail.c_str());
    return 0;
}

} // namespace scalobench
