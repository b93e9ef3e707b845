/**
 * @file
 * The production query-serving runtime (ROADMAP item 2, Thalamus
 * design requirement #7): a long-lived, multi-tenant QueryServer
 * layered on the sharded app::QueryEngine.
 *
 * The serving contract:
 *
 *  - **Asynchronous submit/poll/cancel.** submit() returns a ticket
 *    immediately; dispatcher threads execute queued tickets in
 *    cross-query batches; poll() is non-blocking and hands the
 *    result out exactly once; wait() blocks with a timeout; cancel()
 *    takes effect immediately for queued tickets and discards the
 *    result of running ones.
 *  - **Admission control, never hang.** The admission queue is
 *    bounded and every tenant has an in-flight quota; a submission
 *    that cannot be admitted is rejected *now* with a typed status
 *    (Overloaded / QuotaExceeded / Invalid / ShuttingDown) — no call
 *    on this interface blocks on load.
 *  - **Plan caching.** Descriptors are normalized and compiled once
 *    (Query::cacheKey() -> CompiledQuery) through a shared LRU
 *    cache; concurrent identical submissions share one plan, execute
 *    once per batch, and fan the result out.
 *  - **Cross-query batching.** Dispatchers drain up to maxBatch
 *    tickets at a time into QueryEngine::executeBatch(), which
 *    coalesces candidate verification across the batch into the
 *    batched distance kernels. Results are bit-identical to serial
 *    execution.
 *  - **Degradation, not errors.** Node failures (driven by a chaos
 *    plan or the runtime's failure detector through setNodeDown())
 *    turn results partial — Coverage reports answered/total shards —
 *    and the server keeps serving on the survivors.
 *  - **First-class latency accounting.** Every completion lands in
 *    serve::Metrics aggregates: per tenant, per query class, per
 *    node, and totals, each with p50/p95/p99.
 *
 * The engine's stores must be quiescent while serving: ingest before
 * start, or stop the server around ingest bursts. Where contracts are
 * compiled in, QueryEngine::ingest() and ingestBatch() enforce this
 * for the executions themselves: ingest while an executeBatch() is in
 * flight is a precondition violation. Everything else —
 * submissions, polls, cancels, node up/down flips — is safe from any
 * thread at any time.
 */

#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "scalo/app/query_engine.hpp"
#include "scalo/serve/metrics.hpp"
#include "scalo/serve/plan_cache.hpp"
#include "scalo/util/ranked_mutex.hpp"

namespace scalo::serve {

/** Typed admission decision; everything but Accepted is immediate. */
enum class SubmitStatus
{
    Accepted,
    /** Admission queue full — back off and retry. */
    Overloaded,
    /** Tenant at its in-flight quota. */
    QuotaExceeded,
    /** Malformed descriptor (range, probe size, measure). */
    Invalid,
    /** Server stopping; no new work. */
    ShuttingDown,
};

const char *submitStatusName(SubmitStatus status);

/** Lifecycle of an accepted ticket. */
enum class TicketState
{
    Queued,
    Running,
    Done,
    Cancelled,
    /** Ticket id never existed, or its result was already polled. */
    Unknown,
};

/** Server-wide unique id of one accepted submission. */
using TicketId = std::uint64_t;
inline constexpr TicketId kInvalidTicket = 0;

/** What submit() returns; id is valid only when accepted. */
struct SubmitResult
{
    SubmitStatus status = SubmitStatus::Invalid;
    TicketId id = kInvalidTicket;

    bool accepted() const { return status == SubmitStatus::Accepted; }
};

/** One poll()/wait() answer. */
struct QueryResponse
{
    TicketState state = TicketState::Unknown;
    /** The execution; meaningful only when state == Done. */
    app::QueryExecution execution;
    /** Host wall-clock from submit to completion (ms). */
    double serveMs = 0.0;
    /** Whether the plan came from the cache. */
    bool planCacheHit = false;
    QueryClass queryClass = QueryClass::Q3Range;
    std::string tenant;
};

/** Serving-runtime knobs. */
struct ServeConfig
{
    /** Dispatcher threads draining the queue (0 = manual runOnce). */
    std::size_t dispatchers = 2;
    /** Bounded admission queue; past it submissions are Overloaded. */
    std::size_t queueCapacity = 1024;
    /** Per-tenant in-flight (queued + running) quota. */
    std::size_t tenantQuota = 256;
    /** Max tickets coalesced into one executeBatch() call. */
    std::size_t maxBatch = 16;
    /** Compiled-plan LRU capacity. */
    std::size_t planCacheCapacity = 128;
    /** Construct paused: queue admits, dispatchers idle until
     *  resume(). Deterministic queue build-up for tests and
     *  load-generator prefill. */
    bool startPaused = false;
};

/** Long-lived multi-tenant serving runtime over one QueryEngine. */
class QueryServer
{
  public:
    /**
     * @param engine the engine to serve; must outlive the server.
     *               Stores must not be mutated while serving.
     */
    explicit QueryServer(app::QueryEngine &engine,
                         ServeConfig config = {});

    /** Stops and joins dispatchers; queued tickets are cancelled. */
    ~QueryServer();

    QueryServer(const QueryServer &) = delete;
    QueryServer &operator=(const QueryServer &) = delete;

    /**
     * Admit one query for @p tenant. Never blocks: the answer is an
     * accepted ticket or a typed rejection, decided now.
     */
    SubmitResult submit(const std::string &tenant,
                        const app::Query &query);

    /**
     * Non-blocking status check. A terminal response (Done /
     * Cancelled) hands the result out exactly once and forgets the
     * ticket; later polls of the same id return Unknown.
     */
    QueryResponse poll(TicketId id);

    /**
     * Block until @p id is terminal or @p timeout_ms elapses.
     * @return the terminal response, or nullopt on timeout (the
     *         ticket stays live — poll or wait again).
     */
    std::optional<QueryResponse> wait(TicketId id,
                                      double timeout_ms);

    /**
     * Cancel a ticket. Queued: it will never execute. Running: the
     * result is discarded on completion. @return true if the ticket
     * was still live (its terminal state becomes Cancelled — poll to
     * consume it).
     */
    bool cancel(TicketId id);

    /**
     * Stop serving: reject new submissions with ShuttingDown, cancel
     * everything still queued, finish what is running, join the
     * dispatchers. Idempotent; also run by the destructor.
     */
    void stop();

    /** Pause/resume the dispatchers (admission keeps running). */
    void pause();
    void resume();

    /**
     * Drain-and-execute up to maxBatch queued tickets on the calling
     * thread. The manual-stepping mode for deterministic tests (use
     * dispatchers = 0 or pause()). @return tickets completed.
     */
    std::size_t runOnce();

    /**
     * Block until nothing is queued or running, or @p timeout_ms
     * elapses. @return true when fully drained.
     */
    bool drain(double timeout_ms);

    /** Accepted tickets not yet terminal (queued + running). */
    std::size_t inFlight() const;

    /** Highest inFlight() ever observed. */
    std::size_t peakInFlight() const;

    // ---- the redesigned stats surface -------------------------
    Metrics totals() const;
    Metrics tenantMetrics(const std::string &tenant) const;
    Metrics classMetrics(QueryClass cls) const;
    /** Per-node re-export of shard stats as Metrics. */
    Metrics nodeMetrics(NodeId node) const;
    /** Tenants seen so far (submitters and rejectees alike). */
    std::vector<std::string> tenants() const;

    PlanCache::Stats planCacheStats() const;

    /** Mirror of the failure detector: flip a node for serving. */
    void setNodeDown(NodeId node, bool down = true);

    /**
     * Mirror of the backbone partition detector: mark a whole
     * cluster unreachable (or healed). Queries keep serving with
     * cluster-granular partial Coverage; a heal restores the full
     * fan-out on the next batch. Requires the engine to have a
     * cluster plan (QueryEngine::setClusterPlan()).
     */
    void setClusterDown(std::size_t cluster, bool down = true);

    const app::QueryEngine &engine() const { return queryEngine; }
    const ServeConfig &config() const { return cfg; }

  private:
    struct Ticket
    {
        TicketId id = kInvalidTicket;
        std::string tenant;
        QueryClass cls = QueryClass::Q3Range;
        PlanCache::Plan plan;
        bool planHit = false;
        bool cancelRequested = false;
        TicketState state = TicketState::Queued;
        std::chrono::steady_clock::time_point submitted;
        QueryResponse response;
    };
    using TicketPtr = std::shared_ptr<Ticket>;

    void dispatcherMain();
    /** Pop up to maxBatch runnable tickets; requires the lock. */
    std::vector<TicketPtr> claimBatchLocked() SCALO_REQUIRES(mtx);
    /** Execute a claimed batch (lock NOT held). */
    std::size_t executeBatch(std::vector<TicketPtr> &batch)
        SCALO_EXCLUDES(mtx);
    void finishTicketLocked(const TicketPtr &ticket,
                            TicketState terminal)
        SCALO_REQUIRES(mtx);

    app::QueryEngine &queryEngine;
    ServeConfig cfg;
    PlanCache planCache;

    mutable util::RankedMutex<util::lockrank::kServeQueryServer> mtx;
    util::ConditionVariable workCv;
    util::ConditionVariable doneCv;
    std::deque<TicketPtr> queue SCALO_GUARDED_BY(mtx);
    std::unordered_map<TicketId, TicketPtr>
        tickets SCALO_GUARDED_BY(mtx);
    std::unordered_map<std::string, std::size_t>
        tenantInFlight SCALO_GUARDED_BY(mtx);
    TicketId nextTicket SCALO_GUARDED_BY(mtx) = 1;
    /** Accepted tickets not yet terminal (queued + running). */
    std::size_t live SCALO_GUARDED_BY(mtx) = 0;
    std::size_t running SCALO_GUARDED_BY(mtx) = 0;
    std::size_t peak SCALO_GUARDED_BY(mtx) = 0;
    bool paused SCALO_GUARDED_BY(mtx) = false;
    bool stopping SCALO_GUARDED_BY(mtx) = false;

    Metrics totalMetrics SCALO_GUARDED_BY(mtx);
    std::unordered_map<std::string, Metrics>
        tenantAggregates SCALO_GUARDED_BY(mtx);
    std::array<Metrics, kQueryClasses>
        classAggregates SCALO_GUARDED_BY(mtx);
    std::vector<Metrics> nodeAggregates SCALO_GUARDED_BY(mtx);

    std::vector<std::thread> dispatchers;
};

} // namespace scalo::serve
