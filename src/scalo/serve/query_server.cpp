#include "scalo/serve/query_server.hpp"

#include <algorithm>

#include "scalo/util/logging.hpp"

namespace scalo::serve {

namespace {

double
msSince(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

const char *
submitStatusName(SubmitStatus status)
{
    switch (status) {
      case SubmitStatus::Accepted:
        return "accepted";
      case SubmitStatus::Overloaded:
        return "overloaded";
      case SubmitStatus::QuotaExceeded:
        return "quota-exceeded";
      case SubmitStatus::Invalid:
        return "invalid";
      case SubmitStatus::ShuttingDown:
        return "shutting-down";
    }
    SCALO_PANIC("unknown submit status");
}

QueryServer::QueryServer(app::QueryEngine &engine,
                         ServeConfig config)
    : queryEngine(engine),
      cfg(config),
      planCache(std::max<std::size_t>(1, config.planCacheCapacity)),
      paused(config.startPaused)
{
    SCALO_ASSERT(cfg.queueCapacity >= 1,
                 "admission queue needs capacity >= 1");
    SCALO_ASSERT(cfg.tenantQuota >= 1, "tenant quota must be >= 1");
    SCALO_ASSERT(cfg.maxBatch >= 1, "batch size must be >= 1");
    nodeAggregates.resize(engine.nodeCount());
    dispatchers.reserve(cfg.dispatchers);
    for (std::size_t i = 0; i < cfg.dispatchers; ++i)
        dispatchers.emplace_back([this] { dispatcherMain(); });
}

QueryServer::~QueryServer()
{
    stop();
}

SubmitResult
QueryServer::submit(const std::string &tenant,
                    const app::Query &query)
{
    // Validate before admission so malformed descriptors are a typed
    // rejection, not a contract violation deep in the engine.
    const bool valid = queryEngine.accepts(query);

    TicketPtr ticket;
    {
        util::MutexLock lock(mtx);
        if (stopping)
            return {SubmitStatus::ShuttingDown, kInvalidTicket};
        if (!valid) {
            ++totalMetrics.rejectedInvalid;
            ++tenantAggregates[tenant].rejectedInvalid;
            return {SubmitStatus::Invalid, kInvalidTicket};
        }
        // live - running = tickets actually waiting in the queue.
        if (live - running >= cfg.queueCapacity) {
            ++totalMetrics.rejectedOverload;
            ++tenantAggregates[tenant].rejectedOverload;
            return {SubmitStatus::Overloaded, kInvalidTicket};
        }
        if (tenantInFlight[tenant] >= cfg.tenantQuota) {
            ++totalMetrics.rejectedQuota;
            ++tenantAggregates[tenant].rejectedQuota;
            return {SubmitStatus::QuotaExceeded, kInvalidTicket};
        }

        // Admitted: reserve the slot now, compile outside the lock.
        ticket = std::make_shared<Ticket>();
        ticket->id = nextTicket++;
        ticket->tenant = tenant;
        ticket->submitted = std::chrono::steady_clock::now();
        tickets.emplace(ticket->id, ticket);
        ++tenantInFlight[tenant];
        ++live;
        peak = std::max(peak, live);
    }

    // Compilation (normalize + LSH probe hash) runs unlocked through
    // the shared plan cache; identical concurrent submissions come
    // back holding the same CompiledQuery object.
    ticket->plan =
        planCache.getOrCompile(queryEngine, query, &ticket->planHit);
    ticket->cls = classify(ticket->plan->query);

    {
        util::MutexLock lock(mtx);
        ++totalMetrics.submitted;
        ++tenantAggregates[tenant].submitted;
        ++classAggregates[static_cast<std::size_t>(ticket->cls)]
              .submitted;
        if (ticket->state == TicketState::Queued) {
            // A stop() that raced the compile already swept the
            // queue; the ticket must go terminal here, not enqueue
            // into a server nobody drains.
            if (stopping)
                finishTicketLocked(ticket, TicketState::Cancelled);
            else
                queue.push_back(ticket);
        }
        // (A cancel that raced the compile already finished it; the
        // tombstone never reaches the queue.)
    }
    workCv.notifyOne();
    return {SubmitStatus::Accepted, ticket->id};
}

std::vector<QueryServer::TicketPtr>
QueryServer::claimBatchLocked()
{
    std::vector<TicketPtr> batch;
    while (!queue.empty() && batch.size() < cfg.maxBatch) {
        TicketPtr ticket = std::move(queue.front());
        queue.pop_front();
        // Skip tombstones of tickets cancelled while queued.
        if (ticket->state != TicketState::Queued)
            continue;
        ticket->state = TicketState::Running;
        ++running;
        batch.push_back(std::move(ticket));
    }
    return batch;
}

void
QueryServer::finishTicketLocked(const TicketPtr &ticket,
                                TicketState terminal)
{
    ticket->state = terminal;
    ticket->response.state = terminal;
    ticket->response.tenant = ticket->tenant;
    ticket->response.queryClass = ticket->cls;
    ticket->response.planCacheHit = ticket->planHit;
    const auto it = tenantInFlight.find(ticket->tenant);
    if (it != tenantInFlight.end() && it->second > 0)
        --it->second;
    SCALO_ASSERT(live > 0, "ticket finished twice");
    --live;
    if (terminal == TicketState::Cancelled) {
        ++totalMetrics.cancelled;
        ++tenantAggregates[ticket->tenant].cancelled;
    }
    doneCv.notifyAll();
}

std::size_t
QueryServer::executeBatch(std::vector<TicketPtr> &batch)
{
    if (batch.empty())
        return 0;

    std::vector<const app::QueryEngine::CompiledQuery *> plans;
    plans.reserve(batch.size());
    for (const TicketPtr &ticket : batch)
        plans.push_back(ticket->plan.get());

    // The cross-query batch: one fan-out over the node shards, and
    // shared plans execute once.
    std::vector<app::QueryExecution> executions =
        queryEngine.executeBatch(plans);

    std::size_t completed = 0;
    {
        util::MutexLock lock(mtx);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const TicketPtr &ticket = batch[i];
            SCALO_ASSERT(running > 0, "running underflow");
            --running;
            if (ticket->cancelRequested) {
                finishTicketLocked(ticket, TicketState::Cancelled);
                continue;
            }
            app::QueryExecution &execution = executions[i];
            const double serve_ms = msSince(ticket->submitted);

            totalMetrics.observeExecution(execution, serve_ms);
            tenantAggregates[ticket->tenant].observeExecution(
                execution, serve_ms);
            classAggregates[static_cast<std::size_t>(ticket->cls)]
                .observeExecution(execution, serve_ms);
            for (const app::QueryStats &stats : execution.perNode)
                nodeAggregates[stats.node].observeShard(stats);

            ticket->response.execution = std::move(execution);
            ticket->response.serveMs = serve_ms;
            finishTicketLocked(ticket, TicketState::Done);
            ++completed;
        }
    }
    return completed;
}

void
QueryServer::dispatcherMain()
{
    util::MutexLock lock(mtx);
    for (;;) {
        while (!stopping && (paused || queue.empty()))
            workCv.wait(lock);
        if (stopping)
            return;
        std::vector<TicketPtr> batch = claimBatchLocked();
        if (batch.empty())
            continue;
        lock.unlock();
        executeBatch(batch);
        lock.lock();
    }
}

std::size_t
QueryServer::runOnce()
{
    std::vector<TicketPtr> batch;
    {
        util::MutexLock lock(mtx);
        batch = claimBatchLocked();
    }
    return executeBatch(batch);
}

std::optional<QueryResponse>
QueryServer::takeTerminalLocked(TicketId id)
{
    const auto it = tickets.find(id);
    if (it == tickets.end())
        return QueryResponse{};
    const TicketPtr &ticket = it->second;
    if (ticket->state != TicketState::Done &&
        ticket->state != TicketState::Cancelled)
        return std::nullopt;
    QueryResponse response = std::move(ticket->response);
    tickets.erase(it);
    return response;
}

QueryResponse
QueryServer::poll(TicketId id)
{
    util::MutexLock lock(mtx);
    if (std::optional<QueryResponse> terminal = takeTerminalLocked(id))
        return std::move(*terminal);
    const Ticket &ticket = *tickets.at(id);
    QueryResponse pending;
    pending.state = ticket.state;
    pending.tenant = ticket.tenant;
    pending.queryClass = ticket.cls;
    return pending;
}

std::optional<QueryResponse>
QueryServer::wait(TicketId id, double timeout_ms)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms));
    util::MutexLock lock(mtx);
    for (;;) {
        if (std::optional<QueryResponse> terminal =
                takeTerminalLocked(id))
            return terminal;
        if (doneCv.waitUntil(lock, deadline) ==
            std::cv_status::timeout)
            // One last check: the finish may have raced the clock.
            return takeTerminalLocked(id);
    }
}

bool
QueryServer::cancel(TicketId id)
{
    util::MutexLock lock(mtx);
    const auto it = tickets.find(id);
    if (it == tickets.end())
        return false;
    const TicketPtr &ticket = it->second;
    switch (ticket->state) {
      case TicketState::Queued:
        // Finished here and now; the queue keeps a tombstone the
        // dispatchers skip.
        finishTicketLocked(ticket, TicketState::Cancelled);
        return true;
      case TicketState::Running:
        ticket->cancelRequested = true;
        return true;
      case TicketState::Done:
      case TicketState::Cancelled:
      case TicketState::Unknown:
        return false;
    }
    return false;
}

void
QueryServer::pause()
{
    {
        util::MutexLock lock(mtx);
        paused = true;
    }
    workCv.notifyAll();
}

void
QueryServer::resume()
{
    {
        util::MutexLock lock(mtx);
        paused = false;
    }
    workCv.notifyAll();
}

bool
QueryServer::drain(double timeout_ms)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(timeout_ms));
    util::MutexLock lock(mtx);
    while (live != 0) {
        if (doneCv.waitUntil(lock, deadline) ==
            std::cv_status::timeout)
            return live == 0;
    }
    return true;
}

void
QueryServer::stop()
{
    {
        util::MutexLock lock(mtx);
        if (!stopping) {
            stopping = true;
            // Everything still queued is cancelled; running batches
            // finish on their dispatcher.
            for (const TicketPtr &ticket : queue)
                if (ticket->state == TicketState::Queued)
                    finishTicketLocked(ticket,
                                       TicketState::Cancelled);
            queue.clear();
        }
    }
    workCv.notifyAll();
    for (std::thread &dispatcher : dispatchers)
        if (dispatcher.joinable())
            dispatcher.join();
    dispatchers.clear();
}

std::size_t
QueryServer::inFlight() const
{
    util::MutexLock lock(mtx);
    return live;
}

std::size_t
QueryServer::peakInFlight() const
{
    util::MutexLock lock(mtx);
    return peak;
}

Metrics
QueryServer::totals() const
{
    util::MutexLock lock(mtx);
    return totalMetrics;
}

Metrics
QueryServer::tenantMetrics(const std::string &tenant) const
{
    util::MutexLock lock(mtx);
    const auto it = tenantAggregates.find(tenant);
    return it != tenantAggregates.end() ? it->second : Metrics{};
}

Metrics
QueryServer::classMetrics(QueryClass cls) const
{
    util::MutexLock lock(mtx);
    return classAggregates[static_cast<std::size_t>(cls)];
}

Metrics
QueryServer::nodeMetrics(NodeId node) const
{
    util::MutexLock lock(mtx);
    SCALO_ASSERT(node < nodeAggregates.size(), "node out of range");
    return nodeAggregates[node];
}

std::vector<std::string>
QueryServer::tenants() const
{
    util::MutexLock lock(mtx);
    std::vector<std::string> names;
    names.reserve(tenantAggregates.size());
    for (const auto &[name, metrics] : tenantAggregates)
        names.push_back(name);
    std::sort(names.begin(), names.end());
    return names;
}

PlanCache::Stats
QueryServer::planCacheStats() const
{
    return planCache.stats();
}

void
QueryServer::setNodeDown(NodeId node, bool down)
{
    queryEngine.setNodeDown(node, down);
}

void
QueryServer::setClusterDown(std::size_t cluster, bool down)
{
    queryEngine.setClusterDown(cluster, down);
}

} // namespace scalo::serve
