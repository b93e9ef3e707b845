#include "scalo/sim/runtime/node_model.hpp"

#include <algorithm>
#include <cmath>

#include "scalo/util/contracts.hpp"
#include "scalo/util/logging.hpp"

namespace scalo::sim {

namespace {

std::uint64_t
toTicks(units::Micros t)
{
    SCALO_EXPECTS(t.count() >= 0.0);
    return static_cast<std::uint64_t>(std::llround(t.count()));
}

} // namespace

NodeModel::NodeModel(Simulator &simulator, std::uint32_t node,
                     Trace *trace)
    : simulator(&simulator), trace(trace), nodeId(node)
{
}

std::size_t
NodeModel::addPipeline(const hw::Pipeline &pipeline,
                       units::Millis window)
{
    SCALO_ASSERT(window.count() > 0.0, "window must be positive");
    SCALO_ASSERT(!pipeline.stages().empty(), "empty pipeline");
    FlowState flow;
    flow.pipeline = pipeline;
    flow.windowUs = toTicks(units::Micros(window));
    SCALO_ASSERT(flow.windowUs > 0, "window below the µs grid");
    flow.stages.resize(pipeline.stages().size());
    for (std::size_t s = 0; s < flow.stages.size(); ++s) {
        // Data-dependent PEs (no Table 1 latency) serve in zero time,
        // as in the legacy pipeline simulation.
        const auto &spec = hw::peSpec(pipeline.stages()[s].kind);
        if (spec.latency)
            flow.stages[s].serviceUs =
                toTicks(units::Micros(*spec.latency));
    }
    flows.push_back(std::move(flow));
    return flows.size() - 1;
}

void
NodeModel::onWindowDone(std::size_t flow, Completion hook)
{
    SCALO_EXPECTS(flow < flows.size());
    flows[flow].done = std::move(hook);
}

void
NodeModel::setDropBacklog(std::size_t flow, units::Millis backlog)
{
    SCALO_EXPECTS(flow < flows.size());
    SCALO_EXPECTS(backlog.count() >= 0.0);
    flows[flow].dropBacklogUs = toTicks(units::Micros(backlog));
}

void
NodeModel::submitWindow(std::size_t flow, std::uint64_t window_id,
                        units::Micros at)
{
    SCALO_EXPECTS(flow < flows.size());
    const std::uint64_t arrival = toTicks(at);
    ++flows[flow].progress.submitted;
    // Arrivals are unowned: a window reaching a crashed node is a
    // real event (the data was produced and lost), recorded as a
    // drop rather than silently cancelled.
    simulator->at(at, [this, flow, window_id, arrival] {
        if (isHalted) {
            FlowState &state = flows[flow];
            ++state.progress.dropped;
            if (trace)
                trace->record(
                    simulator->now(), TraceEventKind::WindowDrop,
                    nodeId, stageLane(flow, state.stages.size()),
                    state.pipeline.name(), window_id);
            return;
        }
        enterStage(flow, 0, window_id, arrival);
    });
}

void
NodeModel::halt()
{
    if (isHalted)
        return;
    isHalted = true;
    simulator->cancelOwned(eventOwner());
    const units::Micros now = simulator->now();
    for (std::size_t f = 0; f < flows.size(); ++f) {
        FlowState &state = flows[f];
        for (std::uint64_t window_id : state.inFlight) {
            ++state.progress.dropped;
            if (trace)
                trace->record(
                    now, TraceEventKind::WindowDrop, nodeId,
                    stageLane(f, state.stages.size()),
                    state.pipeline.name(), window_id);
        }
        state.inFlight.clear();
        // Cold servers on reboot: whatever was queued died with the
        // node.
        for (StageState &stage : state.stages)
            stage.freeAtUs = 0;
    }
}

void
NodeModel::resume()
{
    isHalted = false;
}

void
NodeModel::setThrottle(double factor)
{
    SCALO_EXPECTS(factor >= 1.0);
    throttleFactor = factor;
}

std::uint64_t
NodeModel::serviceTicks(const StageState &stage) const
{
    if (throttleFactor == 1.0)
        return stage.serviceUs;
    return static_cast<std::uint64_t>(std::llround(
        static_cast<double>(stage.serviceUs) * throttleFactor));
}

void
NodeModel::streamWindows(std::size_t flow, std::size_t count,
                         units::Micros start)
{
    SCALO_EXPECTS(flow < flows.size());
    const std::uint64_t first = toTicks(start);
    const std::uint64_t period = flows[flow].windowUs;
    for (std::size_t w = 0; w < count; ++w) {
        const std::uint64_t arrival =
            first + static_cast<std::uint64_t>(w) * period;
        submitWindow(flow, static_cast<std::uint64_t>(w),
                     units::Micros{static_cast<double>(arrival)});
    }
}

void
NodeModel::enterStage(std::size_t flow, std::size_t stage,
                      std::uint64_t window_id,
                      std::uint64_t arrival_us)
{
    FlowState &state = flows[flow];
    StageState &server = state.stages[stage];
    const std::uint64_t now = simulator->ticks();
    const std::uint64_t start = std::max(now, server.freeAtUs);

    if (stage == 0 && state.dropBacklogUs > 0 &&
        start - arrival_us > state.dropBacklogUs) {
        ++state.progress.dropped;
        if (trace)
            trace->record(
                units::Micros{static_cast<double>(now)},
                TraceEventKind::WindowDrop, nodeId,
                stageLane(flow, state.stages.size()),
                state.pipeline.name(), window_id,
                static_cast<double>(start - arrival_us));
        return;
    }

    if (stage == 0)
        state.inFlight.push_back(window_id);

    const std::uint64_t service = serviceTicks(server);
    const std::uint64_t finish = start + service;
    server.freeAtUs = finish;
    server.busyUs += static_cast<double>(service);

    if (trace) {
        const std::string_view name =
            hw::peName(state.pipeline.stages()[stage].kind);
        trace->record(units::Micros{static_cast<double>(start)},
                      TraceEventKind::StageStart, nodeId,
                      stageLane(flow, stage), name, window_id);
        trace->record(units::Micros{static_cast<double>(finish)},
                      TraceEventKind::StageFinish, nodeId,
                      stageLane(flow, stage), name, window_id);
    }

    // Stage continuations are owned: halt() cancels them so a dead
    // node's pipeline stops mid-flight instead of executing against
    // the halted model.
    const bool last = stage + 1 == state.stages.size();
    simulator->atOwned(
        units::Micros{static_cast<double>(finish)}, eventOwner(),
        [this, flow, stage, window_id, arrival_us, last] {
            if (!last) {
                enterStage(flow, stage + 1, window_id, arrival_us);
                return;
            }
            FlowState &done_state = flows[flow];
            const std::uint64_t done = simulator->ticks();
            const std::uint64_t latency = done - arrival_us;
            ++done_state.progress.completed;
            std::erase(done_state.inFlight, window_id);
            done_state.progress.lastLatencyUs = latency;
            done_state.progress.maxLatencyUs =
                std::max(done_state.progress.maxLatencyUs, latency);
            done_state.progress.latencySumUs += latency;
            if (trace)
                trace->record(
                    units::Micros{static_cast<double>(done)},
                    TraceEventKind::WindowDone, nodeId,
                    stageLane(flow, done_state.stages.size()),
                    done_state.pipeline.name(),
                    window_id, static_cast<double>(latency));
            if (done_state.done)
                done_state.done(flow, window_id);
        });
}

const FlowProgress &
NodeModel::progress(std::size_t flow) const
{
    SCALO_EXPECTS(flow < flows.size());
    return flows[flow].progress;
}

const hw::Pipeline &
NodeModel::pipeline(std::size_t flow) const
{
    SCALO_EXPECTS(flow < flows.size());
    return flows[flow].pipeline;
}

std::vector<double>
NodeModel::stageBusyUs(std::size_t flow) const
{
    SCALO_EXPECTS(flow < flows.size());
    std::vector<double> busy;
    busy.reserve(flows[flow].stages.size());
    for (const StageState &stage : flows[flow].stages)
        busy.push_back(stage.busyUs);
    return busy;
}

units::Millijoules
NodeModel::stageEnergy(std::size_t flow) const
{
    SCALO_EXPECTS(flow < flows.size());
    const FlowState &state = flows[flow];
    units::Millijoules energy{0.0};
    for (std::size_t s = 0; s < state.stages.size(); ++s) {
        const auto &spec =
            hw::peSpec(state.pipeline.stages()[s].kind);
        const units::Microwatts power =
            spec.power(state.pipeline.stages()[s].electrodes);
        energy += power * units::Micros{state.stages[s].busyUs};
    }
    SCALO_ENSURES(energy.count() >= 0.0);
    return energy;
}

bool
NodeModel::analyticallySustainable(std::size_t flow) const
{
    SCALO_EXPECTS(flow < flows.size());
    const FlowState &state = flows[flow];
    return std::all_of(state.stages.begin(), state.stages.end(),
                       [&](const StageState &stage) {
                           return stage.serviceUs <= state.windowUs;
                       });
}

} // namespace scalo::sim
