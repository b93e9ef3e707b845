#include "scalo/sim/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "scalo/util/contracts.hpp"
#include "scalo/util/logging.hpp"

namespace scalo::sim {

namespace {

std::uint64_t
toTicks(units::Micros t)
{
    // Saturate huge horizons (e.g. Simulator::kForever) before they
    // overflow llround.
    if (t.count() >= static_cast<double>(~0ULL >> 1))
        return ~0ULL;
    return static_cast<std::uint64_t>(std::llround(t.count()));
}

} // namespace

void
Simulator::after(units::Micros delay, Action action)
{
    afterOwned(delay, 0, std::move(action));
}

void
Simulator::at(units::Micros at, Action action)
{
    atOwned(at, 0, std::move(action));
}

void
Simulator::afterOwned(units::Micros delay, Owner owner, Action action)
{
    SCALO_EXPECTS(delay.count() >= 0.0);
    atOwned(units::Micros{static_cast<double>(nowTicks)} + delay,
            owner, std::move(action));
}

void
Simulator::atOwned(units::Micros at, Owner owner, Action action)
{
    const std::uint64_t ticks = toTicks(at);
    SCALO_ASSERT(ticks >= nowTicks, "scheduling into the past: ",
                 ticks, " < ", nowTicks);
    std::uint32_t epoch = 0;
    if (owner != 0) {
        OwnerState &state = stateOf(owner);
        epoch = state.epoch;
        ++state.pendingEvents;
    }
    queue.push_back({ticks, nextSequence++, std::move(action), owner,
                     epoch});
    std::push_heap(queue.begin(), queue.end(), Later{});
}

Simulator::OwnerState &
Simulator::stateOf(Owner owner)
{
    if (owner >= owners.size())
        owners.resize(static_cast<std::size_t>(owner) + 1);
    return owners[owner];
}

std::size_t
Simulator::cancelOwned(Owner owner)
{
    SCALO_EXPECTS(owner != 0);
    if (owner >= owners.size())
        return 0;
    OwnerState &state = owners[owner];
    const std::size_t cancelled = state.pendingEvents;
    // Bump the epoch: queued events of the old epoch are skipped at
    // pop time (lazy deletion keeps the heap intact).
    ++state.epoch;
    state.pendingEvents = 0;
    cancelledQueued += cancelled;
    return cancelled;
}

bool
Simulator::stale(const Event &event) const
{
    // An owned event's owner has a table entry from atOwned() on.
    return event.owner != 0 &&
           owners[event.owner].epoch != event.epoch;
}

std::size_t
Simulator::run(units::Micros until)
{
    const std::uint64_t until_ticks = toTicks(until);
    std::size_t executed = 0;
    while (!queue.empty() && queue.front().time <= until_ticks) {
        std::pop_heap(queue.begin(), queue.end(), Later{});
        Event event = std::move(queue.back());
        queue.pop_back();
        if (stale(event)) {
            // Cancelled: drop without executing or advancing time.
            SCALO_ASSERT(cancelledQueued > 0,
                         "stale event not accounted as cancelled");
            --cancelledQueued;
            continue;
        }
        if (event.owner != 0) {
            OwnerState &state = owners[event.owner];
            SCALO_ASSERT(state.pendingEvents > 0,
                         "owned event count underflow");
            --state.pendingEvents;
        }
        nowTicks = event.time;
        event.action();
        ++executed;
    }
    // Advance to the horizon even when events remain beyond it, so
    // callers mixing run(until) with after() schedule relative to the
    // horizon rather than the last executed event.
    if (until_ticks != ~0ULL)
        nowTicks = std::max(nowTicks, until_ticks);
    return executed;
}

void
Simulator::clear()
{
    queue.clear();
    owners.clear();
    cancelledQueued = 0;
}

} // namespace scalo::sim
