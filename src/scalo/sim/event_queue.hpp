/**
 * @file
 * A minimal discrete-event simulation engine: a time-ordered queue of
 * callbacks with deterministic tie-breaking. Drives the timed
 * network/application experiments (Sections 6.6 and 6.7).
 *
 * Timestamps are `units::Micros` at the API; internally events sit on
 * an integer microsecond grid (rounded) so FIFO tie-breaking stays
 * exact and platform-independent.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "scalo/units/units.hpp"

namespace scalo::sim {

/** Discrete-event scheduler over microsecond timestamps. */
class Simulator
{
  public:
    using Action = std::function<void()>;

    /**
     * Actor tag for cancellable events; 0 is "unowned" (never
     * cancelled). A crashed node's pending events must not execute
     * against its dead model, so actors schedule continuations under
     * their owner id and `cancelOwned` retires them wholesale. Owner
     * ids index a table grown to the largest id seen, so keep them
     * dense (nodes use their id + 1).
     */
    using Owner = std::uint32_t;

    /** Current simulation time. */
    units::Micros now() const
    {
        return units::Micros{static_cast<double>(nowTicks)};
    }

    /** Current simulation time on the integer microsecond grid. */
    std::uint64_t ticks() const { return nowTicks; }

    /** Schedule @p action at now + @p delay. */
    void after(units::Micros delay, Action action);

    /** Schedule @p action at absolute time @p at (>= now). */
    void at(units::Micros at, Action action);

    /** Schedule @p action at now + @p delay, owned by @p owner. */
    void afterOwned(units::Micros delay, Owner owner, Action action);

    /** Schedule @p action at @p at (>= now), owned by @p owner. */
    void atOwned(units::Micros at, Owner owner, Action action);

    /**
     * Cancel every pending event of @p owner: the events stay queued
     * (removal from a binary heap is not worth the bookkeeping) but
     * are skipped unexecuted when popped, and stop counting as
     * pending immediately. @return events cancelled
     */
    std::size_t cancelOwned(Owner owner);

    /** Horizon meaning "run until the queue drains". */
    static constexpr units::Micros kForever{1.0e19};

    /**
     * Run until the queue drains or @p until is reached. Time always
     * advances to the horizon (when finite), even if events remain
     * pending beyond it, so a subsequent after() schedules relative to
     * the horizon rather than the last executed event.
     * @return events executed
     */
    std::size_t run(units::Micros until = kForever);

    /** Drop all pending events. */
    void clear();

    /** Pending (non-cancelled) event count. */
    std::size_t
    pending() const
    {
        return queue.size() - cancelledQueued;
    }

  private:
    struct Event
    {
        std::uint64_t time;
        std::uint64_t sequence;
        Action action;
        Owner owner = 0;
        std::uint32_t epoch = 0;
    };
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            if (a.time != b.time)
                return a.time > b.time;
            return a.sequence > b.sequence;
        }
    };
    struct OwnerState
    {
        std::uint32_t epoch = 0;
        std::size_t pendingEvents = 0;
    };

    bool stale(const Event &event) const;
    /** @p owner's state, growing the table on first use. */
    OwnerState &stateOf(Owner owner);

    std::uint64_t nowTicks = 0;
    std::uint64_t nextSequence = 0;
    std::size_t cancelledQueued = 0;
    /**
     * Binary heap under Later (std::push_heap/pop_heap), so the next
     * event can be moved out rather than copied from a const top().
     * (time, sequence) is a strict total order: the pop order is the
     * same as any other heap's.
     */
    std::vector<Event> queue;
    /** Indexed by owner id (owner 0, unowned, is never looked up). */
    std::vector<OwnerState> owners;
};

} // namespace scalo::sim
