/**
 * @file
 * Deadlock prevention by lock ranking, layered on the annotated
 * Mutex (thread_annotations.hpp). Clang's thread-safety analysis
 * proves guarded state is only touched under its lock, but it cannot
 * see *cycles* between locks acquired in different functions; the
 * rank discipline closes that gap:
 *
 *  - every Mutex declares a rank from the lockrank:: table below
 *    (construction without one does not compile, so a new mutex
 *    cannot dodge the ordering);
 *  - a thread may only acquire locks in strictly ascending rank
 *    order. In contract-checked (Debug / sanitizer) builds each
 *    acquisition is validated against a thread-local held-rank stack
 *    and a violation reports through the contracts handler (abort by
 *    default, throw under the test handler);
 *  - acquiring two locks in one scope goes through OrderedLockPair,
 *    whose rank order is checked at compile time on every compiler.
 *
 * The rank table is the codebase's documented lock ordering — keep it
 * in sync with DESIGN.md ("Concurrency model"). Ranks ascend from
 * coarse runtime locks to leaf utility locks: a coarse lock may wrap
 * operations that take leaf locks, never the reverse.
 */

#pragma once

#include <cstddef>

#include "scalo/util/thread_annotations.hpp"

namespace scalo::util {

namespace lockrank {

/** serve::QueryServer admission/ticket state (coarsest). */
inline constexpr int kServeQueryServer = 10;
/** serve::PlanCache LRU map. */
inline constexpr int kServePlanCache = 20;
/** serve::ChaosDriver replay timeline. */
inline constexpr int kServeChaosDriver = 30;
/** util::ThreadPool pending-loop queue. */
inline constexpr int kThreadPoolQueue = 40;
/** util::ThreadPool per-loop first-exception slot. */
inline constexpr int kThreadPoolLoopError = 50;
/** util::ThreadPool per-loop completion signal (leaf). */
inline constexpr int kThreadPoolLoopDone = 52;
/** signal::FftPlan process-wide plan cache (leaf). */
inline constexpr int kFftPlanCache = 60;
/** ilp::SolveMemo entries of one sched::Scheduler (leaf; never held
 *  during a solve). */
inline constexpr int kIlpSolveMemo = 70;

} // namespace lockrank

/** Locks (of any rank) currently held by the calling thread. */
std::size_t heldLockCount() noexcept;

/** Highest-ranked lock held by the calling thread; 0 when none. */
int topHeldRank() noexcept;

/**
 * Turn runtime rank checking on or off (process-wide). Defaults to
 * on in contract-checked builds (Debug / sanitizer), off otherwise;
 * tests force it on to exercise the discipline in any build type.
 * Only flip while the calling thread holds no locks. @return the
 * previous setting
 */
bool setLockRankChecking(bool enabled) noexcept;

/** Whether runtime rank checking is currently active. */
bool lockRankCheckingEnabled() noexcept;

/**
 * A Mutex whose rank is part of the type, making the ordering
 * visible to the compiler: OrderedLockPair static_asserts on kRank,
 * so a wrong-order paired acquisition fails to build (one of the
 * negative-compile CI cases), on GCC and Clang alike.
 */
template <int Rank>
class SCALO_CAPABILITY("mutex") RankedMutex : public Mutex
{
    static_assert(Rank > 0, "lock ranks are positive; pick one from "
                            "util::lockrank (and document it)");

  public:
    static constexpr int kRank = Rank;

    RankedMutex() noexcept : Mutex(Rank) {}
};

/**
 * Scoped acquisition of two ranked locks at once, in rank order.
 * The order is a compile-time contract: swapping the arguments (or
 * declaring ranks that invert an existing nesting) is a build error.
 */
template <class LowMutex, class HighMutex>
class SCALO_SCOPED_CAPABILITY OrderedLockPair
{
    static_assert(LowMutex::kRank < HighMutex::kRank,
                  "lock acquisition must follow ascending rank; "
                  "swap the arguments (or fix the rank table)");

  public:
    OrderedLockPair(LowMutex &low_mutex, HighMutex &high_mutex)
        SCALO_ACQUIRE(low_mutex, high_mutex)
        : low(low_mutex), high(high_mutex)
    {
        low.lock();
        high.lock();
    }

    ~OrderedLockPair() SCALO_RELEASE()
    {
        high.unlock();
        low.unlock();
    }

    OrderedLockPair(const OrderedLockPair &) = delete;
    OrderedLockPair &operator=(const OrderedLockPair &) = delete;

  private:
    LowMutex &low;
    HighMutex &high;
};

} // namespace scalo::util
