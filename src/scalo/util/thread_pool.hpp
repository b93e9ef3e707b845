/**
 * @file
 * A small reusable worker pool for the query runtime, the clustered
 * simulator and the trace export. Work is modeled as index-parallel
 * loops: the caller hands parallelFor a count and a function of the
 * index, and the pool's runners - its workers and the caller itself -
 * claim the indices. A pool of width <= 1 degenerates to an inline
 * sequential loop, which keeps the single-threaded path trivially
 * deterministic and sanitizer-quiet.
 *
 * Loops arrive back to back in the simulator (one per sync quantum),
 * so an idle worker spins for a short, fixed bound before it sleeps
 * on the condition variable, and so does a caller waiting for its
 * loop's stragglers.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "scalo/util/ranked_mutex.hpp"

namespace scalo::util {

/** Fixed-width worker pool with index-parallel loops. */
class ThreadPool
{
  public:
    /**
     * How long a runner spins for work before it blocks. Chosen on a
     * 4-vCPU VM (scalobench fabric_chaos, 10 rounds of 40 s runs,
     * ratios to the serial simulator): 1 ms held the deploy that
     * follows a parallel simulate (`ready_s`, median ratio 1.00) and
     * kept the simulate at 0.47x; 50 us read 1.04x and 0.52x, 20 ms
     * 0.99x and 0.47x.
     */
    static constexpr std::chrono::microseconds kSpin{1000};

    /**
     * @param width runners of a loop, the caller included: width - 1
     *              workers are spawned; 0 or 1 means "run inline on
     *              the caller"
     */
    explicit ThreadPool(std::size_t width);

    /** Joins all workers (a spinning worker leaves at once); pending
     *  loops must have completed. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers spawned (0 when running inline). */
    std::size_t size() const { return workers.size(); }

    /** Runners of a loop: the workers plus the caller. */
    std::size_t width() const { return workers.size() + 1; }

    /**
     * Run fn(0) .. fn(count-1), each exactly once, and block until
     * all have finished. Iterations may run on any worker (or the
     * caller, which also drains the queue); no two iterations of one
     * call run the same index. The first exception thrown by any
     * iteration is rethrown on the caller after the loop drains.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn);

    /** A sensible default width: hardware concurrency, at least 1. */
    static std::size_t defaultThreads();

  private:
    struct Loop;

    void workerMain();
    static void runOne(const std::shared_ptr<Loop> &loop);

    std::vector<std::thread> workers;
    RankedMutex<lockrank::kThreadPoolQueue> mtx;
    ConditionVariable cv;
    std::deque<std::shared_ptr<Loop>> pending SCALO_GUARDED_BY(mtx);
    /** pending.size(), readable without the lock by spinning workers
     *  (written under it). */
    std::atomic<std::size_t> queued{0};
    /** Set (under mtx) once by the destructor; read lock-free by
     *  spinning workers so none waits out its spin. */
    std::atomic<bool> stopping{false};
};

} // namespace scalo::util
