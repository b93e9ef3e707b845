#include "scalo/util/thread_pool.hpp"

#include <exception>
#include <memory>

namespace scalo::util {

namespace {

/** A polite busy-wait hint to the core (no syscall). */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Poll @p ready for up to ThreadPool::kSpin. @return whether it came
 * true (checked once more at the deadline)
 */
template <typename Ready>
bool
spinUntil(const Ready &ready)
{
    const auto deadline =
        std::chrono::steady_clock::now() + ThreadPool::kSpin;
    for (unsigned i = 1;; ++i) {
        if (ready())
            return true;
        if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline)
            return ready();
        cpuRelax();
    }
}

} // namespace

/**
 * One parallelFor call in flight. Workers (and the caller) claim
 * indices with a fetch-add and the last finisher signals completion.
 */
struct ThreadPool::Loop
{
    std::size_t count = 0;
    const std::function<void(std::size_t)> *fn = nullptr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    RankedMutex<lockrank::kThreadPoolLoopError> errorMtx;
    std::exception_ptr error SCALO_GUARDED_BY(errorMtx);
    RankedMutex<lockrank::kThreadPoolLoopDone> doneMtx;
    ConditionVariable doneCv;
};

ThreadPool::ThreadPool(std::size_t width)
{
    if (width <= 1)
        return;
    workers.reserve(width - 1);
    for (std::size_t i = 0; i + 1 < width; ++i)
        workers.emplace_back([this] { workerMain(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mtx);
        stopping.store(true, std::memory_order_relaxed);
    }
    cv.notifyAll();
    for (std::thread &worker : workers)
        worker.join();
}

std::size_t
ThreadPool::defaultThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
ThreadPool::runOne(const std::shared_ptr<Loop> &loop)
{
    for (;;) {
        const std::size_t i =
            loop->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= loop->count)
            break;
        try {
            (*loop->fn)(i);
        } catch (...) {
            MutexLock lock(loop->errorMtx);
            if (!loop->error)
                loop->error = std::current_exception();
        }
        if (loop->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            loop->count) {
            MutexLock lock(loop->doneMtx);
            loop->doneCv.notifyAll();
        }
    }
}

void
ThreadPool::workerMain()
{
    for (;;) {
        // Spin for the next loop first: the simulator posts one per
        // sync quantum, far sooner than a sleep/wake round trip.
        spinUntil([this] {
            return queued.load(std::memory_order_acquire) > 0 ||
                   stopping.load(std::memory_order_relaxed);
        });
        std::shared_ptr<Loop> loop;
        {
            MutexLock lock(mtx);
            while (!stopping.load(std::memory_order_relaxed) &&
                   pending.empty())
                cv.wait(lock);
            if (pending.empty()) {
                // Only reachable when stopping: drain then exit.
                return;
            }
            loop = pending.front();
            // Leave the loop queued until its indices are exhausted
            // so that every idle worker can join in; the front is
            // dropped once fully claimed.
            if (loop->next.load(std::memory_order_relaxed) >=
                loop->count) {
                pending.pop_front();
                queued.store(pending.size(), std::memory_order_release);
                continue;
            }
        }
        runOne(loop);
        {
            MutexLock lock(mtx);
            if (!pending.empty() && pending.front() == loop &&
                loop->next.load(std::memory_order_relaxed) >=
                    loop->count) {
                pending.pop_front();
                queued.store(pending.size(), std::memory_order_release);
            }
        }
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (workers.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    auto loop = std::make_shared<Loop>();
    loop->count = count;
    loop->fn = &fn;
    {
        MutexLock lock(mtx);
        pending.push_back(loop);
        queued.store(pending.size(), std::memory_order_release);
    }
    cv.notifyAll();

    // The caller helps drain its own loop, then waits for stragglers:
    // a short spin, then the condition variable.
    runOne(loop);
    const auto finished = [&loop] {
        return loop->done.load(std::memory_order_acquire) >= loop->count;
    };
    if (!spinUntil(finished)) {
        MutexLock lock(loop->doneMtx);
        while (!finished())
            loop->doneCv.wait(lock);
    }
    // All iterations are done (acquire above), but take the error
    // lock anyway: the annotated contract on `error` is uniform, and
    // the uncontended acquisition costs nothing here.
    std::exception_ptr error;
    {
        MutexLock lock(loop->errorMtx);
        error = loop->error;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace scalo::util
