/**
 * @file
 * Compiled-plan cache for the serving runtime: an LRU map from
 * Query::cacheKey() — the stable byte encoding of the normalized
 * descriptor — to the engine's immutable CompiledQuery. A hit skips
 * normalization and the LSH probe hash, and, because every hit hands
 * back the *same* shared object, concurrent submissions of the same
 * query are deduplicated onto one plan — which is what lets the
 * engine's batch executor run the query once for all of them.
 *
 * Thread-safe: all operations take the internal mutex (annotated —
 * the guarded members are compile-time enforced under Clang's
 * thread-safety analysis). Compilation for a missing key runs
 * outside the lock, so two threads racing on the same cold key may
 * both compile; the second insert wins nothing but wastes only its
 * own compile.
 */

#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "scalo/app/query_engine.hpp"
#include "scalo/util/ranked_mutex.hpp"

namespace scalo::serve {

/** Thread-safe LRU cache of compiled query plans. */
class PlanCache
{
  public:
    using Plan = std::shared_ptr<const app::QueryEngine::CompiledQuery>;

    /** Hit/miss/eviction counters, plus current occupancy. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t size = 0;

        double
        hitRate() const
        {
            const std::uint64_t lookups = hits + misses;
            return lookups ? static_cast<double>(hits) /
                                 static_cast<double>(lookups)
                           : 0.0;
        }
    };

    /** @param capacity max retained plans (>= 1). */
    explicit PlanCache(std::size_t capacity);

    /**
     * The cached plan for @p query, compiling through @p engine on a
     * miss. @p hit, when non-null, reports whether the plan came
     * from the cache.
     */
    Plan getOrCompile(const app::QueryEngine &engine,
                      const app::Query &query, bool *hit = nullptr);

    /** Lookup only; null on miss (counts as a miss). */
    Plan lookup(const std::string &key);

    /**
     * Insert @p plan under @p key, evicting the LRU tail.
     * @return the retained plan — the incumbent when a racing
     *         compile inserted the key first, so every caller ends
     *         up holding the one canonical object.
     */
    Plan insert(const std::string &key, Plan plan);

    Stats stats() const;

    /** Drop every cached plan (counters are kept). */
    void clear();

  private:
    struct Entry
    {
        std::string key;
        Plan plan;
    };

    mutable util::RankedMutex<util::lockrank::kServePlanCache> mtx;
    /** Fixed at construction; read lock-free. */
    std::size_t capacity;
    /** MRU-first recency list; the map points into it. */
    std::list<Entry> lru SCALO_GUARDED_BY(mtx);
    std::unordered_map<std::string, std::list<Entry>::iterator>
        map SCALO_GUARDED_BY(mtx);
    Stats counters SCALO_GUARDED_BY(mtx);
};

} // namespace scalo::serve
