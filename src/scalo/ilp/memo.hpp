/**
 * @file
 * Exact solve memo: maps a canonical byte encoding of a Model to the
 * Solution the solver returned for it, so a caller that poses the
 * same problem twice pays for one solve.
 *
 * The key covers exactly what solveLp()/solveIlp() read and nothing
 * else: per variable its lower and upper bound and integer flag; per
 * constraint its terms in order, relation and rhs; the objective
 * terms and sense; and which solver runs with which node budget.
 * Names are dropped, so two models that differ only in naming share
 * an entry. Doubles are keyed by bit pattern: a 1-ulp change or -0.0
 * against 0.0 is a different problem. The solver is a deterministic
 * pure function of those inputs, so a hit returns the same bits a
 * fresh solve would — every status included (an infeasible or
 * budget-exceeded answer is memoized like an optimal one).
 *
 * Thread-safe. The lock guards only the map and the counters and is
 * never held during a solve: two threads missing on the same key both
 * solve, and the first insert is kept (the two results are identical
 * anyway). Nothing is evicted; the memo lives as long as its owner.
 */

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>

#include "scalo/ilp/model.hpp"
#include "scalo/ilp/solver.hpp"
#include "scalo/util/ranked_mutex.hpp"

namespace scalo::ilp {

/** Memoizing front end of solveLp()/solveIlp(). */
class SolveMemo
{
  public:
    /** Solves actually run vs answered from the memo. */
    struct Counts
    {
        std::size_t solved = 0;
        std::size_t reused = 0;
    };

    /** solveLp(@p model), memoized. */
    Solution solveLp(const Model &model);

    /** solveIlp(@p model, @p max_nodes), memoized. */
    Solution solveIlp(const Model &model,
                      int max_nodes = kDefaultMaxNodes);

    Counts counts() const;

  private:
    /** The memoized solution under @p key, counting a reuse. */
    std::optional<Solution> find(const std::string &key);
    /** Record a fresh @p solution under @p key (first insert kept). */
    Solution keep(std::string key, Solution solution);

    mutable util::RankedMutex<util::lockrank::kIlpSolveMemo> mtx;
    std::unordered_map<std::string, Solution>
        entries SCALO_GUARDED_BY(mtx);
    Counts tally SCALO_GUARDED_BY(mtx);
};

} // namespace scalo::ilp
