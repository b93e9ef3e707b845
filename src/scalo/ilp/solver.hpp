/**
 * @file
 * Exact LP/ILP solver: dense two-phase primal simplex with Bland's
 * anti-cycling rule, plus depth-first branch-and-bound for integer
 * variables. The scheduler's instances are small (tens of variables),
 * so a dense exact method is both sufficient and dependable.
 */

#pragma once

#include <vector>

#include "scalo/ilp/model.hpp"

namespace scalo::ilp {

/** Solver outcome. */
enum class Status
{
    Optimal,
    Infeasible,
    Unbounded,
    /** solveIlp() ran out of branch-and-bound nodes before proving
     *  an optimum; no solution point is returned. */
    BudgetExceeded,
};

/** A solution point with its objective value. */
struct Solution
{
    Status status = Status::Infeasible;
    double objective = 0.0;
    std::vector<double> values;

    bool ok() const { return status == Status::Optimal; }
};

/** Default branch-and-bound node budget of solveIlp(). */
inline constexpr int kDefaultMaxNodes = 200'000;

/** Solve the continuous relaxation (integrality ignored). */
Solution solveLp(const Model &model);

/**
 * Solve with integrality enforced via branch and bound.
 *
 * @param model     the ILP
 * @param max_nodes branch-and-bound node budget; a search that needs
 *                  more nodes stops and returns
 *                  Status::BudgetExceeded (never a partial incumbent)
 */
Solution solveIlp(const Model &model, int max_nodes = kDefaultMaxNodes);

} // namespace scalo::ilp
