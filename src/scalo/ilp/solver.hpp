/**
 * @file
 * Exact LP/ILP solver: two-phase primal simplex with Bland's
 * anti-cycling rule, plus depth-first branch-and-bound for integer
 * variables. The standard form is built sparsely, row by row, and the
 * tableau stores only the non-basic columns (a basic column is a unit
 * vector), so a solve holds rows x (columns - rows) doubles rather
 * than rows x columns: 0.4 MB instead of 3.4 MB on the scheduler's
 * 16-node cluster sub-LP (609 rows).
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
    /** The solver ran out of budget before proving an optimum: a
     *  simplex phase reached its pivot cap (solveLp() and every
     *  relaxation of solveIlp()), or solveIlp() ran out of
     *  branch-and-bound nodes. No solution point is returned. */
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

namespace detail {

/**
 * solveLp() with each simplex phase capped at @p max_pivots pivots
 * instead of the library's 100,000; a phase that needs more returns
 * Status::BudgetExceeded. The seam the pivot-cap tests use.
 */
Solution solveLpWithPivotCap(const Model &model, int max_pivots);

} // namespace detail

} // namespace scalo::ilp
