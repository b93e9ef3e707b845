#include "reference_lp_solver.hpp"

#include <algorithm>
#include <cmath>

#include "scalo/util/logging.hpp"

namespace scalo::ilp::reference {

namespace {

constexpr double kEps = 1e-9;

/**
 * Internal standard-form problem:
 *   maximize c.x  s.t.  A x = b,  x >= 0,  b >= 0,
 * with a record of how original variables map onto standard ones.
 */
struct StandardForm
{
    std::vector<std::vector<double>> a;
    std::vector<double> b;
    std::vector<double> c;
    double objectiveShift = 0.0;
    bool flipObjective = false;
    /**
     * For each original variable: (positive part index, negative part
     * index or -1, lower-bound shift).
     */
    struct VarMap
    {
        int positive;
        int negative;
        double shift;
    };
    std::vector<VarMap> varMap;
    int columns = 0;
    /** Per row: a column usable as the initial basis (+1 coefficient,
     *  identity in that row), or -1 when an artificial is needed. */
    std::vector<int> basicHint;
};

/**
 * Convert a bounded-variable model (with per-node bound overrides for
 * branch and bound) into standard form.
 */
StandardForm
standardize(const Model &model, const std::vector<double> &lowers,
            const std::vector<double> &uppers)
{
    StandardForm sf;
    const auto &vars = model.variables();

    // Map variables: shift finite lower bounds to zero; split free
    // variables into positive/negative parts.
    for (std::size_t i = 0; i < vars.size(); ++i) {
        StandardForm::VarMap vm{};
        if (std::isfinite(lowers[i])) {
            vm.positive = sf.columns++;
            vm.negative = -1;
            vm.shift = lowers[i];
        } else {
            vm.positive = sf.columns++;
            vm.negative = sf.columns++;
            vm.shift = 0.0;
        }
        sf.varMap.push_back(vm);
    }

    // Gather rows: model constraints plus finite upper bounds.
    struct Row
    {
        Expr expr;
        Relation rel;
        double rhs;
    };
    std::vector<Row> rows;
    for (const Constraint &con : model.constraints())
        rows.push_back({con.expr, con.relation, con.rhs});
    for (std::size_t i = 0; i < vars.size(); ++i) {
        if (std::isfinite(uppers[i])) {
            rows.push_back({Expr{{static_cast<int>(i), 1.0}},
                            Relation::LessEq, uppers[i]});
        }
    }

    // Build dense rows over the standard variables, substituting
    // x = shift + x_pos - x_neg, then append slack columns.
    const int slack_count = static_cast<int>(std::count_if(
        rows.begin(), rows.end(), [](const Row &row) {
            return row.rel != Relation::Equal;
        }));
    const int total_cols = sf.columns + slack_count;

    sf.a.assign(rows.size(), std::vector<double>(total_cols, 0.0));
    sf.b.assign(rows.size(), 0.0);

    int next_slack = sf.columns;
    sf.basicHint.assign(rows.size(), -1);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        double rhs = rows[r].rhs;
        for (const Term &term : rows[r].expr) {
            const auto &vm = sf.varMap[term.variable];
            sf.a[r][vm.positive] += term.coefficient;
            if (vm.negative >= 0)
                sf.a[r][vm.negative] -= term.coefficient;
            rhs -= term.coefficient * vm.shift;
        }
        int slack_col = -1;
        double slack_sign = 0.0;
        if (rows[r].rel == Relation::LessEq) {
            slack_col = next_slack++;
            slack_sign = 1.0;
        } else if (rows[r].rel == Relation::GreaterEq) {
            slack_col = next_slack++;
            slack_sign = -1.0;
        }
        if (slack_col >= 0)
            sf.a[r][slack_col] = slack_sign;
        sf.b[r] = rhs;
        if (sf.b[r] < 0.0) {
            for (double &coef : sf.a[r])
                coef = -coef;
            sf.b[r] = -sf.b[r];
            slack_sign = -slack_sign;
        }
        // A +1 slack with a non-negative rhs is an identity column:
        // it can start in the basis, so no artificial is needed.
        if (slack_col >= 0 && slack_sign > 0.0)
            sf.basicHint[r] = slack_col;
    }
    sf.columns = total_cols;

    // Objective in standard variables (always maximize internally).
    sf.c.assign(total_cols, 0.0);
    sf.flipObjective = !model.maximizing();
    const double sense = sf.flipObjective ? -1.0 : 1.0;
    for (const Term &term : model.objective()) {
        const auto &vm = sf.varMap[term.variable];
        sf.c[vm.positive] += sense * term.coefficient;
        if (vm.negative >= 0)
            sf.c[vm.negative] -= sense * term.coefficient;
        sf.objectiveShift += sense * term.coefficient * vm.shift;
    }
    return sf;
}

/**
 * Dense simplex tableau with Bland's rule, stored as one row-major
 * buffer. A pivot touches only the rows whose pivot-column entry is
 * non-zero and, in them, only the columns where the pivot row is
 * non-zero: the scheduler's rows are sparse, and skipping `x -= f*0`
 * changes at most the sign of a zero, which no comparison sees.
 */
class Tableau
{
  public:
    Tableau(const std::vector<std::vector<double>> &a,
            const std::vector<double> &b, int columns,
            const std::vector<int> &basic_hints)
        : rows(a.size()), cols(columns)
    {
        // Layout: [A | artificials | b]. Rows whose hint column is an
        // identity column start with it in the basis; only the
        // remaining rows (equalities and negated inequalities) need
        // artificial columns for phase 1.
        artificials = 0;
        for (std::size_t r = 0; r < rows; ++r)
            if (basic_hints[r] < 0)
                ++artificials;

        width = static_cast<std::size_t>(totalCols()) + 1;
        table.assign(rows * width, 0.0);
        basis.assign(rows, 0);
        int next_artificial = cols;
        for (std::size_t r = 0; r < rows; ++r) {
            double *row = rowAt(r);
            std::copy(a[r].begin(), a[r].begin() + cols, row);
            row[width - 1] = b[r];
            if (basic_hints[r] >= 0) {
                basis[r] = basic_hints[r];
            } else {
                row[next_artificial] = 1.0;
                basis[r] = next_artificial++;
            }
        }
    }

    /** Phase 1: drive artificials to zero. @return feasible? */
    bool
    phaseOne()
    {
        if (artificials == 0)
            return true;
        // Minimize the sum of artificials == maximize -(sum).
        std::vector<double> objective(totalCols(), 0.0);
        for (int c = cols; c < totalCols(); ++c)
            objective[static_cast<std::size_t>(c)] = -1.0;
        const double value = optimize(objective,
                                      /*restrict_cols=*/-1);
        if (value < -1e-7 * (1.0 + static_cast<double>(rows)))
            return false;
        pivotOutArtificials();
        return true;
    }

    /**
     * Phase 2 on the original columns. @return true, or false when
     * unbounded.
     */
    bool
    phaseTwo(const std::vector<double> &c, double &objective_value)
    {
        std::vector<double> objective(totalCols(), 0.0);
        for (int j = 0; j < cols; ++j)
            objective[static_cast<std::size_t>(j)] = c[j];
        unboundedFlag = false;
        objective_value = optimize(objective, cols);
        return !unboundedFlag;
    }

    /** Extract the current basic solution over the first n columns. */
    std::vector<double>
    solution(int n) const
    {
        std::vector<double> x(n, 0.0);
        for (std::size_t r = 0; r < rows; ++r)
            if (basis[r] < n)
                x[basis[r]] = rhs(r);
        return x;
    }

  private:
    /**
     * Primal simplex with the given objective; columns >= restrict_cols
     * are barred from entering (used to lock artificials out in phase
     * 2; pass -1 for no restriction). @return objective value
     */
    double
    optimize(const std::vector<double> &c, int restrict_cols)
    {
        const int limit =
            restrict_cols < 0 ? totalCols() : restrict_cols;
        // Reduced costs require the objective expressed over the
        // current basis: price out basic columns first.
        std::vector<double> z = c;
        double value = 0.0;
        for (std::size_t r = 0; r < rows; ++r) {
            const double coef = z[basis[r]];
            if (coef == 0.0)
                continue;
            value += coef * rhs(r);
            const double *row = rowAt(r);
            for (std::size_t j = 0; j < z.size(); ++j)
                z[j] -= coef * row[j];
        }

        for (int iter = 0; iter < 100'000; ++iter) {
            // Bland: smallest-index entering column.
            int enter = -1;
            for (int j = 0; j < limit; ++j) {
                if (z[j] > kEps) {
                    enter = j;
                    break;
                }
            }
            if (enter < 0)
                return value;

            // Ratio test with Bland tie-break on basis index. The
            // column's non-zero rows are the ones the pivot updates.
            int leave = -1;
            double best_ratio = 0.0;
            pivotRows.clear();
            for (std::size_t r = 0; r < rows; ++r) {
                const double entry = rowAt(r)[enter];
                if (entry != 0.0)
                    pivotRows.push_back(r);
                if (entry > kEps) {
                    const double ratio = rhs(r) / entry;
                    if (leave < 0 || ratio < best_ratio - kEps ||
                        (ratio < best_ratio + kEps &&
                         basis[r] < basis[static_cast<std::size_t>(
                             leave)])) {
                        leave = static_cast<int>(r);
                        best_ratio = ratio;
                    }
                }
            }
            if (leave < 0) {
                unboundedFlag = true;
                return value;
            }
            const auto leave_row = static_cast<std::size_t>(leave);
            pivot(leave_row, enter);
            // Update reduced costs and value incrementally, over the
            // pivot row's non-zero columns only.
            const double coef = z[enter];
            const double *row = rowAt(leave_row);
            value += coef * rhs(leave_row);
            for (const std::size_t j : pivotColumns)
                if (j < z.size())
                    z[j] -= coef * row[j];
        }
        SCALO_PANIC("simplex iteration limit reached");
    }

    /**
     * Pivot on (@p row, @p col). pivotRows must list every row whose
     * entry in @p col is non-zero (the rows the pivot changes).
     */
    void
    pivot(std::size_t row, int col)
    {
        double *pivot_row = rowAt(row);
        const double p = pivot_row[col];
        SCALO_ASSERT(std::abs(p) > kEps, "pivot on ~zero");
        pivotColumns.clear();
        for (std::size_t j = 0; j < width; ++j) {
            pivot_row[j] /= p;
            if (pivot_row[j] != 0.0)
                pivotColumns.push_back(j);
        }
        for (const std::size_t r : pivotRows) {
            if (r == row)
                continue;
            double *target = rowAt(r);
            const double factor = target[col];
            for (const std::size_t j : pivotColumns)
                target[j] -= factor * pivot_row[j];
        }
        basis[row] = col;
    }

    /** After phase 1, swap any remaining artificials out of the basis. */
    void
    pivotOutArtificials()
    {
        for (std::size_t r = 0; r < rows; ++r) {
            if (basis[r] < cols)
                continue;
            int col = -1;
            for (int j = 0; j < cols; ++j) {
                if (std::abs(rowAt(r)[j]) > kEps) {
                    col = j;
                    break;
                }
            }
            if (col >= 0) {
                pivotRows.clear();
                for (std::size_t i = 0; i < rows; ++i)
                    if (rowAt(i)[col] != 0.0)
                        pivotRows.push_back(i);
                pivot(r, col);
            }
            // A fully-zero row is redundant; its artificial stays
            // basic at value zero, which is harmless.
        }
    }

    int totalCols() const { return cols + artificials; }
    double *rowAt(std::size_t r) { return table.data() + r * width; }
    const double *rowAt(std::size_t r) const
    {
        return table.data() + r * width;
    }
    double rhs(std::size_t r) const { return rowAt(r)[width - 1]; }

    std::size_t rows;
    int cols;
    int artificials = 0;
    /** Row length: every column plus the right-hand side. */
    std::size_t width = 0;
    std::vector<double> table;
    std::vector<int> basis;
    /** Non-zero columns of the last pivot row (rhs included). */
    std::vector<std::size_t> pivotColumns;
    /** Rows with a non-zero entry in the pivot column. */
    std::vector<std::size_t> pivotRows;
    bool unboundedFlag = false;
};

/** Solve the LP with explicit bound vectors (branch-and-bound hook). */
Solution
solveWithBounds(const Model &model, const std::vector<double> &lowers,
                const std::vector<double> &uppers)
{
    for (std::size_t i = 0; i < lowers.size(); ++i) {
        if (lowers[i] > uppers[i] + kEps)
            return {Status::Infeasible, 0.0, {}};
    }

    const StandardForm sf = standardize(model, lowers, uppers);
    Tableau tableau(sf.a, sf.b, sf.columns, sf.basicHint);
    if (!tableau.phaseOne())
        return {Status::Infeasible, 0.0, {}};

    double value = 0.0;
    if (!tableau.phaseTwo(sf.c, value))
        return {Status::Unbounded, 0.0, {}};

    const auto x = tableau.solution(sf.columns);
    Solution solution;
    solution.status = Status::Optimal;
    solution.values.resize(model.variables().size());
    for (std::size_t i = 0; i < solution.values.size(); ++i) {
        const auto &vm = sf.varMap[i];
        double v = vm.shift + x[static_cast<std::size_t>(vm.positive)];
        if (vm.negative >= 0)
            v -= x[static_cast<std::size_t>(vm.negative)];
        solution.values[i] = v;
    }
    const double raw = value + sf.objectiveShift;
    solution.objective = sf.flipObjective ? -raw : raw;
    return solution;
}

} // namespace

Solution
solveLp(const Model &model)
{
    std::vector<double> lowers, uppers;
    for (const Variable &var : model.variables()) {
        lowers.push_back(var.lower);
        uppers.push_back(var.upper);
    }
    return solveWithBounds(model, lowers, uppers);
}

} // namespace scalo::ilp::reference
