#include "scalo/ilp/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "scalo/util/logging.hpp"

namespace scalo::ilp {

namespace {

constexpr double kEps = 1e-9;

/** Pivot cap of each simplex phase in solveLp() and solveIlp(). */
constexpr int kMaxPivots = 100'000;

/**
 * Internal standard-form problem:
 *   maximize c.x  s.t.  A x = b,  x >= 0,  b >= 0,
 * with a record of how original variables map onto standard ones. A
 * is kept sparse, row by row: row r's entries are
 * (entryColumn[k], entryValue[k]) for k in [rowStart[r],
 * rowStart[r + 1]).
 */
struct StandardForm
{
    std::vector<std::size_t> rowStart{0};
    std::vector<int> entryColumn;
    std::vector<double> entryValue;
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

    std::size_t rows() const { return b.size(); }
};

/**
 * Convert a bounded-variable model (with per-node bound overrides for
 * branch and bound) into standard form. Each row is summed in one
 * reused dense scratch row, so duplicate terms accumulate in term
 * order, then stored as its non-zero entries.
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

    // Rows: model constraints, then finite upper bounds. Each
    // inequality gets its own slack column after the variables.
    int slack_count = 0;
    for (const Constraint &con : model.constraints())
        if (con.relation != Relation::Equal)
            ++slack_count;
    for (std::size_t i = 0; i < vars.size(); ++i)
        if (std::isfinite(uppers[i]))
            ++slack_count;
    const int total_cols = sf.columns + slack_count;

    std::vector<double> scratch(static_cast<std::size_t>(total_cols),
                                0.0);
    std::vector<bool> touched(scratch.size(), false);
    std::vector<int> used;
    int next_slack = sf.columns;
    // Substitute x = shift + x_pos - x_neg into one row, append its
    // slack, and negate the row when its rhs is negative.
    const auto add_row = [&](const Term *first, const Term *last,
                             Relation rel, double rhs) {
        const auto add = [&](int col, double coef) {
            const auto j = static_cast<std::size_t>(col);
            if (!touched[j]) {
                touched[j] = true;
                used.push_back(col);
            }
            scratch[j] += coef;
        };
        for (const Term *term = first; term != last; ++term) {
            const auto &vm = sf.varMap[term->variable];
            add(vm.positive, term->coefficient);
            if (vm.negative >= 0)
                add(vm.negative, -term->coefficient);
            rhs -= term->coefficient * vm.shift;
        }
        int slack_col = -1;
        double slack_sign = 0.0;
        if (rel == Relation::LessEq) {
            slack_col = next_slack++;
            slack_sign = 1.0;
        } else if (rel == Relation::GreaterEq) {
            slack_col = next_slack++;
            slack_sign = -1.0;
        }
        const bool negate = rhs < 0.0;
        if (negate) {
            rhs = -rhs;
            slack_sign = -slack_sign;
        }
        for (const int col : used) {
            const auto j = static_cast<std::size_t>(col);
            const double value = negate ? -scratch[j] : scratch[j];
            if (value != 0.0) {
                sf.entryColumn.push_back(col);
                sf.entryValue.push_back(value);
            }
            scratch[j] = 0.0;
            touched[j] = false;
        }
        used.clear();
        if (slack_col >= 0) {
            sf.entryColumn.push_back(slack_col);
            sf.entryValue.push_back(slack_sign);
        }
        sf.rowStart.push_back(sf.entryColumn.size());
        sf.b.push_back(rhs);
        // A +1 slack with a non-negative rhs is an identity column:
        // it can start in the basis, so no artificial is needed.
        sf.basicHint.push_back(slack_col >= 0 && slack_sign > 0.0
                                   ? slack_col
                                   : -1);
    };
    for (const Constraint &con : model.constraints())
        add_row(con.expr.data(), con.expr.data() + con.expr.size(),
                con.relation, con.rhs);
    for (std::size_t i = 0; i < vars.size(); ++i) {
        if (std::isfinite(uppers[i])) {
            const Term bound{static_cast<int>(i), 1.0};
            add_row(&bound, &bound + 1, Relation::LessEq, uppers[i]);
        }
    }
    sf.columns = total_cols;

    // Objective in standard variables (always maximize internally).
    sf.c.assign(static_cast<std::size_t>(total_cols), 0.0);
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
 * Simplex tableau with Bland's rule that stores only the non-basic
 * columns, column-major, and the right-hand side b. A basic column is
 * a unit vector (1 in its basis row, 0 elsewhere), so dropping it
 * loses nothing: with `rows` constraints over `total` columns
 * (standard plus artificial) the table holds rows x (total - rows)
 * doubles instead of rows x (total + 1). slotOf/colOf map columns to
 * storage slots; a pivot reuses the entering column's slot for the
 * leaving one.
 *
 * The pivot sequence and every stored value are bit-identical to the
 * full dense tableau (tests/reference_lp_solver.cpp, the oracle).
 * Each element is updated as `x -= f * p`, with the dense code's
 * operands in the dense code's order: the pivot row is divided by the
 * pivot, the leaving column (a unit vector before the pivot) becomes
 * 1.0/p in the pivot row and 0.0 - f*(1.0/p) elsewhere, and the
 * initial pricing subtracts each column's entries in row order. (The
 * dense pricing reads a basic row's coefficient from z, where earlier
 * rows subtracted only signed zeros from it: it is the objective
 * coefficient, which is what is read here.) The only difference is
 * the sign of some zeros, in two places: an entry of a column that is
 * not stored (a basic column, where the dense tableau may hold
 * -0.0), and an entry of a stored column updated with a zero factor
 * (the update runs over every row; the dense one skips rows whose
 * factor is zero, and `x - 0*p` can turn -0.0 into 0.0). No
 * comparison distinguishes -0.0 from 0.0, and a signed zero reaches
 * nothing else: as a pivot-row entry or a factor it is skipped or
 * subtracts a zero; in z it is never the entering coefficient (that
 * must exceed kEps); value starts at +0.0 and a sum with a zero
 * addend never turns it into -0.0. b is updated only in the rows with
 * a non-zero factor, exactly like the dense tableau, so b, z's
 * non-zeros, value and the solution are identical bit for bit.
 */
class Tableau
{
  public:
    explicit Tableau(const StandardForm &sf)
        : rows(sf.rows()), cols(sf.columns), rhsColumn(sf.b)
    {
        // Rows whose hint column is an identity column start with it
        // in the basis; only the remaining rows (equalities and
        // negated inequalities) need artificial columns for phase 1.
        // Every artificial starts basic, so none is stored.
        basis.assign(rows, 0);
        int next_artificial = cols;
        for (std::size_t r = 0; r < rows; ++r)
            basis[r] = sf.basicHint[r] >= 0 ? sf.basicHint[r]
                                            : next_artificial++;
        slotOf.assign(static_cast<std::size_t>(next_artificial), 0);
        for (const int j : basis)
            slotOf[static_cast<std::size_t>(j)] = -1;
        for (int j = 0; j < cols; ++j) {
            int &slot = slotOf[static_cast<std::size_t>(j)];
            if (slot == 0) {
                slot = static_cast<int>(colOf.size());
                colOf.push_back(j);
            }
        }
        table.assign(colOf.size() * rows, 0.0);
        factors.assign(rows, 0.0);
        for (std::size_t r = 0; r < rows; ++r) {
            for (std::size_t k = sf.rowStart[r]; k < sf.rowStart[r + 1];
                 ++k) {
                const int slot = slotOf[static_cast<std::size_t>(
                    sf.entryColumn[k])];
                if (slot >= 0)
                    column(static_cast<std::size_t>(slot))[r] =
                        sf.entryValue[k];
            }
        }
    }

    /** Phase 1: drive artificials to zero. */
    Status
    phaseOne(int max_pivots)
    {
        if (totalCols() == cols)
            return Status::Optimal;
        // Minimize the sum of artificials == maximize -(sum).
        std::vector<double> objective(totalCols(), 0.0);
        for (int c = cols; c < totalCols(); ++c)
            objective[static_cast<std::size_t>(c)] = -1.0;
        double value = 0.0;
        // Unbounded cannot happen here: the phase-1 objective is
        // bounded above by zero.
        if (optimize(objective, totalCols(), max_pivots, value) ==
            Outcome::PivotCap)
            return Status::BudgetExceeded;
        if (value < -1e-7 * (1.0 + static_cast<double>(rows)))
            return Status::Infeasible;
        pivotOutArtificials();
        return Status::Optimal;
    }

    /** Phase 2 on the original columns. */
    Status
    phaseTwo(const std::vector<double> &c, int max_pivots,
             double &objective_value)
    {
        std::vector<double> objective(totalCols(), 0.0);
        std::copy(c.begin(), c.begin() + cols, objective.begin());
        switch (optimize(objective, cols, max_pivots, objective_value)) {
        case Outcome::Optimal:
            return Status::Optimal;
        case Outcome::Unbounded:
            return Status::Unbounded;
        case Outcome::PivotCap:
            break;
        }
        return Status::BudgetExceeded;
    }

    /** Extract the current basic solution over the first n columns. */
    std::vector<double>
    solution(int n) const
    {
        std::vector<double> x(n, 0.0);
        for (std::size_t r = 0; r < rows; ++r)
            if (basis[r] < n)
                x[basis[r]] = rhsColumn[r];
        return x;
    }

  private:
    enum class Outcome
    {
        Optimal,
        Unbounded,
        PivotCap,
    };

    /**
     * Primal simplex with objective @p c; only columns below @p limit
     * may enter (phase 2 passes the standard column count, locking
     * artificials out). @p value receives the objective value.
     */
    Outcome
    optimize(const std::vector<double> &c, int limit, int max_pivots,
             double &value)
    {
        // Reduced costs require the objective expressed over the
        // current basis: price out basic columns first. A basic
        // column's reduced cost is zero and stays zero.
        z.assign(c.size(), 0.0);
        value = 0.0;
        pricedRows.clear();
        for (std::size_t r = 0; r < rows; ++r) {
            const double coef = c[static_cast<std::size_t>(basis[r])];
            if (coef == 0.0)
                continue;
            value += coef * rhsColumn[r];
            pricedRows.push_back(r);
        }
        for (std::size_t slot = 0; slot < colOf.size(); ++slot) {
            const auto j = static_cast<std::size_t>(colOf[slot]);
            const double *entries = column(slot);
            double reduced = c[j];
            for (const std::size_t r : pricedRows)
                reduced -= c[static_cast<std::size_t>(basis[r])] *
                           entries[r];
            z[j] = reduced;
        }

        for (int pivots = 0;; ++pivots) {
            // Bland: smallest-index entering column.
            int enter = -1;
            for (int j = 0; j < limit; ++j) {
                if (z[static_cast<std::size_t>(j)] > kEps) {
                    enter = j;
                    break;
                }
            }
            if (enter < 0)
                return Outcome::Optimal;
            if (pivots == max_pivots)
                return Outcome::PivotCap;

            // Ratio test with Bland tie-break on basis index.
            const double *entries = column(static_cast<std::size_t>(
                slotOf[static_cast<std::size_t>(enter)]));
            int leave = -1;
            double best_ratio = 0.0;
            for (std::size_t r = 0; r < rows; ++r) {
                const double entry = entries[r];
                if (entry > kEps) {
                    const double ratio = rhsColumn[r] / entry;
                    if (leave < 0 || ratio < best_ratio - kEps ||
                        (ratio < best_ratio + kEps &&
                         basis[r] < basis[static_cast<std::size_t>(
                             leave)])) {
                        leave = static_cast<int>(r);
                        best_ratio = ratio;
                    }
                }
            }
            if (leave < 0)
                return Outcome::Unbounded;
            const auto leave_row = static_cast<std::size_t>(leave);
            pivot(leave_row, enter);
            // Update reduced costs and value incrementally, over the
            // pivot row's non-zero entries only.
            const double coef = z[static_cast<std::size_t>(enter)];
            value += coef * rhsColumn[leave_row];
            for (std::size_t s = 0; s < colOf.size(); ++s) {
                const double entry = column(s)[leave_row];
                if (entry != 0.0)
                    z[static_cast<std::size_t>(colOf[s])] -=
                        coef * entry;
            }
            z[static_cast<std::size_t>(enter)] = 0.0;
        }
    }

    /**
     * Pivot on (@p row, @p enter): @p enter joins the basis in @p row
     * and the column leaving it takes @p enter's storage slot.
     */
    void
    pivot(std::size_t row, int enter)
    {
        const auto slot =
            static_cast<std::size_t>(slotOf[static_cast<std::size_t>(enter)]);
        double *entering = column(slot);
        const double p = entering[row];
        SCALO_ASSERT(std::abs(p) > kEps, "pivot on ~zero");
        // The factor of each row is its entry in the entering column;
        // the pivot row's own is zeroed so the column-wide update
        // below leaves that row alone.
        std::copy(entering, entering + rows, factors.begin());
        factors[row] = 0.0;
        const double *factor = factors.data();

        // The leaving column was the unit vector of @p row.
        const int leaving = basis[row];
        const double inverse = 1.0 / p;
        for (std::size_t r = 0; r < rows; ++r)
            entering[r] = 0.0 - factor[r] * inverse;
        entering[row] = inverse;
        colOf[slot] = leaving;
        slotOf[static_cast<std::size_t>(leaving)] = static_cast<int>(slot);
        slotOf[static_cast<std::size_t>(enter)] = -1;
        basis[row] = enter;

        for (std::size_t s = 0; s < colOf.size(); ++s) {
            if (s == slot)
                continue;
            double *target = column(s);
            const double scaled = target[row] / p;
            if (scaled != 0.0)
                for (std::size_t r = 0; r < rows; ++r)
                    target[r] -= factor[r] * scaled;
            target[row] = scaled;
        }
        const double scaled = rhsColumn[row] / p;
        rhsColumn[row] = scaled;
        if (scaled != 0.0)
            for (std::size_t r = 0; r < rows; ++r)
                if (factor[r] != 0.0)
                    rhsColumn[r] -= factor[r] * scaled;
    }

    /** After phase 1, swap any remaining artificials out of the basis. */
    void
    pivotOutArtificials()
    {
        for (std::size_t r = 0; r < rows; ++r) {
            if (basis[r] < cols)
                continue;
            // A basic column is zero outside its own row, so only the
            // stored columns can hold a usable entry.
            for (int j = 0; j < cols; ++j) {
                const int slot = slotOf[static_cast<std::size_t>(j)];
                if (slot >= 0 &&
                    std::abs(column(static_cast<std::size_t>(slot))[r]) >
                        kEps) {
                    pivot(r, j);
                    break;
                }
            }
            // A fully-zero row is redundant; its artificial stays
            // basic at value zero, which is harmless.
        }
    }

    int totalCols() const { return static_cast<int>(slotOf.size()); }
    double *
    column(std::size_t slot)
    {
        return table.data() + slot * rows;
    }
    const double *
    column(std::size_t slot) const
    {
        return table.data() + slot * rows;
    }

    std::size_t rows;
    /** Standard columns; artificials are numbered from here. */
    int cols;
    /** Non-basic columns, column-major, one `rows`-long run each. */
    std::vector<double> table;
    std::vector<double> rhsColumn;
    std::vector<int> basis;
    /** Storage slot of each column, -1 while it is basic. */
    std::vector<int> slotOf;
    /** Column stored in each slot. */
    std::vector<int> colOf;
    /** Reduced costs, indexed by column. */
    std::vector<double> z;
    /** Rows whose basic column has a non-zero objective coefficient. */
    std::vector<std::size_t> pricedRows;
    /** Per-row pivot factors (scratch of pivot()). */
    std::vector<double> factors;
};

/** Solve the LP with explicit bound vectors (branch-and-bound hook). */
Solution
solveWithBounds(const Model &model, const std::vector<double> &lowers,
                const std::vector<double> &uppers, int max_pivots)
{
    for (std::size_t i = 0; i < lowers.size(); ++i) {
        if (lowers[i] > uppers[i] + kEps)
            return {Status::Infeasible, 0.0, {}};
    }

    const StandardForm sf = standardize(model, lowers, uppers);
    Tableau tableau(sf);
    if (const Status status = tableau.phaseOne(max_pivots);
        status != Status::Optimal)
        return {status, 0.0, {}};

    double value = 0.0;
    if (const Status status = tableau.phaseTwo(sf.c, max_pivots, value);
        status != Status::Optimal)
        return {status, 0.0, {}};

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

/** Each variable's declared bounds. */
void
declaredBounds(const Model &model, std::vector<double> &lowers,
               std::vector<double> &uppers)
{
    for (const Variable &var : model.variables()) {
        lowers.push_back(var.lower);
        uppers.push_back(var.upper);
    }
}

} // namespace

Solution
solveLp(const Model &model)
{
    return detail::solveLpWithPivotCap(model, kMaxPivots);
}

Solution
detail::solveLpWithPivotCap(const Model &model, int max_pivots)
{
    std::vector<double> lowers, uppers;
    declaredBounds(model, lowers, uppers);
    return solveWithBounds(model, lowers, uppers, max_pivots);
}


Solution
solveIlp(const Model &model, int max_nodes)
{
    std::vector<double> lowers, uppers;
    declaredBounds(model, lowers, uppers);

    Solution incumbent;
    incumbent.status = Status::Infeasible;
    bool have_incumbent = false;
    const double sense = model.maximizing() ? 1.0 : -1.0;
    int nodes = 0;
    bool root_unbounded = false;

    // Depth-first branch and bound with best-bound pruning.
    struct Frame
    {
        std::vector<double> lowers;
        std::vector<double> uppers;
    };
    std::vector<Frame> stack{{lowers, uppers}};

    while (!stack.empty()) {
        if (++nodes > max_nodes)
            return {Status::BudgetExceeded, 0.0, {}};
        Frame frame = std::move(stack.back());
        stack.pop_back();

        const Solution relaxed = solveWithBounds(
            model, frame.lowers, frame.uppers, kMaxPivots);
        if (relaxed.status == Status::BudgetExceeded)
            return relaxed;
        if (relaxed.status == Status::Unbounded) {
            root_unbounded = true;
            continue;
        }
        if (relaxed.status != Status::Optimal)
            continue;
        if (have_incumbent &&
            sense * relaxed.objective <=
                sense * incumbent.objective + 1e-9) {
            continue; // bound: cannot beat the incumbent
        }

        // Find the most fractional integer variable.
        int branch_var = -1;
        double worst_frac = 1e-6;
        for (std::size_t i = 0; i < model.variables().size(); ++i) {
            if (!model.variables()[i].integer)
                continue;
            const double v = relaxed.values[i];
            const double frac = std::abs(v - std::round(v));
            if (frac > worst_frac) {
                worst_frac = frac;
                branch_var = static_cast<int>(i);
            }
        }

        if (branch_var < 0) {
            // Integral: candidate incumbent.
            incumbent = relaxed;
            // Snap near-integers exactly.
            for (std::size_t i = 0; i < model.variables().size();
                 ++i) {
                if (model.variables()[i].integer)
                    incumbent.values[i] =
                        std::round(incumbent.values[i]);
            }
            have_incumbent = true;
            continue;
        }

        const double v =
            relaxed.values[static_cast<std::size_t>(branch_var)];
        // Down branch.
        Frame down = frame;
        down.uppers[static_cast<std::size_t>(branch_var)] =
            std::floor(v);
        // Up branch, explored first (DFS stack order).
        Frame up = std::move(frame);
        up.lowers[static_cast<std::size_t>(branch_var)] =
            std::ceil(v);
        stack.push_back(std::move(down));
        stack.push_back(std::move(up));
    }

    if (!have_incumbent && root_unbounded)
        return {Status::Unbounded, 0.0, {}};
    return incumbent;
}

} // namespace scalo::ilp
