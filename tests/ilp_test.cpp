/**
 * @file
 * Unit tests for scalo::ilp: the model builder, the two-phase simplex
 * on LPs with known optima, degenerate/infeasible/unbounded cases,
 * branch-and-bound on integer programs (and its node budget), a
 * seeded differential oracle against brute-force enumeration, and the
 * exact solve memo's keying.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "scalo/ilp/memo.hpp"
#include "scalo/ilp/model.hpp"
#include "scalo/ilp/solver.hpp"

namespace scalo::ilp {
namespace {

TEST(Lp, TextbookTwoVariable)
{
    // max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> 36 at (2,6).
    Model m;
    const int x = m.addVariable("x");
    const int y = m.addVariable("y");
    m.addConstraint({{x, 1.0}}, Relation::LessEq, 4.0);
    m.addConstraint({{y, 2.0}}, Relation::LessEq, 12.0);
    m.addConstraint({{x, 3.0}, {y, 2.0}}, Relation::LessEq, 18.0);
    m.setObjective({{x, 3.0}, {y, 5.0}});

    const Solution s = solveLp(m);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(s.objective, 36.0, 1e-7);
    EXPECT_NEAR(s.values[x], 2.0, 1e-7);
    EXPECT_NEAR(s.values[y], 6.0, 1e-7);
    EXPECT_TRUE(m.feasible(s.values));
}

TEST(Lp, MinimizationViaGreaterEq)
{
    // min 2x + 3y  s.t. x + y >= 10, x >= 2  -> 21 at (10 - y...):
    // optimum puts everything on the cheaper x: x=10, y=0 -> 20? But
    // x >= 2 is slack there; optimum is x=10,y=0 with cost 20.
    Model m;
    const int x = m.addVariable("x", 2.0);
    const int y = m.addVariable("y");
    m.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq, 10.0);
    m.setObjective({{x, 2.0}, {y, 3.0}}, /*maximize=*/false);

    const Solution s = solveLp(m);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(s.objective, 20.0, 1e-7);
    EXPECT_NEAR(s.values[x], 10.0, 1e-7);
}

TEST(Lp, EqualityConstraints)
{
    // max x + y  s.t. x + y = 5, x - y = 1  ->  x=3, y=2.
    Model m;
    const int x = m.addVariable("x");
    const int y = m.addVariable("y");
    m.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 5.0);
    m.addConstraint({{x, 1.0}, {y, -1.0}}, Relation::Equal, 1.0);
    m.setObjective({{x, 1.0}, {y, 1.0}});

    const Solution s = solveLp(m);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(s.values[x], 3.0, 1e-7);
    EXPECT_NEAR(s.values[y], 2.0, 1e-7);
}

TEST(Lp, DetectsInfeasible)
{
    Model m;
    const int x = m.addVariable("x", 0.0, 1.0);
    m.addConstraint({{x, 1.0}}, Relation::GreaterEq, 2.0);
    m.setObjective({{x, 1.0}});
    EXPECT_EQ(solveLp(m).status, Status::Infeasible);
}

TEST(Lp, DetectsUnbounded)
{
    Model m;
    const int x = m.addVariable("x");
    m.setObjective({{x, 1.0}});
    EXPECT_EQ(solveLp(m).status, Status::Unbounded);
}

TEST(Lp, VariableUpperBoundsRespected)
{
    Model m;
    const int x = m.addVariable("x", 0.0, 3.5);
    m.setObjective({{x, 2.0}});
    const Solution s = solveLp(m);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(s.values[x], 3.5, 1e-7);
    EXPECT_NEAR(s.objective, 7.0, 1e-7);
}

TEST(Lp, ShiftedLowerBounds)
{
    // Variables with nonzero lower bounds must be handled by shifting.
    Model m;
    const int x = m.addVariable("x", 5.0, 10.0);
    const int y = m.addVariable("y", 1.0);
    m.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 12.0);
    m.setObjective({{x, 1.0}, {y, 2.0}});
    const Solution s = solveLp(m);
    ASSERT_TRUE(s.ok());
    // Push y as high as possible: y = 12 - x, x at its lower bound 5.
    EXPECT_NEAR(s.values[x], 5.0, 1e-7);
    EXPECT_NEAR(s.values[y], 7.0, 1e-7);
}

TEST(Lp, FreeVariables)
{
    // min x^+ structure: free variable can go negative.
    Model m;
    const int x = m.addVariable("x", -kInf, kInf);
    m.addConstraint({{x, 1.0}}, Relation::GreaterEq, -3.0);
    m.setObjective({{x, 1.0}}, /*maximize=*/false);
    const Solution s = solveLp(m);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(s.values[x], -3.0, 1e-7);
}

TEST(Lp, DegenerateDoesNotCycle)
{
    // A classic degenerate LP; Bland's rule must terminate.
    Model m;
    const int x1 = m.addVariable("x1");
    const int x2 = m.addVariable("x2");
    const int x3 = m.addVariable("x3");
    m.addConstraint({{x1, 0.5}, {x2, -5.5}, {x3, -2.5}},
                    Relation::LessEq, 0.0);
    m.addConstraint({{x1, 0.5}, {x2, -1.5}, {x3, -0.5}},
                    Relation::LessEq, 0.0);
    m.addConstraint({{x1, 1.0}}, Relation::LessEq, 1.0);
    m.setObjective({{x1, 10.0}, {x2, -57.0}, {x3, -9.0}});
    const Solution s = solveLp(m);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(Ilp, KnapsackExact)
{
    // Classic 0/1 knapsack: values {60,100,120}, weights {10,20,30},
    // capacity 50 -> take items 2+3 = 220.
    Model m;
    std::vector<int> items;
    const double values[] = {60, 100, 120};
    const double weights[] = {10, 20, 30};
    Expr weight_expr, value_expr;
    for (int i = 0; i < 3; ++i) {
        const int v = m.addVariable("item" + std::to_string(i), 0.0,
                                    1.0, /*integer=*/true);
        items.push_back(v);
        weight_expr.push_back({v, weights[i]});
        value_expr.push_back({v, values[i]});
    }
    m.addConstraint(weight_expr, Relation::LessEq, 50.0);
    m.setObjective(value_expr);

    const Solution s = solveIlp(m);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(s.objective, 220.0, 1e-7);
    EXPECT_NEAR(s.values[items[0]], 0.0, 1e-7);
    EXPECT_NEAR(s.values[items[1]], 1.0, 1e-7);
    EXPECT_NEAR(s.values[items[2]], 1.0, 1e-7);
}

TEST(Ilp, IntegralityChangesOptimum)
{
    // max x  s.t. 2x <= 7: LP gives 3.5, ILP gives 3.
    Model m;
    const int x = m.addVariable("x", 0.0, kInf, true);
    m.addConstraint({{x, 2.0}}, Relation::LessEq, 7.0);
    m.setObjective({{x, 1.0}});

    EXPECT_NEAR(solveLp(m).objective, 3.5, 1e-7);
    const Solution s = solveIlp(m);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(Ilp, MixedIntegerProgram)
{
    // max 3x + 2y, x integer, y continuous;
    // x + y <= 4.5, x <= 2.7 -> x=2, y=2.5, obj=11.
    Model m;
    const int x = m.addVariable("x", 0.0, 2.7, true);
    const int y = m.addVariable("y");
    m.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::LessEq, 4.5);
    m.setObjective({{x, 3.0}, {y, 2.0}});
    const Solution s = solveIlp(m);
    ASSERT_TRUE(s.ok());
    EXPECT_NEAR(s.values[x], 2.0, 1e-7);
    EXPECT_NEAR(s.values[y], 2.5, 1e-7);
    EXPECT_NEAR(s.objective, 11.0, 1e-7);
}

TEST(Ilp, InfeasibleIntegerProgram)
{
    // 0.4 <= x <= 0.6 with x integer has no solution.
    Model m;
    const int x = m.addVariable("x", 0.4, 0.6, true);
    m.setObjective({{x, 1.0}});
    EXPECT_EQ(solveIlp(m).status, Status::Infeasible);
}

TEST(Ilp, SchedulerShapedProblem)
{
    // A miniature SCALO allocation: electrodes per flow on 3 nodes,
    // maximize weighted electrodes under per-node power and a shared
    // network budget. Mirrors the Section 3.5 formulation.
    Model m;
    std::vector<int> detect, compare;
    Expr objective, network;
    for (int node = 0; node < 3; ++node) {
        const int d = m.addVariable("detect" + std::to_string(node),
                                    0.0, 96.0, true);
        const int c = m.addVariable("compare" + std::to_string(node),
                                    0.0, 96.0, true);
        detect.push_back(d);
        compare.push_back(c);
        // Power: 0.1 mW per detect electrode, 0.15 per compare, cap 12.
        m.addConstraint({{d, 0.1}, {c, 0.15}}, Relation::LessEq, 12.0);
        // Priorities 3:1.
        objective.push_back({d, 3.0});
        objective.push_back({c, 1.0});
        // Network: each compared electrode costs 0.05 ms of a 10 ms
        // shared TDMA budget.
        network.push_back({c, 0.05});
    }
    m.addConstraint(network, Relation::LessEq, 10.0);
    m.setObjective(objective);

    const Solution s = solveIlp(m);
    ASSERT_TRUE(s.ok());
    // Detection saturates everywhere (highest priority, no shared
    // resource): 96 each.
    for (int node = 0; node < 3; ++node)
        EXPECT_NEAR(s.values[detect[static_cast<std::size_t>(node)]],
                    96.0, 1e-7);
    // Compare shares the network: total 10/0.05 = 200 electrodes, but
    // per-node power allows (12 - 9.6) / 0.15 = 16 each -> 48 total.
    double total_compare = 0.0;
    for (int node = 0; node < 3; ++node)
        total_compare +=
            s.values[compare[static_cast<std::size_t>(node)]];
    EXPECT_NEAR(total_compare, 48.0, 1e-6);
}

TEST(Ilp, BudgetExceededIsAStatusNotAnAbort)
{
    // max x  s.t. 2x <= 7 branches at the root (LP optimum 3.5), so a
    // one-node budget runs out before any integral point is found.
    Model m;
    const int x = m.addVariable("x", 0.0, kInf, true);
    m.addConstraint({{x, 2.0}}, Relation::LessEq, 7.0);
    m.setObjective({{x, 1.0}});

    const Solution s = solveIlp(m, /*max_nodes=*/1);
    EXPECT_EQ(s.status, Status::BudgetExceeded);
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(s.values.empty());
    EXPECT_TRUE(solveIlp(m).ok());
}

/** The inputs of textbook() a variant may perturb. */
struct TextbookInputs
{
    bool firstRowOnY = false;
    double xLower = 0.0;
    double xUpper = kInf;
    bool xInteger = false;
    double capCoefficient = 3.0;
    bool capTermsSwapped = false;
    Relation capRelation = Relation::LessEq;
    double cap = 18.0;
    double yObjective = 5.0;
    bool maximize = true;
};

/** max 3x + 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, any names. */
Model
textbook(const std::string &x_name, const std::string &y_name,
         const std::string &cap_name, const TextbookInputs &in = {})
{
    Model m;
    const int x = m.addVariable(x_name, in.xLower, in.xUpper,
                                in.xInteger);
    const int y = m.addVariable(y_name);
    m.addConstraint({{in.firstRowOnY ? y : x, 1.0}}, Relation::LessEq,
                    4.0);
    m.addConstraint({{y, 2.0}}, Relation::LessEq, 12.0);
    const Term cx{x, in.capCoefficient};
    const Term cy{y, 2.0};
    m.addConstraint(in.capTermsSwapped ? Expr{cy, cx} : Expr{cx, cy},
                    in.capRelation, in.cap, cap_name);
    m.setObjective({{x, 3.0}, {y, in.yObjective}}, in.maximize);
    return m;
}

/** Status, objective and point as raw bits. */
std::vector<std::uint64_t>
bits(const Solution &s)
{
    std::vector<std::uint64_t> out{
        static_cast<std::uint64_t>(s.status),
        std::bit_cast<std::uint64_t>(s.objective)};
    for (const double v : s.values)
        out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
}

TEST(SolveMemo, NamesAreNotPartOfTheKey)
{
    SolveMemo memo;
    const Solution a = memo.solveLp(textbook("x", "y", "cap"));
    const Solution b = memo.solveLp(textbook("u", "v", ""));
    EXPECT_EQ(memo.counts().solved, 1u);
    EXPECT_EQ(memo.counts().reused, 1u);
    EXPECT_EQ(bits(a), bits(b));
    EXPECT_EQ(bits(a), bits(solveLp(textbook("x", "y", "cap"))));
}

TEST(SolveMemo, EveryInputTheSolverReadsIsKeyed)
{
    // Each variant moves one solver input by as little as it can: a
    // 1-ulp double, -0.0 for 0.0, one flag. None may be answered from
    // another's entry.
    std::vector<TextbookInputs> variants(11);
    variants[1].cap = std::nextafter(18.0, 19.0);
    variants[2].xLower = -0.0;
    variants[3].xUpper = std::nextafter(kInf, 0.0);
    variants[4].xInteger = true;
    variants[5].capCoefficient = std::nextafter(3.0, 4.0);
    variants[6].capTermsSwapped = true;
    variants[7].capRelation = Relation::Equal;
    variants[8].yObjective = std::nextafter(5.0, 6.0);
    variants[9].maximize = false;
    variants[10].firstRowOnY = true;

    SolveMemo memo;
    for (const TextbookInputs &in : variants)
        memo.solveLp(textbook("x", "y", "cap", in));
    EXPECT_EQ(memo.counts().solved, variants.size());
    EXPECT_EQ(memo.counts().reused, 0u);
}

TEST(SolveMemo, LpAndIlpSolvesAreSeparateEntries)
{
    // The same model relaxed (3.5) and integral (3) must not collide,
    // nor may ILP solves under different node budgets (0 included).
    Model m;
    const int x = m.addVariable("x", 0.0, kInf, true);
    m.addConstraint({{x, 2.0}}, Relation::LessEq, 7.0);
    m.setObjective({{x, 1.0}});

    SolveMemo memo;
    for (int pass = 0; pass < 2; ++pass) {
        EXPECT_NEAR(memo.solveLp(m).objective, 3.5, 1e-7);
        EXPECT_EQ(memo.solveIlp(m, 0).status, Status::BudgetExceeded);
        EXPECT_EQ(memo.solveIlp(m, 1).status, Status::BudgetExceeded);
        EXPECT_NEAR(memo.solveIlp(m).objective, 3.0, 1e-7);
    }
    // Every status is memoized, the budget-exceeded one included.
    EXPECT_EQ(memo.counts().solved, 4u);
    EXPECT_EQ(memo.counts().reused, 4u);
}

/** A small random bounded integer model and its exhaustive optimum. */
struct RandomIlp
{
    Model model;
    bool feasible = false;
    double best = 0.0;
};

/**
 * 2-4 integer variables in 0..6 (each with its own upper bound), 1-4
 * constraints with small integer coefficients, either sense. All data
 * is integral, so enumeration is exact.
 */
RandomIlp
randomIlp(std::mt19937_64 &rng)
{
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    RandomIlp out;
    const int vars = pick(2, 4);
    std::vector<int> upper(static_cast<std::size_t>(vars));
    for (int v = 0; v < vars; ++v) {
        upper[static_cast<std::size_t>(v)] = pick(0, 6);
        out.model.addVariable(std::string("x").append(std::to_string(v)),
                              0.0, upper[static_cast<std::size_t>(v)],
                              true);
    }
    const int rows = pick(1, 4);
    for (int r = 0; r < rows; ++r) {
        Expr expr;
        for (int v = 0; v < vars; ++v)
            if (const int c = pick(-4, 4); c != 0)
                expr.push_back({v, static_cast<double>(c)});
        const int kind = pick(0, 5);
        const Relation rel = kind < 3   ? Relation::LessEq
                             : kind < 5 ? Relation::GreaterEq
                                        : Relation::Equal;
        out.model.addConstraint(expr, rel,
                                static_cast<double>(pick(-6, 18)));
    }
    Expr objective;
    for (int v = 0; v < vars; ++v)
        objective.push_back({v, static_cast<double>(pick(-5, 5))});
    out.model.setObjective(objective, pick(0, 1) == 1);

    // Enumerate every point of the box.
    std::vector<double> point(static_cast<std::size_t>(vars), 0.0);
    const auto visit = [&](const auto &self, std::size_t v) -> void {
        if (v == point.size()) {
            if (!out.model.feasible(point, 0.0))
                return;
            const double value =
                Model::evaluate(out.model.objective(), point);
            if (!out.feasible ||
                (out.model.maximizing() ? value > out.best
                                        : value < out.best))
                out.best = value;
            out.feasible = true;
            return;
        }
        for (int x = 0; x <= upper[v]; ++x) {
            point[v] = x;
            self(self, v + 1);
        }
    };
    visit(visit, 0);
    return out;
}

// Differential oracle: solveIlp agrees with exhaustive enumeration on
// the optimum (within 1e-9) and on infeasibility, its point is
// feasible and attains the reported objective, and a memo answer is
// bit-equal to the fresh solve.
TEST(Ilp, MatchesBruteForceOnRandomSmallModels)
{
    std::mt19937_64 rng(0x1a7'0c1e);
    int feasible = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        const RandomIlp ilp = randomIlp(rng);
        const Solution s = solveIlp(ilp.model);
        SCOPED_TRACE("trial " + std::to_string(trial));
        if (!ilp.feasible) {
            EXPECT_EQ(s.status, Status::Infeasible);
            continue;
        }
        ++feasible;
        ASSERT_EQ(s.status, Status::Optimal);
        EXPECT_NEAR(s.objective, ilp.best, 1e-9);
        EXPECT_TRUE(ilp.model.feasible(s.values));
        EXPECT_NEAR(Model::evaluate(ilp.model.objective(), s.values),
                    ilp.best, 1e-9);

        SolveMemo memo;
        memo.solveIlp(ilp.model);
        EXPECT_EQ(bits(memo.solveIlp(ilp.model)), bits(s));
        EXPECT_EQ(memo.counts().reused, 1u);
    }
    // The generator must exercise both outcomes.
    EXPECT_GT(feasible, 200);
    EXPECT_LT(feasible, 1800);
}

TEST(Model, FeasibilityChecker)
{
    Model m;
    const int x = m.addVariable("x", 0.0, 5.0, true);
    m.addConstraint({{x, 1.0}}, Relation::LessEq, 4.0);
    EXPECT_TRUE(m.feasible({3.0}));
    EXPECT_FALSE(m.feasible({4.5})); // violates constraint
    EXPECT_FALSE(m.feasible({2.5})); // violates integrality
}

} // namespace
} // namespace scalo::ilp
