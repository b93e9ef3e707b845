/**
 * @file
 * Differential oracle for the simplex: ilp::solveLp(), which stores
 * only the non-basic columns of its tableau, against the dense
 * full-tableau reference solver (reference_lp_solver.hpp). Status,
 * objective and every value must be equal bit for bit: on seeded
 * random LPs covering every relation, negated rows, free, shifted and
 * upper-bounded variables, duplicate terms, degenerate ties and
 * redundant rows, infeasible and unbounded cases; and on the
 * scheduler's real models. Also covers the simplex pivot cap, which
 * returns Status::BudgetExceeded rather than aborting.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "reference_lp_solver.hpp"
#include "scalo/ilp/model.hpp"
#include "scalo/ilp/solver.hpp"
#include "scalo/sched/scheduler.hpp"
#include "scalo/sched/workloads.hpp"

namespace scalo::ilp {
namespace {

/** Require @p got to equal @p want bit for bit. */
void
expectBitEqual(const Solution &got, const Solution &want)
{
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.objective),
              std::bit_cast<std::uint64_t>(want.objective))
        << got.objective << " vs " << want.objective;
    ASSERT_EQ(got.values.size(), want.values.size());
    for (std::size_t i = 0; i < got.values.size(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values[i]),
                  std::bit_cast<std::uint64_t>(want.values[i]))
            << "value " << i << ": " << got.values[i] << " vs "
            << want.values[i];
}

/** How often each feature the oracle must cover was generated. */
struct Coverage
{
    int lessEq = 0;
    int greaterEq = 0;
    int equal = 0;
    int negativeRhs = 0;
    int freeVars = 0;
    int shiftedLower = 0;
    int finiteUpper = 0;
    int duplicateTerms = 0;
    int zeroRhs = 0;
    int repeatedRows = 0;
};

/**
 * A random LP: 1-7 variables, each either non-negative, with a
 * shifted lower bound, boxed, free, or free with an upper bound; 0-8
 * rows of 1-5 terms drawn with replacement (so a row may name a
 * variable twice), any relation, a right-hand side that is often
 * negative or zero; sometimes a row repeated verbatim. Coefficients
 * are small integers or quarters, so ties and degenerate vertices are
 * common.
 */
Model
randomLp(std::mt19937_64 &rng, Coverage &seen)
{
    const auto pick = [&rng](int lo, int hi) {
        return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const auto coefficient = [&]() {
        return pick(0, 3) == 0 ? pick(-16, 16) / 4.0
                               : static_cast<double>(pick(-4, 4));
    };
    Model model;
    const int vars = pick(1, 7);
    for (int v = 0; v < vars; ++v) {
        double lower = 0.0;
        double upper = kInf;
        switch (pick(0, 4)) {
        case 0:
            break;
        case 1:
            lower = pick(-6, 6) / 2.0;
            ++seen.shiftedLower;
            break;
        case 2:
            lower = pick(-3, 3);
            upper = lower + pick(0, 6) / 2.0;
            ++seen.finiteUpper;
            break;
        case 3:
            lower = -kInf;
            ++seen.freeVars;
            break;
        default:
            lower = -kInf;
            upper = pick(-4, 8);
            ++seen.freeVars;
            ++seen.finiteUpper;
            break;
        }
        model.addVariable("x" + std::to_string(v), lower, upper);
    }
    const int rows = pick(0, 8);
    for (int r = 0; r < rows; ++r) {
        Expr expr;
        const int terms = pick(1, 5);
        std::vector<bool> named(static_cast<std::size_t>(vars), false);
        bool duplicate = false;
        for (int t = 0; t < terms; ++t) {
            const int v = pick(0, vars - 1);
            duplicate = duplicate || named[static_cast<std::size_t>(v)];
            named[static_cast<std::size_t>(v)] = true;
            expr.push_back({v, coefficient()});
        }
        seen.duplicateTerms += duplicate ? 1 : 0;
        const int kind = pick(0, 2);
        const Relation rel = kind == 0   ? Relation::LessEq
                             : kind == 1 ? Relation::GreaterEq
                                         : Relation::Equal;
        (kind == 0 ? seen.lessEq
                   : kind == 1 ? seen.greaterEq : seen.equal)++;
        const double rhs = pick(0, 3) == 0 ? 0.0 : pick(-10, 12) / 2.0;
        seen.negativeRhs += rhs < 0.0 ? 1 : 0;
        seen.zeroRhs += rhs == 0.0 ? 1 : 0;
        model.addConstraint(expr, rel, rhs);
        if (pick(0, 9) == 0) {
            model.addConstraint(expr, rel, rhs);
            ++seen.repeatedRows;
        }
    }
    Expr objective;
    for (int v = 0; v < vars; ++v)
        if (pick(0, 4) != 0)
            objective.push_back({v, coefficient()});
    model.setObjective(objective, pick(0, 1) == 1);
    return model;
}

TEST(LpOracle, BitEqualToDenseTableauOnRandomModels)
{
    std::mt19937_64 rng(0x5ca1'0c0de);
    Coverage seen;
    int optimal = 0;
    int infeasible = 0;
    int unbounded = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        const Model model = randomLp(rng, seen);
        SCOPED_TRACE("trial " + std::to_string(trial));
        const Solution want = reference::solveLp(model);
        expectBitEqual(solveLp(model), want);
        switch (want.status) {
        case Status::Optimal:
            ++optimal;
            break;
        case Status::Infeasible:
            ++infeasible;
            break;
        case Status::Unbounded:
            ++unbounded;
            break;
        case Status::BudgetExceeded:
            ADD_FAILURE() << "the reference never exceeds a budget";
            break;
        }
    }
    // Every outcome and every feature must have been exercised.
    EXPECT_GT(optimal, 500);
    EXPECT_GT(infeasible, 200);
    EXPECT_GT(unbounded, 200);
    for (const int count :
         {seen.lessEq, seen.greaterEq, seen.equal, seen.negativeRhs,
          seen.freeVars, seen.shiftedLower, seen.finiteUpper,
          seen.duplicateTerms, seen.zeroRhs, seen.repeatedRows})
        EXPECT_GT(count, 200);
}

/** The mixed flow set of the chaos and scaling benchmarks. */
std::vector<sched::FlowSpec>
mixedFlows()
{
    return {sched::seizureDetectionFlow(),
            sched::hashSimilarityFlow(net::Pattern::AllToAll),
            sched::spikeSortingFlow()};
}

const std::vector<double> kPriorities{1.0, 3.0, 1.0};

sched::SystemConfig
systemFor(std::size_t nodes, std::size_t clusters)
{
    sched::SystemConfig system;
    system.nodes = nodes;
    system.maxElectrodesPerNode = constants::kElectrodesPerNode;
    if (clusters > 1)
        system.clusters = net::ClusterPlan::balanced(nodes, clusters);
    return system;
}

// The 128-node, 8-cluster deploy poses one 16-node sub-LP per cluster
// (a balanced plan's are identical): the model behind fabric_chaos's
// boot solve.
TEST(LpOracle, BitEqualOnClusterBootModel)
{
    const sched::Scheduler scheduler(systemFor(128, 8));
    ASSERT_TRUE(scheduler.decomposed());
    for (const std::size_t cluster : {0u, 7u}) {
        const Model model =
            scheduler.clusterModel(mixedFlows(), kPriorities, cluster);
        const Solution want = reference::solveLp(model);
        ASSERT_EQ(want.status, Status::Optimal);
        expectBitEqual(solveLp(model), want);
    }
}

// The whole-fabric model of a flat 64-node system.
TEST(LpOracle, BitEqualOnFlatMonolithicModel)
{
    const sched::Scheduler scheduler(systemFor(64, 1));
    ASSERT_FALSE(scheduler.decomposed());
    const Model model =
        scheduler.clusterModel(mixedFlows(), kPriorities, 0);
    const Solution want = reference::solveLp(model);
    ASSERT_EQ(want.status, Status::Optimal);
    expectBitEqual(solveLp(model), want);
}

// clusterModel() is the model schedule() solves: on a flat system
// (no backbone stitch) the schedule's priority-weighted electrode
// total is the solved objective.
TEST(LpOracle, ClusterModelIsTheScheduledModel)
{
    const sched::Scheduler scheduler(systemFor(16, 1));
    const sched::Schedule schedule =
        scheduler.schedule(mixedFlows(), kPriorities);
    ASSERT_TRUE(schedule.feasible);
    const Solution solved =
        solveLp(scheduler.clusterModel(mixedFlows(), kPriorities, 0));
    ASSERT_TRUE(solved.ok());
    double weighted = 0.0;
    for (std::size_t f = 0; f < schedule.flows.size(); ++f)
        weighted += kPriorities[f] * schedule.flows[f].totalElectrodes;
    EXPECT_GT(weighted, 0.0);
    EXPECT_NEAR(weighted, solved.objective, 1e-9 * weighted);
}

TEST(LpPivotCap, CapIsABudgetStatusNotAnAbort)
{
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: a phase-2
    // solve of a few pivots. Every cap below the pivots it needs is a
    // budget status with no point; from there on it is the uncapped
    // solve, bit for bit.
    Model m;
    const int x = m.addVariable("x");
    const int y = m.addVariable("y");
    m.addConstraint({{x, 1.0}}, Relation::LessEq, 4.0);
    m.addConstraint({{y, 2.0}}, Relation::LessEq, 12.0);
    m.addConstraint({{x, 3.0}, {y, 2.0}}, Relation::LessEq, 18.0);
    m.setObjective({{x, 3.0}, {y, 5.0}});
    const Solution uncapped = solveLp(m);
    ASSERT_TRUE(uncapped.ok());
    int needed = 0;
    while (detail::solveLpWithPivotCap(m, needed).status ==
               Status::BudgetExceeded &&
           needed < 10) {
        EXPECT_TRUE(detail::solveLpWithPivotCap(m, needed).values.empty());
        ++needed;
    }
    EXPECT_GE(needed, 2);
    EXPECT_LT(needed, 10);
    expectBitEqual(detail::solveLpWithPivotCap(m, needed), uncapped);
}

TEST(LpPivotCap, PhaseOneHonoursTheCap)
{
    // x + y = 5 needs an artificial: phase 1 must pivot once.
    Model m;
    const int x = m.addVariable("x");
    const int y = m.addVariable("y");
    m.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 5.0);
    m.setObjective({{x, 1.0}});
    EXPECT_EQ(detail::solveLpWithPivotCap(m, 0).status,
              Status::BudgetExceeded);
    const Solution s = detail::solveLpWithPivotCap(m, 1);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.values[static_cast<std::size_t>(x)], 5.0);
}

// A model that needs no pivot solves under a zero cap.
TEST(LpPivotCap, ZeroCapSolvesAnAlreadyOptimalBasis)
{
    Model m;
    const int x = m.addVariable("x");
    m.addConstraint({{x, 1.0}}, Relation::LessEq, 3.0);
    m.setObjective({{x, 1.0}}, /*maximize=*/false);
    const Solution s = detail::solveLpWithPivotCap(m, 0);
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(s.objective, 0.0);
}

} // namespace
} // namespace scalo::ilp
