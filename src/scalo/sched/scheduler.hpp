/**
 * @file
 * The ILP-based system scheduler (Section 3.5). Each application task
 * is a flow; the scheduler maximizes the priority-weighted number of
 * electrode signals processed across flows and nodes, subject to
 *
 *  - a per-node power cap (flow leakage + linear and convex-quadratic
 *    dynamic terms, the latter handled with exact-enough tangent
 *    cuts),
 *  - the serialized TDMA network (per-flow exchange-round budgets,
 *    with per-packet overhead),
 *  - per-node NVM write bandwidth,
 *  - centralised resource caps (e.g. the Kalman aggregator's NVM), and
 *  - response-time feasibility of the PE chains.
 *
 * The deterministic latency/power of every component (Section 3.2) is
 * what makes this optimal static scheduling valid.
 */

#pragma once

#include <string>
#include <vector>

#include "scalo/ilp/memo.hpp"
#include "scalo/net/cluster.hpp"
#include "scalo/net/radio.hpp"
#include "scalo/sched/workloads.hpp"

namespace scalo::sched {

/** System-level configuration the scheduler maps onto. */
struct SystemConfig
{
    std::size_t nodes = 11;
    units::Milliwatts powerCap = constants::kPowerCap;
    const net::RadioSpec *radio = &net::defaultRadio();
    /** False for wired centralized baselines: no radio power/limits. */
    bool wirelessNetwork = true;
    /** Enforce integral electrode counts (slower; default relaxed). */
    bool integerElectrodes = false;
    /**
     * Per-node electrode ceiling; 0 lifts it (the paper's "maximum
     * aggregate throughput" methodology adds electrodes/ADCs until
     * power or response time binds).
     */
    double maxElectrodesPerNode = 0.0;
    /**
     * Hierarchical fabric partition. Empty means flat (one cluster
     * spanning every node, the legacy medium).
     */
    net::ClusterPlan clusters;
};

/** Electrode allocation of one flow across nodes. */
struct FlowAllocation
{
    std::string flow;
    std::vector<double> electrodesPerNode;
    double totalElectrodes = 0.0;
    units::MegabitsPerSecond throughput{0.0};
};

/** A complete schedule for a flow set. */
struct Schedule
{
    bool feasible = false;
    /** Diagnostic when infeasible. */
    std::string reason;
    std::vector<FlowAllocation> flows;
    std::vector<units::Milliwatts> nodePower;
    units::MegabitsPerSecond totalThroughput{0.0};
    units::MegabitsPerSecond weightedThroughput{0.0};
};

/** Outcome of rescheduling around dead nodes (degraded operation). */
struct RescheduleResult
{
    /** The repaired schedule; dead nodes carry zero work and power. */
    Schedule schedule;
    /**
     * True when every re-solve returned Optimal; false when one did
     * not (a solver budget: the simplex pivot cap, or integer mode's
     * branch-and-bound nodes) and the repair
     * kept the base allocation of that cluster, dead columns zeroed.
     */
    bool viaIlp = false;
    std::vector<std::size_t> deadNodes;
    /**
     * Clusters whose sub-problems were re-solved. The decomposed path
     * only touches clusters containing dead nodes; the monolithic
     * path re-solves the whole fabric and lists every cluster.
     */
    std::vector<std::size_t> resolvedClusters;
    /** Degradation deltas (before = the original schedule). */
    units::MegabitsPerSecond throughputBefore{0.0};
    units::MegabitsPerSecond throughputAfter{0.0};
    units::Milliwatts maxNodePowerBefore{0.0};
    units::Milliwatts maxNodePowerAfter{0.0};
};

/**
 * The optimal mapper. Every sub-ILP it poses goes through one exact
 * solve memo owned by this object (ilp::SolveMemo): a problem posed
 * twice — the identical clusters of a balanced plan, or the same
 * repair recurring within one simulation — is solved once. Results
 * are bit-identical to solving afresh, so the memo is invisible
 * except in solveCounts(). Concurrent calls are safe.
 */
class Scheduler
{
  public:
    explicit Scheduler(SystemConfig config);

    /**
     * Solve for the optimal electrode allocation of @p flows with the
     * given priorities (one weight per flow).
     */
    Schedule schedule(const std::vector<FlowSpec> &flows,
                      const std::vector<double> &priorities) const;

    /**
     * Remap @p original's work off @p dead_nodes onto the survivors by
     * re-solving the ILP restricted to live nodes. Monolithic: one
     * full, unclamped re-solve (resolvedClusters lists every cluster).
     * Decomposed: the dead nodes' clusters are re-solved, clamped to
     * their pre-death totals, and the backbone is re-stitched. The
     * returned schedule assigns zero electrodes and zero power to
     * every dead node, and the result reports the degraded
     * throughput/power deltas against the original.
     */
    RescheduleResult
    reschedule(const std::vector<FlowSpec> &flows,
               const std::vector<double> &priorities,
               const Schedule &original,
               const std::vector<std::size_t> &dead_nodes) const;

    /**
     * The repair fallback: what reschedule() returns when none of its
     * re-solves is Optimal. @p original's allocation stays, with
     * every dead node's columns zeroed and totals and power
     * recomputed; no work moves onto a survivor. (Allocating nothing
     * is always feasible, so only a solver budget, the simplex pivot
     * cap or integer mode's branch-and-bound nodes, can send a repair
     * here.)
     */
    Schedule shedDeadNodes(const std::vector<FlowSpec> &flows,
                           const std::vector<double> &priorities,
                           const Schedule &original,
                           const std::vector<std::size_t> &dead_nodes)
        const;

    /** Single-flow maximum aggregate throughput. */
    units::MegabitsPerSecond
    maxAggregateThroughput(const FlowSpec &flow) const;

    const SystemConfig &config() const { return systemConfig; }

    /** Sub-ILPs solved vs answered from the memo so far. */
    ilp::SolveMemo::Counts
    solveCounts() const
    {
        return solveMemo.counts();
    }

    /**
     * The sub-ILP schedule() poses for @p cluster with every node
     * alive: a cluster of plan() when decomposed(), otherwise the
     * whole-fabric model (cluster 0 of the flat plan). Lets solver
     * tests and benchmarks run the scheduler's real models.
     */
    ilp::Model clusterModel(const std::vector<FlowSpec> &flows,
                            const std::vector<double> &priorities,
                            std::size_t cluster) const;

    /** The effective partition (flat when none was configured). */
    const net::ClusterPlan &plan() const { return effectivePlan; }

    /**
     * True when schedule()/reschedule() use the decomposed per-cluster
     * formulation: a multi-cluster plan above 48 nodes. At or below
     * that the dense monolithic solve is kept, so small-N schedules
     * are bit-identical to the flat ones.
     */
    bool decomposed() const;

    /**
     * Force the dense whole-fabric solve regardless of the cluster
     * plan (the small-N reference, and the baseline the scaling bench
     * times against).
     */
    Schedule
    scheduleMonolithic(const std::vector<FlowSpec> &flows,
                       const std::vector<double> &priorities) const;

    /**
     * Force the decomposed solve: one compact sub-ILP per cluster
     * (intra-cluster share of each flow's round budget), then greedy
     * stitching of the inter-cluster relay traffic into the backbone
     * share, scaling flows down when the backbone would overrun. On a
     * single-cluster plan this is the monolithic solve.
     */
    Schedule
    scheduleDecomposed(const std::vector<FlowSpec> &flows,
                       const std::vector<double> &priorities) const;

    /**
     * Re-solve exactly one cluster around @p dead_nodes (all of which
     * must belong to @p cluster); every other cluster's columns are
     * copied from @p original untouched. This is the entry the
     * simulator's per-cluster runtimes use mid-quantum: it reads
     * shared state immutably and never scales other clusters, so
     * concurrent calls for distinct clusters are safe. The re-solved
     * cluster is clamped to its pre-death totals, keeping relay
     * payloads monotonically non-increasing until the runtime's next
     * barrier, where restitchBackbone() re-stitches the backbone
     * fabric-wide and reclaims the capacity the clamp gave up.
     */
    RescheduleResult
    rescheduleCluster(const std::vector<FlowSpec> &flows,
                      const std::vector<double> &priorities,
                      const Schedule &original,
                      const std::vector<std::size_t> &dead_nodes,
                      std::size_t cluster) const;

    /**
     * Fabric-wide backbone re-stitch, run at a runtime barrier after
     * relay failover, node death, or a partition transition. Starting
     * from @p original (the boot schedule, so repeated re-stitches
     * never ratchet allocations down), every cluster owning one of
     * @p dead_nodes is re-solved unclamped via the incremental
     * per-cluster sub-ILP, then the inter-cluster backbone is
     * re-stitched against a reachability mask that excludes
     * @p unreachable_clusters' members (their intra-cluster TDMA
     * keeps its allocation; only their backbone contribution is
     * dropped). With no dead nodes and no unreachable clusters the
     * result is the original schedule — a heal restores full
     * capacity exactly.
     */
    RescheduleResult restitchBackbone(
        const std::vector<FlowSpec> &flows,
        const std::vector<double> &priorities,
        const Schedule &original,
        const std::vector<std::size_t> &dead_nodes,
        const std::vector<std::size_t> &unreachable_clusters = {})
        const;

  private:
    /** What one resolve() call re-solves, and how it merges. */
    struct Resolve
    {
        /** The partition posed: the flat plan for monolithic solves. */
        const net::ClusterPlan &plan;
        /** Clusters whose sub-ILPs are solved, in this order. */
        std::vector<std::size_t> clusters = {};
        /** Clusters dropped from the backbone stitch (partitioned). */
        std::vector<std::size_t> unreachable = {};
        /** Cap each re-solved cluster at the base's per-flow totals. */
        bool clampToBase = false;
        /** Re-stitch the backbone; off leaves other clusters as-is. */
        bool stitch = true;
    };

    /**
     * The one scheduling path every entry takes. Starting from
     * @p base with @p dead_nodes' columns zeroed, solve each of
     * @p how.clusters' sub-ILPs over the live nodes, merge them in,
     * stitch the backbone over the reachable nodes, and recompute
     * totals and power under @p how.plan. An infeasible @p base asks
     * for a fresh schedule from nothing, which fails as a whole when a
     * sub-ILP does; a repair instead keeps the base columns of a
     * cluster whose solve is not Optimal (viaIlp = false).
     */
    RescheduleResult resolve(const std::vector<FlowSpec> &flows,
                             const std::vector<double> &priorities,
                             const Schedule &base,
                             const std::vector<std::size_t> &dead_nodes,
                             const Resolve &how) const;

    /** A cluster's sub-ILP and its electrode-count variables. */
    struct ClusterModel
    {
        ilp::Model model;
        /** electrodeVars[f][i]: flow f's count on the i-th member. */
        std::vector<std::vector<int>> electrodeVars;
    };

    /**
     * Build @p cluster's compact sub-ILP: variables and constraints
     * only for its member nodes, the flow round budgets scaled to the
     * intra-cluster share.
     */
    ClusterModel buildClusterModel(const std::vector<FlowSpec> &flows,
                                   const std::vector<double> &priorities,
                                   const net::ClusterPlan &plan,
                                   const std::vector<bool> &alive,
                                   std::size_t cluster) const;

    /**
     * Build and solve @p cluster's sub-ILP. On Optimal, writes the
     * members' columns of @p allocs; otherwise leaves them untouched.
     */
    ilp::Status solveCluster(const std::vector<FlowSpec> &flows,
                             const std::vector<double> &priorities,
                             const net::ClusterPlan &plan,
                             const std::vector<bool> &alive,
                             std::size_t cluster,
                             std::vector<FlowAllocation> &allocs) const;

    /**
     * Greedy backbone stitching: fit each networked flow's per-cluster
     * relay aggregates into the backbone share of its round budget,
     * uniformly scaling sender electrodes down (or starving the flow)
     * when they do not fit.
     */
    void stitchBackbone(const std::vector<FlowSpec> &flows,
                        Schedule &combined,
                        const net::ClusterPlan &plan,
                        const std::vector<bool> &alive) const;

    /** Recompute totals/throughput/nodePower after a merge or stitch. */
    void finalizeSchedule(const std::vector<FlowSpec> &flows,
                          const std::vector<double> &priorities,
                          Schedule &combined,
                          const net::ClusterPlan &plan,
                          const std::vector<bool> &alive) const;

    /** LP or ILP per the config, through the memo. */
    ilp::Solution solve(const ilp::Model &model) const;

    SystemConfig systemConfig;
    net::ClusterPlan flatPlan;
    net::ClusterPlan effectivePlan;
    mutable ilp::SolveMemo solveMemo;
};

} // namespace scalo::sched
