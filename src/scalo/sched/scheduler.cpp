#include "scalo/sched/scheduler.hpp"

#include <algorithm>

#include "scalo/hw/nvm.hpp"
#include "scalo/ilp/solver.hpp"
#include "scalo/net/packet.hpp"
#include "scalo/util/contracts.hpp"
#include "scalo/util/logging.hpp"

namespace scalo::sched {

using namespace units::literals;

namespace {

/** TDMA slot guard time (radio turnaround), matching net::TdmaSchedule. */
constexpr units::Millis kGuard = units::Micros{20.0};

/**
 * Linearised wire time for one payload byte: per-packet overhead
 * amortised as a rate factor. (The ILP needs per-byte coefficients,
 * so this is where a time deliberately leaves the unit system as ms.)
 */
units::Millis
wireTimePerByte(const net::RadioSpec &radio)
{
    const double overhead_factor =
        1.0 + static_cast<double>(net::kPacketOverheadBytes) /
                  static_cast<double>(net::kMaxPayloadBytes);
    return overhead_factor * (1.0_B / radio.dataRate);
}

units::Millis
wireFixed(const net::RadioSpec &radio)
{
    return units::Bytes{static_cast<double>(
               net::kPacketOverheadBytes)} /
               radio.dataRate +
           kGuard;
}

/**
 * Indices of live nodes that transmit for a flow's pattern. With
 * every node alive this reproduces the canonical roles (node 0
 * broadcasts / aggregates); after failures the first surviving node
 * inherits the broadcaster/aggregator role.
 */
std::vector<std::size_t>
senders(net::Pattern pattern, const std::vector<bool> &alive)
{
    std::vector<std::size_t> live;
    for (std::size_t n = 0; n < alive.size(); ++n)
        if (alive[n])
            live.push_back(n);
    std::vector<std::size_t> out;
    switch (pattern) {
      case net::Pattern::OneToAll:
        if (!live.empty())
            out.push_back(live.front());
        break;
      case net::Pattern::AllToAll:
        out = live;
        break;
      case net::Pattern::AllToOne:
        for (std::size_t i = 1; i < live.size(); ++i)
            out.push_back(live[i]);
        break;
    }
    return out;
}

/** Leakage charged to every live node for @p flows (radio once). */
units::Milliwatts
totalLeak(const SystemConfig &config,
          const std::vector<FlowSpec> &flows)
{
    units::Milliwatts radio_leak{0.0};
    std::size_t networked = 0;
    for (const FlowSpec &flow : flows)
        if (flow.network)
            ++networked;
    if (config.wirelessNetwork && networked > 0)
        radio_leak = config.radio->power;

    units::Milliwatts leak_total{0.0};
    for (const FlowSpec &flow : flows) {
        units::Milliwatts leak = flow.leak;
        if (flow.network) {
            // FlowSpec folds the default radio into its leakage;
            // replace it with the configured radio, charged once.
            leak -= net::defaultRadio().power;
        }
        leak_total += leak;
    }
    return leak_total + radio_leak;
}

/**
 * Per-node power of an allocation: leakage on live nodes plus each
 * flow's linear/quadratic dynamic terms. Exact-compare flows charge
 * the receive side hierarchically: nodes compare windows against
 * their cluster peers only, and each cluster's relay additionally
 * compares the other clusters' backbone aggregates. (This is the
 * point of clustering: all-pairs comparison work turns into
 * per-cluster work plus one relay-side pass.) On a one-cluster plan
 * the relay term is zero and this is the flat all-pairs model. Dead
 * nodes are off and draw nothing.
 */
std::vector<units::Milliwatts>
allocationPower(const SystemConfig &config,
                const std::vector<FlowSpec> &flows,
                const std::vector<FlowAllocation> &allocs,
                const std::vector<bool> &alive,
                units::Milliwatts leak_total,
                const net::ClusterPlan &plan)
{
    std::vector<units::Milliwatts> power(config.nodes,
                                         units::Milliwatts{0.0});
    for (std::size_t n = 0; n < config.nodes; ++n)
        if (alive[n])
            power[n] = leak_total;
    const std::size_t cluster_count = plan.clusterCount();
    std::vector<double> cluster_total(cluster_count, 0.0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
        const bool exact = flows[f].network &&
                           flows[f].network->exactCompare &&
                           config.wirelessNetwork;
        if (!exact) {
            for (std::size_t n = 0; n < config.nodes; ++n) {
                if (!alive[n])
                    continue;
                const double e = allocs[f].electrodesPerNode[n];
                power[n] += flows[f].linPerElectrode * e +
                            flows[f].quadPerElectrode2 * e * e;
            }
            continue;
        }
        std::fill(cluster_total.begin(), cluster_total.end(), 0.0);
        double flow_total = 0.0;
        for (std::size_t n = 0; n < config.nodes; ++n) {
            const double e = allocs[f].electrodesPerNode[n];
            cluster_total[plan.clusterOf(n)] += e;
            flow_total += e;
        }
        for (std::size_t n = 0; n < config.nodes; ++n) {
            if (!alive[n])
                continue;
            power[n] +=
                flows[f].linPerElectrode *
                (cluster_total[plan.clusterOf(n)] -
                 allocs[f].electrodesPerNode[n]);
        }
        for (std::size_t c = 0; c < cluster_count; ++c) {
            const std::size_t relay = plan.relay(
                c, [&](std::size_t n) { return alive[n]; });
            if (relay != net::ClusterPlan::kNoRelay)
                power[relay] += flows[f].linPerElectrode *
                                (flow_total - cluster_total[c]);
        }
    }
    return power;
}

/**
 * Add tangent cuts approximating q >= e^2 from below (exact at the
 * grid points; the maximizing LP sits on the hull, so the error is
 * bounded by the grid pitch squared over four).
 */
void
addQuadraticCuts(ilp::Model &model, int e_var, int q_var, double e_max)
{
    constexpr int kCuts = 32;
    for (int i = 0; i <= kCuts; ++i) {
        const double e0 =
            e_max * static_cast<double>(i) / static_cast<double>(kCuts);
        // q >= 2 e0 e - e0^2.
        model.addConstraint({{q_var, 1.0}, {e_var, -2.0 * e0}},
                            ilp::Relation::GreaterEq, -e0 * e0);
    }
}

/** Why a solve produced no allocation, for Schedule::reason. */
std::string
failureText(ilp::Status status)
{
    return status == ilp::Status::BudgetExceeded
               ? "exceeded its solver budget"
               : "infeasible";
}

/**
 * At or below this node count schedule() keeps the dense monolithic
 * solve even on a multi-cluster plan, so small-N schedules are
 * bit-identical to the flat ones.
 */
constexpr std::size_t kMonolithicNodeThreshold = 48;

/**
 * Static gates a flow set must pass before any ILP is posed; empty
 * when it does. The PE chains are pipelined at the window cadence
 * (each PE sits in its own clock domain and overlaps with its
 * neighbours), so the binding serial component is the network
 * exchange round, which must fit the response-time target. And
 * leakage alone must leave room under the power cap: this keeps every
 * power row's budget positive, one half of the zero-feasibility
 * contract.
 */
std::string
unschedulable(const SystemConfig &config,
              const std::vector<FlowSpec> &flows)
{
    for (const FlowSpec &flow : flows) {
        if (flow.network &&
            flow.network->roundBudget >
                flow.responseTime + units::Millis{1e-9})
            return "flow '" + flow.name +
                   "' cannot meet its response time";
    }
    if (config.powerCap - totalLeak(config, flows) <= 0.0_mW)
        return "leakage alone exceeds the power cap";
    return {};
}

units::Milliwatts
maxPower(const std::vector<units::Milliwatts> &power)
{
    units::Milliwatts peak{0.0};
    for (const units::Milliwatts p : power)
        peak = std::max(peak, p);
    return peak;
}

std::vector<std::size_t>
allClusters(const net::ClusterPlan &plan)
{
    std::vector<std::size_t> out(plan.clusterCount());
    for (std::size_t c = 0; c < out.size(); ++c)
        out[c] = c;
    return out;
}

/**
 * The clusters owning @p dead_nodes, ascending and distinct. Ids past
 * the plan are skipped here; resolve() rejects them.
 */
std::vector<std::size_t>
deadClusters(const net::ClusterPlan &plan,
             const std::vector<std::size_t> &dead_nodes)
{
    std::vector<std::size_t> out;
    for (const std::size_t n : dead_nodes)
        if (n < plan.nodeCount())
            out.push_back(plan.clusterOf(n));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

/**
 * Cap a re-solved cluster's per-flow totals at the pre-death totals
 * of @p original. A fresh sub-solve does not know how the backbone
 * stitch had scaled the flow fabric-wide; clamping keeps relay
 * payloads monotonically non-increasing, which is what lets a
 * cluster reschedule skip the (fabric-wide) re-stitch.
 */
void
clampClusterToOriginal(const Schedule &original, Schedule &repaired,
                       const std::vector<std::size_t> &members)
{
    for (std::size_t f = 0; f < repaired.flows.size(); ++f) {
        double before = 0.0;
        double after = 0.0;
        for (const std::size_t n : members) {
            before += original.flows[f].electrodesPerNode[n];
            after += repaired.flows[f].electrodesPerNode[n];
        }
        if (after > before + 1e-9 && after > 0.0) {
            const double scale = before / after;
            for (const std::size_t n : members)
                repaired.flows[f].electrodesPerNode[n] *= scale;
        }
    }
}

} // namespace

Scheduler::Scheduler(SystemConfig config)
    : systemConfig(std::move(config))
{
    SCALO_ASSERT(systemConfig.nodes >= 1, "need at least one node");
    SCALO_ASSERT(systemConfig.powerCap > 0.0_mW,
                 "power cap must be > 0");
    flatPlan = net::ClusterPlan::flat(systemConfig.nodes);
    effectivePlan =
        systemConfig.clusters.empty() ? flatPlan : systemConfig.clusters;
    effectivePlan.validate();
    SCALO_ASSERT(effectivePlan.nodeCount() == systemConfig.nodes,
                 "cluster plan must cover every node");
}

ilp::Solution
Scheduler::solve(const ilp::Model &model) const
{
    return systemConfig.integerElectrodes ? solveMemo.solveIlp(model)
                                          : solveMemo.solveLp(model);
}

bool
Scheduler::decomposed() const
{
    return effectivePlan.clusterCount() > 1 &&
           systemConfig.nodes > kMonolithicNodeThreshold;
}

Schedule
Scheduler::schedule(const std::vector<FlowSpec> &flows,
                    const std::vector<double> &priorities) const
{
    return decomposed() ? scheduleDecomposed(flows, priorities)
                        : scheduleMonolithic(flows, priorities);
}

Schedule
Scheduler::scheduleMonolithic(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities) const
{
    return resolve(flows, priorities, Schedule{}, {},
                   {.plan = flatPlan, .clusters = {0}})
        .schedule;
}

Schedule
Scheduler::scheduleDecomposed(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities) const
{
    return resolve(flows, priorities, Schedule{}, {},
                   {.plan = effectivePlan,
                    .clusters = allClusters(effectivePlan)})
        .schedule;
}

ilp::Model
Scheduler::clusterModel(const std::vector<FlowSpec> &flows,
                        const std::vector<double> &priorities,
                        std::size_t cluster) const
{
    const net::ClusterPlan &plan =
        decomposed() ? effectivePlan : flatPlan;
    SCALO_ASSERT(cluster < plan.clusterCount(), "cluster ", cluster,
                 " out of range");
    return buildClusterModel(flows, priorities, plan,
                             std::vector<bool>(systemConfig.nodes, true),
                             cluster)
        .model;
}

ilp::Status
Scheduler::solveCluster(const std::vector<FlowSpec> &flows,
                        const std::vector<double> &priorities,
                        const net::ClusterPlan &plan,
                        const std::vector<bool> &alive,
                        std::size_t cluster,
                        std::vector<FlowAllocation> &allocs) const
{
    const ClusterModel built =
        buildClusterModel(flows, priorities, plan, alive, cluster);
    const ilp::Solution solution = solve(built.model);
    if (!solution.ok())
        return solution.status;
    const std::vector<std::size_t> members = plan.members(cluster);
    for (std::size_t f = 0; f < flows.size(); ++f)
        for (std::size_t i = 0; i < members.size(); ++i)
            allocs[f].electrodesPerNode[members[i]] =
                solution.values[static_cast<std::size_t>(
                    built.electrodeVars[f][i])];
    return solution.status;
}

Scheduler::ClusterModel
Scheduler::buildClusterModel(const std::vector<FlowSpec> &flows,
                             const std::vector<double> &priorities,
                             const net::ClusterPlan &plan,
                             const std::vector<bool> &alive,
                             std::size_t cluster) const
{
    const std::size_t nodes = systemConfig.nodes;
    const std::vector<std::size_t> members = plan.members(cluster);
    // Networked flows split their round budget between the
    // intra-cluster rounds and the backbone, and centralised caps are
    // a fabric-wide resource of which each cluster receives its
    // proportional share. A one-cluster plan keeps both whole.
    const bool split = plan.clusterCount() > 1;
    const double intra_share = split ? 1.0 - plan.backboneShare : 1.0;
    // Per-node leakage: each flow pays its own leakage, but the
    // intra-SCALO radio is one physical device, charged once.
    const units::Milliwatts power_budget =
        systemConfig.powerCap - totalLeak(systemConfig, flows);

    ilp::Model model;
    const double e_cap = systemConfig.maxElectrodesPerNode > 0.0
                             ? systemConfig.maxElectrodesPerNode
                             : 100'000.0;

    // Variables exist only for member nodes: e_vars[f][i] belongs to
    // members[i]. This is what keeps the sub-problem size independent
    // of the fabric size.
    std::vector<std::vector<int>> e_vars(flows.size());
    std::vector<std::vector<int>> q_vars(flows.size());
    std::vector<std::vector<bool>> is_sender(flows.size());
    std::vector<std::vector<std::size_t>> sub_tx(flows.size());
    ilp::Expr objective;

    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowSpec &flow = flows[f];
        const bool exact = flow.network && flow.network->exactCompare;
        if (flow.network) {
            // Sender roles are global (the fabric-wide first survivor
            // broadcasts/aggregates); the sub-problem sees the
            // intersection with its members.
            for (const std::size_t n :
                 senders(flow.network->pattern, alive))
                if (plan.clusterOf(n) == cluster)
                    sub_tx[f].push_back(n);
        }
        // Exact-compare flows only give credit (and allocate
        // electrodes) to the transmitting nodes; dead nodes process
        // nothing for any flow.
        is_sender[f].assign(members.size(), false);
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (exact && systemConfig.wirelessNetwork) {
                for (const std::size_t n : sub_tx[f])
                    if (n == members[i])
                        is_sender[f][i] = true;
            } else {
                is_sender[f][i] = alive[members[i]];
            }
        }
        // Upper bound from power alone, used to place tangent cuts.
        const double e_power_max = std::min(
            e_cap, flow.electrodesAtPower(systemConfig.powerCap));
        for (std::size_t i = 0; i < members.size(); ++i) {
            const int e = model.addVariable(
                flow.name + ".e" + std::to_string(members[i]), 0.0,
                is_sender[f][i] ? e_cap : 0.0,
                systemConfig.integerElectrodes);
            e_vars[f].push_back(e);
            if (is_sender[f][i])
                objective.push_back({e, priorities[f]});
            if (flow.quadPerElectrode2.count() > 0.0) {
                const int q = model.addVariable(
                    flow.name + ".q" + std::to_string(members[i]),
                    0.0, ilp::kInf, false);
                q_vars[f].push_back(q);
                addQuadraticCuts(model, e, q,
                                 std::max(1.0, e_power_max) * 1.05);
            } else {
                q_vars[f].push_back(-1);
            }
        }
        // Centralised caps (e.g. the Kalman aggregator's NVM).
        if (flow.centralElectrodeCap > 0.0) {
            ilp::Expr total;
            for (int e : e_vars[f])
                total.push_back({e, 1.0});
            model.addConstraint(
                std::move(total), ilp::Relation::LessEq,
                split ? flow.centralElectrodeCap *
                            static_cast<double>(members.size()) /
                            static_cast<double>(nodes)
                      : flow.centralElectrodeCap,
                flow.name + ".central-cap");
        }
    }

    // Per-node power and NVM write bandwidth. The ILP's coefficient
    // matrix is unitless, so rates and powers enter as their counts
    // (bytes/s and mW) - the one sanctioned escape hatch.
    const double nvm_write_bps =
        hw::nvmSpec().writeBandwidth().count() * 1e6;
    for (std::size_t i = 0; i < members.size(); ++i) {
        // A dead node draws no power and writes nothing; leaving its
        // receive-side constraints in place would wrongly bound the
        // survivors.
        if (!alive[members[i]])
            continue;
        ilp::Expr power;
        ilp::Expr nvm;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const FlowSpec &flow = flows[f];
            const bool exact = flow.network &&
                               flow.network->exactCompare &&
                               systemConfig.wirelessNetwork;
            if (exact) {
                // The comparison work lands on the receivers: node i
                // checks the windows of its cluster peers against its
                // local history (remote clusters arrive as relay
                // aggregates, charged to the relay).
                for (std::size_t j = 0; j < members.size(); ++j) {
                    if (j != i && is_sender[f][j] &&
                        flow.linPerElectrode.count() > 0.0) {
                        power.push_back(
                            {e_vars[f][j],
                             flow.linPerElectrode.count()});
                    }
                }
            } else if (flow.linPerElectrode.count() > 0.0) {
                power.push_back(
                    {e_vars[f][i], flow.linPerElectrode.count()});
            }
            if (flow.quadPerElectrode2.count() > 0.0)
                power.push_back(
                    {q_vars[f][i], flow.quadPerElectrode2.count()});
            if (flow.nvmWriteBytesPerElecPerSec > 0.0)
                nvm.push_back({e_vars[f][i],
                               flow.nvmWriteBytesPerElecPerSec});
        }
        if (!power.empty())
            model.addConstraint(
                std::move(power), ilp::Relation::LessEq,
                power_budget.count(),
                "power.node" + std::to_string(members[i]));
        if (!nvm.empty())
            model.addConstraint(
                std::move(nvm), ilp::Relation::LessEq, nvm_write_bps,
                "nvm.node" + std::to_string(members[i]));
    }

    // Network budgets: for each networked flow, the serialized TDMA
    // round of this cluster's senders must fit the intra share of its
    // budget. The wireless medium is shared across flows, so flows
    // running concurrently also share the window cadence; each flow's
    // budget already reflects its share of the schedule (Section 3.5
    // interleaves flows on the fixed TDMA schedule the ILP emits).
    if (systemConfig.wirelessNetwork) {
        const net::RadioSpec &radio = *systemConfig.radio;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const FlowSpec &flow = flows[f];
            if (!flow.network || sub_tx[f].empty())
                continue;
            ilp::Expr round;
            units::Millis fixed{0.0};
            std::vector<int> tx_vars;
            for (const std::size_t n : sub_tx[f]) {
                const std::size_t i = n - plan.firstOf(cluster);
                tx_vars.push_back(e_vars[f][i]);
                if (flow.network->bytesPerElectrode > 0.0)
                    round.push_back(
                        {e_vars[f][i],
                         flow.network->bytesPerElectrode *
                             wireTimePerByte(radio).count()});
                fixed += wireFixed(radio) +
                         flow.network->bytesPerNode *
                             wireTimePerByte(radio);
            }
            const units::Millis budget =
                intra_share * flow.network->roundBudget - fixed;
            if (budget < 0.0_ms) {
                // Even empty packets from every sender overrun the
                // round: this flow cannot run here, so it is
                // allocated nothing (the rest of the schedule stands).
                for (const int e : tx_vars)
                    model.addConstraint({{e, 1.0}},
                                        ilp::Relation::LessEq, 0.0,
                                        flow.name + ".starved");
                continue;
            }
            if (!round.empty())
                model.addConstraint(std::move(round),
                                    ilp::Relation::LessEq,
                                    budget.count(),
                                    flow.name + ".network");
        }
    }

    // Zero-feasibility: every row is a `<=` against a non-negative
    // budget (a negative round budget became `.starved` rows above),
    // or a tangent cut that holds at e = q = 0. So allocating nothing
    // is always feasible, and a solve can only fall short of Optimal
    // by exceeding a solver budget (the simplex pivot cap, or integer
    // mode's branch-and-bound nodes).
    SCALO_ENSURES(
        model.feasible(std::vector<double>(model.variables().size())));

    model.setObjective(std::move(objective), /*maximize=*/true);
    return {std::move(model), std::move(e_vars)};
}

void
Scheduler::stitchBackbone(const std::vector<FlowSpec> &flows,
                          Schedule &combined,
                          const net::ClusterPlan &plan,
                          const std::vector<bool> &alive) const
{
    if (!systemConfig.wirelessNetwork || plan.clusterCount() <= 1)
        return;
    const net::RadioSpec &radio = *systemConfig.radio;
    const std::size_t cluster_count = plan.clusterCount();
    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowSpec &flow = flows[f];
        if (!flow.network)
            continue;
        FlowAllocation &alloc = combined.flows[f];
        const auto tx = senders(flow.network->pattern, alive);
        if (tx.empty())
            continue;
        // One relay transmission per cluster with senders: its fixed
        // packet cost plus the cluster's aggregated payload.
        std::vector<std::size_t> tx_per_cluster(cluster_count, 0);
        for (const std::size_t n : tx)
            ++tx_per_cluster[plan.clusterOf(n)];
        units::Millis fixed{0.0};
        double variable_ms = 0.0;
        for (std::size_t c = 0; c < cluster_count; ++c) {
            if (tx_per_cluster[c] == 0)
                continue;
            fixed += wireFixed(radio) +
                     static_cast<double>(tx_per_cluster[c]) *
                         flow.network->bytesPerNode *
                         wireTimePerByte(radio);
        }
        for (const std::size_t n : tx)
            variable_ms += alloc.electrodesPerNode[n] *
                           flow.network->bytesPerElectrode *
                           wireTimePerByte(radio).count();
        const double budget_ms =
            (plan.backboneShare * flow.network->roundBudget - fixed)
                .count();
        if (budget_ms <= 0.0) {
            // The relays' empty aggregates alone overrun the backbone
            // share: the flow cannot span clusters at this scale.
            for (double &e : alloc.electrodesPerNode)
                e = 0.0;
        } else if (variable_ms > budget_ms) {
            const double scale = budget_ms / variable_ms;
            for (const std::size_t n : tx)
                alloc.electrodesPerNode[n] *= scale;
        }
    }
}

void
Scheduler::finalizeSchedule(const std::vector<FlowSpec> &flows,
                            const std::vector<double> &priorities,
                            Schedule &combined,
                            const net::ClusterPlan &plan,
                            const std::vector<bool> &alive) const
{
    combined.totalThroughput = units::MegabitsPerSecond{0.0};
    combined.weightedThroughput = units::MegabitsPerSecond{0.0};
    for (std::size_t f = 0; f < flows.size(); ++f) {
        FlowAllocation &alloc = combined.flows[f];
        alloc.totalElectrodes = 0.0;
        for (const double e : alloc.electrodesPerNode)
            alloc.totalElectrodes += e;
        alloc.throughput = electrodesToRate(alloc.totalElectrodes);
        combined.totalThroughput += alloc.throughput;
        combined.weightedThroughput +=
            priorities[f] * alloc.throughput;
    }
    combined.nodePower =
        allocationPower(systemConfig, flows, combined.flows, alive,
                        totalLeak(systemConfig, flows), plan);
}

RescheduleResult
Scheduler::resolve(const std::vector<FlowSpec> &flows,
                   const std::vector<double> &priorities,
                   const Schedule &base,
                   const std::vector<std::size_t> &dead_nodes,
                   const Resolve &how) const
{
    SCALO_ASSERT(flows.size() == priorities.size(),
                 "one priority per flow");
    const std::size_t nodes = systemConfig.nodes;
    const net::ClusterPlan &plan = how.plan;
    RescheduleResult result;
    result.deadNodes = dead_nodes;
    std::sort(result.deadNodes.begin(), result.deadNodes.end());
    result.deadNodes.erase(std::unique(result.deadNodes.begin(),
                                       result.deadNodes.end()),
                           result.deadNodes.end());
    // Hard checks, not contracts: an out-of-range id would index past
    // the alive mask or the plan's offsets in release builds.
    for (const std::size_t n : result.deadNodes)
        SCALO_ASSERT(n < nodes, "dead node ", n, " out of range");
    for (const auto *ids : {&how.clusters, &how.unreachable})
        for (const std::size_t c : *ids)
            SCALO_ASSERT(c < plan.clusterCount(), "cluster ", c,
                         " out of range");

    std::vector<bool> alive(nodes, true);
    for (const std::size_t n : result.deadNodes)
        alive[n] = false;
    // Every dead node's cluster is re-solved, unless nothing is (the
    // bare fallback).
    for ([[maybe_unused]] const std::size_t n : result.deadNodes)
        SCALO_EXPECTS(how.clusters.empty() ||
                      std::find(how.clusters.begin(),
                                how.clusters.end(),
                                plan.clusterOf(n)) !=
                          how.clusters.end());
    result.resolvedClusters = how.clusters;
    result.throughputBefore = base.totalThroughput;
    result.maxNodePowerBefore = maxPower(base.nodePower);

    // An infeasible base asks for a fresh schedule, which starts from
    // nothing and fails as a whole. A repair starts from the base with
    // the dead nodes' columns zeroed: that is also its fallback, kept
    // for any cluster whose re-solve does not return Optimal.
    const bool fresh = !base.feasible;
    Schedule out = base;
    if (fresh) {
        out = Schedule{};
        for (const FlowSpec &flow : flows)
            out.flows.push_back({flow.name,
                                 std::vector<double>(nodes, 0.0)});
    }
    for (FlowAllocation &alloc : out.flows)
        for (const std::size_t n : result.deadNodes)
            alloc.electrodesPerNode[n] = 0.0;

    std::string failure = unschedulable(systemConfig, flows);
    result.viaIlp = failure.empty();
    for (std::size_t i = 0; i < how.clusters.size() && failure.empty();
         ++i) {
        const std::size_t c = how.clusters[i];
        const ilp::Status status = solveCluster(
            flows, priorities, plan, alive, c, out.flows);
        if (status == ilp::Status::Optimal) {
            if (how.clampToBase)
                clampClusterToOriginal(base, out, plan.members(c));
            continue;
        }
        result.viaIlp = false;
        if (fresh)
            failure = "cluster " + std::to_string(c) + " sub-ILP " +
                      failureText(status);
    }
    if (fresh && !result.viaIlp) {
        result.schedule.reason = std::move(failure);
        return result;
    }

    out.feasible = true;
    if (how.stitch) {
        // The stitch sees only reachable senders: a partitioned
        // cluster keeps its intra-cluster allocation running but
        // contributes no backbone traffic until it heals.
        std::vector<bool> reachable = alive;
        for (const std::size_t c : how.unreachable)
            for (const std::size_t n : plan.members(c))
                reachable[n] = false;
        stitchBackbone(flows, out, plan, reachable);
    }
    finalizeSchedule(flows, priorities, out, plan, alive);

    result.throughputAfter = out.totalThroughput;
    result.maxNodePowerAfter = maxPower(out.nodePower);
    result.schedule = std::move(out);
    // Degradation never assigns work or power to a dead node.
    for ([[maybe_unused]] const std::size_t n : result.deadNodes)
        for ([[maybe_unused]] const FlowAllocation &alloc :
             result.schedule.flows)
            SCALO_ENSURES(alloc.electrodesPerNode[n] == 0.0);
    for ([[maybe_unused]] const units::Milliwatts p :
         result.schedule.nodePower)
        SCALO_ENSURES(p.count() >= 0.0);
    return result;
}

RescheduleResult
Scheduler::reschedule(const std::vector<FlowSpec> &flows,
                      const std::vector<double> &priorities,
                      const Schedule &original,
                      const std::vector<std::size_t> &dead_nodes)
    const
{
    SCALO_EXPECTS(original.feasible);
    if (decomposed()) {
        // Incremental: only clusters containing dead nodes are
        // re-solved; everything else keeps its allocation.
        return resolve(
            flows, priorities, original, dead_nodes,
            {.plan = effectivePlan,
             .clusters = deadClusters(effectivePlan, dead_nodes),
             .clampToBase = true});
    }
    // Monolithic: one full, unclamped re-solve of the whole fabric.
    RescheduleResult result =
        resolve(flows, priorities, original, dead_nodes,
                {.plan = flatPlan, .clusters = {0}});
    result.resolvedClusters = allClusters(effectivePlan);
    return result;
}

Schedule
Scheduler::shedDeadNodes(const std::vector<FlowSpec> &flows,
                         const std::vector<double> &priorities,
                         const Schedule &original,
                         const std::vector<std::size_t> &dead_nodes)
    const
{
    SCALO_EXPECTS(original.feasible);
    return resolve(flows, priorities, original, dead_nodes,
                   {.plan = decomposed() ? effectivePlan : flatPlan})
        .schedule;
}

RescheduleResult
Scheduler::rescheduleCluster(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities,
    const Schedule &original,
    const std::vector<std::size_t> &dead_nodes,
    std::size_t cluster) const
{
    SCALO_EXPECTS(original.feasible);
    return resolve(flows, priorities, original, dead_nodes,
                   {.plan = effectivePlan,
                    .clusters = {cluster},
                    .clampToBase = true,
                    .stitch = false});
}

RescheduleResult
Scheduler::restitchBackbone(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities,
    const Schedule &original,
    const std::vector<std::size_t> &dead_nodes,
    const std::vector<std::size_t> &unreachable_clusters) const
{
    SCALO_EXPECTS(original.feasible);
    // A heal with nothing dead and nothing unreachable restores the
    // boot schedule verbatim. Restitching it instead would not be a
    // no-op: a monolithic boot schedule never went through
    // stitchBackbone, so re-stitching would scale it down.
    if (dead_nodes.empty() && unreachable_clusters.empty()) {
        RescheduleResult result;
        result.schedule = original;
        result.viaIlp = true;
        result.throughputBefore = original.totalThroughput;
        result.throughputAfter = original.totalThroughput;
        result.maxNodePowerBefore = maxPower(original.nodePower);
        result.maxNodePowerAfter = result.maxNodePowerBefore;
        return result;
    }
    // Clusters owning dead nodes get fresh *unclamped* sub-solves,
    // reclaiming the capacity the mid-quantum clamp conservatively
    // gave up; untouched clusters keep their boot allocation.
    return resolve(
        flows, priorities, original, dead_nodes,
        {.plan = effectivePlan,
         .clusters = deadClusters(effectivePlan, dead_nodes),
         .unreachable = unreachable_clusters});
}

units::MegabitsPerSecond
Scheduler::maxAggregateThroughput(const FlowSpec &flow) const
{
    const Schedule s = schedule({flow}, {1.0});
    return s.feasible ? s.totalThroughput
                      : units::MegabitsPerSecond{0.0};
}

} // namespace scalo::sched
