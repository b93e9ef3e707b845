#include "scalo/sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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
 * flow's linear/quadratic dynamic terms (receive-side for
 * exact-compare flows). Dead nodes are off and draw nothing.
 */
std::vector<units::Milliwatts>
allocationPower(const SystemConfig &config,
                const std::vector<FlowSpec> &flows,
                const std::vector<FlowAllocation> &allocs,
                const std::vector<bool> &alive,
                units::Milliwatts leak_total)
{
    std::vector<units::Milliwatts> power(config.nodes,
                                         units::Milliwatts{0.0});
    for (std::size_t n = 0; n < config.nodes; ++n)
        if (alive[n])
            power[n] = leak_total;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        const bool exact = flows[f].network &&
                           flows[f].network->exactCompare &&
                           config.wirelessNetwork;
        for (std::size_t n = 0; n < config.nodes; ++n) {
            if (!alive[n])
                continue;
            const double e = allocs[f].electrodesPerNode[n];
            if (exact) {
                // Receive-side comparison power.
                power[n] += flows[f].linPerElectrode *
                            (allocs[f].totalElectrodes - e);
            } else {
                power[n] += flows[f].linPerElectrode * e +
                            flows[f].quadPerElectrode2 * e * e;
            }
        }
    }
    return power;
}

/**
 * Per-node power under the hierarchical exact-compare model: nodes
 * compare windows against their cluster peers only, and each
 * cluster's relay additionally compares the other clusters' backbone
 * aggregates. (This is the point of clustering: all-pairs comparison
 * work turns into per-cluster work plus one relay-side pass.)
 * Non-exact flows charge exactly as in the flat model.
 */
std::vector<units::Milliwatts>
allocationPowerClustered(const SystemConfig &config,
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
               ? "exceeded its branch-and-bound budget"
               : "infeasible";
}

} // namespace

Scheduler::Scheduler(SystemConfig config)
    : systemConfig(std::move(config))
{
    SCALO_ASSERT(systemConfig.nodes >= 1, "need at least one node");
    SCALO_ASSERT(systemConfig.powerCap > 0.0_mW,
                 "power cap must be > 0");
    effectivePlan = systemConfig.clusters.empty()
                        ? net::ClusterPlan::flat(systemConfig.nodes)
                        : systemConfig.clusters;
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
           systemConfig.nodes > systemConfig.monolithicNodeThreshold;
}

Schedule
Scheduler::schedule(const std::vector<FlowSpec> &flows,
                    const std::vector<double> &priorities) const
{
    if (decomposed())
        return scheduleDecomposed(flows, priorities);
    return scheduleMasked(
        flows, priorities,
        std::vector<bool>(systemConfig.nodes, true));
}

Schedule
Scheduler::scheduleMonolithic(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities) const
{
    return scheduleMasked(
        flows, priorities,
        std::vector<bool>(systemConfig.nodes, true));
}

Schedule
Scheduler::scheduleMasked(const std::vector<FlowSpec> &flows,
                          const std::vector<double> &priorities,
                          const std::vector<bool> &alive) const
{
    SCALO_ASSERT(flows.size() == priorities.size(),
                 "one priority per flow");
    SCALO_EXPECTS(alive.size() == systemConfig.nodes);
    Schedule result;
    const std::size_t nodes = systemConfig.nodes;

    // Static response-time feasibility: the PE chains are pipelined
    // at the window cadence (each PE sits in its own clock domain and
    // overlaps with its neighbours), so the binding serial component
    // is the network exchange round, which must fit the response-time
    // target.
    for (const FlowSpec &flow : flows) {
        if (flow.network &&
            flow.network->roundBudget >
                flow.responseTime + units::Millis{1e-9}) {
            result.reason = "flow '" + flow.name +
                            "' cannot meet its response time";
            return result;
        }
    }

    // Per-node leakage: each flow pays its own leakage, but the
    // intra-SCALO radio is one physical device, charged once.
    const units::Milliwatts leak_total =
        totalLeak(systemConfig, flows);
    const units::Milliwatts power_budget =
        systemConfig.powerCap - leak_total;
    if (power_budget <= 0.0_mW) {
        result.reason = "leakage alone exceeds the power cap";
        return result;
    }

    // Build the ILP.
    ilp::Model model;
    const double e_cap = systemConfig.maxElectrodesPerNode > 0.0
                             ? systemConfig.maxElectrodesPerNode
                             : 100'000.0;

    std::vector<std::vector<int>> e_vars(flows.size());
    std::vector<std::vector<int>> q_vars(flows.size());
    std::vector<std::vector<bool>> counted(flows.size());
    ilp::Expr objective;

    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowSpec &flow = flows[f];
        // Exact-compare flows only give credit (and allocate
        // electrodes) to the transmitting nodes.
        const bool exact = flow.network && flow.network->exactCompare;
        // Dead nodes process nothing for any flow.
        std::vector<bool> is_sender = alive;
        if (exact && systemConfig.wirelessNetwork) {
            std::fill(is_sender.begin(), is_sender.end(), false);
            for (std::size_t n :
                 senders(flow.network->pattern, alive)) {
                is_sender[n] = true;
            }
        }
        counted[f] = is_sender;
        // Upper bound from power alone, used to place tangent cuts.
        const double e_power_max = std::min(
            e_cap, flow.electrodesAtPower(systemConfig.powerCap));
        for (std::size_t n = 0; n < nodes; ++n) {
            const int e = model.addVariable(
                flow.name + ".e" + std::to_string(n), 0.0,
                is_sender[n] ? e_cap : 0.0,
                systemConfig.integerElectrodes);
            e_vars[f].push_back(e);
            if (is_sender[n])
                objective.push_back({e, priorities[f]});
            if (flow.quadPerElectrode2.count() > 0.0) {
                const int q = model.addVariable(
                    flow.name + ".q" + std::to_string(n), 0.0,
                    ilp::kInf, false);
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
            model.addConstraint(std::move(total),
                                ilp::Relation::LessEq,
                                flow.centralElectrodeCap,
                                flow.name + ".central-cap");
        }
    }

    // Per-node power and NVM write bandwidth. The ILP's coefficient
    // matrix is unitless, so rates and powers enter as their counts
    // (bytes/s and mW) - the one sanctioned escape hatch.
    const double nvm_write_bps =
        hw::nvmSpec().writeBandwidth().count() * 1e6;
    for (std::size_t n = 0; n < nodes; ++n) {
        // A dead node draws no power and writes nothing; leaving its
        // receive-side constraints in place would wrongly bound the
        // survivors.
        if (!alive[n])
            continue;
        ilp::Expr power;
        ilp::Expr nvm;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const FlowSpec &flow = flows[f];
            const bool exact = flow.network &&
                               flow.network->exactCompare &&
                               systemConfig.wirelessNetwork;
            if (exact) {
                // The comparison work lands on the receivers: node n
                // checks every window it receives against its local
                // history.
                for (std::size_t m = 0; m < nodes; ++m) {
                    if (m != n && counted[f][m] &&
                        flow.linPerElectrode.count() > 0.0) {
                        power.push_back(
                            {e_vars[f][m],
                             flow.linPerElectrode.count()});
                    }
                }
            } else if (flow.linPerElectrode.count() > 0.0) {
                power.push_back(
                    {e_vars[f][n], flow.linPerElectrode.count()});
            }
            if (flow.quadPerElectrode2.count() > 0.0)
                power.push_back(
                    {q_vars[f][n], flow.quadPerElectrode2.count()});
            if (flow.nvmWriteBytesPerElecPerSec > 0.0)
                nvm.push_back({e_vars[f][n],
                               flow.nvmWriteBytesPerElecPerSec});
        }
        if (!power.empty())
            model.addConstraint(std::move(power),
                                ilp::Relation::LessEq,
                                power_budget.count(),
                                "power.node" + std::to_string(n));
        if (!nvm.empty())
            model.addConstraint(std::move(nvm),
                                ilp::Relation::LessEq, nvm_write_bps,
                                "nvm.node" + std::to_string(n));
    }

    // Network budgets: for each networked flow, the serialized TDMA
    // round of its senders must fit its budget. The wireless medium is
    // shared across flows, so flows running concurrently also share
    // the window cadence; each flow's budget already reflects its
    // share of the schedule (Section 3.5 interleaves flows on the
    // fixed TDMA schedule the ILP emits).
    if (systemConfig.wirelessNetwork) {
        const net::RadioSpec &radio = *systemConfig.radio;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const FlowSpec &flow = flows[f];
            if (!flow.network)
                continue;
            const auto tx = senders(flow.network->pattern, alive);
            if (tx.empty())
                continue;
            ilp::Expr round;
            units::Millis fixed{0.0};
            for (std::size_t n : tx) {
                if (flow.network->bytesPerElectrode > 0.0)
                    round.push_back(
                        {e_vars[f][n],
                         flow.network->bytesPerElectrode *
                             wireTimePerByte(radio).count()});
                fixed += wireFixed(radio) +
                         flow.network->bytesPerNode *
                             wireTimePerByte(radio);
            }
            const units::Millis budget =
                flow.network->roundBudget - fixed;
            if (budget < 0.0_ms) {
                // Even empty packets from every sender overrun the
                // round: this flow cannot run at this node count, so
                // it is allocated nothing (the rest of the schedule
                // stands).
                for (std::size_t n : tx)
                    model.addConstraint({{e_vars[f][n], 1.0}},
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

    model.setObjective(std::move(objective), /*maximize=*/true);
    const ilp::Solution solution = solve(model);
    if (!solution.ok()) {
        result.reason = "ILP " + failureText(solution.status);
        return result;
    }

    // Decode the allocation.
    result.feasible = true;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        FlowAllocation alloc;
        alloc.flow = flows[f].name;
        for (std::size_t n = 0; n < nodes; ++n) {
            const double e = solution.values[static_cast<std::size_t>(
                e_vars[f][n])];
            alloc.electrodesPerNode.push_back(e);
            alloc.totalElectrodes += e;
        }
        alloc.throughput = electrodesToRate(alloc.totalElectrodes);
        result.totalThroughput += alloc.throughput;
        result.weightedThroughput += priorities[f] * alloc.throughput;
        result.flows.push_back(std::move(alloc));
    }
    result.nodePower = allocationPower(systemConfig, flows,
                                       result.flows, alive,
                                       leak_total);
    for ([[maybe_unused]] const units::Milliwatts p :
         result.nodePower)
        SCALO_ENSURES(p.count() >= 0.0);
    return result;
}

namespace {

std::vector<bool>
aliveMask(std::size_t nodes, const std::vector<std::size_t> &dead)
{
    std::vector<bool> alive(nodes, true);
    for (const std::size_t n : dead) {
        SCALO_EXPECTS(n < nodes);
        alive[n] = false;
    }
    return alive;
}

units::Milliwatts
maxPower(const std::vector<units::Milliwatts> &power)
{
    units::Milliwatts peak{0.0};
    for (const units::Milliwatts p : power)
        peak = std::max(peak, p);
    return peak;
}

/**
 * Largest electrode increment at a node whose marginal dynamic power
 * a·d + b·((e+d)^2 - e^2) stays within @p headroom mW.
 */
double
powerRoom(double lin, double quad, double e, double headroom)
{
    if (headroom <= 0.0)
        return 0.0;
    if (quad <= 0.0)
        return lin > 0.0 ? headroom / lin
                         : std::numeric_limits<double>::infinity();
    const double slope = lin + 2.0 * quad * e;
    return (std::sqrt(slope * slope + 4.0 * quad * headroom) -
            slope) /
           (2.0 * quad);
}

} // namespace

Schedule
Scheduler::scheduleClusterMasked(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities,
    const std::vector<bool> &alive, std::size_t cluster) const
{
    SCALO_ASSERT(flows.size() == priorities.size(),
                 "one priority per flow");
    SCALO_EXPECTS(alive.size() == systemConfig.nodes);
    Schedule result;
    const std::size_t nodes = systemConfig.nodes;
    const std::vector<std::size_t> members =
        effectivePlan.members(cluster);
    // Networked flows split their round budget between the
    // intra-cluster rounds and the backbone.
    const double intra_share =
        effectivePlan.clusterCount() > 1
            ? 1.0 - effectivePlan.backboneShare
            : 1.0;

    const units::Milliwatts leak_total =
        totalLeak(systemConfig, flows);
    const units::Milliwatts power_budget =
        systemConfig.powerCap - leak_total;
    if (power_budget <= 0.0_mW) {
        result.reason = "leakage alone exceeds the power cap";
        return result;
    }

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
                if (effectivePlan.clusterOf(n) == cluster)
                    sub_tx[f].push_back(n);
        }
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
        // Centralised caps are a fabric-wide resource; each cluster
        // receives its proportional share.
        if (flow.centralElectrodeCap > 0.0) {
            ilp::Expr total;
            for (int e : e_vars[f])
                total.push_back({e, 1.0});
            model.addConstraint(
                std::move(total), ilp::Relation::LessEq,
                flow.centralElectrodeCap *
                    static_cast<double>(members.size()) /
                    static_cast<double>(nodes),
                flow.name + ".central-cap");
        }
    }

    const double nvm_write_bps =
        hw::nvmSpec().writeBandwidth().count() * 1e6;
    for (std::size_t i = 0; i < members.size(); ++i) {
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
                // Hierarchical comparison: node i checks the windows
                // of its cluster peers (remote clusters arrive as
                // relay aggregates, charged to the relay).
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

    // Intra-cluster network budgets: only this cluster's senders
    // serialize on its medium, against the intra share of the round.
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
                const std::size_t i =
                    n - effectivePlan.firstOf(cluster);
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

    model.setObjective(std::move(objective), /*maximize=*/true);
    const ilp::Solution solution = solve(model);
    if (!solution.ok()) {
        result.reason = "cluster " + std::to_string(cluster) +
                        " sub-ILP " + failureText(solution.status);
        return result;
    }

    // Decode into full-width allocations (zeros outside the cluster);
    // the caller merges and finalizes.
    result.feasible = true;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        FlowAllocation alloc;
        alloc.flow = flows[f].name;
        alloc.electrodesPerNode.assign(nodes, 0.0);
        for (std::size_t i = 0; i < members.size(); ++i) {
            const double e = solution.values[static_cast<std::size_t>(
                e_vars[f][i])];
            alloc.electrodesPerNode[members[i]] = e;
            alloc.totalElectrodes += e;
        }
        result.flows.push_back(std::move(alloc));
    }
    return result;
}

void
Scheduler::stitchBackbone(const std::vector<FlowSpec> &flows,
                          Schedule &combined,
                          const std::vector<bool> &alive) const
{
    if (!systemConfig.wirelessNetwork ||
        effectivePlan.clusterCount() <= 1)
        return;
    const net::RadioSpec &radio = *systemConfig.radio;
    const std::size_t cluster_count = effectivePlan.clusterCount();
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
            ++tx_per_cluster[effectivePlan.clusterOf(n)];
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
            (effectivePlan.backboneShare *
             flow.network->roundBudget - fixed)
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
    combined.nodePower = allocationPowerClustered(
        systemConfig, flows, combined.flows, alive,
        totalLeak(systemConfig, flows), effectivePlan);
}

Schedule
Scheduler::scheduleDecomposed(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities) const
{
    SCALO_ASSERT(flows.size() == priorities.size(),
                 "one priority per flow");
    if (effectivePlan.clusterCount() <= 1)
        return scheduleMonolithic(flows, priorities);

    Schedule combined;
    // Same static response-time gate as the monolithic path.
    for (const FlowSpec &flow : flows) {
        if (flow.network &&
            flow.network->roundBudget >
                flow.responseTime + units::Millis{1e-9}) {
            combined.reason = "flow '" + flow.name +
                              "' cannot meet its response time";
            return combined;
        }
    }

    const std::vector<bool> alive(systemConfig.nodes, true);
    for (std::size_t f = 0; f < flows.size(); ++f) {
        FlowAllocation alloc;
        alloc.flow = flows[f].name;
        alloc.electrodesPerNode.assign(systemConfig.nodes, 0.0);
        combined.flows.push_back(std::move(alloc));
    }
    for (std::size_t c = 0; c < effectivePlan.clusterCount(); ++c) {
        const Schedule sub =
            scheduleClusterMasked(flows, priorities, alive, c);
        if (!sub.feasible) {
            combined.flows.clear();
            combined.reason = sub.reason;
            return combined;
        }
        for (std::size_t f = 0; f < flows.size(); ++f)
            for (const std::size_t n : effectivePlan.members(c))
                combined.flows[f].electrodesPerNode[n] =
                    sub.flows[f].electrodesPerNode[n];
    }
    combined.feasible = true;
    stitchBackbone(flows, combined, alive);
    finalizeSchedule(flows, priorities, combined, alive);
    for ([[maybe_unused]] const units::Milliwatts p :
         combined.nodePower)
        SCALO_ENSURES(p.count() >= 0.0);
    return combined;
}

Schedule
Scheduler::greedyRepair(const std::vector<FlowSpec> &flows,
                        const Schedule &original,
                        const std::vector<std::size_t> &dead_nodes)
    const
{
    SCALO_EXPECTS(original.feasible);
    SCALO_EXPECTS(original.flows.size() == flows.size());
    const std::size_t nodes = systemConfig.nodes;
    const std::vector<bool> alive = aliveMask(nodes, dead_nodes);
    const units::Milliwatts leak_total =
        totalLeak(systemConfig, flows);

    Schedule repaired = original;
    repaired.reason = "greedy repair after node failure";
    repaired.totalThroughput = units::MegabitsPerSecond{0.0};
    repaired.weightedThroughput = units::MegabitsPerSecond{0.0};

    // Power headroom of the survivors under the original allocation
    // (survivors keep their own work; the dead node's share is what
    // moves).
    std::vector<double> headroom(nodes, 0.0);
    {
        const std::vector<units::Milliwatts> used = allocationPower(
            systemConfig, flows, repaired.flows, alive, leak_total);
        for (std::size_t n = 0; n < nodes; ++n)
            if (alive[n])
                headroom[n] =
                    (systemConfig.powerCap - used[n]).count();
    }

    constexpr double kEps = 1e-9;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowSpec &flow = flows[f];
        FlowAllocation &alloc = repaired.flows[f];
        const bool exact = flow.network &&
                           flow.network->exactCompare &&
                           systemConfig.wirelessNetwork;
        std::vector<bool> eligible = alive;
        if (exact) {
            std::fill(eligible.begin(), eligible.end(), false);
            for (const std::size_t n :
                 senders(flow.network->pattern, alive))
                eligible[n] = true;
        }

        // Shed the dead nodes' electrodes (and any allocation a node
        // is no longer eligible for, e.g. a relocated aggregator).
        double shed = 0.0;
        for (std::size_t n = 0; n < nodes; ++n) {
            if (!eligible[n] && alloc.electrodesPerNode[n] > 0.0) {
                shed += alloc.electrodesPerNode[n];
                alloc.electrodesPerNode[n] = 0.0;
            }
        }

        // Redistribute onto survivors: each pass fills nodes up to
        // their power headroom (and the electrode ceiling); what no
        // node can absorb stays shed.
        const double lin = flow.linPerElectrode.count();
        const double quad = flow.quadPerElectrode2.count();
        for (int pass = 0; pass < 4 && shed > kEps; ++pass) {
            bool progressed = false;
            for (std::size_t n = 0; n < nodes && shed > kEps; ++n) {
                if (!eligible[n])
                    continue;
                const double e = alloc.electrodesPerNode[n];
                double room = shed;
                if (systemConfig.maxElectrodesPerNode > 0.0)
                    room = std::min(
                        room,
                        systemConfig.maxElectrodesPerNode - e);
                if (exact) {
                    // Receive-side power: every other live node pays
                    // lin per moved electrode.
                    for (std::size_t m = 0; m < nodes; ++m)
                        if (m != n && alive[m] && lin > 0.0)
                            room = std::min(room,
                                            headroom[m] / lin);
                } else {
                    room = std::min(
                        room, powerRoom(lin, quad, e, headroom[n]));
                }
                if (room <= kEps)
                    continue;
                alloc.electrodesPerNode[n] += room;
                shed -= room;
                progressed = true;
                if (exact) {
                    for (std::size_t m = 0; m < nodes; ++m)
                        if (m != n && alive[m])
                            headroom[m] -= lin * room;
                } else {
                    headroom[n] -=
                        lin * room +
                        quad * ((e + room) * (e + room) - e * e);
                }
            }
            if (!progressed)
                break;
        }

        // Network fit: the surviving senders' serialized round must
        // still meet the budget; scale the flow down uniformly when
        // it does not (fewer senders also means less fixed cost, so
        // this rarely binds).
        if (systemConfig.wirelessNetwork && flow.network) {
            const net::RadioSpec &radio = *systemConfig.radio;
            const auto tx = senders(flow.network->pattern, alive);
            units::Millis fixed{0.0};
            double variable_ms = 0.0;
            for (const std::size_t n : tx) {
                fixed += wireFixed(radio) +
                         flow.network->bytesPerNode *
                             wireTimePerByte(radio);
                variable_ms += alloc.electrodesPerNode[n] *
                               flow.network->bytesPerElectrode *
                               wireTimePerByte(radio).count();
            }
            const double budget_ms =
                (flow.network->roundBudget - fixed).count();
            if (budget_ms <= 0.0) {
                for (std::size_t n = 0; n < nodes; ++n)
                    alloc.electrodesPerNode[n] = 0.0;
            } else if (variable_ms > budget_ms) {
                const double scale = budget_ms / variable_ms;
                for (const std::size_t n : tx)
                    alloc.electrodesPerNode[n] *= scale;
            }
        }

        alloc.totalElectrodes = 0.0;
        for (const double e : alloc.electrodesPerNode)
            alloc.totalElectrodes += e;
        alloc.throughput = electrodesToRate(alloc.totalElectrodes);
        repaired.totalThroughput += alloc.throughput;
    }

    repaired.nodePower = allocationPower(
        systemConfig, flows, repaired.flows, alive, leak_total);
    return repaired;
}

void
Scheduler::greedyRepairCluster(const std::vector<FlowSpec> &flows,
                               Schedule &repaired,
                               const std::vector<bool> &alive,
                               std::size_t cluster) const
{
    const std::vector<std::size_t> members =
        effectivePlan.members(cluster);
    const double intra_share =
        effectivePlan.clusterCount() > 1
            ? 1.0 - effectivePlan.backboneShare
            : 1.0;
    const units::Milliwatts leak_total =
        totalLeak(systemConfig, flows);

    // Power headroom of the surviving members under the current
    // allocation (cluster-local exact-compare model, matching
    // allocationPowerClustered without the relay term, which the
    // greedy pass conservatively ignores).
    std::vector<double> headroom(members.size(), 0.0);
    for (std::size_t i = 0; i < members.size(); ++i) {
        const std::size_t n = members[i];
        if (!alive[n])
            continue;
        units::Milliwatts used = leak_total;
        for (std::size_t f = 0; f < flows.size(); ++f) {
            const FlowSpec &flow = flows[f];
            const bool exact = flow.network &&
                               flow.network->exactCompare &&
                               systemConfig.wirelessNetwork;
            const double e =
                repaired.flows[f].electrodesPerNode[n];
            if (exact) {
                double cluster_total = 0.0;
                for (const std::size_t m : members)
                    cluster_total +=
                        repaired.flows[f].electrodesPerNode[m];
                used += flow.linPerElectrode * (cluster_total - e);
            } else {
                used += flow.linPerElectrode * e +
                        flow.quadPerElectrode2 * e * e;
            }
        }
        headroom[i] = (systemConfig.powerCap - used).count();
    }

    constexpr double kEps = 1e-9;
    for (std::size_t f = 0; f < flows.size(); ++f) {
        const FlowSpec &flow = flows[f];
        FlowAllocation &alloc = repaired.flows[f];
        const bool exact = flow.network &&
                           flow.network->exactCompare &&
                           systemConfig.wirelessNetwork;
        std::vector<std::size_t> sub_tx;
        if (flow.network) {
            for (const std::size_t n :
                 senders(flow.network->pattern, alive))
                if (effectivePlan.clusterOf(n) == cluster)
                    sub_tx.push_back(n);
        }
        std::vector<bool> eligible(members.size(), false);
        for (std::size_t i = 0; i < members.size(); ++i) {
            if (exact) {
                for (const std::size_t n : sub_tx)
                    if (n == members[i])
                        eligible[i] = true;
            } else {
                eligible[i] = alive[members[i]];
            }
        }

        double shed = 0.0;
        for (std::size_t i = 0; i < members.size(); ++i) {
            double &e = alloc.electrodesPerNode[members[i]];
            if (!eligible[i] && e > 0.0) {
                shed += e;
                e = 0.0;
            }
        }

        const double lin = flow.linPerElectrode.count();
        const double quad = flow.quadPerElectrode2.count();
        for (int pass = 0; pass < 4 && shed > kEps; ++pass) {
            bool progressed = false;
            for (std::size_t i = 0;
                 i < members.size() && shed > kEps; ++i) {
                if (!eligible[i])
                    continue;
                const double e =
                    alloc.electrodesPerNode[members[i]];
                double room = shed;
                if (systemConfig.maxElectrodesPerNode > 0.0)
                    room = std::min(
                        room,
                        systemConfig.maxElectrodesPerNode - e);
                if (exact) {
                    for (std::size_t j = 0; j < members.size(); ++j)
                        if (j != i && alive[members[j]] &&
                            lin > 0.0)
                            room = std::min(room,
                                            headroom[j] / lin);
                } else {
                    room = std::min(
                        room, powerRoom(lin, quad, e, headroom[i]));
                }
                if (room <= kEps)
                    continue;
                alloc.electrodesPerNode[members[i]] += room;
                shed -= room;
                progressed = true;
                if (exact) {
                    for (std::size_t j = 0; j < members.size(); ++j)
                        if (j != i && alive[members[j]])
                            headroom[j] -= lin * room;
                } else {
                    headroom[i] -=
                        lin * room +
                        quad * ((e + room) * (e + room) - e * e);
                }
            }
            if (!progressed)
                break;
        }

        // Intra-cluster network fit against the intra share of the
        // round budget.
        if (systemConfig.wirelessNetwork && flow.network &&
            !sub_tx.empty()) {
            const net::RadioSpec &radio = *systemConfig.radio;
            units::Millis fixed{0.0};
            double variable_ms = 0.0;
            for (const std::size_t n : sub_tx) {
                fixed += wireFixed(radio) +
                         flow.network->bytesPerNode *
                             wireTimePerByte(radio);
                variable_ms += alloc.electrodesPerNode[n] *
                               flow.network->bytesPerElectrode *
                               wireTimePerByte(radio).count();
            }
            const double budget_ms =
                (intra_share * flow.network->roundBudget - fixed)
                    .count();
            if (budget_ms <= 0.0) {
                for (const std::size_t n : members)
                    alloc.electrodesPerNode[n] = 0.0;
            } else if (variable_ms > budget_ms) {
                const double scale = budget_ms / variable_ms;
                for (const std::size_t n : sub_tx)
                    alloc.electrodesPerNode[n] *= scale;
            }
        }
    }
}

namespace {

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

RescheduleResult
Scheduler::rescheduleCluster(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities,
    const Schedule &original,
    const std::vector<std::size_t> &dead_nodes,
    std::size_t cluster) const
{
    SCALO_ASSERT(flows.size() == priorities.size(),
                 "one priority per flow");
    SCALO_EXPECTS(original.feasible);
    SCALO_EXPECTS(cluster < effectivePlan.clusterCount());
    const std::size_t nodes = systemConfig.nodes;

    RescheduleResult result;
    result.deadNodes = dead_nodes;
    std::sort(result.deadNodes.begin(), result.deadNodes.end());
    result.deadNodes.erase(std::unique(result.deadNodes.begin(),
                                       result.deadNodes.end()),
                           result.deadNodes.end());
    for ([[maybe_unused]] const std::size_t n : result.deadNodes)
        SCALO_EXPECTS(effectivePlan.clusterOf(n) == cluster);
    result.resolvedClusters = {cluster};
    result.throughputBefore = original.totalThroughput;
    result.maxNodePowerBefore = maxPower(original.nodePower);

    const std::vector<bool> alive =
        aliveMask(nodes, result.deadNodes);
    const std::vector<std::size_t> members =
        effectivePlan.members(cluster);

    Schedule repaired = original;
    repaired.reason = "cluster " + std::to_string(cluster) +
                      " rescheduled after node failure";
    const Schedule sub =
        scheduleClusterMasked(flows, priorities, alive, cluster);
    if (sub.feasible) {
        result.viaIlp = true;
        for (std::size_t f = 0; f < flows.size(); ++f)
            for (const std::size_t n : members)
                repaired.flows[f].electrodesPerNode[n] =
                    sub.flows[f].electrodesPerNode[n];
        clampClusterToOriginal(original, repaired, members);
    } else {
        greedyRepairCluster(flows, repaired, alive, cluster);
    }
    finalizeSchedule(flows, priorities, repaired, alive);

    result.throughputAfter = repaired.totalThroughput;
    result.maxNodePowerAfter = maxPower(repaired.nodePower);
    result.schedule = std::move(repaired);
    for ([[maybe_unused]] const std::size_t n : result.deadNodes)
        for ([[maybe_unused]] const FlowAllocation &alloc :
             result.schedule.flows)
            SCALO_ENSURES(alloc.electrodesPerNode[n] == 0.0);
    return result;
}

RescheduleResult
Scheduler::restitchBackbone(
    const std::vector<FlowSpec> &flows,
    const std::vector<double> &priorities,
    const Schedule &original,
    const std::vector<std::size_t> &dead_nodes,
    const std::vector<std::size_t> &unreachable_clusters) const
{
    SCALO_ASSERT(flows.size() == priorities.size(),
                 "one priority per flow");
    SCALO_EXPECTS(original.feasible);
    const std::size_t nodes = systemConfig.nodes;

    RescheduleResult result;
    result.deadNodes = dead_nodes;
    std::sort(result.deadNodes.begin(), result.deadNodes.end());
    result.deadNodes.erase(std::unique(result.deadNodes.begin(),
                                       result.deadNodes.end()),
                           result.deadNodes.end());
    result.throughputBefore = original.totalThroughput;
    result.maxNodePowerBefore = maxPower(original.nodePower);

    // A heal with nothing dead and nothing unreachable restores the
    // boot schedule verbatim. Restitching it instead would not be a
    // no-op: a monolithic boot schedule never went through
    // stitchBackbone, so re-stitching would scale it down.
    if (result.deadNodes.empty() && unreachable_clusters.empty()) {
        result.schedule = original;
        result.viaIlp = true;
        result.throughputAfter = original.totalThroughput;
        result.maxNodePowerAfter = result.maxNodePowerBefore;
        return result;
    }

    const std::vector<bool> alive =
        aliveMask(nodes, result.deadNodes);

    // Clusters owning dead nodes get fresh *unclamped* sub-solves,
    // reclaiming the capacity the mid-quantum clamp conservatively
    // gave up; untouched clusters keep their boot allocation.
    std::vector<std::size_t> affected;
    for (const std::size_t n : result.deadNodes)
        affected.push_back(effectivePlan.clusterOf(n));
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    result.resolvedClusters = affected;

    Schedule repaired = original;
    repaired.reason = "backbone re-stitch";
    result.viaIlp = true;
    for (const std::size_t c : affected) {
        const Schedule sub =
            scheduleClusterMasked(flows, priorities, alive, c);
        const std::vector<std::size_t> members =
            effectivePlan.members(c);
        if (sub.feasible) {
            for (std::size_t f = 0; f < flows.size(); ++f)
                for (const std::size_t n : members)
                    repaired.flows[f].electrodesPerNode[n] =
                        sub.flows[f].electrodesPerNode[n];
        } else {
            result.viaIlp = false;
            greedyRepairCluster(flows, repaired, alive, c);
        }
    }

    // The stitch sees only reachable senders: a partitioned cluster
    // keeps its intra-cluster allocation running but contributes no
    // backbone traffic until it heals.
    std::vector<bool> reachable = alive;
    for (const std::size_t c : unreachable_clusters) {
        SCALO_EXPECTS(c < effectivePlan.clusterCount());
        for (const std::size_t n : effectivePlan.members(c))
            reachable[n] = false;
    }
    stitchBackbone(flows, repaired, reachable);
    finalizeSchedule(flows, priorities, repaired, alive);

    result.throughputAfter = repaired.totalThroughput;
    result.maxNodePowerAfter = maxPower(repaired.nodePower);
    result.schedule = std::move(repaired);
    for ([[maybe_unused]] const std::size_t n : result.deadNodes)
        for ([[maybe_unused]] const FlowAllocation &alloc :
             result.schedule.flows)
            SCALO_ENSURES(alloc.electrodesPerNode[n] == 0.0);
    return result;
}

RescheduleResult
Scheduler::reschedule(const std::vector<FlowSpec> &flows,
                      const std::vector<double> &priorities,
                      const Schedule &original,
                      const std::vector<std::size_t> &dead_nodes)
    const
{
    SCALO_ASSERT(flows.size() == priorities.size(),
                 "one priority per flow");
    SCALO_EXPECTS(original.feasible);
    const std::size_t nodes = systemConfig.nodes;

    RescheduleResult result;
    result.deadNodes = dead_nodes;
    std::sort(result.deadNodes.begin(), result.deadNodes.end());
    result.deadNodes.erase(std::unique(result.deadNodes.begin(),
                                       result.deadNodes.end()),
                           result.deadNodes.end());
    result.throughputBefore = original.totalThroughput;
    result.maxNodePowerBefore = maxPower(original.nodePower);

    const std::vector<bool> alive =
        aliveMask(nodes, result.deadNodes);
    const bool any_alive =
        std::any_of(alive.begin(), alive.end(),
                    [](bool a) { return a; });

    Schedule repaired;
    if (decomposed()) {
        // Incremental path: only clusters containing dead nodes are
        // re-solved; everything else keeps its allocation.
        std::vector<std::size_t> affected;
        for (const std::size_t n : result.deadNodes)
            affected.push_back(effectivePlan.clusterOf(n));
        std::sort(affected.begin(), affected.end());
        affected.erase(
            std::unique(affected.begin(), affected.end()),
            affected.end());
        result.resolvedClusters = affected;

        repaired = original;
        repaired.reason = "decomposed reschedule";
        result.viaIlp = true;
        for (const std::size_t c : affected) {
            const Schedule sub =
                scheduleClusterMasked(flows, priorities, alive, c);
            const std::vector<std::size_t> members =
                effectivePlan.members(c);
            if (sub.feasible) {
                for (std::size_t f = 0; f < flows.size(); ++f)
                    for (const std::size_t n : members)
                        repaired.flows[f].electrodesPerNode[n] =
                            sub.flows[f].electrodesPerNode[n];
                clampClusterToOriginal(original, repaired, members);
            } else {
                result.viaIlp = false;
                greedyRepairCluster(flows, repaired, alive, c);
            }
        }
        stitchBackbone(flows, repaired, alive);
        finalizeSchedule(flows, priorities, repaired, alive);
    } else {
        for (std::size_t c = 0;
             c < effectivePlan.clusterCount(); ++c)
            result.resolvedClusters.push_back(c);
        if (any_alive)
            repaired = scheduleMasked(flows, priorities, alive);
        if (repaired.feasible) {
            result.viaIlp = true;
        } else {
            repaired =
                greedyRepair(flows, original, result.deadNodes);
            // The greedy path has no priorities in scope; weight
            // here.
            repaired.weightedThroughput =
                units::MegabitsPerSecond{0.0};
            for (std::size_t f = 0; f < flows.size(); ++f)
                repaired.weightedThroughput +=
                    priorities[f] * repaired.flows[f].throughput;
        }
    }
    result.throughputAfter = repaired.totalThroughput;
    result.maxNodePowerAfter = maxPower(repaired.nodePower);
    result.schedule = std::move(repaired);

    // Degradation never assigns work to a dead node.
    for ([[maybe_unused]] const std::size_t n : result.deadNodes)
        for ([[maybe_unused]] const FlowAllocation &alloc :
             result.schedule.flows)
            SCALO_ENSURES(alloc.electrodesPerNode[n] == 0.0);
    return result;
}

units::MegabitsPerSecond
Scheduler::maxAggregateThroughput(const FlowSpec &flow) const
{
    const Schedule s = schedule({flow}, {1.0});
    return s.feasible ? s.totalThroughput
                      : units::MegabitsPerSecond{0.0};
}

} // namespace scalo::sched
