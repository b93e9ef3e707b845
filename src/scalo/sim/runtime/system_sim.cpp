#include "scalo/sim/runtime/system_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "scalo/hw/nvm.hpp"
#include "scalo/net/tdma.hpp"
#include "scalo/util/contracts.hpp"
#include "scalo/util/logging.hpp"
#include "scalo/util/thread_pool.hpp"

namespace scalo::sim {

using namespace units::literals;

namespace {

constexpr double kParticipantEpsilon = 1e-6;
constexpr units::Micros kGuard{20.0};
/** Domain separator for the backoff-jitter RNG stream. */
constexpr std::uint64_t kBackoffSeedSalt = 0xbacc'0ff5'eed0'0001ULL;
/** Domain separator for the backbone channel seeds. */
constexpr std::uint64_t kBackboneChannelSalt = 0xbbbb'0000ULL;
/** Domain separator for the backbone backoff stream. */
constexpr std::uint64_t kBackboneBackoffSalt = 0xbbbb'ffffULL;

/** Indices of transmitting nodes, matching the scheduler's model. */
std::vector<std::size_t>
senderNodes(net::Pattern pattern, std::size_t nodes)
{
    std::vector<std::size_t> out;
    switch (pattern) {
      case net::Pattern::OneToAll:
        out.push_back(0);
        break;
      case net::Pattern::AllToAll:
        for (std::size_t n = 0; n < nodes; ++n)
            out.push_back(n);
        break;
      case net::Pattern::AllToOne:
        for (std::size_t n = 1; n < nodes; ++n)
            out.push_back(n);
        break;
    }
    return out;
}

std::uint64_t
toTicks(units::Micros t)
{
    SCALO_EXPECTS(t.count() >= 0.0);
    return static_cast<std::uint64_t>(std::llround(t.count()));
}

/** Round payload bytes of @p e electrodes under @p net's encoding. */
std::size_t
payloadFor(const sched::NetworkUse &net, double e)
{
    const double bytes =
        net.bytesPerElectrode * e + net.bytesPerNode;
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(bytes)));
}

/**
 * Response, round and packet tallies of one flow, kept by whoever
 * completes its windows or sends its packets (a cluster or the
 * backbone coordinator) and summed after the run.
 */
struct Tally
{
    std::size_t completed = 0;
    std::uint64_t responseSumUs = 0;
    std::uint64_t maxResponseUs = 0;
    std::uint64_t firstResponseUs = 0;
    std::uint64_t lastResponseUs = 0;
    /** Completion ticks of the first and the last response. */
    std::uint64_t firstTick = 0;
    std::uint64_t lastTick = 0;
    std::uint64_t roundSumUs = 0;
    std::uint64_t maxRoundUs = 0;
    std::size_t roundCount = 0;
    std::uint64_t packetsSent = 0;
    std::uint64_t packetsCorrupted = 0;
    std::uint64_t retransmissions = 0;
    /** Fragments abandoned after the retry budget was exhausted. */
    std::uint64_t packetsLost = 0;

    /** A window that arrived at @p arrival completed at @p tick. */
    void
    respond(std::uint64_t tick, std::uint64_t arrival)
    {
        const std::uint64_t response = tick - arrival;
        if (completed == 0) {
            firstResponseUs = response;
            firstTick = tick;
        }
        lastResponseUs = response;
        lastTick = tick;
        maxResponseUs = std::max(maxResponseUs, response);
        responseSumUs += response;
        ++completed;
    }

    void
    round(std::uint64_t us)
    {
        roundSumUs += us;
        maxRoundUs = std::max(maxRoundUs, us);
        ++roundCount;
    }

    /** Fold @p other in: first/last response by completion tick. */
    Tally &
    operator+=(const Tally &other)
    {
        packetsSent += other.packetsSent;
        packetsCorrupted += other.packetsCorrupted;
        retransmissions += other.retransmissions;
        packetsLost += other.packetsLost;
        if (other.completed == 0)
            return *this;
        if (completed == 0 || other.firstTick < firstTick) {
            firstResponseUs = other.firstResponseUs;
            firstTick = other.firstTick;
        }
        if (other.lastTick >= lastTick) {
            lastResponseUs = other.lastResponseUs;
            lastTick = other.lastTick;
        }
        completed += other.completed;
        responseSumUs += other.responseSumUs;
        maxResponseUs = std::max(maxResponseUs, other.maxResponseUs);
        roundSumUs += other.roundSumUs;
        maxRoundUs = std::max(maxRoundUs, other.maxRoundUs);
        roundCount += other.roundCount;
        return *this;
    }
};

} // namespace

/** Per-flow execution state threaded through the run. */
struct SystemSim::FlowRuntime
{
    /** Nodes allocated electrodes (the flow's pipelines). */
    std::vector<std::size_t> participants;
    /** NodeModel flow index per system node (npos if absent). */
    std::vector<std::size_t> flowOnNode;
    /** Transmitting nodes across the fabric; empty for local flows. */
    std::vector<std::size_t> senders;
    /** Payload bytes per sender per round (by system node). Senders
     *  of distinct clusters occupy disjoint slots, so concurrent
     *  cluster runtimes never write the same entry. */
    std::vector<std::size_t> payloadBytes;
    /** Uncommitted NVM bytes per node (sub-byte carry). */
    std::vector<double> nvmCarry;
    std::size_t windowsPerNode = 0;
    std::uint64_t windowTicks = 0;
    /** Backbone assembly deadline (exchange deadline, else window). */
    std::uint64_t deadlineTicks = 0;
    bool networked = false;
    bool exactCompare = false;
    net::PacketType packetType = net::PacketType::Hash;

    std::size_t submitted = 0;
    /** The backbone's tally; mergeClusterStats() folds every
     *  cluster's in after the run. */
    Tally tally;
    std::uint64_t relayForwards = 0;

    // Static predictions.
    double analyticRoundUs = 0.0;
    double analyticResponseUs = 0.0;
    bool analyticSustainable = true;
};

/** Cluster-confined state of one flow (owned by that cluster's
 *  runtime; no other thread touches it between barriers). */
struct SystemSim::ClusterFlow
{
    /** The flow's senders that live in this cluster. */
    std::vector<std::size_t> senders;
    /** This cluster's medium channel for the flow. */
    std::optional<net::WirelessChannel> channel;
    std::uint16_t nextSequence = 0;
    /** Live electrodes of the cluster (member-order sum). */
    double liveTotalElectrodes = 0.0;

    /** Assembly state of one intra-cluster exchange round. */
    struct RoundState
    {
        /** Senders done with their local pipeline, arrival order. */
        std::vector<std::size_t> ready;
        bool deadlineArmed = false;
        bool exchanged = false;
    };
    std::map<std::uint64_t, RoundState> rounds;

    /** Merged after the run. Responses land here only where the
     *  cluster completes the window: local flows, and networked flows
     *  on the flat fabric. */
    Tally tally;
};

/** The medium a round transmits on: a cluster's or the backbone. */
struct SystemSim::Link
{
    Trace &trace;
    net::WirelessChannel &channel;
    Rng &backoffRng;
    std::uint16_t &sequence;
    Tally &tally;
    /** Trace node of the medium (the receiving side). */
    std::uint32_t receiver;
    /** Selects the backbone's BER spikes over the plan-wide ones. */
    bool backbone;
};

/** A relay node's aggregated round, queued for the backbone. */
struct SystemSim::RelayPacket
{
    std::size_t flow = 0;
    std::uint64_t window = 0;
    std::size_t cluster = 0;
    /** When the intra-cluster round started (for the round span). */
    std::uint64_t startTick = 0;
    /** When the aggregate became available at the relay. */
    std::uint64_t readyTick = 0;
    std::size_t bytes = 0;
    std::size_t relay = 0;
};

/** Backbone assembly state of one (flow, window) round. */
struct SystemSim::BackboneRound
{
    std::vector<RelayPacket> entries;
    std::uint64_t firstReadyTick =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t minStartTick =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t maxReadyTick = 0;
};

/**
 * One cluster's execution domain: a private event queue, medium,
 * trace buffer, failure detector and RNG streams. Everything in here
 * is touched by exactly one thread during a quantum; the coordinator
 * reads it only at barriers.
 */
struct SystemSim::Cluster
{
    Cluster(std::size_t cluster_id,
            std::vector<std::size_t> member_nodes,
            std::size_t node_count, std::size_t miss_threshold,
            std::uint64_t backoff_seed)
        : id(cluster_id), members(std::move(member_nodes)),
          mediumId(Trace::mediumNode(cluster_id)),
          detector(node_count, miss_threshold),
          backoffRng(backoff_seed)
    {
    }

    std::size_t id = 0;
    std::vector<std::size_t> members;
    std::uint32_t mediumId = Trace::kNetworkNode;
    Simulator sim;
    Trace trace;
    Medium medium;
    net::HeartbeatDetector detector;
    Rng backoffRng;
    std::vector<ClusterFlow> flows;
    /** Relay aggregates awaiting the backbone (drained at barriers). */
    std::vector<RelayPacket> outbox;
    std::vector<NodeDownEvent> downEvents;
    std::vector<RescheduleEvent> reschedEvents;
    std::uint64_t exchangeTimeouts = 0;
    std::size_t eventsExecuted = 0;
    /** The relay that carried the last forward (failover tracking). */
    std::size_t lastRelay = 0;
    /** This cluster asks the coordinator for a backbone re-stitch at
     *  the next barrier (failover or reschedule happened). */
    bool restitchNeeded = false;
    /** Latest tick of the event that set restitchNeeded. */
    std::uint64_t restitchTick = 0;
};

SystemSim::SystemSim(SystemSimConfig cfg)
    : config(std::move(cfg)),
      scheduler(config.system),
      injector(config.faults, config.seed),
      liveSchedule(config.schedule)
{
    SCALO_ASSERT(config.schedule.feasible,
                 "SystemSim needs a feasible schedule");
    SCALO_ASSERT(config.schedule.flows.size() == config.flows.size(),
                 "schedule/flow-set mismatch");
    SCALO_ASSERT(config.duration > 0.0_ms,
                 "simulation duration must be positive");
    config.retry.validate();
    if (config.priorities.empty())
        config.priorities.assign(config.flows.size(), 1.0);
    SCALO_ASSERT(config.priorities.size() == config.flows.size(),
                 "one priority per flow");

    const std::size_t node_count = config.system.nodes;
    plan = config.system.clusters.empty()
               ? net::ClusterPlan::flat(node_count)
               : config.system.clusters;
    plan.validate();
    SCALO_ASSERT(plan.nodeCount() == node_count,
                 "cluster plan must partition the fabric's nodes");
    const std::size_t cluster_count = plan.clusterCount();
    config.faults.validate(node_count, cluster_count);

    // Per-node NVM draw streams keep the Bernoulli sequence
    // independent of cluster interleaving; the flat fabric keeps the
    // legacy shared stream (and its exact draw order).
    if (cluster_count > 1)
        injector.partitionNvmStreams(node_count);

    clusters.reserve(cluster_count);
    for (std::size_t c = 0; c < cluster_count; ++c) {
        const std::uint64_t legacy_backoff =
            config.seed ^ kBackoffSeedSalt;
        clusters.push_back(std::make_unique<Cluster>(
            c, plan.members(c), node_count,
            config.heartbeatMissThreshold,
            c == 0 ? legacy_backoff : mix64(legacy_backoff, c)));
        clusters.back()->flows.resize(config.flows.size());
        clusters.back()->lastRelay = plan.relay(c);
        if (!config.recordTrace)
            clusters.back()->trace.setCountersOnly(true);
    }
    backboneDetector = net::HeartbeatDetector(
        cluster_count, config.heartbeatMissThreshold);
    relayCrashVictims.assign(config.faults.relayCrashes.size(),
                             net::ClusterPlan::kNoRelay);
    if (!config.recordTrace) {
        globalTrace.setCountersOnly(true);
        eventTrace.setCountersOnly(true);
    }
    backboneChannels.resize(config.flows.size());
    backboneBackoffRng = Rng(mix64(config.seed ^ kBackoffSeedSalt,
                                   kBackboneBackoffSalt));

    nodeUp.assign(node_count, 1);
    crashedAtMs.assign(node_count, -1.0);
    nodes.reserve(node_count);
    for (std::size_t n = 0; n < node_count; ++n) {
        Cluster &cl = *clusters[plan.clusterOf(n)];
        nodes.emplace_back(cl.sim, static_cast<std::uint32_t>(n),
                           &cl.trace);
    }

    const net::TdmaSchedule tdma(*config.system.radio, node_count);
    flowRuntimes.resize(config.flows.size());
    for (std::size_t f = 0; f < config.flows.size(); ++f) {
        const sched::FlowSpec &spec = config.flows[f];
        const sched::FlowAllocation &alloc = config.schedule.flows[f];
        FlowRuntime &rt = flowRuntimes[f];
        rt.flowOnNode.assign(node_count, ~std::size_t{0});
        rt.payloadBytes.assign(node_count, 0);
        rt.nvmCarry.assign(node_count, 0.0);
        rt.windowTicks = toTicks(units::Micros(spec.window));
        rt.deadlineTicks =
            config.retry.exchangeDeadline.count() > 0.0
                ? toTicks(units::Micros(config.retry.exchangeDeadline))
                : rt.windowTicks;
        rt.windowsPerNode = static_cast<std::size_t>(
            std::floor(config.duration.count() /
                           spec.window.count() +
                       1e-9));
        rt.networked = spec.network.has_value() &&
                       config.system.wirelessNetwork;
        rt.exactCompare =
            rt.networked && spec.network->exactCompare;
        rt.packetType = rt.exactCompare ? net::PacketType::Signal
                                        : net::PacketType::Hash;

        std::vector<hw::PipelineStage> stages;
        for (hw::PeKind kind : spec.peChain)
            stages.push_back({kind, 0.0, 1});
        for (std::size_t n = 0; n < node_count; ++n) {
            const double e = alloc.electrodesPerNode[n];
            if (e <= kParticipantEpsilon)
                continue;
            for (hw::PipelineStage &stage : stages)
                stage.electrodes = e;
            const std::size_t idx = nodes[n].addPipeline(
                hw::Pipeline(spec.name, stages), spec.window);
            rt.flowOnNode[n] = idx;
            rt.participants.push_back(n);
            Cluster *cl = clusters[plan.clusterOf(n)].get();
            nodes[n].onWindowDone(
                idx, [this, cl, f, n](std::size_t, std::uint64_t w) {
                    accountWindow(*cl, f,
                                  static_cast<std::uint32_t>(n), w);
                });
        }

        // Static predictions: pipeline latency plus, for networked
        // flows, the TDMA round of the schedule's payload sizes — the
        // widest cluster's intra round plus, on a multi-cluster
        // fabric, the serialized backbone round of per-cluster
        // aggregates (the scheduler's own response model).
        const hw::Pipeline reference(spec.name, stages);
        rt.analyticResponseUs =
            units::Micros(reference.latency()).count();
        if (rt.networked) {
            for (std::size_t n :
                 senderNodes(spec.network->pattern, node_count)) {
                if (alloc.electrodesPerNode[n] <=
                        kParticipantEpsilon &&
                    spec.network->bytesPerNode <= 0.0)
                    continue;
                rt.senders.push_back(n);
                rt.payloadBytes[n] = payloadFor(
                    *spec.network, alloc.electrodesPerNode[n]);
            }
            const std::uint64_t legacy_channel =
                config.seed ^ (0x9e37'79b9 * (f + 1));
            double widest_intra = 0.0;
            double backbone = 0.0;
            for (std::size_t c = 0; c < cluster_count; ++c) {
                Cluster &cl = *clusters[c];
                ClusterFlow &cf = cl.flows[f];
                cf.channel.emplace(*config.system.radio,
                                   c == 0 ? legacy_channel
                                          : mix64(legacy_channel, c));
                double intra = 0.0;
                double cluster_total = 0.0;
                for (std::size_t n : cl.members) {
                    cluster_total += alloc.electrodesPerNode[n];
                    if (std::find(rt.senders.begin(),
                                  rt.senders.end(),
                                  n) == rt.senders.end())
                        continue;
                    cf.senders.push_back(n);
                    intra += units::Micros(
                                 tdma.slotTime(rt.payloadBytes[n]))
                                 .count();
                }
                cf.liveTotalElectrodes = cluster_total;
                widest_intra = std::max(widest_intra, intra);
                if (cluster_count > 1 && !cf.senders.empty())
                    backbone +=
                        units::Micros(
                            tdma.slotTime(payloadFor(*spec.network,
                                                     cluster_total)))
                            .count();
            }
            rt.analyticRoundUs = widest_intra + backbone;
            rt.analyticResponseUs += rt.analyticRoundUs;
            backboneChannels[f].emplace(
                *config.system.radio,
                mix64(config.seed, kBackboneChannelSalt + f));
        } else {
            for (std::size_t c = 0; c < cluster_count; ++c) {
                ClusterFlow &cf = clusters[c]->flows[f];
                double cluster_total = 0.0;
                for (std::size_t n : clusters[c]->members)
                    cluster_total += alloc.electrodesPerNode[n];
                cf.liveTotalElectrodes = cluster_total;
            }
        }
        for (std::size_t n : rt.participants)
            if (!nodes[n].analyticallySustainable(rt.flowOnNode[n]))
                rt.analyticSustainable = false;
    }
}

SystemSim::~SystemSim() = default;

void
SystemSim::accountWindow(Cluster &cluster, std::size_t flow,
                         std::uint32_t node, std::uint64_t window_id)
{
    FlowRuntime &rt = flowRuntimes[flow];
    ClusterFlow &cf = cluster.flows[flow];
    const sched::FlowSpec &spec = config.flows[flow];
    // The degraded allocation (identical to the original until a
    // reschedule happens) drives energy and NVM accounting.
    const double e = liveSchedule.flows[flow].electrodesPerNode[node];

    // Dynamic energy of the local per-window work. Exact-compare
    // flows charge the comparison to the receivers instead (the
    // scheduler's model), accrued when the exchange completes.
    if (!rt.exactCompare) {
        const double dynamic_mw = spec.linPerElectrode.count() * e +
                                  spec.quadPerElectrode2.count() * e *
                                      e;
        dynamicEnergyUj[node] += dynamic_mw * spec.window.count();
    }

    // NVM write traffic of this window.
    if (spec.nvmWriteBytesPerElecPerSec > 0.0) {
        rt.nvmCarry[node] += spec.nvmWriteBytesPerElecPerSec * e *
                             spec.window.in<units::Seconds>();
        const auto bytes =
            static_cast<std::size_t>(rt.nvmCarry[node]);
        if (bytes > 0) {
            rt.nvmCarry[node] -= static_cast<double>(bytes);
            if (injector.nvmWriteFails(node)) {
                // The append is lost; the page never programs.
                cluster.trace.record(cluster.sim.now(),
                                     TraceEventKind::FaultInjected,
                                     node, 0, "nvm-write-fail",
                                     window_id,
                                     static_cast<double>(bytes));
            } else {
                nvmBytes[node] += bytes;
                nvmPages[node] += storage[node].append(
                    hw::Partition::Signals, bytes);
                cluster.trace.record(cluster.sim.now(),
                                     TraceEventKind::NvmWrite, node,
                                     0, spec.name, window_id,
                                     static_cast<double>(bytes));
            }
        }
    }

    const bool sender = rt.networked &&
                        std::find(cf.senders.begin(),
                                  cf.senders.end(),
                                  node) != cf.senders.end();
    if (sender) {
        ClusterFlow::RoundState &round = cf.rounds[window_id];
        if (round.exchanged)
            return; // too late: the round ran at its deadline
        round.ready.push_back(node);
        if (!round.deadlineArmed) {
            // Armed by the first ready sender: the round never waits
            // on an absent peer for longer than the deadline (a dead
            // sender would otherwise stall the flow forever).
            round.deadlineArmed = true;
            const units::Micros deadline =
                config.retry.exchangeDeadline.count() > 0.0
                    ? units::Micros(config.retry.exchangeDeadline)
                    : units::Micros{
                          static_cast<double>(rt.windowTicks)};
            Cluster *cl = &cluster;
            cluster.sim.after(deadline, [this, cl, flow, window_id] {
                onExchangeDeadline(*cl, flow, window_id);
            });
        }
        // The round starts once every expected (not declared-dead)
        // sender of the cluster has its payload ready.
        const bool complete = std::all_of(
            cf.senders.begin(), cf.senders.end(),
            [&](std::size_t s) {
                return cluster.detector.dead(s) ||
                       std::find(round.ready.begin(),
                                 round.ready.end(),
                                 s) != round.ready.end();
            });
        if (complete)
            runExchange(cluster, flow, window_id);
        return;
    }
    if (rt.networked)
        return; // non-sender local work is power only

    // Local flow: the node-level completion is the response.
    cf.tally.respond(cluster.sim.ticks(), window_id * rt.windowTicks);
}

void
SystemSim::onExchangeDeadline(Cluster &cluster, std::size_t flow,
                              std::uint64_t window_id)
{
    ClusterFlow &cf = cluster.flows[flow];
    ClusterFlow::RoundState &round = cf.rounds[window_id];
    if (round.exchanged)
        return; // assembled in time; nothing to do
    ++cluster.exchangeTimeouts;
    cluster.trace.record(cluster.sim.now(),
                         TraceEventKind::ExchangeTimedOut,
                         cluster.mediumId,
                         static_cast<std::uint32_t>(flow + 1),
                         config.flows[flow].name, window_id,
                         static_cast<double>(round.ready.size()));
    runExchange(cluster, flow, window_id);
}

double
SystemSim::sendPacket(const Link &link, std::size_t flow,
                      std::size_t source, std::uint8_t destination,
                      std::size_t bytes, std::uint32_t timestamp,
                      double cursor)
{
    const sched::FlowSpec &spec = config.flows[flow];
    const net::RadioSpec &radio = *config.system.radio;
    const auto lane = static_cast<std::uint32_t>(flow + 1);
    const auto sender = static_cast<std::uint32_t>(source);

    net::Packet packet;
    packet.source = static_cast<std::uint8_t>(source);
    packet.destination = destination;
    packet.type = flowRuntimes[flow].packetType;
    packet.timestampUs = timestamp;
    packet.payload.resize(bytes);
    for (std::size_t i = 0; i < packet.payload.size(); ++i)
        packet.payload[i] =
            static_cast<std::uint8_t>((i * 31 + source) & 0xff);
    for (net::Packet &fragment : net::fragment(packet)) {
        fragment.sequence = link.sequence++;
        const auto wire_bytes =
            static_cast<double>(fragment.wireBytes());
        const units::Micros wire_time{
            radio.transferTime(units::Bytes{wire_bytes})
                .in<units::Micros>()};
        bool delivered = false;
        for (std::size_t attempt = 0;
             attempt < config.retry.maxAttempts; ++attempt) {
            if (attempt > 0) {
                // Exponential backoff with seeded jitter before each
                // retry; the retry's radio energy is real and lands
                // on the sender (the scheduler only provisioned the
                // always-on radio budget).
                cursor +=
                    config.retry.backoff(attempt, link.backoffRng)
                        .count();
                dynamicEnergyUj[source] +=
                    radio.transferEnergy(units::Bytes{wire_bytes})
                        .count() *
                    1e3;
            }
            // Channel condition at this instant: dropout windows lose
            // everything, BER spikes raise the error rate.
            const units::Micros at{cursor};
            const double spike = link.backbone
                                     ? injector.backboneBerOverrideAt(at)
                                     : injector.berOverrideAt(at);
            link.channel.setBer(spike >= 0.0 ? spike : radio.ber);
            link.channel.setOutage(injector.inDropout(at));
            ++link.tally.packetsSent;
            link.trace.record(at, TraceEventKind::PacketTx, sender, 0,
                              spec.name, fragment.sequence,
                              wire_bytes);
            const net::ReceiveResult receipt =
                link.channel.transmit(fragment);
            cursor += wire_time.count();
            if (!receipt.headerOk || !receipt.payloadOk) {
                ++link.tally.packetsCorrupted;
                link.trace.record(units::Micros{cursor},
                                  TraceEventKind::PacketCorrupt,
                                  link.receiver, lane, spec.name,
                                  fragment.sequence, wire_bytes);
            }
            if (receipt.accepted()) {
                link.trace.record(units::Micros{cursor},
                                  TraceEventKind::PacketRx,
                                  link.receiver, lane, spec.name,
                                  fragment.sequence, wire_bytes);
                delivered = true;
                break;
            }
            if (!config.retry.shouldRetry(attempt))
                break;
            ++link.tally.retransmissions;
            link.trace.record(units::Micros{cursor},
                              TraceEventKind::PacketRetransmit, sender,
                              0, spec.name, fragment.sequence,
                              wire_bytes);
        }
        if (!delivered)
            ++link.tally.packetsLost;
    }
    return cursor + kGuard.count();
}

void
SystemSim::runExchange(Cluster &cluster, std::size_t flow,
                       std::uint64_t window_id)
{
    FlowRuntime &rt = flowRuntimes[flow];
    ClusterFlow &cf = cluster.flows[flow];
    const sched::FlowSpec &spec = config.flows[flow];
    const auto lane = static_cast<std::uint32_t>(flow + 1);

    ClusterFlow::RoundState &round = cf.rounds[window_id];
    SCALO_ASSERT(!round.exchanged, "exchange round ran twice");
    round.exchanged = true;

    // Heartbeat bookkeeping happens at round start: every slot is a
    // free heartbeat (Section 3.4), so transmitting senders reset
    // their miss counters (and un-declare a rebooted node), while
    // expected-but-silent senders accrue a miss each.
    std::vector<std::size_t> transmitting;
    for (const std::size_t n : cf.senders) {
        const bool ready = std::find(round.ready.begin(),
                                     round.ready.end(),
                                     n) != round.ready.end();
        if (ready) {
            transmitting.push_back(n);
            if (cluster.detector.recordHeard(n))
                declareRecovered(cluster, n);
        } else if (!cluster.detector.dead(n)) {
            if (cluster.detector.recordMiss(n))
                declareDead(cluster, n);
        }
    }

    const std::uint64_t start =
        cluster.medium.acquire(cluster.sim.ticks());
    cluster.trace.record(units::Micros{static_cast<double>(start)},
                         TraceEventKind::ExchangeStart,
                         cluster.mediumId, lane, spec.name,
                         window_id);

    const Link link{cluster.trace,      *cf.channel,
                    cluster.backoffRng, cf.nextSequence,
                    cf.tally,           cluster.mediumId,
                    /*backbone=*/false};
    const std::uint8_t destination =
        spec.network->pattern == net::Pattern::AllToOne
            ? std::uint8_t{0}
            : net::kBroadcast;
    const auto timestamp =
        static_cast<std::uint32_t>(cluster.sim.ticks());
    double cursor = static_cast<double>(start);
    for (std::size_t n : transmitting)
        cursor = sendPacket(link, flow, n, destination,
                            rt.payloadBytes[n], timestamp, cursor);

    const std::uint64_t end = toTicks(units::Micros{cursor});
    cluster.medium.release(end);
    cluster.trace.record(units::Micros{static_cast<double>(end)},
                         TraceEventKind::ExchangeFinish,
                         cluster.mediumId, lane, spec.name,
                         window_id);

    if (transmitting.empty())
        return; // nobody had data: no response to account

    if (clusters.size() == 1) {
        // Flat fabric: the intra round IS the whole exchange.
        cf.tally.round(end - start);
        cf.tally.respond(end, window_id * rt.windowTicks);

        // Exact-compare flows: each node checks every window it
        // received against its local history; the scheduler charges
        // that power to the receivers, one window's worth per
        // exchange. Physically-down nodes receive (and burn) nothing.
        if (rt.exactCompare) {
            const double total =
                liveSchedule.flows[flow].totalElectrodes;
            for (std::size_t n = 0; n < nodes.size(); ++n) {
                if (!nodeUp[n])
                    continue;
                const double e =
                    liveSchedule.flows[flow].electrodesPerNode[n];
                dynamicEnergyUj[n] += spec.linPerElectrode.count() *
                                      (total - e) *
                                      spec.window.count();
            }
        }
        return;
    }

    // Clustered fabric: members compare against cluster-local
    // history; the relay queues the cluster's aggregate for the
    // backbone, where the round (and the flow's response) completes.
    if (rt.exactCompare) {
        const double total = cf.liveTotalElectrodes;
        for (std::size_t n : cluster.members) {
            if (!nodeUp[n])
                continue;
            const double e =
                liveSchedule.flows[flow].electrodesPerNode[n];
            dynamicEnergyUj[n] += spec.linPerElectrode.count() *
                                  (total - e) * spec.window.count();
        }
    }

    RelayPacket forward;
    forward.flow = flow;
    forward.window = window_id;
    forward.cluster = cluster.id;
    forward.startTick = start;
    forward.readyTick = end;
    forward.bytes =
        payloadFor(*spec.network, cf.liveTotalElectrodes);
    forward.relay = plan.relay(
        cluster.id, [this](std::size_t n) { return nodeUp[n] != 0; });
    if (forward.relay == net::ClusterPlan::kNoRelay)
        return; // every member died since the round assembled
    if (forward.relay != cluster.lastRelay) {
        // Relay duty migrated (death or recovery of an earlier
        // member): trace the failover and ask the coordinator for a
        // backbone re-stitch at the next barrier.
        cluster.trace.record(
            units::Micros{static_cast<double>(end)},
            TraceEventKind::RelayFailover,
            static_cast<std::uint32_t>(forward.relay), lane,
            spec.name, window_id,
            static_cast<double>(cluster.lastRelay));
        cluster.lastRelay = forward.relay;
        cluster.restitchNeeded = true;
        cluster.restitchTick = std::max(cluster.restitchTick, end);
    }
    cluster.trace.record(units::Micros{static_cast<double>(end)},
                         TraceEventKind::RelayForward,
                         static_cast<std::uint32_t>(forward.relay),
                         lane, spec.name, window_id,
                         static_cast<double>(forward.bytes));
    cluster.outbox.push_back(forward);
}

void
SystemSim::declareDead(Cluster &cluster, std::size_t node)
{
    cluster.trace.record(
        cluster.sim.now(), TraceEventKind::NodeDown,
        static_cast<std::uint32_t>(node), 0, "node-down",
        cluster.downEvents.size(),
        static_cast<double>(
            cluster.detector.consecutiveMisses(node)));
    NodeDownEvent event;
    event.node = static_cast<std::uint32_t>(node);
    event.crashedAt = units::Millis{crashedAtMs[node]};
    event.detectedAt = units::Millis(cluster.sim.now());
    cluster.downEvents.push_back(event);
    applyReschedule(cluster);
}

void
SystemSim::declareRecovered(Cluster &cluster, std::size_t node)
{
    cluster.trace.record(cluster.sim.now(),
                         TraceEventKind::NodeRecovered,
                         static_cast<std::uint32_t>(node), 0,
                         "node-recovered",
                         cluster.downEvents.size());
    applyReschedule(cluster);
}

void
SystemSim::applyReschedule(Cluster &cluster)
{
    const std::vector<std::size_t> dead =
        cluster.detector.deadNodes();
    sched::RescheduleResult repaired;
    if (clusters.size() == 1) {
        repaired = scheduler.reschedule(config.flows,
                                        config.priorities,
                                        config.schedule, dead);
        SCALO_ASSERT(repaired.schedule.feasible,
                     "reschedule must always produce an allocation");
        liveSchedule = repaired.schedule;
    } else {
        // Cluster-confined repair: only this cluster's columns of the
        // live allocation change; concurrent repairs of other
        // clusters touch disjoint columns.
        repaired = scheduler.rescheduleCluster(
            config.flows, config.priorities, config.schedule, dead,
            cluster.id);
        SCALO_ASSERT(repaired.schedule.feasible,
                     "cluster reschedule must produce an allocation");
        for (std::size_t f = 0; f < liveSchedule.flows.size(); ++f)
            for (std::size_t n : cluster.members)
                liveSchedule.flows[f].electrodesPerNode[n] =
                    repaired.schedule.flows[f].electrodesPerNode[n];
        // The clamped per-cluster repair left capacity on the table;
        // the coordinator reclaims it fabric-wide at the barrier.
        cluster.restitchNeeded = true;
        cluster.restitchTick =
            std::max(cluster.restitchTick, cluster.sim.ticks());
    }

    // Surviving senders adapt their payloads (and the cluster its
    // live totals) to the new allocation from the next round on.
    refreshClusterAllocation(cluster);

    cluster.trace.record(cluster.sim.now(), TraceEventKind::Resched,
                         cluster.mediumId, 0, "resched",
                         cluster.reschedEvents.size(),
                         static_cast<double>(dead.size()));
    RescheduleEvent event;
    event.at = units::Millis(cluster.sim.now());
    event.deadNodes = repaired.deadNodes;
    event.viaIlp = repaired.viaIlp;
    event.resolvedClusters = repaired.resolvedClusters;
    event.throughputBefore = repaired.throughputBefore;
    event.throughputAfter = repaired.throughputAfter;
    event.maxNodePowerBefore = repaired.maxNodePowerBefore;
    event.maxNodePowerAfter = repaired.maxNodePowerAfter;
    cluster.reschedEvents.push_back(std::move(event));
}

void
SystemSim::refreshClusterAllocation(Cluster &cluster)
{
    for (std::size_t f = 0; f < flowRuntimes.size(); ++f) {
        FlowRuntime &rt = flowRuntimes[f];
        ClusterFlow &cf = cluster.flows[f];
        double cluster_total = 0.0;
        for (std::size_t n : cluster.members)
            cluster_total +=
                liveSchedule.flows[f].electrodesPerNode[n];
        cf.liveTotalElectrodes = cluster_total;
        if (!rt.networked)
            continue;
        const sched::FlowSpec &spec = config.flows[f];
        for (const std::size_t n : cf.senders)
            rt.payloadBytes[n] = payloadFor(
                *spec.network,
                liveSchedule.flows[f].electrodesPerNode[n]);
    }
}

void
SystemSim::scheduleFaultEvents()
{
    for (const NodeCrashFault &crash : config.faults.crashes) {
        Cluster *cl = clusters[plan.clusterOf(crash.node)].get();
        cl->sim.at(units::Micros(crash.at), [this, cl, crash] {
            if (!nodeUp[crash.node])
                return; // already down
            nodeUp[crash.node] = 0;
            crashedAtMs[crash.node] = crash.at.count();
            nodes[crash.node].halt();
            cl->trace.record(cl->sim.now(),
                             TraceEventKind::FaultInjected,
                             crash.node, 0, "crash", 0);
        });
        if (crash.reboots())
            cl->sim.at(units::Micros(crash.rebootAt),
                       [this, cl, crash] {
                           if (nodeUp[crash.node])
                               return;
                           nodeUp[crash.node] = 1;
                           nodes[crash.node].resume();
                           // The node rejoins silently; its next
                           // completed window puts it back into a
                           // round, where being heard declares the
                           // recovery.
                           cl->trace.record(
                               cl->sim.now(),
                               TraceEventKind::FaultInjected,
                               crash.node, 0, "reboot", 0);
                       });
    }
    // Channel-condition, partition and backbone markers live on
    // cluster 0's queue. The injector applies those faults to every
    // medium regardless (the coordinator consults it for partitions
    // and backbone spikes); the markers only put the instants on the
    // trace.
    Cluster *front = clusters.front().get();
    const auto mark = [front](units::Millis at, std::uint32_t node,
                              const char *label, std::size_t index,
                              double value) {
        front->sim.at(units::Micros(at), [front, node, label, index,
                                          value] {
            front->trace.record(front->sim.now(),
                                TraceEventKind::FaultInjected, node, 0,
                                label, index, value);
        });
    };
    for (std::size_t i = 0; i < config.faults.dropouts.size(); ++i) {
        const RadioDropoutFault &drop = config.faults.dropouts[i];
        mark(drop.from, Trace::kNetworkNode, "radio-dropout", i,
             (drop.to - drop.from).count());
    }
    for (std::size_t i = 0; i < config.faults.berSpikes.size(); ++i)
        mark(config.faults.berSpikes[i].from, Trace::kNetworkNode,
             "ber-spike", i, config.faults.berSpikes[i].ber);
    // Relay crashes target the *role*: the victim is whoever holds
    // relay duty at the crash instant, resolved on the owning
    // cluster's queue (so it composes with earlier crashes that
    // already migrated the duty).
    for (std::size_t i = 0; i < config.faults.relayCrashes.size();
         ++i) {
        const RelayCrashFault &crash = config.faults.relayCrashes[i];
        Cluster *cl = clusters[crash.cluster].get();
        cl->sim.at(units::Micros(crash.at), [this, cl, i, crash] {
            const std::size_t victim = plan.relay(
                cl->id,
                [this](std::size_t n) { return nodeUp[n] != 0; });
            if (victim == net::ClusterPlan::kNoRelay)
                return; // the whole cluster is already down
            relayCrashVictims[i] = victim;
            nodeUp[victim] = 0;
            crashedAtMs[victim] = crash.at.count();
            nodes[victim].halt();
            cl->trace.record(cl->sim.now(),
                             TraceEventKind::FaultInjected,
                             static_cast<std::uint32_t>(victim), 0,
                             "relay-crash", i);
        });
        if (crash.reboots())
            cl->sim.at(units::Micros(crash.rebootAt),
                       [this, cl, i] {
                           const std::size_t victim =
                               relayCrashVictims[i];
                           if (victim == net::ClusterPlan::kNoRelay ||
                               nodeUp[victim])
                               return;
                           nodeUp[victim] = 1;
                           nodes[victim].resume();
                           cl->trace.record(
                               cl->sim.now(),
                               TraceEventKind::FaultInjected,
                               static_cast<std::uint32_t>(victim), 0,
                               "relay-reboot", i);
                       });
    }
    for (std::size_t i = 0; i < config.faults.partitions.size();
         ++i) {
        const ClusterPartitionFault &part =
            config.faults.partitions[i];
        const auto cluster = static_cast<double>(part.cluster);
        mark(part.from, Trace::kBackboneNode, "cluster-partition", i,
             cluster);
        mark(part.to, Trace::kBackboneNode, "cluster-partition-heal",
             i, cluster);
    }
    for (std::size_t i = 0;
         i < config.faults.backboneBerSpikes.size(); ++i)
        mark(config.faults.backboneBerSpikes[i].from,
             Trace::kBackboneNode, "backbone-ber-spike", i,
             config.faults.backboneBerSpikes[i].ber);
    for (const ThermalThrottleFault &throttle :
         config.faults.throttles) {
        Cluster *cl = clusters[plan.clusterOf(throttle.node)].get();
        cl->sim.at(units::Micros(throttle.from),
                   [this, cl, throttle] {
                       nodes[throttle.node].setThrottle(
                           injector.throttleAt(throttle.node,
                                               cl->sim.now()));
                       cl->trace.record(
                           cl->sim.now(),
                           TraceEventKind::FaultInjected,
                           throttle.node, 0, "thermal-throttle", 0,
                           throttle.slowdown);
                   });
        cl->sim.at(units::Micros(throttle.to), [this, cl, throttle] {
            // Re-evaluate, not reset: overlapping intervals multiply
            // and the injector knows which ones still cover `now`.
            nodes[throttle.node].setThrottle(injector.throttleAt(
                throttle.node, cl->sim.now()));
            cl->trace.record(cl->sim.now(),
                             TraceEventKind::FaultInjected,
                             throttle.node, 0, "thermal-restore", 0);
        });
    }
}

void
SystemSim::processBackbone(std::uint64_t upto_ticks)
{
    // Drain outboxes in cluster order: the gathering order (and so
    // the backbone trace) is independent of which worker finished
    // its quantum first.
    for (std::unique_ptr<Cluster> &cl : clusters) {
        std::vector<RelayPacket> keep;
        for (RelayPacket &p : cl->outbox) {
            if (p.readyTick > upto_ticks) {
                keep.push_back(p);
                continue;
            }
            if (injector.inPartition(
                    p.cluster,
                    units::Micros{
                        static_cast<double>(p.readyTick)})) {
                // The cluster's backbone link is severed: the
                // aggregate never reaches the backbone. Intra-cluster
                // TDMA already ran; only the forward is lost.
                ++relayForwardsDropped;
                continue;
            }
            BackboneRound &round =
                pendingRounds[{p.flow, p.window}];
            round.entries.push_back(p);
            round.firstReadyTick =
                std::min(round.firstReadyTick, p.readyTick);
            round.minStartTick =
                std::min(round.minStartTick, p.startTick);
            round.maxReadyTick =
                std::max(round.maxReadyTick, p.readyTick);
            ++flowRuntimes[p.flow].relayForwards;
        }
        cl->outbox = std::move(keep);
    }

    struct Runnable
    {
        std::uint64_t at;
        std::size_t flow;
        std::uint64_t window;
        bool timedOut;
    };
    std::vector<Runnable> runnable;
    for (auto &[key, round] : pendingRounds) {
        const auto [f, w] = key;
        const FlowRuntime &rt = flowRuntimes[f];
        // Expected contributions: clusters with at least one sender
        // their detector has not declared dead, and that the
        // backbone detector has not declared partitioned (a silent
        // cluster must not stall every round until its deadline).
        std::size_t expected = 0;
        for (const std::unique_ptr<Cluster> &cl : clusters) {
            if (backboneDetector.dead(cl->id))
                continue;
            const ClusterFlow &cf = cl->flows[f];
            for (std::size_t s : cf.senders)
                if (!cl->detector.dead(s)) {
                    ++expected;
                    break;
                }
        }
        if (round.entries.size() >= expected) {
            runnable.push_back({round.maxReadyTick, f, w, false});
        } else if (round.firstReadyTick + rt.deadlineTicks <=
                   upto_ticks) {
            runnable.push_back(
                {std::max(round.maxReadyTick,
                          round.firstReadyTick + rt.deadlineTicks),
                 f, w, true});
        }
    }
    std::sort(runnable.begin(), runnable.end(),
              [](const Runnable &a, const Runnable &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  if (a.flow != b.flow)
                      return a.flow < b.flow;
                  return a.window < b.window;
              });
    for (const Runnable &r : runnable) {
        const auto key = std::make_pair(r.flow, r.window);
        runBackboneRound(r.flow, r.window, pendingRounds[key],
                         r.timedOut);
        pendingRounds.erase(key);
    }

    // Re-stitch last: the rounds above ran on the conservative
    // allocation; from the next quantum on the fabric uses the
    // reclaimed one. Single-threaded, so determinism is free.
    performRestitch(upto_ticks);
}

void
SystemSim::runBackboneRound(std::size_t flow,
                            std::uint64_t window_id,
                            BackboneRound &round, bool timed_out)
{
    FlowRuntime &rt = flowRuntimes[flow];
    const sched::FlowSpec &spec = config.flows[flow];
    const auto lane = static_cast<std::uint32_t>(flow + 1);
    if (round.entries.empty())
        return;

    std::sort(round.entries.begin(), round.entries.end(),
              [](const RelayPacket &a, const RelayPacket &b) {
                  return a.cluster < b.cluster;
              });
    const std::uint64_t at =
        timed_out ? std::max(round.maxReadyTick,
                             round.firstReadyTick + rt.deadlineTicks)
                  : round.maxReadyTick;
    const std::uint64_t start = backboneMedium.acquire(at);
    globalTrace.record(units::Micros{static_cast<double>(start)},
                       TraceEventKind::BackboneStart,
                       Trace::kBackboneNode, lane, spec.name,
                       window_id);
    if (timed_out) {
        ++backboneTimeouts;
        globalTrace.record(units::Micros{static_cast<double>(start)},
                           TraceEventKind::ExchangeTimedOut,
                           Trace::kBackboneNode, lane, spec.name,
                           window_id,
                           static_cast<double>(round.entries.size()));
    }

    // Backbone-cadence heartbeats: every round each cluster with
    // alive senders either reached the backbone (heard) or did not
    // (miss). Crossing the miss threshold declares the cluster
    // partitioned; being heard again declares the heal. Either
    // transition asks for a re-stitch at the barrier.
    for (const std::unique_ptr<Cluster> &cl : clusters) {
        const bool present = std::any_of(
            round.entries.begin(), round.entries.end(),
            [&](const RelayPacket &p) {
                return p.cluster == cl->id;
            });
        if (present) {
            if (backboneDetector.recordHeard(cl->id)) {
                globalTrace.record(
                    units::Micros{static_cast<double>(start)},
                    TraceEventKind::PartitionHealed,
                    Trace::kBackboneNode, 0, "partition-healed",
                    cl->id);
                partitionEvents.push_back(
                    {cl->id,
                     units::Millis(units::Micros{
                         static_cast<double>(start)}),
                     true});
                backboneRestitchPending = true;
                restitchTickHint =
                    std::max(restitchTickHint, start);
            }
            continue;
        }
        bool alive_sender = false;
        for (const std::size_t s : cl->flows[flow].senders)
            if (!cl->detector.dead(s)) {
                alive_sender = true;
                break;
            }
        if (!alive_sender || backboneDetector.dead(cl->id))
            continue; // silence is expected (or already declared)
        if (backboneDetector.recordMiss(cl->id)) {
            globalTrace.record(
                units::Micros{static_cast<double>(start)},
                TraceEventKind::PartitionStart,
                Trace::kBackboneNode, 0, "partition-start", cl->id,
                static_cast<double>(
                    backboneDetector.consecutiveMisses(cl->id)));
            partitionEvents.push_back(
                {cl->id,
                 units::Millis(
                     units::Micros{static_cast<double>(start)}),
                 false});
            backboneRestitchPending = true;
            restitchTickHint = std::max(restitchTickHint, start);
        }
    }

    const Link link{globalTrace,        *backboneChannels[flow],
                    backboneBackoffRng, backboneSequence,
                    rt.tally,           Trace::kBackboneNode,
                    /*backbone=*/true};
    const auto timestamp = static_cast<std::uint32_t>(start);
    double cursor = static_cast<double>(start);
    for (const RelayPacket &entry : round.entries)
        cursor = sendPacket(link, flow, entry.relay, net::kBroadcast,
                            entry.bytes, timestamp, cursor);

    const std::uint64_t end = toTicks(units::Micros{cursor});
    backboneMedium.release(end);
    globalTrace.record(units::Micros{static_cast<double>(end)},
                       TraceEventKind::BackboneFinish,
                       Trace::kBackboneNode, lane, spec.name,
                       window_id);

    // The backbone completes the exchange: the round spans the first
    // intra-cluster slot to the backbone's end.
    rt.tally.round(end - round.minStartTick);
    rt.tally.respond(end, window_id * rt.windowTicks);

    // Exact-compare on the hierarchy: each relay compares its
    // cluster's history against the remote aggregates it received.
    if (rt.exactCompare) {
        for (const RelayPacket &entry : round.entries) {
            double remote = 0.0;
            for (const std::unique_ptr<Cluster> &cl : clusters) {
                if (cl->id == entry.cluster)
                    continue;
                remote += cl->flows[flow].liveTotalElectrodes;
            }
            dynamicEnergyUj[entry.relay] +=
                spec.linPerElectrode.count() * remote *
                spec.window.count();
        }
    }
}

void
SystemSim::performRestitch(std::uint64_t upto_ticks)
{
    bool needed = backboneRestitchPending;
    std::uint64_t at = std::max(restitchTickHint, upto_ticks);
    for (const std::unique_ptr<Cluster> &cl : clusters) {
        if (!cl->restitchNeeded)
            continue;
        needed = true;
        at = std::max(at, cl->restitchTick);
    }
    if (!needed)
        return;
    backboneRestitchPending = false;
    restitchTickHint = 0;
    for (const std::unique_ptr<Cluster> &cl : clusters)
        cl->restitchNeeded = false;

    // Ground truth for the re-stitch is what the detectors report:
    // per-cluster heartbeat deaths plus backbone-declared partitions.
    std::vector<std::size_t> dead;
    for (const std::unique_ptr<Cluster> &cl : clusters) {
        const std::vector<std::size_t> cluster_dead =
            cl->detector.deadNodes();
        dead.insert(dead.end(), cluster_dead.begin(),
                    cluster_dead.end());
    }
    const std::vector<std::size_t> unreachable =
        backboneDetector.deadNodes();

    sched::RescheduleResult repaired = scheduler.restitchBackbone(
        config.flows, config.priorities, config.schedule, dead,
        unreachable);
    SCALO_ASSERT(repaired.schedule.feasible,
                 "re-stitch must always produce an allocation");
    liveSchedule = repaired.schedule;
    // Safe at the barrier: every cluster worker has joined, so the
    // coordinator may touch all cluster-confined allocation state.
    for (const std::unique_ptr<Cluster> &cl : clusters)
        refreshClusterAllocation(*cl);

    globalTrace.record(
        units::Micros{static_cast<double>(at)},
        TraceEventKind::BackboneRestitch, Trace::kBackboneNode, 0,
        "backbone-restitch", restitchEvents.size(),
        (repaired.throughputAfter - repaired.throughputBefore)
            .count());
    RestitchEvent event;
    event.at = units::Millis(
        units::Micros{static_cast<double>(at)});
    event.deadNodes = repaired.deadNodes;
    event.unreachableClusters = unreachable;
    event.viaIlp = repaired.viaIlp;
    event.throughputBefore = repaired.throughputBefore;
    event.throughputAfter = repaired.throughputAfter;
    restitchEvents.push_back(std::move(event));
}

void
SystemSim::mergeClusterStats(SystemSimResult &result)
{
    for (std::size_t f = 0; f < flowRuntimes.size(); ++f)
        for (const std::unique_ptr<Cluster> &cl : clusters)
            flowRuntimes[f].tally += cl->flows[f].tally;

    // Each cluster appends its events in sim-time order, so for one
    // cluster the stable sort leaves the concatenation as it is.
    for (const std::unique_ptr<Cluster> &cl : clusters) {
        result.nodesDown.insert(result.nodesDown.end(),
                                cl->downEvents.begin(),
                                cl->downEvents.end());
        result.reschedules.insert(result.reschedules.end(),
                                  cl->reschedEvents.begin(),
                                  cl->reschedEvents.end());
    }
    std::stable_sort(result.nodesDown.begin(), result.nodesDown.end(),
                     [](const NodeDownEvent &a, const NodeDownEvent &b) {
                         return a.detectedAt.count() <
                                b.detectedAt.count();
                     });
    std::stable_sort(
        result.reschedules.begin(), result.reschedules.end(),
        [](const RescheduleEvent &a, const RescheduleEvent &b) {
            return a.at.count() < b.at.count();
        });
    result.exchangeTimeouts = backboneTimeouts;
    for (const std::unique_ptr<Cluster> &cl : clusters)
        result.exchangeTimeouts += cl->exchangeTimeouts;
}

SystemSimResult
SystemSim::run()
{
    SCALO_ASSERT(!ran, "SystemSim::run is one-shot");
    ran = true;

    const std::size_t node_count = nodes.size();
    dynamicEnergyUj.assign(node_count, 0.0);
    nvmBytes.assign(node_count, 0);
    nvmPages.assign(node_count, 0);
    storage.clear();
    for (std::size_t n = 0; n < node_count; ++n)
        storage.emplace_back(/*reorganise_layout=*/true);

    // Fault events go on the queues before the window streams so that
    // a fault and an arrival on the same microsecond tick resolve
    // fault-first (deterministic FIFO tie-break).
    scheduleFaultEvents();

    for (std::size_t f = 0; f < flowRuntimes.size(); ++f) {
        FlowRuntime &rt = flowRuntimes[f];
        for (std::size_t n : rt.participants)
            nodes[n].streamWindows(rt.flowOnNode[n],
                                   rt.windowsPerNode);
        if (rt.networked)
            rt.submitted = rt.senders.empty() ? 0 : rt.windowsPerNode;
        else
            rt.submitted = rt.windowsPerNode * rt.participants.size();
    }

    SystemSimResult result;
    result.duration = config.duration;
    result.clusters = clusters.size();

    // Conservative quantum loop: clusters advance independently to
    // the barrier (clusters only couple through the backbone, which
    // the coordinator runs between quanta), so any quantum is safe
    // and serial/parallel execution is byte-identical. The flat
    // fabric is the one-cluster case, whose backbone never has work.
    // The quantum is the fastest window cadence (1 ms without one).
    std::uint64_t quantum = 0;
    for (const FlowRuntime &rt : flowRuntimes)
        if (rt.windowTicks > 0 &&
            (quantum == 0 || rt.windowTicks < quantum))
            quantum = rt.windowTicks;
    if (quantum == 0)
        quantum = 1000;

    util::ThreadPool pool(
        std::min(config.threads ? config.threads
                                : util::ThreadPool::defaultThreads(),
                 clusters.size()));
    result.ranParallel = pool.width() > 1;

    const auto work_pending = [this] {
        if (!pendingRounds.empty())
            return true;
        for (const std::unique_ptr<Cluster> &cl : clusters)
            if (cl->sim.pending() > 0 || !cl->outbox.empty())
                return true;
        return false;
    };
    std::uint64_t horizon = 0;
    while (work_pending()) {
        horizon += quantum;
        const units::Micros until{static_cast<double>(horizon)};
        pool.parallelFor(clusters.size(), [this, until](std::size_t c) {
            clusters[c]->eventsExecuted += clusters[c]->sim.run(until);
        });
        processBackbone(horizon);
    }
    for (const std::unique_ptr<Cluster> &cl : clusters)
        result.eventsExecuted += cl->eventsExecuted;

    // Merge the per-cluster traces in cluster order, then the
    // coordinator's backbone trace: a fixed order, so the combined
    // (stably time-sorted on export) trace is byte-identical between
    // the serial and parallel engines.
    for (std::unique_ptr<Cluster> &cl : clusters)
        eventTrace.append(std::move(cl->trace));
    eventTrace.append(std::move(globalTrace));

    // Leakage, replicating the scheduler's accounting: every flow
    // pays its own leakage, but the one physical intra-SCALO radio is
    // charged once (FlowSpec folds the default radio into networked
    // flows' leak, so it is first subtracted back out).
    units::Milliwatts radio_leak{0.0};
    std::size_t networked_flows = 0;
    for (const sched::FlowSpec &spec : config.flows)
        if (spec.network)
            ++networked_flows;
    if (config.system.wirelessNetwork && networked_flows > 0)
        radio_leak = config.system.radio->power;
    units::Milliwatts leak_total{0.0};
    for (const sched::FlowSpec &spec : config.flows) {
        units::Milliwatts leak = spec.leak;
        if (spec.network)
            leak -= net::defaultRadio().power;
        leak_total += leak;
    }
    leak_total += radio_leak;

    const double nvm_write_bps =
        hw::nvmSpec().writeBandwidth().count() * 1e6;
    for (std::size_t n = 0; n < node_count; ++n) {
        NodeSimStats stats;
        stats.node = static_cast<std::uint32_t>(n);
        stats.measuredPower =
            leak_total + units::Milliwatts{dynamicEnergyUj[n] /
                                           config.duration.count()};
        if (n < config.schedule.nodePower.size())
            stats.analyticPower = config.schedule.nodePower[n];
        stats.nvmBytesWritten = nvmBytes[n];
        stats.nvmPagesProgrammed = nvmPages[n];
        stats.nvmUtilization =
            static_cast<double>(nvmBytes[n]) /
            config.duration.in<units::Seconds>() / nvm_write_bps;
        stats.counters =
            eventTrace.counters(static_cast<std::uint32_t>(n));
        result.nodes.push_back(stats);
    }
    for (std::size_t c = 0; c < clusters.size(); ++c)
        result.network += eventTrace.counters(Trace::mediumNode(c));
    // A flat fabric has no backbone medium; its backbone slot holds
    // only the markers of backbone faults, which are no traffic.
    if (clusters.size() > 1)
        result.network += eventTrace.counters(Trace::kBackboneNode);

    mergeClusterStats(result);

    for (std::size_t f = 0; f < flowRuntimes.size(); ++f) {
        const FlowRuntime &rt = flowRuntimes[f];
        const Tally &tally = rt.tally;
        FlowSimStats stats;
        stats.flow = config.flows[f].name;
        stats.windowsSubmitted = rt.submitted;
        stats.windowsCompleted = tally.completed;
        // Node-level drops (halted/crashed nodes, backlog sheds)
        // accumulate on the NodeModels.
        std::size_t dropped = 0;
        for (const std::size_t n : rt.participants)
            dropped += nodes[n].progress(rt.flowOnNode[n]).dropped;
        stats.windowsDropped = dropped;
        if (tally.completed > 0) {
            stats.meanResponse = units::Micros{
                static_cast<double>(tally.responseSumUs) /
                static_cast<double>(tally.completed)};
            stats.maxResponse = units::Micros{
                static_cast<double>(tally.maxResponseUs)};
        }
        if (tally.roundCount > 0) {
            stats.meanRound = units::Micros{
                static_cast<double>(tally.roundSumUs) /
                static_cast<double>(tally.roundCount)};
            stats.maxRound = units::Micros{
                static_cast<double>(tally.maxRoundUs)};
        }
        stats.analyticResponse =
            units::Micros{rt.analyticResponseUs};
        stats.analyticRound = units::Micros{rt.analyticRoundUs};
        stats.packetsSent = tally.packetsSent;
        stats.packetsCorrupted = tally.packetsCorrupted;
        stats.retransmissions = tally.retransmissions;
        stats.packetsLost = tally.packetsLost;
        stats.relayForwards = rt.relayForwards;
        result.packetsLost += tally.packetsLost;
        stats.analyticallySustainable = rt.analyticSustainable;
        // Event-driven verdict: everything completed and the response
        // of the last window did not drift from the first (a stage or
        // the medium falling behind the cadence grows the backlog
        // monotonically).
        stats.sustainable =
            dropped == 0 && tally.completed == rt.submitted &&
            (tally.completed == 0 ||
             tally.lastResponseUs <=
                 tally.firstResponseUs + rt.windowTicks / 2);
        result.flows.push_back(std::move(stats));
    }

    result.nvmWriteFailures = injector.nvmFailuresDrawn();
    result.partitions = partitionEvents;
    result.restitches = restitchEvents;
    result.relayForwardsDropped = relayForwardsDropped;

    if (!config.recordTrace)
        eventTrace.clear();
    return result;
}

} // namespace scalo::sim
