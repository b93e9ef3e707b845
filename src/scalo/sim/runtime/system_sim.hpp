/**
 * @file
 * Event-driven execution of a complete N-node SCALO system directly
 * from a `sched::Schedule`: one `sim::NodeModel` actor per implant
 * runs the scheduled flows' PE chains at their window cadences, TDMA
 * exchange rounds occupy per-cluster `sim::Medium`s whose packets
 * pass through BER-driven `net::WirelessChannel`s (corrupted
 * non-signal packets are retransmitted in extra slots), and NVM write
 * traffic streams through each node's `hw::StorageController`.
 *
 * The fabric is hierarchical (`net::ClusterPlan`): each cluster runs
 * its own TDMA rounds on an independent medium and owns a private
 * discrete-event queue; relays forward per-cluster aggregates onto a
 * shared backbone medium processed at cluster-synchronisation
 * barriers. A single-cluster plan degenerates to the original flat
 * fabric and reproduces its runs byte for byte. Multi-cluster runs
 * advance their cluster queues on `util::ThreadPool` workers, one
 * runner per CPU by default (`SystemSimConfig::threads`; 1 is the
 * serial engine): clusters only interact through the
 * backbone, which is handled single-threadedly at quantum barriers,
 * so the parallel engine's merged trace is byte-identical to the
 * serial reference engine for the same seed.
 *
 * The point is cross-validation (Section 3.5): the ILP schedules
 * statically on the claim that every component has deterministic
 * latency and power. `SystemSim` measures per-node power, end-to-end
 * response time, and sustainability from the event-driven execution
 * and reports them next to the analytic predictions, so the claim is
 * checked rather than assumed (tests/system_sim_test.cpp asserts
 * agreement within 5% for the Section 6 flow library).
 *
 * The runtime also executes declarative `FaultPlan`s: node crashes
 * and reboots, radio dropouts, BER spikes, NVM write failures, and
 * thermal throttling. TDMA slots double as heartbeats
 * (`net::HeartbeatDetector`, one per cluster): an exchange round that
 * hits its deadline with absent senders records misses, a node
 * crossing the miss threshold is declared dead, and the scheduler
 * remaps its work onto the cluster's survivors
 * (`sched::Scheduler::rescheduleCluster`; the flat fabric keeps the
 * whole-system `reschedule`), all visible in the trace as
 * FaultInjected/NodeDown/Resched events. An empty plan reproduces
 * the fault-free run byte for byte.
 */

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scalo/hw/nvm.hpp"
#include "scalo/net/channel.hpp"
#include "scalo/net/cluster.hpp"
#include "scalo/net/failure_detector.hpp"
#include "scalo/net/retry.hpp"
#include "scalo/sched/scheduler.hpp"
#include "scalo/sim/faults/fault_injector.hpp"
#include "scalo/sim/runtime/medium.hpp"
#include "scalo/sim/runtime/node_model.hpp"
#include "scalo/sim/runtime/trace.hpp"

namespace scalo::sim {

/** What to simulate: a scheduled flow set on an N-node system. */
struct SystemSimConfig
{
    /** The system the schedule was produced for (cluster plan and
     *  all; an empty plan is the flat single-medium fabric). */
    sched::SystemConfig system;
    /** The flow set, in the order it was passed to the scheduler. */
    std::vector<sched::FlowSpec> flows;
    /** The (feasible) allocation to execute. */
    sched::Schedule schedule;
    /** Streaming duration; windows arrive at each flow's cadence. */
    units::Millis duration{400.0};
    /** Channel error-injection seed. */
    std::uint64_t seed = 0x5ca1'0b01;
    /** Record a full event trace (counters accumulate regardless). */
    bool recordTrace = false;
    /**
     * Faults to inject. Empty (the default) is the contract for the
     * happy path: the run is identical to the pre-fault-framework
     * execution, byte for byte.
     */
    FaultPlan faults;
    /** Retransmission budget and exchange deadline. */
    net::RetryPolicy retry;
    /** Consecutive missed slots before a node is declared dead. */
    std::size_t heartbeatMissThreshold = 3;
    /**
     * Flow priorities for degraded rescheduling, in flow order.
     * Empty means equal weights.
     */
    std::vector<double> priorities;
    /**
     * Runners advancing the cluster event queues: 0 means one per
     * CPU, 1 the serial engine (the reference); capped at the cluster
     * count. Every width produces the identical result and trace; it
     * only changes wall-clock time. No effect on single-cluster plans.
     */
    std::size_t threads = 0;
};

/** A node declared dead by the heartbeat detector. */
struct NodeDownEvent
{
    std::uint32_t node = 0;
    /** Injected crash instant; negative if the node never crashed
     *  (a false positive, e.g. during a radio dropout). */
    units::Millis crashedAt{-1.0};
    /** When the detector crossed its miss threshold. */
    units::Millis detectedAt{0.0};
};

/** One degraded-mode reschedule (on death or recovery). */
struct RescheduleEvent
{
    units::Millis at{0.0};
    std::vector<std::size_t> deadNodes;
    /** Every re-solve was Optimal (see sched::RescheduleResult). */
    bool viaIlp = false;
    /** Clusters whose sub-problems were re-solved. */
    std::vector<std::size_t> resolvedClusters;
    units::MegabitsPerSecond throughputBefore{0.0};
    units::MegabitsPerSecond throughputAfter{0.0};
    units::Milliwatts maxNodePowerBefore{0.0};
    units::Milliwatts maxNodePowerAfter{0.0};
};

/**
 * A partition transition observed by the backbone-cadence failure
 * detector: a cluster with alive senders that stops (or resumes)
 * reaching the backbone.
 */
struct PartitionEvent
{
    std::size_t cluster = 0;
    units::Millis at{0.0};
    /** False for a PartitionStart, true for a PartitionHealed. */
    bool healed = false;
};

/**
 * One fabric-wide backbone re-stitch, performed at a quantum barrier
 * after relay failover, node death, or a partition transition
 * (sched::Scheduler::restitchBackbone).
 */
struct RestitchEvent
{
    units::Millis at{0.0};
    /** Dead nodes (union of every cluster detector) at the barrier. */
    std::vector<std::size_t> deadNodes;
    /** Clusters the backbone detector held unreachable. */
    std::vector<std::size_t> unreachableClusters;
    bool viaIlp = false;
    units::MegabitsPerSecond throughputBefore{0.0};
    units::MegabitsPerSecond throughputAfter{0.0};
};

/** Measured vs analytic behaviour of one flow. */
struct FlowSimStats
{
    std::string flow;
    /** Windows entering the system (summed over sender nodes). */
    std::size_t windowsSubmitted = 0;
    std::size_t windowsCompleted = 0;
    std::size_t windowsDropped = 0;
    /** Measured end-to-end response (compute + exchange round). */
    units::Millis meanResponse{0.0};
    units::Millis maxResponse{0.0};
    /** Static prediction: pipeline latency + TDMA round. */
    units::Millis analyticResponse{0.0};
    /**
     * Measured TDMA exchange round (zero for local flows). On a
     * clustered fabric this spans the first intra-cluster slot to
     * the end of the backbone round.
     */
    units::Millis meanRound{0.0};
    units::Millis maxRound{0.0};
    /** Static prediction of the round (zero for local flows). */
    units::Millis analyticRound{0.0};
    std::uint64_t packetsSent = 0;
    std::uint64_t packetsCorrupted = 0;
    std::uint64_t retransmissions = 0;
    /** Fragments abandoned after the retry budget was exhausted. */
    std::uint64_t packetsLost = 0;
    /** Relay aggregates carried over the backbone. */
    std::uint64_t relayForwards = 0;
    /** Event-driven verdict: cadence held, no backlog growth. */
    bool sustainable = false;
    /** Static verdict: every stage service fits the window. */
    bool analyticallySustainable = false;
};

/** Measured vs analytic behaviour of one node. */
struct NodeSimStats
{
    std::uint32_t node = 0;
    /** Leakage + dynamic energy integrated over the run. */
    units::Milliwatts measuredPower{0.0};
    /** The scheduler's prediction (Schedule::nodePower). */
    units::Milliwatts analyticPower{0.0};
    std::uint64_t nvmBytesWritten = 0;
    std::uint64_t nvmPagesProgrammed = 0;
    /** Write traffic / NVM write bandwidth. */
    double nvmUtilization = 0.0;
    /** Trace-event counts of this node (the metrics hook). */
    TraceCounters counters;
};

/** Full result of one SystemSim run. */
struct SystemSimResult
{
    std::vector<FlowSimStats> flows;
    std::vector<NodeSimStats> nodes;
    /** Counters summed over every medium (cluster + backbone). */
    TraceCounters network;
    units::Millis duration{0.0};
    std::size_t eventsExecuted = 0;
    /** Clusters the fabric ran as (1 = flat). */
    std::size_t clusters = 1;
    /** Whether more than one runner advanced the cluster queues. */
    bool ranParallel = false;

    // Failure timeline (all empty/zero on a fault-free run).
    std::vector<NodeDownEvent> nodesDown;
    std::vector<RescheduleEvent> reschedules;
    /** Backbone-detector partition transitions, detection order. */
    std::vector<PartitionEvent> partitions;
    /** Backbone re-stitches (failover, death, partition heal). */
    std::vector<RestitchEvent> restitches;
    /** Exchange rounds that ran at their deadline with absentees. */
    std::uint64_t exchangeTimeouts = 0;
    /** NVM appends the injector failed. */
    std::uint64_t nvmWriteFailures = 0;
    /** Fragments lost after the retry budget, summed over flows. */
    std::uint64_t packetsLost = 0;
    /** Relay aggregates lost to severed backbone links. */
    std::uint64_t relayForwardsDropped = 0;
};

/** The N-node system simulation. */
class SystemSim
{
  public:
    /** @pre config.schedule.feasible */
    explicit SystemSim(SystemSimConfig config);
    ~SystemSim();

    SystemSim(const SystemSim &) = delete;
    SystemSim &operator=(const SystemSim &) = delete;

    /** Execute the schedule; callable once per SystemSim. */
    SystemSimResult run();

    /** The recorded trace (empty unless config.recordTrace). */
    const Trace &trace() const { return eventTrace; }

    /**
     * Fault-injector RNG draw counts, shared stream first, then one
     * per node. The determinism contract's observable: a run with an
     * empty FaultPlan must leave every stream at zero — the fault
     * machinery consumes no randomness on the happy path, which is
     * what keeps empty-plan traces byte-identical to pre-fault
     * builds at every thread count.
     */
    std::vector<std::uint64_t>
    faultRngDraws() const
    {
        return injector.rngDrawsPerStream();
    }

  private:
    struct FlowRuntime;
    struct ClusterFlow;
    struct Cluster;
    struct RelayPacket;
    struct BackboneRound;
    struct Link;

    /**
     * Send one packet of @p bytes from @p source on @p link,
     * fragmented, each fragment retried with backoff under the
     * channel conditions at its instant, starting at @p cursor (µs).
     * @return the cursor after the packet's guard time
     */
    double sendPacket(const Link &link, std::size_t flow,
                      std::size_t source, std::uint8_t destination,
                      std::size_t bytes, std::uint32_t timestamp,
                      double cursor);
    void runExchange(Cluster &cluster, std::size_t flow,
                     std::uint64_t window_id);
    void onExchangeDeadline(Cluster &cluster, std::size_t flow,
                            std::uint64_t window_id);
    void accountWindow(Cluster &cluster, std::size_t flow,
                       std::uint32_t node, std::uint64_t window_id);
    void scheduleFaultEvents();
    void declareDead(Cluster &cluster, std::size_t node);
    void declareRecovered(Cluster &cluster, std::size_t node);
    /** Re-solve around the cluster's dead set; update live state. */
    void applyReschedule(Cluster &cluster);
    /** Refresh @p cluster's live totals/payloads from liveSchedule. */
    void refreshClusterAllocation(Cluster &cluster);
    /**
     * Gather relay forwards up to @p upto_ticks and run every
     * backbone round that is complete (or past its deadline).
     * Single-threaded: runs between cluster quanta.
     */
    void processBackbone(std::uint64_t upto_ticks);
    void runBackboneRound(std::size_t flow, std::uint64_t window_id,
                          BackboneRound &round, bool timed_out);
    /**
     * Fabric-wide backbone re-stitch if any cluster flagged one (a
     * relay failover or reschedule) or the backbone detector changed
     * state. Runs single-threadedly at the quantum barrier.
     */
    void performRestitch(std::uint64_t upto_ticks);
    void mergeClusterStats(SystemSimResult &result);

    SystemSimConfig config;
    /** Effective partition (flat when the config has none). */
    net::ClusterPlan plan;
    /** The run's one scheduler: every repair re-solve goes through
     *  it, so repairs share its solve memo. */
    const sched::Scheduler scheduler;
    std::vector<std::unique_ptr<Cluster>> clusters;
    /** Coordinator-side trace: backbone rounds and relay packets. */
    Trace globalTrace;
    /** Merged trace of the whole run (filled by run()). */
    Trace eventTrace;
    FaultInjector injector;
    /** The allocation currently executing: clusters mutate only
     *  their member columns (disjoint), reschedules degrade it. */
    sched::Schedule liveSchedule;
    std::vector<NodeModel> nodes;
    std::vector<FlowRuntime> flowRuntimes;
    /** Ground-truth node state (crash/reboot), unobservable by the
     *  detector. */
    std::vector<char> nodeUp;
    /** Injected crash instant per node (ms; -1 = never crashed). */
    std::vector<double> crashedAtMs;
    /** Per-node dynamic energy accrued so far (µJ = mW·ms). */
    std::vector<double> dynamicEnergyUj;
    std::vector<hw::StorageController> storage;
    std::vector<std::uint64_t> nvmBytes;
    std::vector<std::uint64_t> nvmPages;

    // Backbone (coordinator) state; touched only between quanta.
    Medium backboneMedium;
    std::map<std::pair<std::size_t, std::uint64_t>, BackboneRound>
        pendingRounds;
    std::vector<std::optional<net::WirelessChannel>>
        backboneChannels;
    Rng backboneBackoffRng;
    std::uint64_t backboneTimeouts = 0;
    std::uint16_t backboneSequence = 0;

    /**
     * Backbone-cadence failure detector over *clusters*: each
     * backbone round a cluster with alive senders either reached the
     * backbone (heard) or did not (miss); crossing the miss threshold
     * declares the cluster partitioned. Sized to the cluster count
     * by the constructor; the placeholder must still meet the
     * detector's precondition (at least one node).
     */
    net::HeartbeatDetector backboneDetector{1, 3};
    /** The backbone detector changed state since the last restitch. */
    bool backboneRestitchPending = false;
    /** Latest tick of any event that requested the pending restitch
     *  (the restitch is stamped no earlier, for trace ordering). */
    std::uint64_t restitchTickHint = 0;
    std::vector<PartitionEvent> partitionEvents;
    std::vector<RestitchEvent> restitchEvents;
    std::uint64_t relayForwardsDropped = 0;
    /** Victim resolved at each RelayCrashFault's crash instant. */
    std::vector<std::size_t> relayCrashVictims;

    bool ran = false;
};

} // namespace scalo::sim
