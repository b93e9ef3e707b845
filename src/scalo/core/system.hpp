/**
 * @file
 * The top-level public API: a ScaloSystem is a configured distributed
 * BCI (node count, power limit, radio, placement) onto which
 * applications are deployed via the ILP scheduler and against which
 * interactive queries run. This is the facade the examples and most
 * downstream users program against; the underlying modules remain
 * available for finer control.
 */

#pragma once

#include <array>
#include <string>
#include <vector>

#include "scalo/app/movement.hpp"
#include "scalo/app/query.hpp"
#include "scalo/app/query_engine.hpp"
#include "scalo/app/seizure.hpp"
#include "scalo/app/spikesort.hpp"
#include "scalo/hw/thermal.hpp"
#include "scalo/net/retry.hpp"
#include "scalo/query/language.hpp"
#include "scalo/sched/scheduler.hpp"
#include "scalo/sim/faults/fault_plan.hpp"
#include "scalo/sim/runtime/system_sim.hpp"

namespace scalo::core {

/** System-level configuration of a SCALO deployment. */
struct ScaloConfig
{
    std::size_t nodes = 4;
    units::Milliwatts powerCap = constants::kPowerCap;
    net::RadioDesign radio = net::RadioDesign::LowPower;
    /** Inter-implant spacing on the cortical surface. */
    units::Millimetres spacing = constants::kImplantSpacing;
    std::uint64_t seed = 0x5ca10;
    /**
     * Hierarchical fabric width: the nodes are partitioned into this
     * many balanced TDMA clusters bridged by a relay backbone. 1 (the
     * default) is the flat single-medium fabric, bit-identical to the
     * pre-hierarchy system.
     */
    std::size_t clusters = 1;
};

/**
 * Options for ScaloSystem::simulate. Fault injection is an option,
 * not a separate entry point: populate @ref faults (and, for
 * rescheduling fidelity, @ref priorities) to execute the schedule
 * under failures. The defaults — an empty plan, equal priorities,
 * default retry — reproduce the happy-path execution bit for bit.
 */
struct SimulateOptions
{
    /** Streaming duration the deployment is executed for. */
    units::Millis duration{400.0};
    /** When non-empty, export a Chrome trace-event JSON here. */
    std::string tracePath;
    /**
     * Failures to inject; the runtime detects them over the TDMA
     * heartbeats and degrades onto the survivors. Empty = none.
     */
    sim::FaultPlan faults;
    /**
     * Flow weights for degradation rescheduling (the weights the
     * schedule was deployed with). Empty = equal weights.
     */
    std::vector<double> priorities;
    /** Transmission retry policy under faults. */
    net::RetryPolicy retry;
    /**
     * Runners for the cluster event queues (multi-cluster systems)
     * and for the trace export: 0 means one per CPU, 1 runs serially.
     * Every width produces the identical result and trace bytes; it
     * only changes wall-clock time.
     */
    std::size_t threads = 0;
};

/** A configured SCALO BCI. */
class ScaloSystem
{
  public:
    explicit ScaloSystem(const ScaloConfig &config);

    const ScaloConfig &config() const { return cfg; }

    /**
     * Validate the deployment's thermal safety: node count, spacing,
     * and per-implant power against the 1 C limit (Section 5).
     */
    bool thermallySafe() const;

    /** Maximum implants placeable at the configured spacing. */
    std::size_t maxPlaceableImplants() const;

    /**
     * Deploy application flows with priorities: runs the ILP
     * scheduler and returns the electrode allocation + power/network
     * schedule summary.
     */
    sched::Schedule deploy(const std::vector<sched::FlowSpec> &flows,
                           const std::vector<double> &priorities)
        const;

    /** Max aggregate throughput of one flow on this system. */
    units::MegabitsPerSecond
    maxThroughput(const sched::FlowSpec &flow) const;

    /**
     * Cross-validate a deployment by executing @p schedule (produced
     * by deploy() for the same @p flows) through the node-level
     * discrete-event runtime. The result pairs measured per-node
     * power, response time, and sustainability with the scheduler's
     * analytic predictions. Fault injection rides on the options:
     * when options.faults is non-empty the runtime injects the plan,
     * detects failures over the TDMA heartbeats, retries under
     * options.retry, and reschedules dead nodes' work onto the
     * survivors weighted by options.priorities; an empty plan is the
     * happy path, bit for bit.
     */
    sim::SystemSimResult
    simulate(const std::vector<sched::FlowSpec> &flows,
             const sched::Schedule &schedule,
             const SimulateOptions &options = {}) const;

    /**
     * An interactive QueryEngine sized for this system: one store
     * shard per implant, hashing seeded from the system seed so
     * ingest-side signatures line up across engines. Hierarchical
     * systems (clusters > 1) hand the engine their cluster plan, so
     * executions report cluster-granular Coverage and whole clusters
     * can be marked unreachable during backbone partitions. The
     * serving runtime (serve::QueryServer) wraps one of these.
     */
    app::QueryEngine makeQueryEngine(std::size_t window_samples)
        const;

    /**
     * Compile a TrillDSP-style program and validate it against the
     * node fabric. @return the compiled pipeline
     */
    query::CompiledPipeline program(const std::string &source) const;

    /** Estimate an interactive query's cost on this system. */
    app::QueryCost interactiveQuery(app::QueryKind kind,
                                    units::Megabytes data,
                                    double matched_fraction) const;

    /** The per-node fabric (PE inventory). */
    const hw::NodeFabric &fabric() const { return nodeFabric; }

    /** The intra-SCALO radio in use. */
    const net::RadioSpec &radio() const;

    /** One-line human-readable summary. */
    std::string describe() const;

  private:
    /** The scheduler-facing view of this system (cluster plan etc). */
    sched::SystemConfig schedulerConfig() const;

    ScaloConfig cfg;
    hw::NodeFabric nodeFabric;
    hw::ThermalModel thermal;
};

} // namespace scalo::core
