/**
 * @file
 * Declarative fault plans for the simulation runtime: a `FaultPlan`
 * lists the failures one run injects — node crashes (with optional
 * reboot), radio dropout windows, BER spikes, NVM write-failure
 * probability, and thermal-throttle intervals — on the same
 * deterministic clock as `sim::Simulator`. The plan is pure data:
 * `sim::FaultInjector` interprets it at run time, and `sim::SystemSim`
 * consults the injector each event round, so the same plan + seed
 * reproduces the same failure timeline byte for byte.
 *
 * An empty plan is the contract for the happy path: with no faults
 * the runtime's behaviour (and its trace) is identical to the
 * pre-fault-framework execution.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "scalo/units/units.hpp"

namespace scalo::sim {

/** One node crashes at @ref at; optionally reboots later. */
struct NodeCrashFault
{
    std::uint32_t node = 0;
    /** Crash instant on the simulation clock. */
    units::Millis at{0.0};
    /** Reboot instant; negative means the node stays down. */
    units::Millis rebootAt{-1.0};

    bool reboots() const { return rebootAt.count() >= 0.0; }
};

/** The shared medium is gone for [from, to): every packet is lost. */
struct RadioDropoutFault
{
    units::Millis from{0.0};
    units::Millis to{0.0};
};

/** The channel BER is raised to @ref ber over [from, to). */
struct BerSpikeFault
{
    units::Millis from{0.0};
    units::Millis to{0.0};
    double ber = 0.0;
};

/** Each NVM append on @ref node fails with @ref probability. */
struct NvmFailureFault
{
    std::uint32_t node = 0;
    double probability = 0.0;
};

/**
 * Thermal throttling on @ref node over [from, to): every PE stage's
 * service time is multiplied by @ref slowdown (the clock is dropped
 * to shed heat, Section 5's safety mechanism).
 */
struct ThermalThrottleFault
{
    std::uint32_t node = 0;
    units::Millis from{0.0};
    units::Millis to{0.0};
    double slowdown = 2.0;
};

/**
 * The current relay of @ref cluster crashes at @ref at (whoever holds
 * the duty then — the fault targets the *role*, not a node id, so it
 * composes with earlier crashes that already migrated the duty);
 * optionally reboots later. In a flat (single-cluster) deployment this
 * degenerates to crashing the first alive node.
 */
struct RelayCrashFault
{
    std::uint32_t cluster = 0;
    /** Crash instant on the simulation clock. */
    units::Millis at{0.0};
    /** Reboot instant; negative means the relay stays down. */
    units::Millis rebootAt{-1.0};

    bool reboots() const { return rebootAt.count() >= 0.0; }
};

/**
 * Cluster @ref cluster's backbone link is severed for [from, to):
 * intra-cluster TDMA keeps running, but every relay forward to or
 * from the cluster is lost until the window closes. The backbone
 * failure detector notices at backbone-round granularity and the
 * query layer degrades to cluster-granular partial coverage.
 */
struct ClusterPartitionFault
{
    std::uint32_t cluster = 0;
    units::Millis from{0.0};
    units::Millis to{0.0};
};

/**
 * The *backbone* channel BER is raised to @ref ber over [from, to)
 * while intra-cluster channels keep their baseline (inter-implant
 * hops cross more tissue/air than intra-cluster ones, so their error
 * windows are independent).
 */
struct BackboneBerSpikeFault
{
    units::Millis from{0.0};
    units::Millis to{0.0};
    double ber = 0.0;
};

/** Everything one run injects. Empty by default (the happy path). */
struct FaultPlan
{
    std::vector<NodeCrashFault> crashes;
    std::vector<RadioDropoutFault> dropouts;
    std::vector<BerSpikeFault> berSpikes;
    std::vector<NvmFailureFault> nvmFailures;
    std::vector<ThermalThrottleFault> throttles;
    std::vector<RelayCrashFault> relayCrashes;
    std::vector<ClusterPartitionFault> partitions;
    std::vector<BackboneBerSpikeFault> backboneBerSpikes;

    bool
    empty() const
    {
        return crashes.empty() && dropouts.empty() &&
               berSpikes.empty() && nvmFailures.empty() &&
               throttles.empty() && relayCrashes.empty() &&
               partitions.empty() && backboneBerSpikes.empty();
    }

    /** Total fault entries across all categories. */
    std::size_t
    size() const
    {
        return crashes.size() + dropouts.size() + berSpikes.size() +
               nvmFailures.size() + throttles.size() +
               relayCrashes.size() + partitions.size() +
               backboneBerSpikes.size();
    }

    /**
     * Contract-check the plan against a system of @p nodes nodes:
     * node indices in range, intervals well-formed, probabilities in
     * [0, 1], slowdowns >= 1. When @p clusters is non-zero the
     * cluster-level faults' cluster indices are checked against it
     * too (callers that know their ClusterPlan pass its count), and
     * a one-cluster system, which has no backbone, must carry no
     * partitions and no backbone BER spikes. Violations trip
     * SCALO_EXPECTS.
     */
    void validate(std::size_t nodes, std::size_t clusters = 0) const;
};

} // namespace scalo::sim
