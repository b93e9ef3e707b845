#include "scalo/sim/faults/fault_plan.hpp"

#include "scalo/util/contracts.hpp"

namespace scalo::sim {

void
FaultPlan::validate(std::size_t nodes, std::size_t clusters) const
{
    for (const NodeCrashFault &crash : crashes) {
        SCALO_EXPECTS(crash.node < nodes);
        SCALO_EXPECTS(crash.at.count() >= 0.0);
        if (crash.reboots())
            SCALO_EXPECTS(crash.rebootAt > crash.at);
    }
    for (const RadioDropoutFault &dropout : dropouts) {
        SCALO_EXPECTS(dropout.from.count() >= 0.0);
        SCALO_EXPECTS(dropout.to > dropout.from);
    }
    for (const BerSpikeFault &spike : berSpikes) {
        SCALO_EXPECTS(spike.from.count() >= 0.0);
        SCALO_EXPECTS(spike.to > spike.from);
        SCALO_EXPECTS(spike.ber >= 0.0 && spike.ber <= 1.0);
    }
    for (const NvmFailureFault &failure : nvmFailures) {
        SCALO_EXPECTS(failure.node < nodes);
        SCALO_EXPECTS(failure.probability >= 0.0 &&
                      failure.probability <= 1.0);
    }
    for (const ThermalThrottleFault &throttle : throttles) {
        SCALO_EXPECTS(throttle.node < nodes);
        SCALO_EXPECTS(throttle.from.count() >= 0.0);
        SCALO_EXPECTS(throttle.to > throttle.from);
        SCALO_EXPECTS(throttle.slowdown >= 1.0);
    }
    for (const RelayCrashFault &crash : relayCrashes) {
        if (clusters > 0)
            SCALO_EXPECTS(crash.cluster < clusters);
        SCALO_EXPECTS(crash.at.count() >= 0.0);
        if (crash.reboots())
            SCALO_EXPECTS(crash.rebootAt > crash.at);
    }
    // One cluster has no backbone: a partition or a backbone BER
    // spike there would run as a silent no-op.
    if (clusters == 1) {
        SCALO_EXPECTS(partitions.empty());
        SCALO_EXPECTS(backboneBerSpikes.empty());
    }
    for (const ClusterPartitionFault &partition : partitions) {
        if (clusters > 0)
            SCALO_EXPECTS(partition.cluster < clusters);
        SCALO_EXPECTS(partition.from.count() >= 0.0);
        SCALO_EXPECTS(partition.to > partition.from);
    }
    for (const BackboneBerSpikeFault &spike : backboneBerSpikes) {
        SCALO_EXPECTS(spike.from.count() >= 0.0);
        SCALO_EXPECTS(spike.to > spike.from);
        SCALO_EXPECTS(spike.ber >= 0.0 && spike.ber <= 1.0);
    }
}

} // namespace scalo::sim
