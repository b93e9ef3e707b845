#include "scalo/core/system.hpp"

#include <sstream>

#include "scalo/util/logging.hpp"

namespace scalo::core {

ScaloSystem::ScaloSystem(const ScaloConfig &config) : cfg(config)
{
    SCALO_ASSERT(cfg.nodes >= 1, "need at least one node");
    SCALO_ASSERT(cfg.clusters >= 1 && cfg.clusters <= cfg.nodes,
                 "cluster count must be in [1, nodes]");
    if (cfg.powerCap > constants::kPowerCap)
        SCALO_FATAL("per-implant power above the 15 mW safety cap");
}

sched::SystemConfig
ScaloSystem::schedulerConfig() const
{
    sched::SystemConfig sys;
    sys.nodes = cfg.nodes;
    sys.powerCap = cfg.powerCap;
    sys.radio = &net::radioSpec(cfg.radio);
    sys.maxElectrodesPerNode = constants::kElectrodesPerNode;
    if (cfg.clusters > 1)
        sys.clusters =
            net::ClusterPlan::balanced(cfg.nodes, cfg.clusters);
    return sys;
}

bool
ScaloSystem::thermallySafe() const
{
    return thermal.safe(cfg.nodes, cfg.spacing, cfg.powerCap);
}

std::size_t
ScaloSystem::maxPlaceableImplants() const
{
    return hw::ThermalModel::maxImplants(cfg.spacing);
}

sched::Schedule
ScaloSystem::deploy(const std::vector<sched::FlowSpec> &flows,
                    const std::vector<double> &priorities) const
{
    const sched::Scheduler scheduler(schedulerConfig());
    return scheduler.schedule(flows, priorities);
}

units::MegabitsPerSecond
ScaloSystem::maxThroughput(const sched::FlowSpec &flow) const
{
    sched::SystemConfig sys = schedulerConfig();
    sys.maxElectrodesPerNode = 0.0;
    const sched::Scheduler scheduler(sys);
    return scheduler.maxAggregateThroughput(flow);
}

sim::SystemSimResult
ScaloSystem::simulate(const std::vector<sched::FlowSpec> &flows,
                      const sched::Schedule &schedule,
                      const SimulateOptions &options) const
{
    SCALO_ASSERT(schedule.feasible,
                 "cannot simulate an infeasible schedule");
    sim::SystemSimConfig sim_config;
    sim_config.system = schedulerConfig();
    sim_config.flows = flows;
    sim_config.schedule = schedule;
    sim_config.duration = options.duration;
    sim_config.seed = cfg.seed;
    sim_config.recordTrace = !options.tracePath.empty();
    // With the default options (empty plan, equal priorities,
    // default retry) this configuration is exactly the pre-fault
    // happy path, byte for byte.
    sim_config.faults = options.faults;
    sim_config.retry = options.retry;
    sim_config.priorities = options.priorities;
    sim_config.threads = options.threads;
    sim::SystemSim system_sim(std::move(sim_config));
    sim::SystemSimResult result = system_sim.run();
    if (!options.tracePath.empty() &&
        !system_sim.trace().writeChromeJson(options.tracePath,
                                            options.threads))
        SCALO_FATAL("cannot write trace to ", options.tracePath);
    return result;
}

app::QueryEngine
ScaloSystem::makeQueryEngine(std::size_t window_samples) const
{
    app::QueryEngine engine(cfg.nodes, window_samples, cfg.seed);
    // Hierarchical deployments serve with cluster-granular coverage:
    // the query path shares the fabric's failure domains, so a
    // backbone partition degrades queries per cluster, not per node.
    if (cfg.clusters > 1)
        engine.setClusterPlan(
            net::ClusterPlan::balanced(cfg.nodes, cfg.clusters));
    return engine;
}

query::CompiledPipeline
ScaloSystem::program(const std::string &source) const
{
    query::CompiledPipeline pipeline = query::compileSource(source);
    // Fabric validation: every stage's PEs must exist on a node.
    hw::Pipeline hw_pipeline("program", {});
    for (hw::PeKind kind : pipeline.peChain())
        hw_pipeline.addStage({kind, constants::kElectrodesPerNode, 1});
    const std::string error = nodeFabric.validate({hw_pipeline});
    if (!error.empty())
        SCALO_FATAL("program does not fit the fabric: ", error);
    return pipeline;
}

app::QueryCost
ScaloSystem::interactiveQuery(app::QueryKind kind,
                              units::Megabytes data,
                              double matched_fraction) const
{
    app::QueryConfig query_config;
    query_config.nodes = cfg.nodes;
    query_config.data = data;
    query_config.matchedFraction = matched_fraction;
    return app::estimateQuery(kind, query_config);
}

const net::RadioSpec &
ScaloSystem::radio() const
{
    return net::radioSpec(cfg.radio);
}

std::string
ScaloSystem::describe() const
{
    std::ostringstream oss;
    oss << "SCALO: " << cfg.nodes << " implants @ "
        << cfg.powerCap.count() << " mW, radio " << radio().name
        << " (" << radio().dataRate.count() << " Mbps), spacing "
        << cfg.spacing.count() << " mm, thermal "
        << (thermallySafe() ? "safe" : "UNSAFE");
    if (cfg.clusters > 1)
        oss << ", " << cfg.clusters << " clusters";
    return oss.str();
}

} // namespace scalo::core
