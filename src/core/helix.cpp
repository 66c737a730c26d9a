#include "core/helix.h"

#include "util/logging.h"

namespace helix {

Deployment::Deployment(cluster::ClusterSpec cluster_spec,
                       model::TransformerSpec model_spec,
                       placement::Planner &planner,
                       cluster::CostModelParams cost_params)
    : cluster(std::move(cluster_spec)), model(std::move(model_spec)),
      prof(model, cost_params)
{
    replan(planner);
}

void
Deployment::replan(placement::Planner &planner)
{
    plan = planner.plan(cluster, prof);
    planner_name = planner.name();
    rebuildTopology();
}

void
Deployment::usePlacement(const placement::ModelPlacement &placement)
{
    plan = placement;
    planner_name = "external";
    rebuildTopology();
}

void
Deployment::rebuildTopology()
{
    placement::PlacementGraph graph(cluster, prof, plan);
    (void)graph.maxThroughput(); // prime flows before Topology copies
    topo = std::make_unique<scheduler::Topology>(cluster, prof, plan,
                                                 graph);
}

double
Deployment::plannedThroughput() const
{
    return topo->maxFlow();
}

const char *
toString(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Auto:    return "auto";
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Diurnal: return "diurnal";
      case ArrivalKind::Bursty:  return "bursty";
    }
    return "?";
}

const char *
toString(SchedulerKind kind)
{
    switch (kind) {
      case SchedulerKind::Helix:           return "helix";
      case SchedulerKind::Swarm:           return "swarm";
      case SchedulerKind::Random:          return "random";
      case SchedulerKind::ShortestQueue:   return "shortest-queue";
      case SchedulerKind::FixedRoundRobin: return "fixed-rr";
    }
    return "?";
}

std::unique_ptr<scheduler::RequestScheduler>
makeScheduler(const Deployment &deployment, SchedulerKind kind,
              scheduler::SchedulerConfig config)
{
    const scheduler::Topology &topo = deployment.topology();
    switch (kind) {
      case SchedulerKind::Helix:
        return std::make_unique<scheduler::HelixScheduler>(topo,
                                                           config);
      case SchedulerKind::Swarm:
        return std::make_unique<scheduler::WalkScheduler>(
            topo, scheduler::WalkPolicy::ThroughputProportional,
            config);
      case SchedulerKind::Random:
        return std::make_unique<scheduler::WalkScheduler>(
            topo, scheduler::WalkPolicy::Random, config);
      case SchedulerKind::ShortestQueue:
        return std::make_unique<scheduler::WalkScheduler>(
            topo, scheduler::WalkPolicy::ShortestQueue, config);
      case SchedulerKind::FixedRoundRobin: {
        auto pipelines = scheduler::derivePipelines(
            deployment.placement(),
            deployment.modelSpec().numLayers);
        return std::make_unique<scheduler::FixedPipelineScheduler>(
            topo, std::move(pipelines), config);
      }
    }
    HELIX_PANIC("unknown scheduler kind");
}

std::vector<trace::Request>
makeTrace(const Deployment &deployment, const RunConfig &config)
{
    double peak = deployment.plannedThroughput();
    double mean_request_tokens = config.lengths.targetMeanPrompt +
                                 config.lengths.targetMeanOutput;
    double utilization = config.utilization > 0.0
                             ? config.utilization
                             : (config.online ? 0.75 : 3.0);
    double rate = config.requestRate > 0.0
                      ? config.requestRate
                      : utilization * peak / mean_request_tokens;
    if (rate <= 0.0) {
        HELIX_WARN("deployment has zero planned throughput; "
                   "generating an empty trace");
        return {};
    }
    double duration =
        (config.sim.warmupSeconds + config.sim.measureSeconds) * 1.02;
    trace::TraceGenerator generator(config.seed, config.lengths);
    ArrivalKind kind = config.arrivals;
    if (kind == ArrivalKind::Auto)
        kind = config.online ? ArrivalKind::Diurnal
                             : ArrivalKind::Poisson;
    std::vector<trace::Request> requests;
    switch (kind) {
      case ArrivalKind::Diurnal: {
        trace::DiurnalArrivals arrivals(rate, 0.25, 1800.0);
        requests = generator.generate(duration, arrivals);
        break;
      }
      case ArrivalKind::Bursty: {
        // Solve for the base rate so the MMPP's long-run mean equals
        // the configured rate.
        double burst_frac =
            config.burstMeanS / (config.burstMeanS + config.burstGapS);
        double base = rate / (1.0 + burst_frac *
                                        (config.burstMultiplier - 1.0));
        trace::BurstyArrivals arrivals(base, config.burstMultiplier,
                                       config.burstMeanS,
                                       config.burstGapS);
        requests = generator.generate(duration, arrivals);
        break;
      }
      case ArrivalKind::Auto:
      case ArrivalKind::Poisson: {
        trace::PoissonArrivals arrivals(rate);
        requests = generator.generate(duration, arrivals);
        break;
      }
    }
    // Tenant labels, drawn from a DEDICATED forked stream (never the
    // generator's) and only when tenancy is active: arrival times and
    // lengths consume exactly the same draws as before, so traces of
    // runs without tenants (or with one) stay byte-identical.
    const std::vector<scheduler::Tenant> &tenants = config.sim.tenants;
    if (tenants.size() >= 2 && !requests.empty()) {
        // Mixes are all-or-none (the spec parser enforces it and that
        // they sum to 1); unset mixes fall back weight-proportional.
        std::vector<double> cumulative(tenants.size(), 0.0);
        bool explicit_mix = tenants.front().mix >= 0.0;
        double total = 0.0;
        for (const scheduler::Tenant &tenant : tenants)
            total += explicit_mix ? tenant.mix : tenant.weight;
        double acc = 0.0;
        for (size_t t = 0; t < tenants.size(); ++t) {
            acc += (explicit_mix ? tenants[t].mix : tenants[t].weight) /
                   total;
            cumulative[t] = acc;
        }
        Rng tenant_rng = Rng(config.seed).fork(0x74656e616e74ULL);
        for (trace::Request &req : requests) {
            double u = tenant_rng.nextDouble();
            int t = 0;
            while (t + 1 < static_cast<int>(cumulative.size()) &&
                   u >= cumulative[static_cast<size_t>(t)]) {
                ++t;
            }
            req.tenant = t;
        }
    }
    return requests;
}

sim::SimMetrics
runExperiment(const Deployment &deployment,
              scheduler::RequestScheduler &scheduler,
              const RunConfig &config)
{
    sim::ClusterSimulator simulator(
        deployment.clusterSpec(), deployment.profiler(),
        deployment.placement(), scheduler, config.sim);
    auto requests = makeTrace(deployment, config);
    return simulator.run(requests);
}

} // namespace helix
