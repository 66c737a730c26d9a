/**
 * @file
 * Geo-distributed deployment walkthrough: serve LLaMA 70B across
 * three regions connected by slow WAN links (the paper's Sec. 6.4
 * setting), inspect how the planner routes around the 100 Mb/s
 * inter-region links, and quantify the effect of cluster pruning.
 *
 * Demonstrates: region-aware cluster construction, the Helix planner
 * with pruning, topology/flow inspection, and online serving at 75%
 * of measured peak.
 */

#include <cstdio>

#include "core/helix.h"

namespace {

using namespace helix;

/** Count pipeline hops that cross a region boundary in the max-flow
 *  routing of @p deployment. */
int
crossRegionConnections(const Deployment &deployment)
{
    const auto &clus = deployment.clusterSpec();
    const auto &topo = deployment.topology();
    int crossings = 0;
    for (int node = 0; node < clus.numNodes(); ++node) {
        for (const auto &edge : topo.outEdges(node)) {
            if (edge.to == scheduler::Topology::kSink)
                continue;
            if (edge.flow > 1e-6 &&
                clus.node(node).region != clus.node(edge.to).region) {
                ++crossings;
            }
        }
    }
    return crossings;
}

} // namespace

int
main()
{
    using namespace helix;

    cluster::ClusterSpec clus = cluster::setups::geoDistributed24();
    model::TransformerSpec model_spec = model::catalog::llama70b();
    std::printf("cluster: %s\n", clus.summary().c_str());
    std::printf("regions: 0 = 4xA100, 1 = 2xL4+8xT4, 2 = 6xL4+4xT4; "
                "inter-region 100 Mb/s / 50 ms\n\n");

    // Plan with cluster pruning, the configuration the paper uses for
    // geo-distributed settings (Sec. 4.5).
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 5.0;
    config.usePruning = true;
    placement::HelixPlanner planner(config);
    Deployment deployment(clus, model_spec, planner);

    std::printf("placement found (planned %.0f tokens/s):\n%s\n",
                deployment.plannedThroughput(),
                deployment.placement().describe(clus).c_str());
    std::printf("flow-carrying cross-region connections: %d\n\n",
                crossRegionConnections(deployment));

    // Offline saturation first to find the peak...
    RunConfig offline;
    offline.online = false;
    offline.sim.warmupSeconds = 30.0;
    offline.sim.measureSeconds = 90.0;
    auto offline_sched = makeScheduler(deployment, SchedulerKind::Helix);
    auto offline_metrics =
        runExperiment(deployment, *offline_sched, offline);
    std::printf("offline peak: %.1f decode tokens/s "
                "(%ld requests completed)\n",
                offline_metrics.decodeThroughput,
                offline_metrics.requestsCompleted);

    // ...then online serving at 75% of that peak (Sec. 6.2's rule).
    RunConfig online;
    online.online = true;
    online.sim.warmupSeconds = 30.0;
    online.sim.measureSeconds = 90.0;
    trace::LengthModel lengths;
    online.requestRate = 0.75 * offline_metrics.decodeThroughput /
                         lengths.targetMeanOutput;
    auto online_sched = makeScheduler(deployment, SchedulerKind::Helix);
    auto online_metrics =
        runExperiment(deployment, *online_sched, online);
    std::printf("online @75%% peak: %.1f decode tokens/s, prompt "
                "latency %.2f s (p95 %.2f), decode latency %.3f "
                "s/token\n",
                online_metrics.decodeThroughput,
                online_metrics.promptLatency.mean(),
                online_metrics.promptLatency.percentile(95),
                online_metrics.decodeLatency.mean());
    return 0;
}
