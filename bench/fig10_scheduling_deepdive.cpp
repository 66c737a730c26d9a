/**
 * @file
 * Reproduces Fig. 10: the request-scheduling deep dive. Every method
 * runs on the model placement found by Helix (isolating scheduling
 * quality): Helix's IWRR per-request pipelines vs Swarm-style
 * throughput-proportional routing, random routing, and (geo only in
 * the paper; both here) shortest-queue-first. Per-link congestion
 * statistics reproduce the Fig. 10b case-study observation that bad
 * scheduling causes prompt-phase queueing on slow links.
 *
 * Paper reference points: Helix gains 30% / 29% over Swarm / random
 * scheduling on the single cluster, 22% / 15% / 19% over Swarm /
 * random / shortest-queue on the geo clusters, where baselines show
 * 5-16 s prompt queueing on congested links.
 */

#include <algorithm>
#include <vector>

#include "bench_common.h"

namespace {

using namespace helix;
using namespace helix::bench;

void
runSetting(const cluster::ClusterSpec &clus, const char *setting,
           const Scale &scale)
{
    model::TransformerSpec model_spec = model::catalog::llama70b();

    placement::HelixPlannerConfig planner_config;
    planner_config.timeBudgetSeconds = scale.plannerBudgetS;
    placement::HelixPlanner helix_planner(planner_config);
    Deployment dep(clus, model_spec, helix_planner);

    const SchedulerKind kinds[] = {
        SchedulerKind::Helix,
        SchedulerKind::Swarm,
        SchedulerKind::Random,
        SchedulerKind::ShortestQueue,
    };

    std::vector<SystemResult> rows;
    std::vector<sim::SimMetrics> all_metrics;
    for (SchedulerKind kind : kinds) {
        auto sched = makeScheduler(dep, kind);
        RunConfig run = offlineRun(scale);
        run.sim.collectLinkStats = true;
        SystemResult row;
        row.system = toString(kind);
        row.plannedThroughput = dep.plannedThroughput();
        row.metrics = runExperiment(dep, *sched, run);
        all_metrics.push_back(row.metrics);
        rows.push_back(std::move(row));
    }

    std::string title =
        std::string("Fig. 10a - scheduling deep dive, ") + setting +
        " (Helix placement everywhere)";
    printHeader(title.c_str());
    for (const auto &row : rows)
        printRow(row);
    printRatios(rows);

    // Fig. 10b case study: worst link queueing delay per scheduler.
    std::printf("\nlink congestion (max transfer queueing delay, "
                "seconds):\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        double worst = 0.0;
        int from = 0;
        int to = 0;
        for (const auto &link : all_metrics[i].linkStats) {
            if (link.maxQueueDelayS > worst) {
                worst = link.maxQueueDelayS;
                from = link.from;
                to = link.to;
            }
        }
        auto name = [&](int endpoint) {
            return endpoint == cluster::kCoordinator
                       ? std::string("coord")
                       : clus.node(endpoint).name;
        };
        std::printf("  %-15s worst link %s -> %s: %.2f s\n",
                    rows[i].system.c_str(), name(from).c_str(),
                    name(to).c_str(), worst);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Scale scale = Scale::fromArgs(argc, argv);
    runSetting(cluster::setups::singleCluster24(), "single cluster",
               scale);
    runSetting(cluster::setups::geoDistributed24(), "geo-distributed",
               scale);
    std::printf("\npaper reference: helix +30%%/+29%% over "
                "swarm/random (single); +22%%/+15%%/+19%% over "
                "swarm/random/shortest-queue (geo)\n");
    return 0;
}
