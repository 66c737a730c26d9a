/**
 * @file
 * End-to-end integration tests through the public facade: deploy →
 * schedule → simulate on reduced-scale versions of the paper's
 * experiments, checking the qualitative relationships the paper
 * reports (Helix ≥ baselines, geo slower than single-cluster, online
 * latency sane).
 */

#include <gtest/gtest.h>

#include "core/helix.h"

namespace helix {
namespace {

/** A small but heterogeneous cluster for quick end-to-end runs. */
cluster::ClusterSpec
miniCluster()
{
    cluster::ClusterSpec c;
    auto add = [&](const cluster::GpuSpec &gpu, int count) {
        for (int i = 0; i < count; ++i) {
            cluster::NodeSpec node;
            node.name = gpu.name + "-" + std::to_string(i);
            node.gpu = gpu;
            c.addNode(std::move(node));
        }
    };
    add(cluster::gpus::a100_40(), 1);
    add(cluster::gpus::l4(), 2);
    add(cluster::gpus::t4(), 3);
    c.setUniformLinks(10e9, 1e-3);
    return c;
}

/** A 30-layer model so the mini cluster can replicate it. */
model::TransformerSpec
miniModel()
{
    model::TransformerSpec spec = model::catalog::llama30b();
    spec.name = "LLaMA-30B-half";
    spec.numLayers = 30;
    return spec;
}

RunConfig
quickRun(bool online = false)
{
    RunConfig run;
    run.online = online;
    run.sim.warmupSeconds = 20.0;
    run.sim.measureSeconds = 60.0;
    run.seed = 17;
    return run;
}

TEST(Integration, DeploymentPlansAndReports)
{
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 2.0;
    placement::HelixPlanner planner(config);
    Deployment deployment(miniCluster(), miniModel(), planner);
    EXPECT_GT(deployment.plannedThroughput(), 0.0);
    EXPECT_EQ(deployment.plannerName(), "helix");
    EXPECT_TRUE(placement::placementValid(deployment.placement(),
                                          deployment.clusterSpec(),
                                          deployment.profiler()));
}

TEST(Integration, ReplanSwitchesPlacement)
{
    placement::SwarmPlanner swarm;
    Deployment deployment(miniCluster(), miniModel(), swarm);
    double swarm_flow = deployment.plannedThroughput();
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 2.0;
    placement::HelixPlanner helix_planner(config);
    deployment.replan(helix_planner);
    EXPECT_EQ(deployment.plannerName(), "helix");
    EXPECT_GE(deployment.plannedThroughput(), swarm_flow - 1e-6);
}

TEST(Integration, ExternalPlacementInstallable)
{
    placement::SwarmPlanner swarm;
    Deployment deployment(miniCluster(), miniModel(), swarm);
    placement::ModelPlacement manual = deployment.placement();
    deployment.usePlacement(manual);
    EXPECT_EQ(deployment.plannerName(), "external");
}

TEST(Integration, MakeTraceScalesWithThroughput)
{
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 1.0;
    placement::HelixPlanner planner(config);
    Deployment deployment(miniCluster(), miniModel(), planner);
    RunConfig run = quickRun();
    auto offline_trace = makeTrace(deployment, run);
    EXPECT_FALSE(offline_trace.empty());
    run.requestRate = 0.5;
    auto fixed_trace = makeTrace(deployment, run);
    // Explicit 0.5 req/s over ~82s: about 41 requests.
    EXPECT_NEAR(static_cast<double>(fixed_trace.size()), 41.0, 20.0);
}

TEST(Integration, OfflineHelixServesRequests)
{
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 2.0;
    placement::HelixPlanner planner(config);
    Deployment deployment(miniCluster(), miniModel(), planner);
    auto sched = makeScheduler(deployment, SchedulerKind::Helix);
    auto metrics = runExperiment(deployment, *sched, quickRun());
    EXPECT_GT(metrics.decodeThroughput, 0.0);
    EXPECT_GT(metrics.requestsCompleted, 0);
}

TEST(Integration, HelixAtLeastMatchesRandomScheduling)
{
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 2.0;
    placement::HelixPlanner planner(config);
    Deployment deployment(miniCluster(), miniModel(), planner);
    auto helix_sched = makeScheduler(deployment, SchedulerKind::Helix);
    auto random_sched =
        makeScheduler(deployment, SchedulerKind::Random);
    auto helix_metrics =
        runExperiment(deployment, *helix_sched, quickRun());
    auto random_metrics =
        runExperiment(deployment, *random_sched, quickRun());
    // Same placement, Helix scheduling should not lose badly; at this
    // tiny scale the KV-masked admission can trail slightly, so allow
    // 15% noise.
    EXPECT_GE(helix_metrics.decodeThroughput,
              0.85 * random_metrics.decodeThroughput);
}

TEST(Integration, HelixPlacementBeatsSwarmPlacement)
{
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 3.0;
    placement::HelixPlanner helix_planner(config);
    placement::SwarmPlanner swarm_planner;

    Deployment helix_dep(miniCluster(), miniModel(), helix_planner);
    Deployment swarm_dep(miniCluster(), miniModel(), swarm_planner);

    auto helix_sched = makeScheduler(helix_dep, SchedulerKind::Helix);
    auto swarm_sched = makeScheduler(swarm_dep, SchedulerKind::Swarm);

    auto helix_metrics =
        runExperiment(helix_dep, *helix_sched, quickRun());
    auto swarm_metrics =
        runExperiment(swarm_dep, *swarm_sched, quickRun());

    EXPECT_GT(helix_metrics.decodeThroughput,
              swarm_metrics.decodeThroughput);
}

TEST(Integration, OnlineModeUsesLighterLoad)
{
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 2.0;
    placement::HelixPlanner planner(config);
    Deployment deployment(miniCluster(), miniModel(), planner);
    auto sched_online = makeScheduler(deployment, SchedulerKind::Helix);
    auto online = runExperiment(deployment, *sched_online,
                                quickRun(true));
    auto sched_offline =
        makeScheduler(deployment, SchedulerKind::Helix);
    auto offline = runExperiment(deployment, *sched_offline,
                                 quickRun(false));
    EXPECT_GT(online.requestsCompleted, 0);
    // Online runs at 75% of planned peak, offline oversubscribes:
    // online prompt latency must be no worse.
    EXPECT_LE(online.promptLatency.mean(),
              offline.promptLatency.mean() + 1e-9);
}

TEST(Integration, SchedulerKindNames)
{
    EXPECT_STREQ(toString(SchedulerKind::Helix), "helix");
    EXPECT_STREQ(toString(SchedulerKind::Swarm), "swarm");
    EXPECT_STREQ(toString(SchedulerKind::Random), "random");
    EXPECT_STREQ(toString(SchedulerKind::ShortestQueue),
                 "shortest-queue");
    EXPECT_STREQ(toString(SchedulerKind::FixedRoundRobin), "fixed-rr");
}

TEST(Integration, GeoNetworkDegradesLatency)
{
    // Two-region variant of the mini cluster.
    cluster::ClusterSpec geo;
    auto add = [&](const cluster::GpuSpec &gpu, int count, int region) {
        for (int i = 0; i < count; ++i) {
            cluster::NodeSpec node;
            node.name = gpu.name + "-r" + std::to_string(region) +
                        "-" + std::to_string(i);
            node.gpu = gpu;
            node.region = region;
            geo.addNode(std::move(node));
        }
    };
    add(cluster::gpus::a100_40(), 1, 0);
    add(cluster::gpus::l4(), 2, 1);
    add(cluster::gpus::t4(), 3, 1);
    geo.connectRegions({10e9, 1e-3}, {100e6, 50e-3}, 0);

    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 3.0;
    placement::HelixPlanner planner_fast(config);
    placement::HelixPlanner planner_geo(config);

    Deployment fast_dep(miniCluster(), miniModel(), planner_fast);
    Deployment geo_dep(geo, miniModel(), planner_geo);

    auto fast_sched = makeScheduler(fast_dep, SchedulerKind::Helix);
    auto geo_sched = makeScheduler(geo_dep, SchedulerKind::Helix);

    auto fast_metrics =
        runExperiment(fast_dep, *fast_sched, quickRun());
    auto geo_metrics = runExperiment(geo_dep, *geo_sched, quickRun());

    EXPECT_GT(geo_metrics.decodeLatency.mean(),
              fast_metrics.decodeLatency.mean());
}

} // namespace
} // namespace helix
