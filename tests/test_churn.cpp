/**
 * @file
 * Tests for dynamic topology adaptation under churn: TopologyManager
 * re-solves, scheduler weight swaps (the stale-IWRR regression), the
 * fail/recover event schedule in the simulator, flow-event logging,
 * determinism across thread counts, and the recentThroughput decay
 * fix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "core/helix.h"
#include "exp/spec.h"
#include "io/spec.h"
#include "placement/placement_graph.h"
#include "scheduler/scheduler.h"
#include "scheduler/topology_manager.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace helix {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Profiler;

/** @p nodes T4 nodes joined by uniform links of @p bytes_per_s. */
ClusterSpec
t4Cluster(int nodes, double bytes_per_s)
{
    ClusterSpec spec;
    for (int i = 0; i < nodes; ++i) {
        NodeSpec node;
        node.name = "t4-" + std::to_string(i);
        node.gpu = cluster::gpus::t4();
        spec.addNode(std::move(node));
    }
    spec.setUniformLinks(bytes_per_s, 1e-3);
    return spec;
}

/** Poisson trace of short chat-like requests. */
std::vector<trace::Request>
makeRequests(int count, double rate, uint64_t seed = 3)
{
    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 120;
    lengths.maxPromptLen = 512;
    lengths.targetMeanOutput = 40;
    lengths.maxOutputLen = 128;
    trace::TraceGenerator gen(seed, lengths);
    trace::PoissonArrivals arrivals(rate);
    return gen.generateCount(count, arrivals);
}

/**
 * The 4-node toy shared with the scheduler/simulator tests: two
 * parallel 2-stage pipelines (0,1) and (2,3) over a 12-layer model.
 * With partial inference the cross connections 0->3 and 2->1 also
 * exist, so failing node 1 halves the max flow (node 3's compute
 * becomes the bottleneck) instead of just killing one pipeline.
 */
class ChurnFixture : public ::testing::Test
{
  protected:
    ChurnFixture() : clusterSpec(t4Cluster(4, 10e9))
    {
        toy = model::catalog::llama30b();
        toy.numLayers = 12;
        profiler = std::make_unique<Profiler>(toy);
        placement.nodes = {{0, 6}, {6, 6}, {0, 6}, {6, 6}};
        graph = std::make_unique<placement::PlacementGraph>(
            clusterSpec, *profiler, placement);
        topo = std::make_unique<scheduler::Topology>(
            clusterSpec, *profiler, placement, *graph);
    }

    /** Placement with the given nodes masked out (count = 0). */
    placement::ModelPlacement
    maskedPlacement(const std::set<int> &dead) const
    {
        placement::ModelPlacement masked = placement;
        for (int node : dead)
            masked[node] = placement::NodePlacement{0, 0};
        return masked;
    }

    ClusterSpec clusterSpec;
    model::TransformerSpec toy;
    std::unique_ptr<Profiler> profiler;
    placement::ModelPlacement placement;
    std::unique_ptr<placement::PlacementGraph> graph;
    std::unique_ptr<scheduler::Topology> topo;
};

/** SchedulerContext stub with an explicit dead-node set. */
class LivenessContext : public scheduler::SchedulerContext
{
  public:
    int queueLength(int) const override { return 0; }
    double recentThroughput(int) const override { return 0.0; }
    double kvUsedBytes(int) const override { return 0.0; }
    bool
    nodeAlive(int node) const override
    {
        return dead.find(node) == dead.end();
    }

    std::set<int> dead;
};

/** Every edge flow of @p t must equal the flow on @p fresh. */
void
expectFlowsMatch(const scheduler::Topology &t,
                 placement::PlacementGraph &fresh)
{
    EXPECT_DOUBLE_EQ(t.maxFlow(), fresh.maxThroughput());
    for (int from = cluster::kCoordinator; from < t.numNodes();
         ++from) {
        for (const auto &edge : t.outEdges(from)) {
            int to = edge.to == scheduler::Topology::kSink
                         ? cluster::kCoordinator
                         : edge.to;
            EXPECT_DOUBLE_EQ(edge.flow, fresh.connectionFlow(from, to))
                << "edge " << from << " -> " << to;
        }
    }
}

/**
 * The flow axioms of a published Topology when the max flow has
 * several routings and repair may pick a different one than a cold
 * solve: the value equals @p oracle_flow (a cold solve of the masked
 * placement), every edge is feasible, every node conserves flow, and
 * no flow touches a node in @p dead.
 * @return the flow through each node.
 */
std::vector<double>
expectSoundTopology(const scheduler::Topology &t, double oracle_flow,
                    const std::set<int> &dead)
{
    const double eps = 1e-6;
    EXPECT_NEAR(t.maxFlow(), oracle_flow,
                1e-9 * std::max(1.0, oracle_flow));
    const int n = t.numNodes();
    std::vector<double> in(static_cast<size_t>(n), 0.0);
    std::vector<double> out(static_cast<size_t>(n), 0.0);
    double source_out = 0.0;
    double sink_in = 0.0;
    for (int from = cluster::kCoordinator; from < n; ++from) {
        for (const auto &edge : t.outEdges(from)) {
            const bool to_sink = edge.to == scheduler::Topology::kSink;
            EXPECT_GE(edge.flow, -eps);
            EXPECT_LE(edge.flow, edge.capacity + eps)
                << from << " -> " << edge.to;
            if (dead.count(from) > 0 ||
                (!to_sink && dead.count(edge.to) > 0)) {
                EXPECT_NEAR(edge.flow, 0.0, eps)
                    << "dead edge " << from << " -> " << edge.to;
            }
            if (from == cluster::kCoordinator)
                source_out += edge.flow;
            else
                out[static_cast<size_t>(from)] += edge.flow;
            if (to_sink)
                sink_in += edge.flow;
            else
                in[static_cast<size_t>(edge.to)] += edge.flow;
        }
    }
    EXPECT_NEAR(source_out, t.maxFlow(), eps);
    EXPECT_NEAR(sink_in, t.maxFlow(), eps);
    for (size_t i = 0; i < in.size(); ++i)
        EXPECT_NEAR(in[i], out[i], eps) << "node " << i;
    return in;
}

/** Flow on the coordinator -> @p node connection of @p t. */
double
coordFlow(const scheduler::Topology &t, int node)
{
    for (const auto &edge : t.outEdges(cluster::kCoordinator)) {
        if (edge.to == node)
            return edge.flow;
    }
    return 0.0;
}

// --- TopologyManager -------------------------------------------------

TEST_F(ChurnFixture, TopologyManagerResolvesSurvivingSubgraph)
{
    scheduler::TopologyManager manager(clusterSpec, *profiler,
                                       placement);
    EXPECT_EQ(manager.numRepairs(), 0);
    EXPECT_DOUBLE_EQ(manager.currentFlow(), topo->maxFlow());

    double masked_flow = manager.setNodeAlive(1, false);
    EXPECT_EQ(manager.numRepairs(), 1);
    EXPECT_FALSE(manager.nodeAlive(1));
    EXPECT_LT(masked_flow, topo->maxFlow());
    EXPECT_GT(masked_flow, 0.0);

    // The manager's topology carries a fresh solve's flow value on
    // the surviving subgraph; node 3 bottlenecks both surviving
    // routings, so repair may route it through either first stage.
    placement::PlacementGraph fresh(clusterSpec, *profiler,
                                    maskedPlacement({1}));
    expectSoundTopology(manager.current(), fresh.maxThroughput(), {1});
    EXPECT_DOUBLE_EQ(coordFlow(manager.current(), 1), 0.0);

    // Recovery restores the original solution exactly.
    double restored = manager.setNodeAlive(1, true);
    EXPECT_EQ(manager.numRepairs(), 2);
    EXPECT_DOUBLE_EQ(restored, topo->maxFlow());
    placement::PlacementGraph full(clusterSpec, *profiler, placement);
    (void)full.maxThroughput();
    expectFlowsMatch(manager.current(), full);

    // Redundant liveness writes do not re-solve.
    manager.setNodeAlive(1, true);
    EXPECT_EQ(manager.numRepairs(), 2);
}

// --- Stale-IWRR regression (the seed bug) ----------------------------

TEST_F(ChurnFixture, HelixWeightsMatchFreshSolveAfterFailure)
{
    scheduler::HelixScheduler sched(*topo);
    scheduler::TopologyManager manager(clusterSpec, *profiler,
                                       placement);
    LivenessContext ctx;
    ctx.dead.insert(1);

    // The regression: without a topology swap the scheduler still
    // carries the pre-failure flow solution, whose total and
    // proportions are stale for the surviving subgraph.
    manager.setNodeAlive(1, false);
    EXPECT_NE(sched.topology().maxFlow(), manager.currentFlow());

    // The fix: the swap rebinds the scheduler to the re-solved
    // topology, so its IWRR weights equal a fresh preflow-push max
    // flow on the surviving subgraph.
    sched.onTopologyChange(manager.current());
    EXPECT_DOUBLE_EQ(sched.topology().maxFlow(),
                     manager.currentFlow());
    placement::PlacementGraph fresh(clusterSpec, *profiler,
                                    maskedPlacement({1}));
    expectSoundTopology(sched.topology(), fresh.maxThroughput(), {1});

    // Post-failure routing proportions follow the fresh flows: the
    // IWRR entry split matches the coordinator edge flows of the
    // surviving subgraph.
    const int picks = 6000;
    std::map<int, int> entries;
    trace::Request req{0, 0.0, 100, 50};
    for (int i = 0; i < picks; ++i) {
        auto pipeline = sched.schedule(req, ctx);
        ASSERT_TRUE(pipeline.has_value());
        for (const auto &stage : *pipeline)
            EXPECT_NE(stage.node, 1);
        ++entries[pipeline->front().node];
    }
    double f0 = coordFlow(sched.topology(), 0);
    double f2 = coordFlow(sched.topology(), 2);
    ASSERT_GT(f0 + f2, 0.0);
    EXPECT_NEAR(static_cast<double>(entries[0]) / picks,
                f0 / (f0 + f2), 0.02);
    EXPECT_NEAR(static_cast<double>(entries[2]) / picks,
                f2 / (f0 + f2), 0.02);
}

TEST_F(ChurnFixture, RecoveryRestoresRoutingThroughRejoinedNode)
{
    scheduler::HelixScheduler sched(*topo);
    scheduler::TopologyManager manager(clusterSpec, *profiler,
                                       placement);
    LivenessContext ctx;

    // Fail node 1, then bring it back.
    ctx.dead.insert(1);
    manager.setNodeAlive(1, false);
    sched.onTopologyChange(manager.current());
    ctx.dead.erase(1);
    manager.setNodeAlive(1, true);
    sched.onTopologyChange(manager.current());

    // Weights are the full-topology solution again...
    placement::PlacementGraph full(clusterSpec, *profiler, placement);
    (void)full.maxThroughput();
    expectFlowsMatch(sched.topology(), full);

    // ...and requests route through the rejoined node again.
    trace::Request req{0, 0.0, 100, 50};
    int through_node1 = 0;
    for (int i = 0; i < 100; ++i) {
        auto pipeline = sched.schedule(req, ctx);
        ASSERT_TRUE(pipeline.has_value());
        for (const auto &stage : *pipeline)
            through_node1 += stage.node == 1;
    }
    EXPECT_GT(through_node1, 0);
}

// --- Simulator: fail/recover schedules -------------------------------

TEST_F(ChurnFixture, SimulatorLogsResolvedFlowPerChurnEvent)
{
    scheduler::HelixScheduler sched(*topo);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 1, 5.0},
        {sim::ChurnEvent::Kind::Recover, 1, 20.0},
    };
    sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                              sched, config);
    auto metrics = sim.run(makeRequests(300, 8.0));

    ASSERT_EQ(metrics.flowEvents.size(), 2u);
    EXPECT_EQ(metrics.flowEvents[0].kind, sim::ChurnEvent::Kind::Fail);
    EXPECT_EQ(metrics.flowEvents[0].node, 1);
    EXPECT_DOUBLE_EQ(metrics.flowEvents[0].time, 5.0);
    EXPECT_EQ(metrics.flowEvents[1].kind,
              sim::ChurnEvent::Kind::Recover);
    EXPECT_DOUBLE_EQ(metrics.flowEvents[1].time, 20.0);
    // The fail event's flow is the surviving subgraph's max flow; the
    // recover event restores the full topology's exactly.
    EXPECT_LT(metrics.flowEvents[0].flow, metrics.flowEvents[1].flow);
    EXPECT_DOUBLE_EQ(metrics.flowEvents[1].flow, topo->maxFlow());
    // The scheduler ends the run bound to the re-solved topology.
    EXPECT_DOUBLE_EQ(sched.topology().maxFlow(), topo->maxFlow());
    EXPECT_TRUE(sim.nodeAlive(1));
    // Node 1 executed batches after rejoining.
    EXPECT_GT(metrics.nodeStats[1].batches, 0);
}

TEST_F(ChurnFixture, SingleFailureResolvesToFreshSolve)
{
    scheduler::HelixScheduler sched(*topo);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 40.0;
    config.churnEvents = {{sim::ChurnEvent::Kind::Fail, 1, 10.0}};
    sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                              sched, config);
    auto metrics = sim.run(makeRequests(200, 5.0));
    ASSERT_EQ(metrics.flowEvents.size(), 1u);
    EXPECT_EQ(metrics.flowEvents[0].kind, sim::ChurnEvent::Kind::Fail);
    EXPECT_LT(metrics.flowEvents[0].flow, topo->maxFlow());
    // The scheduler's live weights are a maximum flow on the
    // surviving subgraph (the stale-weight regression).
    placement::PlacementGraph fresh(clusterSpec, *profiler,
                                    maskedPlacement({1}));
    expectSoundTopology(sched.topology(), fresh.maxThroughput(), {1});
}

TEST_F(ChurnFixture, FailThenRecoverCompletesMoreThanFailOnly)
{
    // Saturating load so completions are capacity-bound: the run
    // ends with a backlog either way, so with the node back the
    // cluster serves strictly more of it.
    auto requests = makeRequests(2500, 60.0, 11);

    scheduler::HelixScheduler fail_sched(*topo);
    sim::SimConfig fail_only;
    fail_only.warmupSeconds = 2.0;
    fail_only.measureSeconds = 30.0;
    fail_only.churnEvents = {{sim::ChurnEvent::Kind::Fail, 1, 5.0}};
    sim::ClusterSimulator fail_sim(clusterSpec, *profiler, placement,
                                   fail_sched, fail_only);
    auto fail_metrics = fail_sim.run(requests);

    scheduler::HelixScheduler recover_sched(*topo);
    sim::SimConfig fail_recover = fail_only;
    fail_recover.churnEvents.push_back(
        {sim::ChurnEvent::Kind::Recover, 1, 12.0});
    sim::ClusterSimulator recover_sim(clusterSpec, *profiler,
                                      placement, recover_sched,
                                      fail_recover);
    auto recover_metrics = recover_sim.run(requests);

    EXPECT_GT(fail_metrics.requestsCompleted, 0);
    EXPECT_GT(recover_metrics.requestsCompleted,
              fail_metrics.requestsCompleted);
    // Conservation holds in both runs.
    for (const auto *m : {&fail_metrics, &recover_metrics}) {
        EXPECT_LE(m->requestsCompleted, m->requestsAdmitted);
        EXPECT_LE(m->requestsAdmitted + m->requestsRejected,
                  m->requestsArrived);
    }
}

TEST_F(ChurnFixture, RecoveryRightAfterFailureIsEpochSafe)
{
    // Fail and recover within a batch's duration: the BatchDone of
    // the old life must be recognized as stale (node epoch), not
    // double-processed against the recovered node's state.
    scheduler::HelixScheduler sched(*topo);
    sim::SimConfig config;
    config.warmupSeconds = 1.0;
    config.measureSeconds = 40.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 1, 0.5},
        {sim::ChurnEvent::Kind::Recover, 1, 0.55},
        {sim::ChurnEvent::Kind::Fail, 3, 5.0},
        {sim::ChurnEvent::Kind::Recover, 3, 5.01},
    };
    sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                              sched, config);
    auto metrics = sim.run(makeRequests(200, 8.0));
    EXPECT_EQ(metrics.flowEvents.size(), 4u);
    EXPECT_TRUE(sim.nodeAlive(1));
    EXPECT_TRUE(sim.nodeAlive(3));
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_LE(metrics.requestsCompleted, metrics.requestsAdmitted);
    EXPECT_LE(metrics.requestsAdmitted + metrics.requestsRejected,
              metrics.requestsArrived);
}

TEST_F(ChurnFixture, TransientOutageHoldsBacklogInsteadOfRejecting)
{
    // A single non-replicated pipeline (nodes 2 and 3 unused): while
    // node 1 is down, no request is schedulable and the cluster goes
    // idle. The idle-cluster reject heuristic must not fire — a
    // scheduled recover event makes the backlog servable again, so
    // requests are delayed, not lost.
    placement::ModelPlacement chain;
    chain.nodes = {{0, 6}, {6, 6}, {0, 0}, {0, 0}};
    placement::PlacementGraph chain_graph(clusterSpec, *profiler,
                                          chain);
    scheduler::Topology chain_topo(clusterSpec, *profiler, chain,
                                   chain_graph);
    scheduler::HelixScheduler sched(chain_topo);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 1, 5.0},
        {sim::ChurnEvent::Kind::Recover, 1, 20.0},
    };
    sim::ClusterSimulator sim(clusterSpec, *profiler, chain, sched,
                              config);
    auto metrics = sim.run(makeRequests(80, 4.0));
    EXPECT_EQ(metrics.requestsRejected, 0);
    // Requests arriving during the outage complete after recovery.
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_GT(metrics.nodeStats[1].batches, 0);
}

TEST_F(ChurnFixture, SchedulerOutlivesSimulatorAfterChurn)
{
    // The scheduler copies the re-solved topology it is rebound to,
    // so using it after the simulator (and its TopologyManager) is
    // destroyed must be safe — ASan/TSan guard the regression.
    scheduler::HelixScheduler sched(*topo);
    {
        sim::SimConfig config;
        config.warmupSeconds = 2.0;
        config.measureSeconds = 30.0;
        config.churnEvents = {{sim::ChurnEvent::Kind::Fail, 1, 5.0}};
        sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                                  sched, config);
        sim.run(makeRequests(100, 5.0));
    }
    EXPECT_LT(sched.topology().maxFlow(), topo->maxFlow());
    LivenessContext ctx;
    ctx.dead.insert(1);
    trace::Request req{0, 0.0, 100, 50};
    auto pipeline = sched.schedule(req, ctx);
    ASSERT_TRUE(pipeline.has_value());
    for (const auto &stage : *pipeline)
        EXPECT_NE(stage.node, 1);
}

TEST_F(ChurnFixture, MultiEventChurnDeterministic)
{
    auto requests = makeRequests(250, 8.0, 17);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 40.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 0, 8.0},
        {sim::ChurnEvent::Kind::Recover, 0, 16.0},
        {sim::ChurnEvent::Kind::Fail, 2, 24.0},
    };

    auto run_once = [&]() {
        scheduler::HelixScheduler sched(*topo);
        sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                                  sched, config);
        return sim.run(requests);
    };
    auto m1 = run_once();
    auto m2 = run_once();
    EXPECT_EQ(m1.requestsCompleted, m2.requestsCompleted);
    EXPECT_EQ(m1.requestsRestarted, m2.requestsRestarted);
    EXPECT_EQ(m1.decodeThroughput, m2.decodeThroughput);
    ASSERT_EQ(m1.flowEvents.size(), m2.flowEvents.size());
    for (size_t i = 0; i < m1.flowEvents.size(); ++i) {
        EXPECT_EQ(m1.flowEvents[i].flow, m2.flowEvents[i].flow);
        EXPECT_EQ(m1.flowEvents[i].time, m2.flowEvents[i].time);
    }
}

// --- Repair against the cold-solve oracle ---------------------------

void
expectMetricsIdentical(const sim::SimMetrics &a,
                       const sim::SimMetrics &b)
{
    EXPECT_EQ(a.decodeThroughput, b.decodeThroughput);
    EXPECT_EQ(a.promptThroughput, b.promptThroughput);
    EXPECT_EQ(a.requestsArrived, b.requestsArrived);
    EXPECT_EQ(a.requestsAdmitted, b.requestsAdmitted);
    EXPECT_EQ(a.requestsCompleted, b.requestsCompleted);
    EXPECT_EQ(a.requestsRejected, b.requestsRejected);
    EXPECT_EQ(a.requestsRestarted, b.requestsRestarted);
    EXPECT_EQ(a.decodeTokensInWindow, b.decodeTokensInWindow);
    EXPECT_EQ(a.promptTokensInWindow, b.promptTokensInWindow);
    EXPECT_EQ(a.promptLatency.count(), b.promptLatency.count());
    EXPECT_EQ(a.promptLatency.mean(), b.promptLatency.mean());
    EXPECT_EQ(a.decodeLatency.count(), b.decodeLatency.count());
    EXPECT_EQ(a.decodeLatency.mean(), b.decodeLatency.mean());
    ASSERT_EQ(a.flowEvents.size(), b.flowEvents.size());
    for (size_t i = 0; i < a.flowEvents.size(); ++i) {
        EXPECT_EQ(a.flowEvents[i].time, b.flowEvents[i].time);
        EXPECT_EQ(a.flowEvents[i].node, b.flowEvents[i].node);
        EXPECT_EQ(a.flowEvents[i].kind, b.flowEvents[i].kind);
        EXPECT_EQ(a.flowEvents[i].flow, b.flowEvents[i].flow);
    }
}

/**
 * On a two-node chain whose links are the bottleneck the max flow is
 * unique and every arc saturates exactly (capacity minus capacity),
 * so each logged flow equals a cold solve of the placement masked to
 * the live nodes bit for bit, and the emitters tag every fail/recover
 * re-solve /repair.
 */
TEST(ChurnRepair, ChainRunFlowsMatchColdOracle)
{
    // 10 Mbps links: the network, not the GPUs, caps the flow, so
    // every link arc saturates and the assignment is unique.
    ClusterSpec chain_cluster = t4Cluster(2, 10e6);
    model::TransformerSpec toy = model::catalog::llama30b();
    toy.numLayers = 12;
    Profiler profiler(toy);
    placement::ModelPlacement chain;
    chain.nodes = {{0, 6}, {6, 6}};
    placement::PlacementGraph graph(chain_cluster, profiler, chain);
    scheduler::Topology topo(chain_cluster, profiler, chain, graph);

    auto requests = makeRequests(150, 1.5);

    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 1, 5.0},
        {sim::ChurnEvent::Kind::Recover, 1, 20.0},
    };
    scheduler::HelixScheduler sched(topo);
    sim::ClusterSimulator sim(chain_cluster, profiler, chain, sched,
                              config);
    auto metrics = sim.run(requests);

    ASSERT_EQ(metrics.flowEvents.size(), 2u);
    placement::ModelPlacement masked = chain;
    masked[1] = placement::NodePlacement{0, 0};
    placement::PlacementGraph failed(chain_cluster, profiler, masked);
    EXPECT_EQ(metrics.flowEvents[0].flow, failed.maxThroughput());
    EXPECT_EQ(metrics.flowEvents[1].flow, graph.maxThroughput());
    for (const auto &event : metrics.flowEvents)
        EXPECT_EQ(event.resolveKind, sim::ResolveKind::Repair);

    exp::JobResult r;
    r.label = "chain";
    r.cluster = "c";
    r.model = "m";
    r.planner = "p";
    r.scheduler = "helix";
    r.arrivals = "poisson";
    r.metrics = metrics;
    std::string csv = exp::resultsToCsv({r});
    EXPECT_NE(csv.find("\"fail:1@5=0/repair;recover:1@20="),
              std::string::npos)
        << csv;
    EXPECT_EQ(csv.find("/cold"), std::string::npos);
    std::string json = exp::resultsToJson({r});
    EXPECT_NE(json.find("\"resolve\": \"repair\""), std::string::npos);
    EXPECT_EQ(json.find("cold"), std::string::npos);
}

/**
 * Three replicas of the toy 2-stage pipeline on six nodes. With
 * partial inference every first stage (0, 2, 4) connects to every
 * second stage (1, 3, 5), so any single failure leaves at least two
 * parallel pipelines and the max flow has many routings. Repair may
 * pick a different routing than a cold solve, so every re-solve is
 * held to the cold oracle's flow value and to the flow axioms of the
 * published Topology rather than to edge-for-edge equality.
 */
class ReplicaChurnFixture : public ::testing::Test
{
  protected:
    ReplicaChurnFixture() : clusterSpec(t4Cluster(6, 10e9))
    {
        toy = model::catalog::llama30b();
        toy.numLayers = 12;
        profiler = std::make_unique<Profiler>(toy);
        placement.nodes = {{0, 6}, {6, 6}, {0, 6},
                           {6, 6}, {0, 6}, {6, 6}};
    }

    /** Cold preflow-push on the placement masked to @p manager's
     *  live nodes, with its capacity overrides applied first. */
    double
    coldOracle(const scheduler::TopologyManager &manager) const
    {
        placement::ModelPlacement masked = placement;
        for (int i = 0; i < static_cast<int>(masked.size()); ++i) {
            if (!manager.nodeAlive(i))
                masked[i] = placement::NodePlacement{0, 0};
        }
        placement::PlacementGraph oracle(clusterSpec, *profiler, masked);
        for (int i = 0; i < static_cast<int>(masked.size()); ++i) {
            if (masked[i].count > 0)
                oracle.setComputeCapacity(i, manager.nodeCapacity(i));
        }
        return oracle.maxThroughput();
    }

    /** The manager's flow equals the oracle's, its published
     *  Topology satisfies the flow axioms, and every node's flow is
     *  its planned flow and within its capacity. */
    void
    expectSoundRepair(const scheduler::TopologyManager &manager,
                      const std::string &step) const
    {
        SCOPED_TRACE(step);
        const double eps = 1e-6;
        std::set<int> dead;
        for (int i = 0; i < static_cast<int>(placement.size()); ++i) {
            if (!manager.nodeAlive(i))
                dead.insert(i);
        }
        std::vector<double> through = expectSoundTopology(
            manager.current(), coldOracle(manager), dead);
        for (int node = 0; node < static_cast<int>(through.size());
             ++node) {
            const double flow = through[static_cast<size_t>(node)];
            EXPECT_NEAR(flow, manager.plannedNodeFlow(node), eps)
                << "node " << node;
            EXPECT_LE(flow, manager.nodeCapacity(node) + eps)
                << "node " << node;
        }
    }

    ClusterSpec clusterSpec;
    model::TransformerSpec toy;
    std::unique_ptr<Profiler> profiler;
    placement::ModelPlacement placement;
};

TEST_F(ReplicaChurnFixture, EveryRepairMatchesColdOracleAndFlowAxioms)
{
    scheduler::TopologyManager manager(clusterSpec, *profiler,
                                       placement);
    expectSoundRepair(manager, "initial solve");
    const double full = manager.currentFlow();

    // Every step changes the flow network; drift shrinks a live node
    // to half its planned flow, like the simulator's trigger does.
    auto drift = [&](int node) {
        return manager.setNodeCapacity(
            node, 0.5 * manager.plannedNodeFlow(node));
    };
    manager.setNodeAlive(1, false);
    expectSoundRepair(manager, "fail 1");
    EXPECT_LT(manager.currentFlow(), full);
    drift(3);
    expectSoundRepair(manager, "drift 3");
    manager.setNodeAlive(4, false);
    expectSoundRepair(manager, "fail 4");
    manager.setNodeAlive(1, true);
    expectSoundRepair(manager, "recover 1");
    drift(0);
    expectSoundRepair(manager, "drift 0");
    manager.setNodeAlive(3, false);
    expectSoundRepair(manager, "fail 3 (drifted)");
    manager.setNodeCapacity(0, -1.0);
    expectSoundRepair(manager, "restore 0");
    manager.setNodeAlive(4, true);
    expectSoundRepair(manager, "recover 4");
    manager.setNodeAlive(3, true);
    expectSoundRepair(manager, "recover 3");
    EXPECT_EQ(manager.numRepairs(), 9);

    // Recovery clears drift overrides, so the flow is back at the
    // planned value.
    EXPECT_NEAR(manager.currentFlow(), full, 1e-9 * full);
}

TEST_F(ReplicaChurnFixture, SimulatorFlowEventsMatchColdOracle)
{
    placement::PlacementGraph graph(clusterSpec, *profiler, placement);
    scheduler::Topology topo(clusterSpec, *profiler, placement, graph);
    scheduler::HelixScheduler sched(topo);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 40.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 1, 6.0},
        {sim::ChurnEvent::Kind::Fail, 2, 12.0},
        {sim::ChurnEvent::Kind::Recover, 1, 18.0},
        {sim::ChurnEvent::Kind::Fail, 5, 24.0},
        {sim::ChurnEvent::Kind::Recover, 2, 30.0},
    };
    sim::ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                              config);
    auto metrics = sim.run(makeRequests(400, 10.0, 29));

    // Replay the schedule through a manager of our own: the oracle
    // needs its liveness set, and the replay must log the same flows.
    scheduler::TopologyManager replay(clusterSpec, *profiler,
                                      placement);
    ASSERT_EQ(metrics.flowEvents.size(), config.churnEvents.size());
    for (size_t i = 0; i < config.churnEvents.size(); ++i) {
        const sim::ChurnEvent &event = config.churnEvents[i];
        replay.setNodeAlive(event.node,
                            event.kind == sim::ChurnEvent::Kind::Recover);
        EXPECT_EQ(metrics.flowEvents[i].flow, replay.currentFlow());
        EXPECT_EQ(metrics.flowEvents[i].resolveKind,
                  sim::ResolveKind::Repair);
        expectSoundRepair(replay, "event " + std::to_string(i));
    }
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_EQ(metrics.requestsRejected, 0);
}

/**
 * Drift-triggered re-solve: a straggler running below its profiled
 * rate (thermal throttling modeled by nodeSlowdown) loses routing
 * weight. Pipeline (0,1) is slowed through node 0; after the drift
 * re-solve the coordinator flow toward node 0 shrinks and pipeline
 * (2,3) absorbs the displaced traffic.
 */
TEST_F(ChurnFixture, DriftReSolveShiftsRoutingAwayFromStraggler)
{
    auto requests = makeRequests(3000, 60.0, 23);

    auto run_once = [&](double drift_threshold) {
        sim::SimConfig config;
        config.warmupSeconds = 2.0;
        config.measureSeconds = 60.0;
        config.driftThreshold = drift_threshold;
        // Node 0 secretly runs 2.5x slower than profiled.
        config.nodeSlowdown = {2.5, 1.0, 1.0, 1.0};
        scheduler::HelixScheduler sched(*topo);
        sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                                  sched, config);
        auto metrics = sim.run(requests);
        return std::make_pair(metrics,
                              coordFlow(sched.topology(), 0));
    };

    auto [baseline, baseline_flow0] = run_once(0.0);
    auto [drifted, drifted_flow0] = run_once(0.25);

    // Without the trigger nothing is logged and the planned weights
    // stay stale.
    EXPECT_TRUE(baseline.flowEvents.empty());
    EXPECT_DOUBLE_EQ(baseline_flow0, coordFlow(*topo, 0));

    // The trigger fired on the straggler — and only the straggler.
    ASSERT_GE(drifted.flowEvents.size(), 1u);
    for (const auto &event : drifted.flowEvents) {
        EXPECT_EQ(event.kind, sim::ChurnEvent::Kind::Drift);
        EXPECT_EQ(event.resolveKind, sim::ResolveKind::Drift);
        EXPECT_EQ(event.node, 0);
        EXPECT_LT(event.flow, topo->maxFlow());
    }

    // Routing shifted away: node 0's coordinator flow shrank and the
    // healthy replica processed more work than under stale weights.
    EXPECT_LT(drifted_flow0, 0.8 * baseline_flow0);
    EXPECT_GT(drifted.nodeStats[2].tokensProcessed,
              baseline.nodeStats[2].tokensProcessed);
}

// --- recentThroughput decay (Swarm over-weighting fix) ---------------

TEST_F(ChurnFixture, RecentThroughputDecaysForQuietNodes)
{
    scheduler::HelixScheduler sched(*topo);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    config.churnEvents = {{sim::ChurnEvent::Kind::Fail, 1, 10.0}};
    sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                              sched, config);
    auto metrics = sim.run(makeRequests(500, 10.0));

    // Node 1 processed work before failing, then went silent for
    // ~50 simulated seconds. A never-decaying EWMA would still report
    // its busy-period rate; the decayed estimate must be a tiny
    // fraction of the surviving replica's.
    ASSERT_GT(metrics.nodeStats[1].tokensProcessed, 0);
    double dead_rate = sim.recentThroughput(1);
    double live_rate = sim.recentThroughput(3);
    ASSERT_GT(live_rate, 0.0);
    EXPECT_LT(dead_rate, 0.05 * live_rate);
}

// --- Spec engine: end-to-end schedule + thread invariance ------------

TEST(ChurnSpec, ScheduleRunsIdenticallyAcrossThreadCounts)
{
    auto spec = io::experimentFromString(
        "experiment v1\n"
        "warmup 1\nmeasure 4\nplanner-budget 0.05\n"
        "cluster planner10\nmodel llama30b\n"
        "system a swarm helix\n"
        "system b swarm swarm\n"
        "scenario offline\n"
        "scenario churn online=0 fail=0@0.3 recover=0@0.6\n");
    ASSERT_TRUE(spec.has_value());
    io::ParseError error;
    ASSERT_TRUE(exp::validateSpec(*spec, &error)) << error.str();

    std::optional<std::vector<exp::JobResult>> reference;
    for (int threads : {1, 4, 16}) {
        exp::RunnerOptions options;
        options.numThreads = threads;
        auto results = exp::runSpec(*spec, &error, options);
        ASSERT_TRUE(results.has_value()) << error.str();
        ASSERT_EQ(results->size(), 4u); // 2 systems x 2 scenarios
        if (!reference) {
            reference = std::move(results);
            // The churn rows actually applied the schedule, by
            // incremental repair.
            ASSERT_EQ(reference->at(2).metrics.flowEvents.size(), 2u);
            for (const auto &event : reference->at(2).metrics.flowEvents)
                EXPECT_EQ(event.resolveKind, sim::ResolveKind::Repair);
            EXPECT_NE(exp::resultsToCsv(*reference).find("/repair"),
                      std::string::npos);
            continue;
        }
        for (size_t i = 0; i < results->size(); ++i) {
            EXPECT_EQ(results->at(i).label, reference->at(i).label);
            expectMetricsIdentical(results->at(i).metrics,
                                   reference->at(i).metrics);
        }
    }
}

TEST(ChurnSpec, RejectsInvalidRepairAndDriftOptions)
{
    // repair= is gone: re-solves always repair, and the parse error
    // on the scenario line says so, whatever the value.
    for (const char *value : {"0", "1", "2"}) {
        io::ParseError error;
        auto spec = io::experimentFromString(
            std::string("experiment v1\ncluster planner10\n"
                        "model llama30b\nsystem a swarm helix\n"
                        "scenario churn repair=") +
                value + " fail=0@0.3\n",
            error);
        EXPECT_FALSE(spec.has_value()) << "repair=" << value;
        EXPECT_EQ(error.line, 5);
        EXPECT_NE(error.message.find("re-solves always repair"),
                  std::string::npos)
            << error.message;
    }

    // The legacy single-failure keys point at fail=.
    for (const char *option : {"node=0", "at=0.3"}) {
        io::ParseError error;
        auto spec = io::experimentFromString(
            std::string("experiment v1\ncluster planner10\n"
                        "model llama30b\nsystem a swarm helix\n"
                        "scenario churn ") +
                option + "\n",
            error);
        EXPECT_FALSE(spec.has_value()) << option;
        EXPECT_EQ(error.line, 5);
        EXPECT_NE(error.message.find("fail=<node>@<fraction>"),
                  std::string::npos)
            << error.message;
    }

    io::ParseError error;
    auto bad_drift = io::experimentFromString(
        "experiment v1\ncluster planner10\nmodel llama30b\n"
        "system a swarm helix\n"
        "scenario churn drift=1.5 fail=0@0.3\n");
    ASSERT_TRUE(bad_drift.has_value());
    EXPECT_FALSE(exp::validateSpec(*bad_drift, &error));
    EXPECT_NE(error.message.find("drift"), std::string::npos);
}

TEST(ChurnSpec, ShippedChurnExampleMatchesDocAndRuns)
{
    auto text = io::readFile(std::string(HELIX_EXAMPLES_DIR) +
                             "/churn.exp");
    ASSERT_TRUE(text.has_value());
    io::ParseError error;
    auto spec = io::experimentFromString(*text, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    EXPECT_EQ(spec->name, "churn");
    ASSERT_EQ(spec->scenarios.size(), 2u);
    EXPECT_EQ(spec->scenarios[1].kind, "churn");
    ASSERT_EQ(spec->scenarios[1].events.size(), 2u);
    EXPECT_TRUE(spec->scenarios[1].events[0].fail);
    EXPECT_EQ(spec->scenarios[1].events[0].node, 4);
    EXPECT_FALSE(spec->scenarios[1].events[1].fail);

    // A fail event and its recovery both applied, and the recovery
    // restored the planned flow exactly.
    auto results = exp::runSpec(*spec, &error);
    ASSERT_TRUE(results.has_value()) << error.str();
    ASSERT_EQ(results->size(), 4u); // 2 systems x 2 scenarios
    const auto &churn_row = results->at(2);
    ASSERT_EQ(churn_row.metrics.flowEvents.size(), 2u);
    EXPECT_EQ(churn_row.metrics.flowEvents[0].kind,
              sim::ChurnEvent::Kind::Fail);
    EXPECT_EQ(churn_row.metrics.flowEvents[1].kind,
              sim::ChurnEvent::Kind::Recover);
    EXPECT_LT(churn_row.metrics.flowEvents[0].flow,
              churn_row.metrics.flowEvents[1].flow);
    EXPECT_DOUBLE_EQ(churn_row.metrics.flowEvents[1].flow,
                     churn_row.plannedThroughput);
}

} // namespace
} // namespace helix
