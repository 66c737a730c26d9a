/**
 * @file
 * Tests for the flow substrate: graph bookkeeping, preflow-push
 * correctness (cross-checked against Dinic and hand-solved instances),
 * max-flow/min-cut duality, flow conservation after the two-phase
 * conversion, and flow decomposition.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "flow/graph.h"
#include "flow/max_flow.h"
#include "util/random.h"

namespace helix {
namespace flow {
namespace {

/** Build a fresh copy of @p graph with original capacities. */
FlowGraph
cloneGraph(const FlowGraph &graph)
{
    FlowGraph copy;
    for (size_t i = 0; i < graph.numNodes(); ++i)
        copy.addNode(graph.nodeLabel(static_cast<NodeId>(i)));
    for (size_t e = 0; e < graph.numEdges() * 2; e += 2) {
        const Edge &edge = graph.edge(static_cast<EdgeId>(e));
        copy.addEdge(edge.from, edge.to, edge.originalCapacity);
    }
    return copy;
}

/** Net flow imbalance at @p node (inflow - outflow on forward edges). */
double
imbalance(const FlowGraph &graph, NodeId node)
{
    double net = 0.0;
    for (size_t e = 0; e < graph.numEdges() * 2; e += 2) {
        const Edge &edge = graph.edge(static_cast<EdgeId>(e));
        double f = graph.flowOn(static_cast<EdgeId>(e));
        if (edge.to == node)
            net += f;
        if (edge.from == node)
            net -= f;
    }
    return net;
}

TEST(FlowGraph, AddNodesAndEdges)
{
    FlowGraph g;
    NodeId a = g.addNode("a");
    NodeId b = g.addNode("b");
    EXPECT_EQ(g.numNodes(), 2u);
    EdgeId e = g.addEdge(a, b, 5.0);
    EXPECT_EQ(g.numEdges(), 1u);
    EXPECT_EQ(e % 2, 0);
    EXPECT_DOUBLE_EQ(g.edge(e).capacity, 5.0);
    EXPECT_DOUBLE_EQ(g.edge(e ^ 1).capacity, 0.0);
    EXPECT_EQ(g.edge(e ^ 1).from, b);
    EXPECT_EQ(g.edge(e ^ 1).to, a);
    EXPECT_EQ(g.nodeLabel(a), "a");
}

TEST(FlowGraph, EdgeViewMatchesFieldAccessors)
{
    FlowGraph g;
    NodeId a = g.addNode();
    NodeId b = g.addNode();
    g.addEdge(b, b, 1.0);
    EdgeId e = g.addEdge(a, b, 5.0);
    g.residual(e) -= 2.0;
    g.residual(e ^ 1) += 2.0;
    EXPECT_EQ(g.tail(e), a);
    EXPECT_EQ(g.head(e), b);
    EXPECT_EQ(g.tail(e ^ 1), b);
    EXPECT_EQ(g.head(e ^ 1), a);
    EXPECT_DOUBLE_EQ(g.flowOn(e), 2.0);
    EXPECT_DOUBLE_EQ(g.originalCapacity(e), 5.0);
    const Edge twin = g.edge(e ^ 1);
    EXPECT_DOUBLE_EQ(twin.capacity, 2.0);
    EXPECT_DOUBLE_EQ(twin.originalCapacity, 0.0);
    g.setEdgeCapacity(e, 1.0);
    EXPECT_DOUBLE_EQ(g.residual(e), -1.0);
    EXPECT_DOUBLE_EQ(g.flowOn(e), 2.0);
    g.resetFlow();
    EXPECT_DOUBLE_EQ(g.residual(e), 1.0);
    EXPECT_DOUBLE_EQ(g.residual(e ^ 1), 0.0);
    EXPECT_DOUBLE_EQ(g.flowOn(0), 0.0);
}

TEST(FlowGraph, ResetFlowRestoresCapacity)
{
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId t = g.addNode();
    g.addEdge(s, t, 3.0);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 3.0, 1e-9);
    EXPECT_NEAR(g.flowOn(0), 3.0, 1e-9);
    g.resetFlow();
    EXPECT_NEAR(g.flowOn(0), 0.0, 1e-9);
}

TEST(FlowGraph, OutCapacitySumsForwardEdges)
{
    FlowGraph g;
    NodeId a = g.addNode();
    NodeId b = g.addNode();
    NodeId c = g.addNode();
    g.addEdge(a, b, 2.0);
    g.addEdge(a, c, 3.5);
    g.addEdge(b, a, 7.0);
    g.finish();
    EXPECT_DOUBLE_EQ(g.outCapacity(a), 5.5);
    EXPECT_DOUBLE_EQ(g.outCapacity(b), 7.0);
}

/** The arcs of @p v as a vector, for comparisons. */
std::vector<EdgeId>
arcsOf(const FlowGraph &g, NodeId v)
{
    ArcSpan arcs = g.outEdges(v);
    return {arcs.begin(), arcs.end()};
}

TEST(FlowGraph, ArcsFollowEdgeCreationOrder)
{
    FlowGraph g;
    for (int i = 0; i < 3; ++i)
        g.addNode();
    EdgeId ab = g.addEdge(0, 1, 1.0);
    EdgeId ca = g.addEdge(2, 0, 1.0);
    EdgeId aa = g.addEdge(0, 0, 1.0);
    g.finish();
    EXPECT_EQ(arcsOf(g, 0),
              (std::vector<EdgeId>{ab, ca + 1, aa, aa + 1}));
    EXPECT_EQ(arcsOf(g, 1), (std::vector<EdgeId>{ab + 1}));
    // An edge added after finish() shows up once the graph is
    // finished again.
    EdgeId bc = g.addEdge(1, 2, 1.0);
    g.finish();
    EXPECT_EQ(arcsOf(g, 1), (std::vector<EdgeId>{ab + 1, bc}));
    EXPECT_EQ(arcsOf(g, 2), (std::vector<EdgeId>{ca, bc + 1}));
    EXPECT_EQ(g.nodeLabel(2), "");
}

TEST(PreflowPush, SingleEdge)
{
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId t = g.addNode();
    g.addEdge(s, t, 4.25);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 4.25, 1e-9);
}

TEST(PreflowPush, SeriesBottleneck)
{
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId m = g.addNode();
    NodeId t = g.addNode();
    g.addEdge(s, m, 10.0);
    g.addEdge(m, t, 3.0);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 3.0, 1e-9);
}

TEST(PreflowPush, ParallelPathsSum)
{
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId a = g.addNode();
    NodeId b = g.addNode();
    NodeId t = g.addNode();
    g.addEdge(s, a, 2.0);
    g.addEdge(a, t, 2.0);
    g.addEdge(s, b, 5.0);
    g.addEdge(b, t, 4.0);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 6.0, 1e-9);
}

TEST(PreflowPush, ClassicTextbookInstance)
{
    // CLRS figure: max flow 23.
    FlowGraph g;
    NodeId s = g.addNode("s");
    NodeId v1 = g.addNode("v1");
    NodeId v2 = g.addNode("v2");
    NodeId v3 = g.addNode("v3");
    NodeId v4 = g.addNode("v4");
    NodeId t = g.addNode("t");
    g.addEdge(s, v1, 16);
    g.addEdge(s, v2, 13);
    g.addEdge(v1, v3, 12);
    g.addEdge(v2, v1, 4);
    g.addEdge(v2, v4, 14);
    g.addEdge(v3, v2, 9);
    g.addEdge(v3, t, 20);
    g.addEdge(v4, v3, 7);
    g.addEdge(v4, t, 4);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 23.0, 1e-9);
}

TEST(PreflowPush, DisconnectedSinkIsZero)
{
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId a = g.addNode();
    NodeId t = g.addNode();
    g.addEdge(s, a, 5.0);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 0.0, 1e-9);
}

TEST(PreflowPush, ZeroCapacityEdgesCarryNothing)
{
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId t = g.addNode();
    g.addEdge(s, t, 0.0);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 0.0, 1e-9);
}

TEST(PreflowPush, SelfLoopEdgesCarryNoFlow)
{
    FlowGraph g;
    NodeId s = g.addNode("s");
    NodeId m = g.addNode("m");
    NodeId t = g.addNode("t");
    EdgeId source_loop = g.addEdge(s, s, 9.0);
    g.addEdge(s, m, 4.0);
    EdgeId mid_loop = g.addEdge(m, m, 7.0);
    g.addEdge(m, t, 3.0);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 3.0, 1e-9);
    EXPECT_NEAR(g.flowOn(source_loop), 0.0, 1e-9);
    EXPECT_NEAR(g.flowOn(mid_loop), 0.0, 1e-9);
}

TEST(PreflowPush, ZeroCapacityBottleneckStrandsExcess)
{
    // The only exit from m has zero capacity, so the preflow pushed
    // into m must be returned to the source by phase 2 and the flow
    // value and recorded flows must all be zero.
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId m = g.addNode();
    NodeId t = g.addNode();
    EdgeId in = g.addEdge(s, m, 10.0);
    EdgeId out = g.addEdge(m, t, 0.0);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 0.0, 1e-9);
    EXPECT_NEAR(g.flowOn(in), 0.0, 1e-9);
    EXPECT_NEAR(g.flowOn(out), 0.0, 1e-9);
}

TEST(Dinic, MatchesKnownValue)
{
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId a = g.addNode();
    NodeId b = g.addNode();
    NodeId t = g.addNode();
    g.addEdge(s, a, 3.0);
    g.addEdge(s, b, 2.0);
    g.addEdge(a, b, 1.0);
    g.addEdge(a, t, 2.0);
    g.addEdge(b, t, 3.0);
    Dinic solver(g);
    EXPECT_NEAR(solver.solve(s, t), 5.0, 1e-9);
}

/** Parameterized random cross-check between PreflowPush and Dinic. */
class RandomGraphCrossCheck : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomGraphCrossCheck, PreflowMatchesDinic)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 200; ++trial) {
        int n = 2 + static_cast<int>(rng.nextBounded(10));
        FlowGraph g1;
        for (int i = 0; i < n; ++i)
            g1.addNode();
        int m = 1 + static_cast<int>(rng.nextBounded(3 * n));
        for (int e = 0; e < m; ++e) {
            auto u = static_cast<NodeId>(rng.nextBounded(n));
            auto v = static_cast<NodeId>(rng.nextBounded(n));
            if (u == v)
                continue;
            g1.addEdge(u, v, rng.nextUniform(0.0, 20.0));
        }
        FlowGraph g2 = cloneGraph(g1);
        PreflowPush pp(g1);
        Dinic dn(g2);
        double f1 = pp.solve(0, 1);
        double f2 = dn.solve(0, 1);
        EXPECT_NEAR(f1, f2, 1e-6) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphCrossCheck,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/** Property: after solving, flow is conserved at interior nodes. */
class ConservationProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ConservationProperty, InteriorNodesBalance)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 50; ++trial) {
        int n = 3 + static_cast<int>(rng.nextBounded(8));
        FlowGraph g;
        for (int i = 0; i < n; ++i)
            g.addNode();
        for (int e = 0; e < 4 * n; ++e) {
            auto u = static_cast<NodeId>(rng.nextBounded(n));
            auto v = static_cast<NodeId>(rng.nextBounded(n));
            if (u == v)
                continue;
            // Mix small and very large capacities to stress the
            // scale-aware phase-2 tolerance.
            double cap = (rng.nextBounded(4) == 0)
                             ? rng.nextUniform(1e6, 1e8)
                             : rng.nextUniform(0.0, 100.0);
            g.addEdge(u, v, cap);
        }
        PreflowPush solver(g);
        double value = solver.solve(0, 1);
        double scale = std::max(1.0, value);
        for (NodeId v = 2; v < n; ++v) {
            EXPECT_LE(std::fabs(imbalance(g, v)), 1e-5 * scale)
                << "node " << v << " trial " << trial;
        }
        // Source emits exactly the flow value; sink absorbs it.
        EXPECT_NEAR(-imbalance(g, 0), value, 1e-5 * scale);
        EXPECT_NEAR(imbalance(g, 1), value, 1e-5 * scale);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty,
                         ::testing::Values(101, 202, 303, 404));

/** Property: max flow equals the capacity of the found min cut. */
class MinCutProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MinCutProperty, FlowEqualsCutCapacity)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 100; ++trial) {
        int n = 2 + static_cast<int>(rng.nextBounded(9));
        FlowGraph g;
        for (int i = 0; i < n; ++i)
            g.addNode();
        for (int e = 0; e < 3 * n; ++e) {
            auto u = static_cast<NodeId>(rng.nextBounded(n));
            auto v = static_cast<NodeId>(rng.nextBounded(n));
            if (u == v)
                continue;
            g.addEdge(u, v, rng.nextUniform(0.0, 10.0));
        }
        PreflowPush solver(g);
        double value = solver.solve(0, 1);
        std::vector<bool> source_side = minCutSourceSide(g, 0);
        EXPECT_TRUE(source_side[0]);
        EXPECT_FALSE(source_side[1]);
        double cut = 0.0;
        for (size_t e = 0; e < g.numEdges() * 2; e += 2) {
            const Edge &edge = g.edge(static_cast<EdgeId>(e));
            if (source_side[edge.from] && !source_side[edge.to])
                cut += edge.originalCapacity;
        }
        EXPECT_NEAR(value, cut, 1e-6) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCutProperty,
                         ::testing::Values(7, 77, 777));

TEST(FlowDecomposition, PathsSumToFlowValue)
{
    Rng rng(4242);
    for (int trial = 0; trial < 100; ++trial) {
        int n = 2 + static_cast<int>(rng.nextBounded(8));
        FlowGraph g;
        for (int i = 0; i < n; ++i)
            g.addNode();
        for (int e = 0; e < 3 * n; ++e) {
            auto u = static_cast<NodeId>(rng.nextBounded(n));
            auto v = static_cast<NodeId>(rng.nextBounded(n));
            if (u == v)
                continue;
            g.addEdge(u, v, rng.nextUniform(0.0, 10.0));
        }
        PreflowPush solver(g);
        double value = solver.solve(0, 1);
        auto paths = decomposeFlow(g, 0, 1);
        double total = 0.0;
        for (const FlowPath &path : paths) {
            EXPECT_EQ(path.nodes.front(), 0);
            EXPECT_EQ(path.nodes.back(), 1);
            EXPECT_GT(path.amount, 0.0);
            total += path.amount;
        }
        EXPECT_NEAR(total, value, 1e-5 * std::max(1.0, value))
            << "trial " << trial;
    }
}

TEST(FlowDecomposition, EmptyOnZeroFlow)
{
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId t = g.addNode();
    g.addEdge(s, t, 1.0);
    // No solve: no flow recorded.
    g.finish();
    auto paths = decomposeFlow(g, s, t);
    EXPECT_TRUE(paths.empty());
}

/**
 * A diamond with a cross edge: s -> {a, b} -> t plus a -> b. Max flow
 * 6 routes 2 via a->t, 1 via a->b, 3 direct through b. Shrinking or
 * severing either branch forces repair to cancel and reroute.
 */
FlowGraph
diamondGraph()
{
    FlowGraph g;
    g.addNode("s"); // 0
    g.addNode("t"); // 1
    g.addNode("a"); // 2
    g.addNode("b"); // 3
    g.addEdge(0, 2, 3.0); // edge 0: s->a
    g.addEdge(0, 3, 3.0); // edge 2: s->b
    g.addEdge(2, 3, 1.0); // edge 4: a->b
    g.addEdge(2, 1, 2.0); // edge 6: a->t
    g.addEdge(3, 1, 4.0); // edge 8: b->t
    return g;
}

TEST(FlowRepair, FailThenRecoverRestoresOriginalValue)
{
    FlowGraph g = diamondGraph();
    PreflowPush solver(g);
    double original = solver.solve(0, 1);
    EXPECT_NEAR(original, 6.0, 1e-9);

    // Fail branch a: both of its arcs drop to zero capacity.
    g.setEdgeCapacity(0, 0.0);
    double degraded = solver.repair(0, 1);
    EXPECT_NEAR(degraded, 3.0, 1e-9);
    EXPECT_NEAR(g.flowOn(0), 0.0, 1e-9);

    // Recover: restoring the capacity restores the original value.
    g.setEdgeCapacity(0, 3.0);
    EXPECT_NEAR(solver.repair(0, 1), original, 1e-9);
}

TEST(FlowRepair, ZeroFlowEdgeChangeIsANoOp)
{
    FlowGraph g = diamondGraph();
    PreflowPush solver(g);
    double value = solver.solve(0, 1);

    // a->b carries at most 1.0; capacity above the bottleneck can
    // change freely without touching the committed assignment.
    std::vector<double> flows;
    for (size_t e = 0; e < g.numEdges() * 2; e += 2)
        flows.push_back(g.flowOn(static_cast<EdgeId>(e)));
    double slack_flow = g.flowOn(4);
    g.setEdgeCapacity(4, std::max(2.0, slack_flow + 1.0));
    EXPECT_NEAR(solver.repair(0, 1), value, 1e-9);

    // Shrinking an edge down to exactly its current flow is also a
    // no-op: nothing is over-committed, nothing new is augmentable.
    g.setEdgeCapacity(4, slack_flow);
    EXPECT_NEAR(solver.repair(0, 1), value, 1e-9);
    for (size_t e = 0; e < g.numEdges() * 2; e += 2) {
        EXPECT_NEAR(g.flowOn(static_cast<EdgeId>(e)),
                    flows[e / 2], 1e-9)
            << "edge " << e;
    }
}

TEST(FlowRepair, RepeatedRepairIsIdempotent)
{
    FlowGraph g = diamondGraph();
    PreflowPush solver(g);
    (void)solver.solve(0, 1);
    g.setEdgeCapacity(8, 1.5); // shrink b->t below its flow
    double first = solver.repair(0, 1);

    std::vector<double> flows;
    for (size_t e = 0; e < g.numEdges() * 2; e += 2)
        flows.push_back(g.flowOn(static_cast<EdgeId>(e)));

    // No capacity changed since: repair must keep value AND flows.
    double second = solver.repair(0, 1);
    EXPECT_DOUBLE_EQ(second, first);
    for (size_t e = 0; e < g.numEdges() * 2; e += 2) {
        EXPECT_DOUBLE_EQ(g.flowOn(static_cast<EdgeId>(e)),
                         flows[e / 2])
            << "edge " << e;
    }
}

TEST(FlowRepair, RepairWithoutPriorSolveIsAFullSolve)
{
    FlowGraph g = diamondGraph();
    PreflowPush solver(g);
    EXPECT_NEAR(solver.repair(0, 1), 6.0, 1e-9);
}

TEST(FlowRepair, EdgelessGraphRepairsToZero)
{
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId t = g.addNode();
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 0.0, 1e-9);
    EXPECT_NEAR(solver.repair(s, t), 0.0, 1e-9);
}

TEST(FlowRepair, SingleEdgeShrinkAndRestore)
{
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId t = g.addNode();
    EdgeId e = g.addEdge(s, t, 5.0);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 5.0, 1e-9);
    g.setEdgeCapacity(e, 2.0);
    EXPECT_NEAR(solver.repair(s, t), 2.0, 1e-9);
    g.setEdgeCapacity(e, 0.0);
    EXPECT_NEAR(solver.repair(s, t), 0.0, 1e-9);
    g.setEdgeCapacity(e, 5.0);
    EXPECT_NEAR(solver.repair(s, t), 5.0, 1e-9);
}

TEST(MaxFlow, HandlesHugeCapacityMixedWithTiny)
{
    // Regression for the scale-aware tolerance: coordinator-style
    // links (~3e8) mixed with compute edges (~1e3).
    FlowGraph g;
    NodeId s = g.addNode();
    NodeId t = g.addNode();
    NodeId a = g.addNode();
    NodeId b = g.addNode();
    g.addEdge(s, a, 3.125e8);
    g.addEdge(a, b, 4005.0);
    g.addEdge(b, t, 3.125e8);
    PreflowPush solver(g);
    EXPECT_NEAR(solver.solve(s, t), 4005.0, 1e-3);
}

} // namespace
} // namespace flow
} // namespace helix
