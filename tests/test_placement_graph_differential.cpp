/**
 * @file
 * Differential test of PlacementGraph's bucketed, exact-size build
 * against an all-pairs reference enumeration kept in this file: the
 * direct O(n^2) reading of Sec. 4.3's connection criteria, adding one
 * vertex pair per layer-holding node and then, node by node, its
 * coordinator links and every valid successor in index order.
 *
 * Randomized placements over generated clusters — with and without
 * partial inference, with and without a ConnectionFilter, with
 * zero-count nodes and overlapping intervals — must give the same
 * (from, to, capacity) connection order, the same edge ids and arc
 * order, a bit-identical max flow, identical per-edge flows, and an
 * identical scheduler Topology. On failure each assertion carries a
 * replay line (preset, node count, seed, options).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "flow/graph.h"
#include "flow/max_flow.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/scheduler.h"
#include "util/random.h"

namespace helix {
namespace {

using flow::EdgeId;
using flow::FlowGraph;
using flow::NodeId;
using placement::ModelPlacement;
using placement::NodePlacement;

/** One reference connection and the edge the reference gave it. */
struct RefConnection
{
    int from = 0;
    int to = 0;
    double capacity = 0.0;
    EdgeId edge = flow::kInvalidEdge;
};

/** The reference flow network and its connections. */
struct Reference
{
    FlowGraph net;
    NodeId source = flow::kInvalidNode;
    NodeId sink = flow::kInvalidNode;
    std::vector<NodeId> in;
    std::vector<NodeId> out;
    std::vector<EdgeId> compute;
    /** In creation (edge id) order. */
    std::vector<RefConnection> conns;
};

Reference
buildReference(const cluster::ClusterSpec &cluster,
               const cluster::Profiler &profiler,
               const ModelPlacement &placement,
               const placement::GraphBuildOptions &options)
{
    const int n = cluster.numNodes();
    const int num_layers = profiler.modelSpec().numLayers;
    Reference ref;
    ref.source = ref.net.addNode();
    ref.sink = ref.net.addNode();
    ref.in.assign(n, flow::kInvalidNode);
    ref.out.assign(n, flow::kInvalidNode);
    ref.compute.assign(n, flow::kInvalidEdge);
    for (int i = 0; i < n; ++i) {
        if (placement[i].count == 0)
            continue;
        ref.in[i] = ref.net.addNode();
        ref.out[i] = ref.net.addNode();
        ref.compute[i] = ref.net.addEdge(
            ref.in[i], ref.out[i],
            profiler.decodeThroughput(cluster.node(i),
                                      placement[i].count));
    }
    auto connect = [&](int from, int to, double capacity) {
        NodeId a = from == cluster::kCoordinator ? ref.source
                                                 : ref.out[from];
        NodeId b = to == cluster::kCoordinator ? ref.sink : ref.in[to];
        ref.conns.push_back(
            {from, to, capacity, ref.net.addEdge(a, b, capacity)});
    };
    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = placement[i];
        if (p.count == 0)
            continue;
        if (p.start == 0) {
            connect(cluster::kCoordinator, i,
                    profiler.linkTokensPerSecond(
                        cluster.link(cluster::kCoordinator, i),
                        profiler.tokenBytes()));
        }
        if (p.end() == num_layers) {
            connect(i, cluster::kCoordinator,
                    profiler.linkTokensPerSecond(
                        cluster.link(i, cluster::kCoordinator),
                        profiler.tokenBytes()));
        }
        for (int j = 0; j < n; ++j) {
            if (j == i || placement[j].count == 0)
                continue;
            if (options.filter && !options.filter->allowed(i, j))
                continue;
            if (placement::connectionValid(p, placement[j],
                                           options.allowPartialInference)) {
                connect(i, j,
                        profiler.linkTokensPerSecond(
                            cluster.link(i, j),
                            profiler.activationBytes()));
            }
        }
    }
    return ref;
}

/**
 * Random placement over @p num_layers layers: the first eight nodes
 * chain the model's eighths, so most instances carry flow; of the
 * rest about a sixth hold nothing, half take one or two eighths
 * (more exact-boundary chains without partial inference) and the
 * others an arbitrary short interval (overlaps). Intervals stay short
 * enough for most GPUs to serve them.
 */
ModelPlacement
randomPlacement(Rng &rng, int num_nodes, int num_layers)
{
    ModelPlacement placement;
    placement.nodes.resize(num_nodes);
    for (int i = 0; i < num_nodes; ++i) {
        NodePlacement &p = placement[i];
        if (i < 8) {
            p.start = i * num_layers / 8;
            p.count = (i + 1) * num_layers / 8 - p.start;
            continue;
        }
        switch (rng.nextBounded(6)) {
          case 0:
            break;
          case 1:
          case 2:
          case 3: {
            int a = static_cast<int>(rng.nextBounded(8));
            int b = std::min(8, a + 1 + static_cast<int>(rng.nextBounded(2)));
            p.start = a * num_layers / 8;
            p.count = b * num_layers / 8 - p.start;
            break;
          }
          default: {
            p.start = static_cast<int>(rng.nextBounded(num_layers));
            p.count = 1 + static_cast<int>(rng.nextBounded(
                              std::min(num_layers - p.start, 12)));
            break;
          }
        }
    }
    return placement;
}

/** The expected topology row of @p from: its connections in target
 *  order (coordinator first) with the reference flows. */
std::vector<scheduler::Topology::OutEdge>
referenceRow(const Reference &ref, int from)
{
    std::vector<scheduler::Topology::OutEdge> row;
    std::vector<RefConnection> mine;
    for (const RefConnection &c : ref.conns) {
        if (c.from == from)
            mine.push_back(c);
    }
    std::stable_sort(mine.begin(), mine.end(),
                     [](const RefConnection &a, const RefConnection &b) {
                         return a.to < b.to;
                     });
    for (const RefConnection &c : mine) {
        int to = c.to == cluster::kCoordinator ? scheduler::Topology::kSink
                                                : c.to;
        row.push_back({to, ref.net.flowOn(c.edge), c.capacity});
    }
    return row;
}

/** Compares one (cluster, placement, options) instance and reports
 *  the reference max flow through @p max_flow. */
void
checkInstance(const cluster::ClusterSpec &cluster,
              const cluster::Profiler &profiler,
              const ModelPlacement &placement,
              const placement::GraphBuildOptions &options,
              const std::string &replay, double *max_flow = nullptr)
{
    const int n = cluster.numNodes();
    Reference ref = buildReference(cluster, profiler, placement, options);
    placement::PlacementGraph graph(cluster, profiler, placement,
                                    options);
    const FlowGraph &net = graph.graph();

    // Same vertices, same edge ids, same arc order.
    ASSERT_EQ(net.numNodes(), ref.net.numNodes()) << replay;
    ASSERT_EQ(net.numEdges(), ref.net.numEdges()) << replay;
    ASSERT_EQ(graph.numConnections(), ref.conns.size()) << replay;
    EXPECT_EQ(graph.source(), ref.source) << replay;
    EXPECT_EQ(graph.sink(), ref.sink) << replay;
    for (size_t id = 0; id < 2 * net.numEdges(); ++id) {
        const flow::Edge &got = net.edge(static_cast<EdgeId>(id));
        const flow::Edge &want = ref.net.edge(static_cast<EdgeId>(id));
        ASSERT_EQ(got.from, want.from) << "edge " << id << " " << replay;
        ASSERT_EQ(got.to, want.to) << "edge " << id << " " << replay;
        ASSERT_EQ(got.originalCapacity, want.originalCapacity)
            << "edge " << id << " " << replay;
    }
    for (size_t v = 0; v < net.numNodes(); ++v) {
        // Arc order oracle: ascending id among the edges leaving v.
        std::vector<EdgeId> want;
        for (size_t id = 0; id < 2 * ref.net.numEdges(); ++id) {
            if (ref.net.edge(static_cast<EdgeId>(id)).from ==
                static_cast<NodeId>(v))
                want.push_back(static_cast<EdgeId>(id));
        }
        flow::ArcSpan got = net.outEdges(static_cast<NodeId>(v));
        ASSERT_EQ(std::vector<EdgeId>(got.begin(), got.end()), want)
            << "vertex " << v << " " << replay;
    }
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(graph.inVertex(i), ref.in[i]) << replay;
        EXPECT_EQ(graph.outVertex(i), ref.out[i]) << replay;
        EXPECT_EQ(graph.computeEdge(i), ref.compute[i]) << replay;
        if (ref.in[i] != flow::kInvalidNode) {
            EXPECT_EQ(graph.clusterEndpoint(ref.in[i]), i) << replay;
            EXPECT_EQ(graph.clusterEndpoint(ref.out[i]), i) << replay;
            EXPECT_TRUE(graph.isInVertex(ref.in[i])) << replay;
            EXPECT_FALSE(graph.isInVertex(ref.out[i])) << replay;
        }
    }

    // Bit-identical max flow and per-edge flows.
    flow::PreflowPush solver(ref.net);
    (void)solver.solve(ref.source, ref.sink);
    const double ref_value = ref.net.netOutflow(ref.source);
    if (max_flow)
        *max_flow = ref_value;
    ASSERT_EQ(graph.maxThroughput(), ref_value) << replay;
    for (size_t id = 0; id < 2 * net.numEdges(); id += 2) {
        ASSERT_EQ(net.flowOn(static_cast<EdgeId>(id)),
                  ref.net.flowOn(static_cast<EdgeId>(id)))
            << "edge " << id << " " << replay;
    }

    // Connection table: (from, to) order, capacities, flows, lookups.
    std::vector<RefConnection> sorted = ref.conns;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const RefConnection &a, const RefConnection &b) {
                         return a.from != b.from ? a.from < b.from
                                                 : a.to < b.to;
                     });
    auto conns = graph.connections();
    ASSERT_EQ(conns.size(), sorted.size()) << replay;
    for (size_t k = 0; k < conns.size(); ++k) {
        ASSERT_EQ(conns[k].from, sorted[k].from) << k << " " << replay;
        ASSERT_EQ(conns[k].to, sorted[k].to) << k << " " << replay;
        ASSERT_EQ(conns[k].capacity, sorted[k].capacity)
            << k << " " << replay;
        ASSERT_EQ(conns[k].flow, ref.net.flowOn(sorted[k].edge))
            << k << " " << replay;
    }
    std::vector<bool> present(static_cast<size_t>(n + 1) * (n + 1),
                              false);
    for (const RefConnection &c : ref.conns)
        present[static_cast<size_t>(c.from + 1) * (n + 1) + c.to + 1] =
            true;
    for (int from = cluster::kCoordinator; from < n; ++from) {
        for (int to = cluster::kCoordinator; to < n; ++to) {
            ASSERT_EQ(graph.hasConnection(from, to),
                      present[static_cast<size_t>(from + 1) * (n + 1) +
                              to + 1])
                << from << " -> " << to << " " << replay;
        }
    }
    for (const RefConnection &c : ref.conns) {
        ASSERT_EQ(graph.connectionFlow(c.from, c.to),
                  ref.net.flowOn(c.edge))
            << c.from << " -> " << c.to << " " << replay;
    }

    // The scheduler topology reads the same rows.
    scheduler::Topology topo(cluster, profiler, placement, graph);
    EXPECT_EQ(topo.maxFlow(), ref_value) << replay;
    for (int from = cluster::kCoordinator; from < n; ++from) {
        auto want = referenceRow(ref, from);
        auto got = topo.outEdges(from);
        ASSERT_EQ(got.size(), want.size())
            << "row " << from << " " << replay;
        for (size_t k = 0; k < want.size(); ++k) {
            ASSERT_EQ(got[k].to, want[k].to)
                << "row " << from << " " << replay;
            ASSERT_EQ(got[k].flow, want[k].flow)
                << "row " << from << " " << replay;
            ASSERT_EQ(got[k].capacity, want[k].capacity)
                << "row " << from << " " << replay;
        }
    }
}

struct Preset
{
    const char *name;
    int numNodes;
};

const Preset kPresets[] = {
    {"homogeneous", 12},
    {"two-tier", 24},
    {"long-tail-heterogeneous", 40},
    {"geo-distributed", 64},
};

TEST(PlacementGraphDifferential, RandomPlacementsMatchAllPairsReference)
{
    const model::TransformerSpec model = model::catalog::llama30b();
    cluster::Profiler profiler(model);
    const int num_layers = model.numLayers;
    int instances = 0;
    int flowing = 0;
    for (const Preset &preset : kPresets) {
        cluster::gen::GeneratorConfig gen_config;
        gen_config.preset = preset.name;
        gen_config.numNodes = preset.numNodes;
        gen_config.seed = 7;
        auto clus = cluster::gen::generate(gen_config);
        ASSERT_TRUE(clus.has_value()) << preset.name;
        for (uint64_t seed = 1; seed <= 6; ++seed) {
            Rng rng(seed * 1000 + static_cast<uint64_t>(preset.numNodes));
            ModelPlacement placement =
                randomPlacement(rng, clus->numNodes(), num_layers);
            const int n = clus->numNodes();
            auto filter = placement::ConnectionFilter::pruneByBandwidth(
                *clus, n / 4 + static_cast<int>(rng.nextBounded(
                                   static_cast<uint64_t>(n - n / 4))));
            for (int mode = 0; mode < 4; ++mode) {
                placement::GraphBuildOptions options;
                options.allowPartialInference = (mode & 1) == 0;
                options.filter = (mode & 2) != 0 ? &filter : nullptr;
                std::ostringstream replay;
                replay << "replay: preset=" << preset.name
                       << " n=" << preset.numNodes << " seed=" << seed
                       << " partial=" << options.allowPartialInference
                       << " filter=" << (options.filter != nullptr);
                double value = 0.0;
                checkInstance(*clus, profiler, placement, options,
                              replay.str(), &value);
                if (::testing::Test::HasFatalFailure())
                    return;
                ++instances;
                flowing += value > 0.0 ? 1 : 0;
            }
        }
    }
    EXPECT_EQ(instances, 96);
    // Unfiltered instances all route flow through the backbone chain;
    // the pruned ones only sometimes.
    EXPECT_GE(flowing, 60);
}

TEST(PlacementGraphDifferential, PlannerAndDegeneratePlacementsMatch)
{
    const model::TransformerSpec model = model::catalog::llama30b();
    cluster::Profiler profiler(model);
    cluster::gen::GeneratorConfig gen_config;
    gen_config.preset = "geo-distributed";
    gen_config.numNodes = 48;
    gen_config.seed = 3;
    auto clus = cluster::gen::generate(gen_config);
    ASSERT_TRUE(clus.has_value());

    placement::SwarmPlanner swarm;
    ModelPlacement planned = swarm.plan(*clus, profiler);
    checkInstance(*clus, profiler, planned, {}, "swarm placement");

    ModelPlacement empty;
    empty.nodes.resize(clus->numNodes());
    checkInstance(*clus, profiler, empty, {}, "no layer held");

    // Every node holds the whole model: all pairs overlap, none chain
    // exactly, and every node links to the coordinator both ways.
    ModelPlacement full;
    full.nodes.assign(clus->numNodes(),
                      NodePlacement{0, model.numLayers});
    checkInstance(*clus, profiler, full, {}, "full replicas");
    placement::GraphBuildOptions exact;
    exact.allowPartialInference = false;
    checkInstance(*clus, profiler, full, exact, "full replicas, exact");
}

} // namespace
} // namespace helix
