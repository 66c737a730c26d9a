#include "placement/placement_graph.h"

#include <algorithm>

#include "flow/max_flow.h"
#include "util/logging.h"

namespace helix {
namespace placement {

ConnectionFilter
ConnectionFilter::allowAll(int num_nodes)
{
    ConnectionFilter filter;
    filter.side = num_nodes;
    // helix-lint: allow(pair-matrix) planning-time MILP pruning mask over compute pairs; never built on the serving path
    filter.mask.assign(static_cast<size_t>(num_nodes) * num_nodes, true);
    return filter;
}

ConnectionFilter
ConnectionFilter::pruneByBandwidth(const cluster::ClusterSpec &cluster,
                                   int target_degree)
{
    int n = cluster.numNodes();
    ConnectionFilter filter;
    filter.side = n;
    // helix-lint: allow(pair-matrix) planning-time MILP pruning mask over compute pairs; never built on the serving path
    filter.mask.assign(static_cast<size_t>(n) * n, false);
    for (int from = 0; from < n; ++from) {
        // Rank outgoing links by bandwidth and keep the fastest ones.
        std::vector<std::pair<double, int>> ranked;
        for (int to = 0; to < n; ++to) {
            if (to == from)
                continue;
            ranked.push_back(
                {cluster.link(from, to).bandwidthBps, to});
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        int keep = std::min<int>(target_degree,
                                 static_cast<int>(ranked.size()));
        for (int r = 0; r < keep; ++r) {
            filter.mask[static_cast<size_t>(from) * n +
                        ranked[r].second] = true;
        }
    }
    return filter;
}

bool
ConnectionFilter::allowed(int from, int to) const
{
    HELIX_ASSERT(from >= 0 && from < side && to >= 0 && to < side);
    return mask[static_cast<size_t>(from) * side + to];
}

int
ConnectionFilter::numAllowed() const
{
    int count = 0;
    for (bool b : mask)
        count += b ? 1 : 0;
    return count;
}

bool
connectionValid(const NodePlacement &from, const NodePlacement &to,
                bool allow_partial_inference)
{
    if (from.count == 0 || to.count == 0)
        return false;
    if (allow_partial_inference)
        return to.start <= from.end() && from.end() < to.end();
    return from.end() == to.start;
}

PlacementGraph::PlacementGraph(const cluster::ClusterSpec &cluster,
                               const cluster::Profiler &profiler,
                               const ModelPlacement &placement,
                               GraphBuildOptions options)
{
    const int n = cluster.numNodes();
    const int num_layers = profiler.modelSpec().numLayers;
    HELIX_ASSERT(static_cast<int>(placement.size()) == n);

    // Rank the layer-holding nodes; each rank owns one vertex pair.
    nodeRank.assign(n, -1);
    int layer_span = num_layers;
    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = placement[i];
        if (p.count == 0)
            continue;
        HELIX_ASSERT(p.start >= 0 && p.count > 0);
        nodeRank[i] = static_cast<int>(rankNode.size());
        rankNode.push_back(i);
        layer_span = std::max(layer_span, p.end());
    }

    // Successor buckets (criterion 3, connectionValid): bucket l
    // lists, in ascending node order, the nodes a request can
    // continue on after layer l - 1 — every node holding layer l with
    // partial inference, otherwise every node starting at l. No node
    // is in the bucket of its own end, and bucket layer_span stays
    // empty. One flat array, filled by a counting pass.
    const bool partial = options.allowPartialInference;
    auto bucketsEnd = [&](const NodePlacement &p) {
        return partial ? p.end() : p.start + 1;
    };
    std::vector<int> bucketStart(layer_span + 2, 0);
    for (int i : rankNode) {
        for (int l = placement[i].start; l < bucketsEnd(placement[i]); ++l)
            ++bucketStart[l + 1];
    }
    for (int l = 0; l <= layer_span; ++l)
        bucketStart[l + 1] += bucketStart[l];
    std::vector<int> bucketNodes(bucketStart.back());
    std::vector<int> cursor(bucketStart.begin(), bucketStart.end() - 1);
    for (int i : rankNode) {
        for (int l = placement[i].start; l < bucketsEnd(placement[i]); ++l)
            bucketNodes[cursor[l]++] = i;
    }

    // One pass adds every edge in id order: the compute edges, then
    // per node its coordinator links and successor connections. The
    // filter only removes successors, so the unfiltered count bounds
    // the edges to reserve.
    size_t max_edges = rankNode.size();
    for (int i : rankNode) {
        const NodePlacement &p = placement[i];
        max_edges += static_cast<size_t>(
            (p.start == 0) + (p.end() == num_layers) +
            bucketStart[p.end() + 1] - bucketStart[p.end()]);
    }
    for (size_t v = 0; v < 2 + 2 * rankNode.size(); ++v)
        (void)net.addNode();
    net.reserveEdges(max_edges);
    for (int i : rankNode) {
        (void)net.addEdge(inVertex(i), outVertex(i),
                          profiler.decodeThroughput(cluster.node(i),
                                                    placement[i].count));
    }
    const double act_bytes = profiler.activationBytes();
    const double tok_bytes = profiler.tokenBytes();
    for (int i : rankNode) {
        const NodePlacement &p = placement[i];
        // Criterion 1: coordinator -> node holding the first layer.
        if (p.start == 0) {
            (void)net.addEdge(
                kSourceVertex, inVertex(i),
                profiler.linkTokensPerSecond(
                    cluster.link(cluster::kCoordinator, i), tok_bytes));
        }
        // Criterion 2: node holding the last layer -> coordinator.
        if (p.end() == num_layers) {
            (void)net.addEdge(
                outVertex(i), kSinkVertex,
                profiler.linkTokensPerSecond(
                    cluster.link(i, cluster::kCoordinator), tok_bytes));
        }
        // Criterion 3: node -> node holding the next needed layer.
        for (int k = bucketStart[p.end()]; k < bucketStart[p.end() + 1];
             ++k) {
            const int j = bucketNodes[k];
            if (options.filter && !options.filter->allowed(i, j))
                continue;
            (void)net.addEdge(outVertex(i), inVertex(j),
                              profiler.linkTokensPerSecond(
                                  cluster.link(i, j), act_bytes));
        }
    }
    net.finish();
}

flow::ArcSpan
PlacementGraph::connectionArcs(int endpoint) const
{
    if (endpoint == cluster::kCoordinator)
        return net.outEdges(kSourceVertex);
    const flow::NodeId tail = outVertex(endpoint);
    if (tail == flow::kInvalidNode)
        return {};
    // Nothing else enters an out-vertex, so its arcs are its compute
    // edge's residual twin followed by its connections.
    const flow::ArcSpan arcs = net.outEdges(tail);
    return {arcs.begin() + 1, arcs.end()};
}

flow::EdgeId
PlacementGraph::connectionEdge(int from, int to) const
{
    HELIX_ASSERT(to >= cluster::kCoordinator && to < numNodes());
    const flow::NodeId head =
        to == cluster::kCoordinator ? kSinkVertex : inVertex(to);
    if (head == flow::kInvalidNode)
        return flow::kInvalidEdge;
    const flow::ArcSpan arcs = connectionArcs(from);
    const flow::EdgeId *it = std::lower_bound(
        arcs.begin(), arcs.end(), head,
        [&](flow::EdgeId id, flow::NodeId key) {
            return net.head(id) < key;
        });
    return (it != arcs.end() && net.head(*it) == head)
               ? *it
               : flow::kInvalidEdge;
}

double
PlacementGraph::maxThroughput()
{
    if (!cachedFlow) {
        flow::PreflowPush solver(net);
        // Value is read back via netOutflow below; see comment.
        (void)solver.solve(kSourceVertex, kSinkVertex);
        // Report the value via the same accumulation repairFlow()
        // uses, so a repaired run and a cold run of the same network
        // log bit-identical flow values.
        cachedFlow = net.netOutflow(kSourceVertex);
    }
    return *cachedFlow;
}

double
PlacementGraph::repairFlow()
{
    flow::PreflowPush solver(net);
    cachedFlow = solver.repair(kSourceVertex, kSinkVertex);
    return *cachedFlow;
}

void
PlacementGraph::setComputeCapacity(int node, double capacity)
{
    const flow::EdgeId edge = computeEdge(node);
    HELIX_ASSERT(edge != flow::kInvalidEdge);
    net.setEdgeCapacity(edge, capacity);
}

flow::EdgeId
PlacementGraph::computeEdge(int node) const
{
    HELIX_ASSERT(node >= 0 && node < numNodes());
    return nodeRank[node] < 0 ? flow::kInvalidEdge : 2 * nodeRank[node];
}

double
PlacementGraph::nodeFlow(int node) const
{
    const flow::EdgeId edge = computeEdge(node);
    if (edge == flow::kInvalidEdge)
        return 0.0;
    HELIX_ASSERT(cachedFlow.has_value());
    return net.flowOn(edge);
}

bool
PlacementGraph::hasConnection(int from, int to) const
{
    return connectionEdge(from, to) != flow::kInvalidEdge;
}

double
PlacementGraph::connectionFlow(int from, int to) const
{
    HELIX_ASSERT(cachedFlow.has_value());
    flow::EdgeId id = connectionEdge(from, to);
    if (id == flow::kInvalidEdge)
        return 0.0;
    return net.flowOn(id);
}

std::vector<PlacementGraph::ConnectionInfo>
PlacementGraph::connections() const
{
    std::vector<ConnectionInfo> result;
    result.reserve(numConnections());
    for (int from = cluster::kCoordinator; from < numNodes(); ++from) {
        forEachConnection(from, [&](int to, double capacity,
                                    double carried) {
            result.push_back({from, to, capacity, carried});
        });
    }
    return result;
}

flow::NodeId
PlacementGraph::inVertex(int node) const
{
    HELIX_ASSERT(node >= 0 && node < numNodes());
    return nodeRank[node] < 0 ? flow::kInvalidNode : 2 + 2 * nodeRank[node];
}

flow::NodeId
PlacementGraph::outVertex(int node) const
{
    HELIX_ASSERT(node >= 0 && node < numNodes());
    return nodeRank[node] < 0 ? flow::kInvalidNode : 3 + 2 * nodeRank[node];
}

bool
PlacementGraph::isInVertex(flow::NodeId vertex) const
{
    return vertex >= 2 && static_cast<size_t>(vertex) < net.numNodes() &&
           vertex % 2 == 0;
}

double
estimateServingThroughput(const cluster::ClusterSpec &cluster,
                          const cluster::Profiler &profiler,
                          const ModelPlacement &placement,
                          PlacementGraph &graph)
{
    double flow_value = graph.maxThroughput();
    if (flow_value <= flow::kFlowEps)
        return 0.0;

    const cluster::CostModelParams &cost = profiler.params();
    const model::TransformerSpec &spec = profiler.modelSpec();

    // Flow-weighted average pipeline round-trip: per stage one
    // iteration of service plus ~half an iteration of queueing, plus
    // link latency and a one-token activation transmission per hop.
    auto paths = flow::decomposeFlow(graph.graph(), graph.source(),
                                     graph.sink());
    double weighted_rt = 0.0;
    double total_flow = 0.0;
    for (const flow::FlowPath &path : paths) {
        double rt = 0.0;
        int prev_endpoint = cluster::kCoordinator;
        for (size_t i = 1; i < path.nodes.size(); ++i) {
            flow::NodeId vertex = path.nodes[i];
            int endpoint = graph.clusterEndpoint(vertex);
            if (graph.isInVertex(vertex)) {
                // Network hop into this node.
                const cluster::LinkSpec &link =
                    cluster.link(prev_endpoint, endpoint);
                rt += link.latencyS +
                      profiler.activationBytes() /
                          link.bytesPerSecond();
            } else if (endpoint != cluster::kCoordinator) {
                // Service at this node: 1.5 iterations (service +
                // expected residual-iteration queueing).
                int count = placement[endpoint].count;
                int batch = std::max(
                    1, std::min(cost.referenceDecodeBatch,
                                profiler.maxDecodeBatch(
                                    cluster.node(endpoint), count)));
                rt += 1.5 * profiler.decodeIterationSeconds(
                                cluster.node(endpoint), count, batch,
                                cost.planningContextLen);
                prev_endpoint = endpoint;
            } else {
                // Sink: final token hop back to the coordinator.
                const cluster::LinkSpec &link =
                    cluster.link(prev_endpoint, cluster::kCoordinator);
                rt += link.latencyS;
            }
        }
        weighted_rt += path.amount * rt;
        total_flow += path.amount;
    }
    if (total_flow <= flow::kFlowEps)
        return 0.0;
    double avg_rt = weighted_rt / total_flow;

    // Little's-law ceiling: concurrently resident requests are
    // bounded by aggregate KV capacity.
    double token_layers = 0.0;
    for (int i = 0; i < cluster.numNodes(); ++i) {
        if (placement[i].count > 0) {
            token_layers += static_cast<double>(profiler.kvCapacityBytes(
                                cluster.node(i), placement[i].count)) /
                            spec.kvBytesPerTokenPerLayer();
        }
    }
    double inflight = token_layers /
                      (cost.planningContextLen * spec.numLayers);
    double little_bound = avg_rt > 0.0 ? inflight / avg_rt
                                       : flow_value;
    return std::min(flow_value, little_bound);
}

} // namespace placement
} // namespace helix
