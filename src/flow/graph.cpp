#include "flow/graph.h"

#include "util/logging.h"

namespace helix {
namespace flow {

NodeId
FlowGraph::addNode(std::string label)
{
    const auto id = static_cast<NodeId>(degree.size());
    degree.push_back(0);
    adjacencyStale = true;
    if (!label.empty()) {
        labels.resize(degree.size());
        labels[id] = std::move(label);
    }
    return id;
}

EdgeId
FlowGraph::addEdge(NodeId from, NodeId to, double capacity)
{
    HELIX_ASSERT(from >= 0 && static_cast<size_t>(from) < numNodes());
    HELIX_ASSERT(to >= 0 && static_cast<size_t>(to) < numNodes());
    HELIX_ASSERT(capacity >= 0.0);
    const auto forward = static_cast<EdgeId>(2 * pairs.size());
    pairs.push_back({{from, to}, {capacity, 0.0}, capacity});
    ++degree[from];
    ++degree[to];
    adjacencyStale = true;
    if (capacity > capScale)
        capScale = capacity;
    return forward;
}

void
FlowGraph::finish()
{
    if (!adjacencyStale)
        return;
    adjacencyStale = false;
    // Counting sort of the edge ids by tail vertex. Filling in
    // ascending id order gives every vertex its arcs in creation
    // order, the order the solvers' arc scans depend on.
    const size_t n = numNodes();
    arcStart.resize(n + 1);
    arcStart[0] = 0;
    for (size_t v = 0; v < n; ++v)
        arcStart[v + 1] = arcStart[v] + degree[v];
    arcs.resize(2 * numEdges());
    // arcStart[v] serves as v's fill cursor, ending at v's end =
    // (v + 1)'s start; shifting right by one restores the starts.
    for (size_t k = 0; k < numEdges(); ++k) {
        const auto id = static_cast<EdgeId>(2 * k);
        arcs[arcStart[pairs[k].ends[0]]++] = id;
        arcs[arcStart[pairs[k].ends[1]]++] = id + 1;
    }
    for (size_t v = n; v > 0; --v)
        arcStart[v] = arcStart[v - 1];
    arcStart[0] = 0;
}

ArcSpan
FlowGraph::outEdges(NodeId node) const
{
    HELIX_ASSERT(node >= 0 && static_cast<size_t>(node) < numNodes());
    HELIX_ASSERT(!adjacencyStale);
    const EdgeId *base = arcs.data();
    return {base + arcStart[node], base + arcStart[node + 1]};
}

const std::string &
FlowGraph::nodeLabel(NodeId node) const
{
    HELIX_ASSERT(node >= 0 && static_cast<size_t>(node) < numNodes());
    static const std::string kUnlabeled;
    return static_cast<size_t>(node) < labels.size() ? labels[node]
                                                      : kUnlabeled;
}

void
FlowGraph::setEdgeCapacity(EdgeId forward_edge, double capacity)
{
    HELIX_ASSERT(forward_edge >= 0 &&
                 static_cast<size_t>(forward_edge) < 2 * numEdges());
    HELIX_ASSERT((forward_edge & 1) == 0);
    HELIX_ASSERT(capacity >= 0.0);
    const size_t k = static_cast<size_t>(forward_edge) >> 1;
    EdgePair &p = pairs[k];
    const double flow = p.original - p.residual[0];
    p.original = capacity;
    p.residual[0] = capacity - flow;
    if (capacity > capScale)
        capScale = capacity;
    dirty.push_back(forward_edge);
}

void
FlowGraph::resetFlow()
{
    for (EdgePair &p : pairs) {
        p.residual[0] = p.original;
        p.residual[1] = 0.0;
    }
    dirty.clear();
}

double
FlowGraph::outCapacity(NodeId node) const
{
    double total = 0.0;
    for (EdgeId id : outEdges(node)) {
        if ((id & 1) == 0)
            total += originalCapacity(id);
    }
    return total;
}

double
FlowGraph::netOutflow(NodeId node) const
{
    double value = 0.0;
    for (EdgeId id : outEdges(node)) {
        if ((id & 1) == 0)
            value += flowOn(id);
        else
            value -= flowOn(id ^ 1);
    }
    return value;
}

} // namespace flow
} // namespace helix
