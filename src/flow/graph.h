/**
 * @file
 * Directed weighted graph with residual-edge bookkeeping, shared by the
 * max-flow solvers and the placement graph builder.
 *
 * Capacities are doubles because Helix edge capacities are tokens per
 * second derived from profiling (Sec. 4.3 of the paper) and are not
 * naturally integral.
 */

#ifndef HELIX_FLOW_GRAPH_H
#define HELIX_FLOW_GRAPH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/annotations.h"
#include "util/logging.h"
#include "util/span.h"

namespace helix {
namespace flow {

/** Index of a vertex in a FlowGraph. */
using NodeId = int32_t;

/** Index of a directed edge in a FlowGraph. */
using EdgeId = int32_t;

constexpr NodeId kInvalidNode = -1;
constexpr EdgeId kInvalidEdge = -1;

/** Tolerance used when comparing flow values. */
constexpr double kFlowEps = 1e-9;

/**
 * One edge of the network as seen from its id. Forward edges have
 * even ids; their residual twins have odd ids (id ^ 1) and run the
 * other way with zero original capacity. FlowGraph::edge() returns
 * this by value; the solvers use the per-field accessors.
 */
struct Edge
{
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    /** Remaining residual capacity. */
    double capacity = 0.0;
    /** Original capacity at creation time (0 for residual twins). */
    double originalCapacity = 0.0;
};

/** The arcs (edge ids) leaving one vertex, in ascending id order. */
using ArcSpan = Span<EdgeId>;

/**
 * Residual flow network. Vertices are dense integer ids assigned by
 * addNode(); each addEdge() creates a forward edge and a zero-capacity
 * residual twin.
 *
 * Storage is flat. A forward edge and its twin share one 32-byte
 * record (both endpoints, both residual capacities, the original
 * capacity), so a solver reads an arc and its twin from one place,
 * and adjacency is one CSR array: the arcs of vertex v are
 * arcs[arcStart[v], arcStart[v + 1]), in ascending edge id order,
 * which is the order addEdge() created them in. finish() builds that
 * array by counting sort; the solvers call it on entry, and
 * outEdges() requires it to be current. A placement-graph connection
 * thus costs 40 bytes: its record plus two 4-byte arcs.
 */
class FlowGraph
{
  public:
    /**
     * Create an isolated vertex and return its id. The optional
     * label is for tests and diagnostics; unlabeled vertices (the
     * placement graph's) store nothing.
     */
    NodeId addNode(std::string label = "");

    /** Number of vertices. */
    [[nodiscard]] size_t numNodes() const { return degree.size(); }

    /** Number of user-added (forward) edges. */
    [[nodiscard]] size_t numEdges() const { return pairs.size(); }

    /** Reserve storage for @p num_edges forward edges in total. */
    void reserveEdges(size_t num_edges) { pairs.reserve(num_edges); }

    /**
     * Add a directed edge with the given capacity. A residual twin with
     * zero capacity is added automatically.
     * @return the id of the forward edge (always even).
     */
    EdgeId addEdge(NodeId from, NodeId to, double capacity);

    /**
     * Build the CSR adjacency for the edges added so far. Cheap when
     * nothing was added since the last call. Call it after the last
     * addEdge() and before sharing the graph between threads.
     */
    void finish();

    /** Edge @p id (forward or residual), by value. */
    [[nodiscard]] Edge edge(EdgeId id) const
    {
        return {tail(id), head(id), residual(id),
                (id & 1) ? 0.0 : originalCapacity(id)};
    }

    /** Vertex edge @p id leaves. */
    [[nodiscard]] NodeId tail(EdgeId id) const
    {
        return pairs[id >> 1].ends[id & 1];
    }

    /** Vertex edge @p id enters. */
    [[nodiscard]] NodeId head(EdgeId id) const
    {
        return pairs[id >> 1].ends[(id & 1) ^ 1];
    }

    /** Remaining residual capacity of edge @p id. */
    [[nodiscard]] double residual(EdgeId id) const
    {
        return pairs[id >> 1].residual[id & 1];
    }
    double &residual(EdgeId id) { return pairs[id >> 1].residual[id & 1]; }

    /** Original capacity of a forward edge. */
    [[nodiscard]] double originalCapacity(EdgeId forward_edge) const
    {
        return pairs[forward_edge >> 1].original;
    }

    /**
     * Ids of all edges (forward and residual) leaving @p node, in
     * ascending id order. Requires finish() after the last addEdge();
     * valid until the graph next gains a vertex or an edge.
     */
    [[nodiscard]] ArcSpan outEdges(NodeId node) const;

    /** Label attached to @p node by addNode() (empty if none). */
    [[nodiscard]] const std::string &nodeLabel(NodeId node) const;

    /**
     * Flow currently on a forward edge, i.e. how much of its original
     * capacity has been consumed: original - residual.
     */
    [[nodiscard]] double flowOn(EdgeId forward_edge) const
    {
        HELIX_ASSERT(forward_edge >= 0 &&
                     static_cast<size_t>(forward_edge) < 2 * numEdges());
        HELIX_ASSERT((forward_edge & 1) == 0);
        const size_t k = static_cast<size_t>(forward_edge) >> 1;
        return pairs[k].original - pairs[k].residual[0];
    }

    /** Restore every edge's residual capacity to its original value. */
    void resetFlow();

    /**
     * Change a forward edge's capacity while preserving the flow
     * currently recorded on it. The residual capacity becomes
     * new_capacity - current_flow and may go negative when the edge is
     * now over-committed; PreflowPush::repair() restores feasibility
     * (and maximality) incrementally from that state.
     *
     * Live-serving call sites edit TopologyManager's persistent
     * warm-start network, which is coordinator-confined state.
     */
    HELIX_COORDINATOR_ONLY
    void setEdgeCapacity(EdgeId forward_edge, double capacity);

    /** Total capacity leaving @p node over forward edges. */
    [[nodiscard]] double outCapacity(NodeId node) const;

    /**
     * Net flow leaving @p node: flow on forward out-edges minus flow
     * on forward in-edges. At the source this is the flow value; both
     * solve() and repair() report it through this one accumulation so
     * the two paths agree bit-for-bit.
     */
    [[nodiscard]] double netOutflow(NodeId node) const;

    /**
     * Largest forward-edge capacity ever configured (via addEdge or
     * setEdgeCapacity) — the solvers' tolerance scale. A high-water
     * mark, not the current maximum, so it is O(1) to maintain; a
     * marginally loose tolerance after a capacity shrink only affects
     * which sub-noise flows get snapped to zero.
     */
    [[nodiscard]] double capacityScale() const { return capScale; }

    /**
     * Forward edges edited by setEdgeCapacity since the last solver
     * pass — PreflowPush::repair's phase-1 worklist, letting it visit
     * only the edited arcs instead of scanning every edge. Consumed
     * (cleared) by solve()/repair(); may hold duplicates.
     */
    std::vector<EdgeId> &dirtyEdges() { return dirty; }

  private:
    /** Forward edge 2k and its residual twin 2k + 1. */
    struct EdgePair
    {
        /** ends[0] is the forward edge's tail, ends[1] its head. */
        NodeId ends[2];
        /** Residual capacity of the forward edge and of the twin. */
        double residual[2];
        double original;
    };

    std::vector<EdgePair> pairs;
    /** Arcs per vertex, kept current by addEdge(). */
    std::vector<EdgeId> degree;
    /** CSR adjacency over the edges, built by finish(). */
    std::vector<EdgeId> arcStart{0};
    std::vector<EdgeId> arcs;
    bool adjacencyStale = false;
    /** Labels of vertices [0, labels.size()); only as long as the
     *  last labeled vertex. */
    std::vector<std::string> labels;
    std::vector<EdgeId> dirty;
    double capScale = 0.0;
};

} // namespace flow
} // namespace helix

#endif // HELIX_FLOW_GRAPH_H
