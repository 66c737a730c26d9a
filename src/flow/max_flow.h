/**
 * @file
 * Max-flow solvers.
 *
 * The primary solver is preflow-push (a.k.a. push-relabel) with the
 * highest-label selection rule, the gap heuristic, and periodic global
 * relabeling — the algorithm the Helix paper cites for evaluating the
 * serving throughput of a model placement (Sec. 4.3). A Dinic's
 * algorithm implementation is provided as an independent verification
 * oracle for tests.
 */

#ifndef HELIX_FLOW_MAX_FLOW_H
#define HELIX_FLOW_MAX_FLOW_H

#include <vector>

#include "core/annotations.h"
#include "flow/graph.h"

namespace helix {
namespace flow {

/**
 * Preflow-push max-flow. Mutates the graph's residual capacities; call
 * FlowGraph::resetFlow() to solve again from scratch. solve() and
 * repair() first finish() the graph, so edges may be added up to the
 * call.
 */
class PreflowPush
{
  public:
    /**
     * @param graph residual network to operate on (held by reference;
     *              must outlive the solver)
     */
    explicit PreflowPush(FlowGraph &graph);

    /**
     * Compute the maximum flow from @p source to @p sink.
     * @return the max-flow value in capacity units (tokens/second for
     *         Helix placement graphs).
     */
    [[nodiscard]] double solve(NodeId source, NodeId sink);

    /**
     * Warm-start incremental repair after capacity updates
     * (FlowGraph::setEdgeCapacity). Starting from the flow currently
     * recorded on the graph — typically the previous solve()/repair()
     * result with a handful of edited arcs — restores feasibility by
     * cancelling surplus flow on over-committed arcs along the walks
     * that carry it (back to the source and forward to the sink), then
     * re-augments on the residual graph until the flow is maximum
     * again. Only flow through the affected arcs is touched, so a
     * single-node capacity event costs a few residual walks plus the
     * augmenting delta instead of a cold solve from zero labels.
     *
     * The resulting flow value always equals a cold solve()'s (both
     * are maximum flows); the per-arc flow assignment may differ
     * whenever the maximum flow is not unique.
     *
     * @return the max-flow value for the current capacities.
     *
     * Live-serving call sites run against TopologyManager's persistent
     * warm-start network, which is coordinator-confined state.
     */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double repair(NodeId source, NodeId sink);

  private:
    /** Push as much excess as possible across @p edge_id. */
    void push(EdgeId edge_id);

    /** Raise a node's label to one more than its lowest neighbor. */
    void relabel(NodeId node);

    /** Recompute exact distance labels with reverse BFS from sink. */
    void globalRelabel(NodeId source, NodeId sink);

    /** Discharge all excess at @p node. */
    void discharge(NodeId node, NodeId source, NodeId sink);

    /**
     * Phase 2 of preflow-push: return stranded excess to the source so
     * the recorded edge flows form a valid (conserved) max flow.
     */
    void convertToFlow(NodeId source, NodeId sink);

    /** Move a node into its label's active bucket. */
    void activate(NodeId node);

    /** Insert @p node into the membership list of label @p lbl. */
    void labelInsert(NodeId node, int lbl);

    /** Unlink @p node from the membership list of label @p lbl. */
    void labelErase(NodeId node, int lbl);

    /**
     * Cancel @p amount units of recorded flow on walks between
     * @p start and @p terminal, following the thickest flow-carrying
     * arc at every step and cancelling any flow cycles encountered.
     * With @p toward_source the walk runs backwards along incoming
     * flow to the source; otherwise forwards along outgoing flow to
     * the sink.
     */
    void cancelFlow(NodeId start, NodeId terminal, bool toward_source,
                    double amount, double tol);

    /** Build residual BFS levels from @p source (repair phase 2).
     *  @return whether the sink is still reachable. */
    bool augmentLevels(NodeId source, NodeId sink);

    /** Push one blocking-flow augmentation along level-increasing
     *  residual arcs (repair phase 2). */
    double augmentBlocking(NodeId node, NodeId sink, double limit);

    FlowGraph &graph;
    std::vector<double> excess;
    std::vector<int> label;
    std::vector<size_t> currentArc;
    /**
     * Active-node buckets indexed by label (highest-label rule). Only
     * labels below n are ever active: a node relabeled to n or above
     * can no longer reach the sink, so its excess is parked until the
     * phase-2 conversion returns it to the source.
     */
    std::vector<std::vector<NodeId>> buckets;
    /**
     * Intrusive doubly-linked membership lists over every non-source
     * node with label < n, indexed by label. They give the gap
     * heuristic exact emptiness checks and let it lift only the nodes
     * above a gap instead of rescanning all n nodes per gap event.
     */
    std::vector<NodeId> labelFirst;
    std::vector<NodeId> labelNext;
    std::vector<NodeId> labelPrev;
    /** Reusable queue for the global-relabel reverse BFS. */
    std::vector<NodeId> bfsQueue;
    /**
     * Forward edges whose flow repair() changed (clamps, cancel
     * walks, re-augmentation) — the only edges its zero-snap pass
     * needs to visit.
     */
    std::vector<EdgeId> touched;
    int highestActive = -1;
    long workSinceRelabel = 0;
};

/**
 * Dinic's max-flow, used to cross-check PreflowPush in tests. Mutates
 * the graph's residual capacities.
 */
class Dinic
{
  public:
    explicit Dinic(FlowGraph &graph);

    /** Compute the maximum flow from @p source to @p sink. */
    [[nodiscard]] double solve(NodeId source, NodeId sink);

  private:
    bool buildLevels(NodeId source, NodeId sink);
    double augment(NodeId node, NodeId sink, double limit);

    FlowGraph &graph;
    std::vector<int> level;
    std::vector<size_t> nextArc;
};

/**
 * Identify the source side of a minimum cut after a max-flow has been
 * computed on @p graph (vertices reachable from @p source in the
 * residual network).
 */
[[nodiscard]] std::vector<bool> minCutSourceSide(const FlowGraph &graph, NodeId source);

/** A single source→sink path carrying @p amount units of flow. */
struct FlowPath
{
    std::vector<NodeId> nodes;
    double amount = 0.0;
};

/**
 * Decompose the flow recorded on @p graph (after solving) into at most
 * |E| simple source→sink paths. The graph is not modified.
 */
[[nodiscard]] std::vector<FlowPath> decomposeFlow(const FlowGraph &graph, NodeId source,
                                    NodeId sink);

} // namespace flow
} // namespace helix

#endif // HELIX_FLOW_MAX_FLOW_H
