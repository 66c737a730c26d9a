/**
 * @file
 * Live topology maintenance under node churn (Sec. 5 semantics).
 *
 * The paper's scheduler routes every request along the *current*
 * max-flow of the cluster. When a node fails (or a failed node
 * rejoins), the flow solution of the original placement graph is
 * stale: surviving nodes must not keep their pre-failure flow
 * proportions, and the reported serving bound must reflect the
 * surviving subgraph. TopologyManager owns that invariant: it tracks
 * per-node liveness and per-node capacity overrides, and on every
 * change re-solves max-flow on the live placement graph, producing a
 * fresh Topology whose edge flows become the schedulers' IWRR weights
 * (RequestScheduler::onTopologyChange swaps them in).
 *
 * The manager keeps one persistent flow network over the full
 * placement. Every liveness or capacity event is a single
 * compute-edge capacity update on it (a dead node's in->out edge
 * drops to zero, which severs exactly the flow through that node),
 * followed by a warm-start PreflowPush::repair() that cancels and
 * re-augments only the affected flow. The repaired flow value always
 * equals a cold solve of the placement graph masked to live nodes;
 * per-edge flows agree whenever the max flow is unique, and otherwise
 * repair keeps the surviving part of the previous routing. The
 * published Topology keeps a dead node's edges, carrying no flow
 * beyond the flow tolerance (flow::kFlowEps). The cold solve and
 * Dinic serve as test oracles only.
 *
 * Beyond liveness, capacity overrides generalize the re-solve trigger
 * to observed-throughput drift (ROADMAP: "Incremental max-flow and
 * drift-triggered re-solve"): when a node's EWMA decode throughput
 * falls below its planned flow, the simulator shrinks the node's
 * compute capacity via setNodeCapacity() so the straggler loses
 * routing weight mid-run.
 */

#ifndef HELIX_SCHEDULER_TOPOLOGY_MANAGER_H
#define HELIX_SCHEDULER_TOPOLOGY_MANAGER_H

#include <memory>
#include <vector>

#include "core/annotations.h"
#include "placement/placement_graph.h"
#include "scheduler/scheduler.h"

namespace helix {
namespace scheduler {

/**
 * Tracks node liveness and keeps a Topology solved on the surviving
 * subgraph of a placement. The cluster, profiler, and placement are
 * held by reference and must outlive the manager.
 *
 * Coordinator-confined: re-solves mutate the published Topology the
 * schedulers route by, so every member runs in the simulator's
 * coordinator phase or a serial barrier step, never on a node-lane
 * shard worker (HELIX_COORDINATOR_ONLY, checked by helix-analyze).
 */
class TopologyManager
{
  public:
    TopologyManager(const cluster::ClusterSpec &cluster,
                    const cluster::Profiler &profiler,
                    const placement::ModelPlacement &placement);

    /** The topology solved for the current liveness set. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] const Topology &current() const { return *topo; }

    HELIX_COORDINATOR_ONLY
    [[nodiscard]] bool nodeAlive(int node) const;

    /**
     * Mark @p node dead or alive and re-solve max-flow on the
     * surviving subgraph. Recovery also restores the node's profiled
     * compute capacity, clearing any drift shrink. No-op (returning
     * the current flow) when the liveness bit is unchanged.
     * @return the max-flow value of the new topology (tokens/s).
     */
    HELIX_COORDINATOR_ONLY
    double setNodeAlive(int node, bool alive);

    /**
     * Override @p node's compute capacity to @p tokens_per_s (e.g.
     * the observed EWMA throughput of a drifting straggler) and
     * re-solve so routing weight shifts away from it. A negative
     * value restores the profiled capacity. No-op on dead nodes and
     * on unchanged values.
     * @return the max-flow value of the new topology (tokens/s).
     */
    HELIX_COORDINATOR_ONLY
    double setNodeCapacity(int node, double tokens_per_s);

    /** Current compute capacity of @p node (tokens/s): the override
     *  when set, otherwise the profiled decode throughput; 0 for
     *  nodes holding no layers. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double nodeCapacity(int node) const;

    /** Flow planned through @p node's compute edge by the current
     *  topology (tokens/s) — the reference the drift trigger compares
     *  observed EWMA throughput against. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double plannedNodeFlow(int node) const;

    /** Max-flow value of the current topology (tokens/s). */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double currentFlow() const { return topo->maxFlow(); }

    /** Number of warm-start incremental repairs performed (one per
     *  effective event; the initial build is a cold solve). */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] int numRepairs() const { return repairs; }

  private:
    /** Update the persistent graph's compute capacities, repair the
     *  flow, and publish. */
    void resolve();

    /** Refresh the published Topology and planned node flows from
     *  the persistent graph. */
    void publish();

    /** Compute capacity currently in force for @p node. */
    double effectiveCapacity(int node) const;

    const cluster::ClusterSpec &clusterRef;
    const cluster::Profiler &profilerRef;
    const placement::ModelPlacement &placementRef;
    std::vector<bool> alive;
    /** Per-node compute-capacity override (tokens/s); < 0 = profiled. */
    std::vector<double> capOverride;
    /** Persistent flow network over the full placement. */
    std::unique_ptr<placement::PlacementGraph> liveGraph;
    std::unique_ptr<Topology> topo;
    /** Planned per-node compute-edge flow of the current topology. */
    std::vector<double> planned;
    int repairs = 0;
};

} // namespace scheduler
} // namespace helix

#endif // HELIX_SCHEDULER_TOPOLOGY_MANAGER_H
