#include "scheduler/topology_manager.h"

#include "util/logging.h"

namespace helix {
namespace scheduler {

TopologyManager::TopologyManager(
    const cluster::ClusterSpec &cluster,
    const cluster::Profiler &profiler,
    const placement::ModelPlacement &placement)
    : clusterRef(cluster), profilerRef(profiler),
      placementRef(placement), alive(placement.size(), true),
      capOverride(placement.size(), -1.0),
      liveGraph(std::make_unique<placement::PlacementGraph>(
          cluster, profiler, placement)),
      planned(placement.size(), 0.0)
{
    // The initial build is a cold solve; every later event is a
    // compute-edge capacity update on the same network.
    (void)liveGraph->maxThroughput(); // value read via publish()
    publish();
}

bool
TopologyManager::nodeAlive(int node) const
{
    HELIX_ASSERT(node >= 0 &&
                 node < static_cast<int>(alive.size()));
    return alive[node];
}

double
TopologyManager::effectiveCapacity(int node) const
{
    if (!alive[node] || placementRef[node].count == 0)
        return 0.0;
    if (capOverride[node] >= 0.0)
        return capOverride[node];
    return profilerRef.decodeThroughput(clusterRef.node(node),
                                        placementRef[node].count);
}

double
TopologyManager::nodeCapacity(int node) const
{
    HELIX_ASSERT(node >= 0 &&
                 node < static_cast<int>(alive.size()));
    return effectiveCapacity(node);
}

double
TopologyManager::plannedNodeFlow(int node) const
{
    HELIX_ASSERT(node >= 0 &&
                 node < static_cast<int>(planned.size()));
    return planned[node];
}

double
TopologyManager::setNodeAlive(int node, bool is_alive)
{
    HELIX_ASSERT(node >= 0 &&
                 node < static_cast<int>(alive.size()));
    if (alive[node] == is_alive)
        return currentFlow();
    alive[node] = is_alive;
    // A recovered node serves at its profiled speed again; drift will
    // re-shrink it if its observed throughput still lags.
    if (is_alive)
        capOverride[node] = -1.0;
    resolve();
    return currentFlow();
}

double
TopologyManager::setNodeCapacity(int node, double tokens_per_s)
{
    HELIX_ASSERT(node >= 0 &&
                 node < static_cast<int>(alive.size()));
    if (!alive[node] || placementRef[node].count == 0)
        return currentFlow();
    double next = tokens_per_s < 0.0 ? -1.0 : tokens_per_s;
    // helix-lint: allow(float-eq) idempotence short-circuit: only a bit-identical override skips the re-solve
    if (capOverride[node] == next)
        return currentFlow();
    capOverride[node] = next;
    resolve();
    return currentFlow();
}

void
TopologyManager::resolve()
{
    // The persistent graph keeps every node; liveness and drift are
    // capacity updates on the node's compute edge (zero capacity
    // severs exactly the flow through the node), then a warm-start
    // repair restores a maximum flow.
    for (size_t i = 0; i < alive.size(); ++i) {
        int node = static_cast<int>(i);
        flow::EdgeId e = liveGraph->computeEdge(node);
        if (e == flow::kInvalidEdge)
            continue;
        double want = effectiveCapacity(node);
        // helix-lint: allow(float-eq) exact no-op filter: capacities are copied values, never computed, so equal means unchanged
        if (liveGraph->graph().originalCapacity(e) != want)
            liveGraph->setComputeCapacity(node, want);
    }
    (void)liveGraph->repairFlow(); // value read via publish()
    ++repairs;
    publish();
}

void
TopologyManager::publish()
{
    // The published Topology carries the placement masked to live
    // nodes, so schedulers see dead nodes as layer-less. Topology
    // copies the placements and edge flows it needs; consumers of
    // current() copy in turn (RequestScheduler::onTopologyChange), so
    // the replaced topology can be released immediately.
    placement::ModelPlacement masked = placementRef;
    for (size_t i = 0; i < masked.size(); ++i) {
        if (!alive[i])
            masked[i] = placement::NodePlacement{0, 0};
    }
    topo = std::make_unique<Topology>(clusterRef, profilerRef, masked,
                                      *liveGraph);
    for (size_t i = 0; i < planned.size(); ++i)
        planned[i] = liveGraph->nodeFlow(static_cast<int>(i));
}

} // namespace scheduler
} // namespace helix
