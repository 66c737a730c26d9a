#include "scheduler/scheduler.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace helix {
namespace scheduler {

const Topology &
RequestScheduler::adoptTopology(const Topology &topology)
{
    // Construct the copy before assigning: the unique_ptr assignment
    // releases the old owned topology only after the new one exists,
    // so an aliasing @p topology is copied safely.
    ownedTopo = std::make_unique<Topology>(topology);
    return *ownedTopo;
}

bool
pipelineValid(const Pipeline &pipeline, int num_layers)
{
    if (pipeline.empty())
        return false;
    int at = 0;
    for (const PipelineStage &stage : pipeline) {
        if (stage.startLayer != at || stage.numLayers() <= 0)
            return false;
        at = stage.endLayer;
    }
    return at == num_layers;
}

Topology::Topology(const cluster::ClusterSpec &cluster,
                   const cluster::Profiler &profiler,
                   const placement::ModelPlacement &placement,
                   placement::PlacementGraph &graph)
{
    const int n = cluster.numNodes();
    layers = profiler.modelSpec().numLayers;
    kvPerTokenLayer = static_cast<double>(
        profiler.modelSpec().kvBytesPerTokenPerLayer());
    flowValue = graph.maxThroughput();

    placements.resize(n);
    kvCapacity.resize(n);
    for (int i = 0; i < n; ++i) {
        placements[i] = placement[i];
        kvCapacity[i] = placement[i].count > 0
                            ? static_cast<double>(profiler.kvCapacityBytes(
                                  cluster.node(i), placement[i].count))
                            : 0.0;
    }

    HELIX_ASSERT(graph.numNodes() == n);
    arcs.reserve(graph.numConnections());
    rowStart.reserve(static_cast<size_t>(n) + 2);
    rowStart.push_back(0);
    for (int from = cluster::kCoordinator; from < n; ++from) {
        // A connection to the coordinator can only be the sink link.
        graph.forEachConnection(from, [&](int to, double capacity,
                                          double carried) {
            arcs.push_back({to == cluster::kCoordinator ? kSink : to,
                            carried, capacity});
        });
        rowStart.push_back(arcs.size());
    }
}

Span<Topology::OutEdge>
Topology::outEdges(int vertex) const
{
    HELIX_ASSERT(vertex >= cluster::kCoordinator &&
                 vertex < numNodes());
    const OutEdge *base = arcs.data();
    return {base + rowStart[vertex + 1], base + rowStart[vertex + 2]};
}

const placement::NodePlacement &
Topology::nodePlacement(int node) const
{
    HELIX_ASSERT(node >= 0 && node < numNodes());
    return placements[node];
}

double
Topology::kvCapacityBytes(int node) const
{
    HELIX_ASSERT(node >= 0 && node < numNodes());
    return kvCapacity[node];
}

double
Topology::kvBytesPerTokenPerLayer() const
{
    return kvPerTokenLayer;
}

KvEstimator::KvEstimator(const Topology &topology, double avg_output_len,
                         double high_water_mark)
    : topo(&topology), avgOutputLen(avg_output_len),
      highWaterMark(high_water_mark), usage(topology.numNodes(), 0.0)
{
}

void
KvEstimator::rebind(const Topology &topology)
{
    HELIX_ASSERT(topology.numNodes() ==
                 static_cast<int>(usage.size()));
    topo = &topology;
}

double
KvEstimator::requestBytes(const trace::Request &request,
                          const PipelineStage &stage) const
{
    // The output length is unknown before the request finishes; the
    // scheduler estimates with the average output length (Sec. 5.2).
    // Active requests sit at uniformly distributed points of their
    // decode phase, so the expected current KV footprint is the
    // prompt plus half the average output.
    double tokens = static_cast<double>(request.promptLen) +
                    0.5 * avgOutputLen;
    return tokens * topo->kvBytesPerTokenPerLayer() *
           stage.numLayers();
}

bool
KvEstimator::admits(int node, double bytes) const
{
    return usage[node] + bytes <=
           highWaterMark * topo->kvCapacityBytes(node);
}

void
KvEstimator::reserve(int node, double bytes)
{
    usage[node] += bytes;
}

void
KvEstimator::release(int node, double bytes)
{
    usage[node] -= bytes;
    if (usage[node] < 0.0)
        usage[node] = 0.0;
}

HelixScheduler::HelixScheduler(const Topology &topology,
                               SchedulerConfig config)
    : topo(&topology), cfg(config),
      kv(topology, config.avgOutputLen, config.kvHighWaterMark)
{
    rebuildSelectors();
}

void
HelixScheduler::rebuildSelectors()
{
    // One IWRR selector per vertex; candidates are the outgoing valid
    // connections carrying positive flow, weighted by that flow.
    iwrr.assign(topo->numNodes() + 1, IwrrScheduler());
    for (int vertex = cluster::kCoordinator; vertex < topo->numNodes();
         ++vertex) {
        const auto &out = topo->outEdges(vertex);
        std::vector<int> ids;
        std::vector<double> weights;
        for (size_t e = 0; e < out.size(); ++e) {
            if (out[e].flow > flow::kFlowEps) {
                ids.push_back(static_cast<int>(e));
                weights.push_back(out[e].flow);
            }
        }
        iwrr[vertex + 1] = IwrrScheduler(std::move(ids),
                                         std::move(weights));
    }
}

void
HelixScheduler::onTopologyChange(const Topology &topology)
{
    HELIX_ASSERT(topology.numNodes() == topo->numNodes());
    topo = &adoptTopology(topology);
    kv.rebind(*topo);
    rebuildSelectors();
}

std::optional<Pipeline>
HelixScheduler::schedule(const trace::Request &request,
                         const SchedulerContext &ctx)
{
    // A single walk can dead-end mid-path while another first hop
    // would succeed; retry a few times before reporting congestion.
    for (int attempt = 0; attempt < 4; ++attempt) {
        auto pipeline = tryWalk(request, ctx);
        if (pipeline)
            return pipeline;
    }
    return std::nullopt;
}

std::optional<Pipeline>
HelixScheduler::tryWalk(const trace::Request &request,
                        const SchedulerContext &ctx)
{
    Pipeline pipeline;
    int vertex = cluster::kCoordinator;
    int at = 0;
    while (at < topo->numLayers()) {
        const auto &out = topo->outEdges(vertex);
        IwrrScheduler &selector = iwrr[vertex + 1];
        // Mask candidates that are the sink or whose KV admission
        // fails for this request's stage there.
        masked.assign(selector.size(), false);
        bool any = false;
        for (size_t c = 0; c < selector.size(); ++c) {
            const auto &edge = out[selector.candidates()[c]];
            if (edge.to == Topology::kSink ||
                !ctx.nodeAlive(edge.to)) {
                masked[c] = true;
                continue;
            }
            PipelineStage stage{edge.to, at,
                                topo->nodePlacement(edge.to).end()};
            if (!kv.admits(edge.to, kv.requestBytes(request, stage))) {
                masked[c] = true;
                continue;
            }
            any = true;
        }
        if (!any)
            return std::nullopt;
        int picked = selector.pick(&masked);
        if (picked < 0)
            return std::nullopt;
        const auto &edge = out[picked];
        PipelineStage stage{edge.to, at,
                            topo->nodePlacement(edge.to).end()};
        pipeline.push_back(stage);
        at = stage.endLayer;
        vertex = edge.to;
    }
    return pipeline;
}

void
HelixScheduler::onRequestAdmitted(const trace::Request &request,
                                  const Pipeline &pipeline)
{
    for (const PipelineStage &stage : pipeline)
        kv.reserve(stage.node, kv.requestBytes(request, stage));
}

void
HelixScheduler::onRequestFinished(const trace::Request &request,
                                  const Pipeline &pipeline)
{
    for (const PipelineStage &stage : pipeline)
        kv.release(stage.node, kv.requestBytes(request, stage));
}

WalkScheduler::WalkScheduler(const Topology &topology, WalkPolicy pol,
                             SchedulerConfig config)
    : topo(&topology), policy(pol), cfg(config), rng(config.seed)
{
}

void
WalkScheduler::onTopologyChange(const Topology &topology)
{
    HELIX_ASSERT(topology.numNodes() == topo->numNodes());
    topo = &adoptTopology(topology);
}

std::string
WalkScheduler::name() const
{
    switch (policy) {
      case WalkPolicy::ThroughputProportional: return "swarm";
      case WalkPolicy::Random:                 return "random";
      case WalkPolicy::ShortestQueue:          return "shortest-queue";
    }
    return "?";
}

std::optional<Pipeline>
WalkScheduler::schedule(const trace::Request &request,
                        const SchedulerContext &ctx)
{
    (void)request;
    Pipeline pipeline;
    int vertex = cluster::kCoordinator;
    int at = 0;
    while (at < topo->numLayers()) {
        const auto &out = topo->outEdges(vertex);
        // Collect live compute-node candidates (skip the sink edge).
        std::vector<int> candidates;
        for (size_t e = 0; e < out.size(); ++e) {
            if (out[e].to != Topology::kSink &&
                ctx.nodeAlive(out[e].to))
                candidates.push_back(static_cast<int>(e));
        }
        if (candidates.empty())
            return std::nullopt;
        int chosen = -1;
        switch (policy) {
          case WalkPolicy::ThroughputProportional: {
            // Swarm routes to replicas proportionally to their
            // recently observed throughput.
            std::vector<double> weights;
            weights.reserve(candidates.size());
            for (int e : candidates) {
                weights.push_back(
                    ctx.recentThroughput(out[e].to) + 1.0);
            }
            size_t index = rng.nextWeighted(weights);
            chosen = candidates[index];
            break;
          }
          case WalkPolicy::Random: {
            chosen = candidates[rng.nextBounded(candidates.size())];
            break;
          }
          case WalkPolicy::ShortestQueue: {
            int best_len = std::numeric_limits<int>::max();
            for (int e : candidates) {
                int len = ctx.queueLength(out[e].to);
                if (len < best_len) {
                    best_len = len;
                    chosen = e;
                }
            }
            break;
          }
        }
        HELIX_ASSERT(chosen >= 0);
        const auto &edge = out[chosen];
        PipelineStage stage{edge.to, at,
                            topo->nodePlacement(edge.to).end()};
        pipeline.push_back(stage);
        at = stage.endLayer;
        vertex = edge.to;
    }
    return pipeline;
}

FixedPipelineScheduler::FixedPipelineScheduler(
    const Topology &topology, std::vector<Pipeline> pipelines,
    SchedulerConfig config)
    : topo(&topology), fixed(std::move(pipelines)), cfg(config),
      kv(topology, config.avgOutputLen, config.kvHighWaterMark)
{
}

void
FixedPipelineScheduler::onTopologyChange(const Topology &topology)
{
    HELIX_ASSERT(topology.numNodes() == topo->numNodes());
    topo = &adoptTopology(topology);
    kv.rebind(*topo);
}

std::optional<Pipeline>
FixedPipelineScheduler::schedule(const trace::Request &request,
                                 const SchedulerContext &ctx)
{
    if (fixed.empty())
        return std::nullopt;
    // Round-robin, skipping pipelines that fail KV admission or that
    // route through a dead node.
    for (size_t attempt = 0; attempt < fixed.size(); ++attempt) {
        const Pipeline &candidate =
            fixed[(nextIndex + attempt) % fixed.size()];
        bool ok = true;
        for (const PipelineStage &stage : candidate) {
            if (!ctx.nodeAlive(stage.node) ||
                !kv.admits(stage.node,
                           kv.requestBytes(request, stage))) {
                ok = false;
                break;
            }
        }
        if (ok) {
            nextIndex = (nextIndex + attempt + 1) % fixed.size();
            return candidate;
        }
    }
    return std::nullopt;
}

void
FixedPipelineScheduler::onRequestAdmitted(const trace::Request &request,
                                          const Pipeline &pipeline)
{
    for (const PipelineStage &stage : pipeline)
        kv.reserve(stage.node, kv.requestBytes(request, stage));
}

void
FixedPipelineScheduler::onRequestFinished(const trace::Request &request,
                                          const Pipeline &pipeline)
{
    for (const PipelineStage &stage : pipeline)
        kv.release(stage.node, kv.requestBytes(request, stage));
}

std::vector<Pipeline>
derivePipelines(const placement::ModelPlacement &placement,
                int num_layers)
{
    const int n = static_cast<int>(placement.size());
    std::vector<bool> used(n, false);
    std::vector<Pipeline> pipelines;
    for (;;) {
        Pipeline chain;
        std::vector<int> taken;
        int at = 0;
        while (at < num_layers) {
            int next = -1;
            for (int i = 0; i < n; ++i) {
                if (!used[i] && placement[i].count > 0 &&
                    placement[i].start == at) {
                    next = i;
                    break;
                }
            }
            if (next < 0)
                break;
            chain.push_back({next, at, placement[next].end()});
            used[next] = true;
            taken.push_back(next);
            at = placement[next].end();
        }
        if (at == num_layers && !chain.empty()) {
            pipelines.push_back(std::move(chain));
        } else {
            // Incomplete chain: release the nodes and stop searching.
            for (int i : taken)
                used[i] = false;
            break;
        }
    }
    return pipelines;
}

} // namespace scheduler
} // namespace helix
