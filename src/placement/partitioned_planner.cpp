#include "placement/partitioned_planner.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>

#include "util/logging.h"

namespace helix {
namespace placement {

namespace {

/** Sum of half-VRAM layer capacity over @p members. */
int
layerCapacity(const Partition &members,
              const cluster::ClusterSpec &cluster,
              const cluster::Profiler &profiler)
{
    int capacity = 0;
    for (int node : members)
        capacity += profiler.maxLayers(cluster.node(node));
    return capacity;
}

} // namespace

std::vector<Partition>
partitionByRegion(const cluster::ClusterSpec &cluster,
                  const cluster::Profiler &profiler,
                  int max_partition_nodes)
{
    HELIX_ASSERT(max_partition_nodes > 0);
    const int num_layers = profiler.modelSpec().numLayers;

    // Group by region first.
    std::map<int, Partition> by_region;
    for (int i = 0; i < cluster.numNodes(); ++i)
        by_region[cluster.node(i).region].push_back(i);

    // Split oversized groups; a split piece must still be able to
    // hold the model, otherwise keep growing it.
    std::vector<Partition> partitions;
    for (auto &[region, members] : by_region) {
        (void)region;
        Partition current;
        for (int node : members) {
            current.push_back(node);
            if (static_cast<int>(current.size()) >=
                    max_partition_nodes &&
                layerCapacity(current, cluster, profiler) >=
                    num_layers) {
                partitions.push_back(std::move(current));
                current.clear();
            }
        }
        if (!current.empty())
            partitions.push_back(std::move(current));
    }

    // Merge partitions that cannot hold the model alone into their
    // successor (wrapping to the previous one at the end).
    std::vector<Partition> merged;
    Partition pending;
    for (auto &partition : partitions) {
        pending.insert(pending.end(), partition.begin(),
                       partition.end());
        if (layerCapacity(pending, cluster, profiler) >= num_layers) {
            merged.push_back(std::move(pending));
            pending.clear();
        }
    }
    if (!pending.empty()) {
        if (merged.empty()) {
            merged.push_back(std::move(pending));
        } else {
            merged.back().insert(merged.back().end(), pending.begin(),
                                 pending.end());
        }
    }
    return merged;
}

ModelPlacement
PartitionedPlanner::plan(const cluster::ClusterSpec &cluster,
                         const cluster::Profiler &profiler)
{
    lastPartitions =
        partitionByRegion(cluster, profiler, maxPartitionNodes);
    HELIX_ASSERT(!lastPartitions.empty());

    ModelPlacement placement;
    placement.nodes.assign(cluster.numNodes(), {0, 0});

    // Deadline-driven budget split: each partition gets an equal
    // share of the budget *remaining* when it starts, so fixed
    // per-partition overheads (sub-cluster construction, warm-start
    // heuristics) eat into later shares instead of accumulating on
    // top of the total — with many partitions the static
    // budget/partitions split overran the budget by the summed
    // overheads.
    const auto start = std::chrono::steady_clock::now();
    for (size_t p = 0; p < lastPartitions.size(); ++p) {
        const Partition &members = lastPartitions[p];
        double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        HelixPlannerConfig inner_config = cfg;
        inner_config.timeBudgetSeconds =
            std::max(0.0, cfg.timeBudgetSeconds - elapsed) /
            static_cast<double>(lastPartitions.size() - p);
        cluster::ClusterSpec sub = cluster.subCluster(members);
        HelixPlanner inner(inner_config);
        ModelPlacement sub_placement = inner.plan(sub, profiler);
        for (size_t i = 0; i < members.size(); ++i)
            placement[members[i]] = sub_placement[i];
    }
    return placement;
}

} // namespace placement
} // namespace helix
