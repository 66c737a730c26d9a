/**
 * @file
 * Cluster topology: compute nodes, network links, and generators for
 * the three cluster setups evaluated in the paper (Sec. 6.2).
 *
 * A cluster contains one coordinator node and N compute nodes. Every
 * ordered endpoint pair has a directed link with a bandwidth and a
 * propagation latency, but the links are not stored pair by pair:
 * endpoints fall into link classes (one per region, plus the
 * coordinator as its own class), a class-pair table holds the default
 * link of every (class, class) combination, and a sorted list holds
 * the few pairs whose link differs from their class default. Memory
 * is O(N + classes^2 + overrides), so a generated 10k-node cluster
 * costs kilobytes of link state instead of gigabytes.
 */

#ifndef HELIX_CLUSTER_CLUSTER_H
#define HELIX_CLUSTER_CLUSTER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/gpu.h"

namespace helix {
namespace cluster {

/** Index of a compute node within a cluster (0-based). */
using NodeIndex = int;

/** Sentinel index representing the coordinator. */
constexpr NodeIndex kCoordinator = -1;

/**
 * One compute node: one or more GPUs of a single type, aggregated into
 * a single logical device (paper Sec. 4.1: multi-GPU nodes use tensor
 * parallelism internally and are abstracted as one node).
 */
struct NodeSpec
{
    std::string name;
    GpuSpec gpu;
    int numGpus = 1;
    /** Region id used by the link generator. */
    int region = 0;

    /** Aggregate FP16 TFLOPs across the node's GPUs. */
    double totalTflops() const { return gpu.tflopsFp16 * numGpus; }

    /** Aggregate VRAM bytes across the node's GPUs. */
    int64_t totalMemoryBytes() const
    {
        return gpu.memoryBytes() * numGpus;
    }

    /** Aggregate memory bandwidth in GB/s. */
    double totalMemBandwidthGBs() const
    {
        return gpu.memBandwidthGBs * numGpus;
    }
};

/** A directed network link between two endpoints. */
struct LinkSpec
{
    /** Bandwidth in bits per second. */
    double bandwidthBps = 0.0;
    /** One-way propagation latency in seconds. */
    double latencyS = 0.0;

    double bytesPerSecond() const { return bandwidthBps / 8.0; }
};

/**
 * A heterogeneous serving cluster: coordinator + compute nodes +
 * directed links (class-pair defaults plus per-pair overrides).
 */
class ClusterSpec
{
  public:
    /** One directed link record, for bulk construction. */
    struct LinkEntry
    {
        NodeIndex from = kCoordinator;
        NodeIndex to = kCoordinator;
        LinkSpec spec;
    };

    /** Add a compute node; returns its index. Nodes must all be added
     *  before the first link is set. */
    NodeIndex addNode(NodeSpec node);

    int numNodes() const { return static_cast<int>(nodes.size()); }

    const NodeSpec &node(NodeIndex index) const;

    /**
     * Set the directed link between @p from and @p to (either may be
     * kCoordinator). Links not set yet are zero. Stores a per-pair
     * override only when @p link differs from the pair's class
     * default; setting a pair back to its default drops the override.
     */
    void setLink(NodeIndex from, NodeIndex to, LinkSpec link);

    /** The directed link between two endpoints. */
    const LinkSpec &link(NodeIndex from, NodeIndex to) const;

    /**
     * Give every link, self links included, a single bandwidth and
     * latency (homogeneous network).
     */
    void setUniformLinks(double bandwidth_bps, double latency_s);

    /**
     * Set links from region assignments: intra-region pairs get the
     * intra link, inter-region pairs get the inter link, self links
     * are zero. The coordinator is placed in @p coordinator_region.
     */
    void connectRegions(LinkSpec intra, LinkSpec inter,
                        int coordinator_region = 0);

    /**
     * Replace every link with @p entries (the last entry for a pair
     * wins); pairs not listed are zero. A class pair whose every
     * endpoint pair is listed takes its first listed value as the
     * default, so a cluster whose links follow its regions collapses
     * back into the class table with no overrides. O(E log E) for E
     * entries, with no per-entry inserts.
     */
    void assignLinks(std::vector<LinkEntry> entries);

    /**
     * The cluster restricted to @p members (in that order, renumbered
     * 0..m-1): same node hardware, same links among the members and
     * to the coordinator, same classes; self links are zero. Costs
     * O(m + classes^2 + overrides) instead of m^2 setLink calls.
     */
    ClusterSpec subCluster(const std::vector<NodeIndex> &members) const;

    /** Region the coordinator lives in (set by connectRegions). */
    int coordinatorRegion() const { return coordRegion; }

    /** Number of link classes: distinct node regions + coordinator. */
    int numLinkClasses() const { return numClasses; }

    /** Number of pairs whose link differs from their class default. */
    size_t numLinkOverrides() const { return overrides.size(); }

    /**
     * Minimum propagation latency over every directed link between
     * distinct endpoints (infinity with no such link). Computed from
     * the class table and the overrides: a (c, c) class pair counts
     * only when class c has at least two endpoints, and a class
     * default counts only when some pair still uses it.
     */
    double minLinkLatency() const;

    /** Sum of node compute capacities in TFLOPs. */
    double totalTflops() const;

    /** One-line summary, e.g. "4xA100 + 8xL4 + 12xT4 (24 nodes)". */
    std::string summary() const;

  private:
    /** Assign link classes from node regions and zero every link
     *  (first link-setting call only). */
    void ensureLinkClasses();

    /** Link class of an endpoint: 0 for the coordinator, 1 + the rank
     *  of the node's region among the distinct regions otherwise. */
    int linkClass(NodeIndex endpoint) const;

    /** The link a pair has when no override names it. */
    const LinkSpec &defaultLink(NodeIndex from, NodeIndex to) const;

    /** Endpoint pairs (from != to) in class pair (@p a, @p b). */
    int64_t classPairSize(int a, int b) const;

    std::vector<NodeSpec> nodes;
    /** Link class per endpoint, indexed by endpoint + 1; empty until
     *  the first link is set. */
    std::vector<int> endpointClass;
    /** Region of each node class (index class - 1), ascending. */
    std::vector<int> classRegion;
    /** Endpoints per class. */
    std::vector<int> classSize;
    int numClasses = 0;
    /** numClasses^2 class-pair defaults, row-major (from, to). */
    std::vector<LinkSpec> classLinks;
    /** Default link of an endpoint to itself. */
    LinkSpec selfLink;
    /** Pairs whose link differs from the default, sorted by
     *  (from, to). */
    std::vector<LinkEntry> overrides;
    int coordRegion = 0;
};

/** Generators for the paper's evaluated cluster configurations. */
namespace setups {

/** Gb/s to bits per second. */
constexpr double kGbps = 1e9;
/** Mb/s to bits per second. */
constexpr double kMbps = 1e6;

/**
 * Single-cluster setup (Sec. 6.3): 4 A100 + 8 L4 + 12 T4 nodes, all
 * links 10 Gb/s with ~1 ms latency.
 */
ClusterSpec singleCluster24();

/**
 * Geo-distributed setup (Sec. 6.4): three sub-clusters — (i) 4 A100,
 * (ii) 2 L4 + 8 T4, (iii) 6 L4 + 4 T4. Intra-cluster 10 Gb/s / 1 ms,
 * inter-cluster 100 Mb/s / 50 ms.
 */
ClusterSpec geoDistributed24();

/**
 * High GPU-heterogeneity setup (Sec. 6.5): 42 nodes with 7 types —
 * 4 A100, 6 V100, 8 L4, 10 T4, 4 2xL4, 6 2xT4, 4 4xT4; 10 Gb/s.
 */
ClusterSpec highHeterogeneity42();

/**
 * Small planner cluster used in Sec. 6.9 / Fig. 12: 4 L4 + 6 T4,
 * 10 Gb/s.
 */
ClusterSpec plannerCluster10();

} // namespace setups

} // namespace cluster
} // namespace helix

#endif // HELIX_CLUSTER_CLUSTER_H
