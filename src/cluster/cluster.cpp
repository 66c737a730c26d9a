#include "cluster/cluster.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

#include "util/logging.h"

namespace helix {
namespace cluster {

namespace {

/**
 * Bit-exact link equality: decides whether a pair needs its own
 * override, so -0.0 vs 0.0 (which serialize differently) must differ.
 */
bool
sameLink(const LinkSpec &a, const LinkSpec &b)
{
    return std::memcmp(&a.bandwidthBps, &b.bandwidthBps,
                       sizeof(double)) == 0 &&
           std::memcmp(&a.latencyS, &b.latencyS, sizeof(double)) == 0;
}

bool
pairLess(const ClusterSpec::LinkEntry &a, const ClusterSpec::LinkEntry &b)
{
    return a.from != b.from ? a.from < b.from : a.to < b.to;
}

bool
samePair(const ClusterSpec::LinkEntry &a, const ClusterSpec::LinkEntry &b)
{
    return a.from == b.from && a.to == b.to;
}

} // namespace

NodeIndex
ClusterSpec::addNode(NodeSpec node)
{
    HELIX_ASSERT(endpointClass.empty());
    nodes.push_back(std::move(node));
    return static_cast<NodeIndex>(nodes.size() - 1);
}

const NodeSpec &
ClusterSpec::node(NodeIndex index) const
{
    HELIX_ASSERT(index >= 0 && index < numNodes());
    return nodes[index];
}

void
ClusterSpec::ensureLinkClasses()
{
    if (!endpointClass.empty())
        return;
    classRegion.clear();
    for (const NodeSpec &n : nodes)
        classRegion.push_back(n.region);
    std::sort(classRegion.begin(), classRegion.end());
    classRegion.erase(std::unique(classRegion.begin(), classRegion.end()),
                      classRegion.end());
    numClasses = static_cast<int>(classRegion.size()) + 1;
    classSize.assign(numClasses, 0);
    endpointClass.resize(nodes.size() + 1);
    endpointClass[0] = 0;
    classSize[0] = 1;
    for (size_t i = 0; i < nodes.size(); ++i) {
        auto it = std::lower_bound(classRegion.begin(), classRegion.end(),
                                   nodes[i].region);
        int cls = 1 + static_cast<int>(it - classRegion.begin());
        endpointClass[i + 1] = cls;
        ++classSize[cls];
    }
    // helix-lint: allow(pair-matrix) classes are distinct regions plus the coordinator, not endpoints
    classLinks.assign(static_cast<size_t>(numClasses) * numClasses,
                      LinkSpec{});
    selfLink = LinkSpec{};
    overrides.clear();
}

int
ClusterSpec::linkClass(NodeIndex endpoint) const
{
    HELIX_ASSERT(!endpointClass.empty());
    HELIX_ASSERT(endpoint >= kCoordinator && endpoint < numNodes());
    return endpointClass[endpoint + 1];
}

const LinkSpec &
ClusterSpec::defaultLink(NodeIndex from, NodeIndex to) const
{
    if (from == to)
        return selfLink;
    return classLinks[static_cast<size_t>(linkClass(from)) * numClasses +
                      linkClass(to)];
}

int64_t
ClusterSpec::classPairSize(int a, int b) const
{
    int64_t size_a = classSize[a];
    return a == b ? size_a * (size_a - 1) : size_a * classSize[b];
}

void
ClusterSpec::setLink(NodeIndex from, NodeIndex to, LinkSpec link_spec)
{
    HELIX_ASSERT(from >= kCoordinator && from < numNodes());
    HELIX_ASSERT(to >= kCoordinator && to < numNodes());
    ensureLinkClasses();
    LinkEntry entry{from, to, link_spec};
    auto it = std::lower_bound(overrides.begin(), overrides.end(), entry,
                               pairLess);
    const bool is_default = sameLink(link_spec, defaultLink(from, to));
    if (it != overrides.end() && samePair(*it, entry)) {
        if (is_default)
            overrides.erase(it);
        else
            it->spec = link_spec;
    } else if (!is_default) {
        overrides.insert(it, entry);
    }
}

const LinkSpec &
ClusterSpec::link(NodeIndex from, NodeIndex to) const
{
    HELIX_ASSERT(!endpointClass.empty());
    HELIX_ASSERT(from >= kCoordinator && from < numNodes());
    HELIX_ASSERT(to >= kCoordinator && to < numNodes());
    if (!overrides.empty()) {
        LinkEntry key{from, to, LinkSpec{}};
        auto it = std::lower_bound(overrides.begin(), overrides.end(),
                                   key, pairLess);
        if (it != overrides.end() && samePair(*it, key))
            return it->spec;
    }
    return defaultLink(from, to);
}

void
ClusterSpec::setUniformLinks(double bandwidth_bps, double latency_s)
{
    ensureLinkClasses();
    LinkSpec uniform{bandwidth_bps, latency_s};
    std::fill(classLinks.begin(), classLinks.end(), uniform);
    selfLink = uniform;
    overrides.clear();
}

void
ClusterSpec::connectRegions(LinkSpec intra, LinkSpec inter,
                            int coordinator_region)
{
    ensureLinkClasses();
    coordRegion = coordinator_region;
    auto regionOf = [&](int cls) {
        return cls == 0 ? coordRegion : classRegion[cls - 1];
    };
    for (int a = 0; a < numClasses; ++a) {
        for (int b = 0; b < numClasses; ++b) {
            classLinks[static_cast<size_t>(a) * numClasses + b] =
                regionOf(a) == regionOf(b) ? intra : inter;
        }
    }
    selfLink = LinkSpec{};
    overrides.clear();
}

void
ClusterSpec::assignLinks(std::vector<LinkEntry> entries)
{
    ensureLinkClasses();
    for (const LinkEntry &e : entries) {
        HELIX_ASSERT(e.from >= kCoordinator && e.from < numNodes());
        HELIX_ASSERT(e.to >= kCoordinator && e.to < numNodes());
    }
    // Serialized clusters list their links in (from, to) order, so
    // the sort is usually skipped.
    if (!std::is_sorted(entries.begin(), entries.end(), pairLess))
        std::stable_sort(entries.begin(), entries.end(), pairLess);
    // Keep the last entry of each pair.
    size_t kept = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        if (kept > 0 && samePair(entries[kept - 1], entries[i]))
            entries[kept - 1] = entries[i];
        else
            entries[kept++] = entries[i];
    }
    entries.resize(kept);

    // A class pair fully listed defaults to its first listed value;
    // one with unlisted (zero) pairs defaults to zero.
    const size_t table = classLinks.size();
    std::vector<int64_t> listed(table, 0);
    std::vector<LinkSpec> first(table);
    for (const LinkEntry &e : entries) {
        if (e.from == e.to)
            continue;
        size_t cell = static_cast<size_t>(linkClass(e.from)) * numClasses +
                      linkClass(e.to);
        if (listed[cell]++ == 0)
            first[cell] = e.spec;
    }
    for (int a = 0; a < numClasses; ++a) {
        for (int b = 0; b < numClasses; ++b) {
            size_t cell = static_cast<size_t>(a) * numClasses + b;
            classLinks[cell] = listed[cell] == classPairSize(a, b)
                                   ? first[cell]
                                   : LinkSpec{};
        }
    }
    selfLink = LinkSpec{};
    entries.erase(std::remove_if(entries.begin(), entries.end(),
                                 [&](const LinkEntry &e) {
                                     return sameLink(
                                         e.spec,
                                         defaultLink(e.from, e.to));
                                 }),
                  entries.end());
    overrides = std::move(entries);
}

ClusterSpec
ClusterSpec::subCluster(const std::vector<NodeIndex> &members) const
{
    HELIX_ASSERT(!endpointClass.empty());
    ClusterSpec sub;
    for (NodeIndex member : members)
        sub.addNode(node(member));
    sub.coordRegion = coordRegion;
    sub.ensureLinkClasses();
    // Sub classes are a subset of ours, matched by region.
    auto parentClass = [&](int sub_class) {
        if (sub_class == 0)
            return 0;
        auto it = std::lower_bound(classRegion.begin(), classRegion.end(),
                                   sub.classRegion[sub_class - 1]);
        return 1 + static_cast<int>(it - classRegion.begin());
    };
    for (int a = 0; a < sub.numClasses; ++a) {
        for (int b = 0; b < sub.numClasses; ++b) {
            sub.classLinks[static_cast<size_t>(a) * sub.numClasses + b] =
                classLinks[static_cast<size_t>(parentClass(a)) *
                               numClasses +
                           parentClass(b)];
        }
    }
    if (overrides.empty())
        return sub;
    // Endpoint + 1 -> member index (kCoordinator maps to itself).
    constexpr int kAbsent = kCoordinator - 1;
    std::vector<int> renumber(nodes.size() + 1, kAbsent);
    renumber[0] = kCoordinator;
    for (size_t i = 0; i < members.size(); ++i) {
        HELIX_ASSERT(renumber[members[i] + 1] == kAbsent);
        renumber[members[i] + 1] = static_cast<int>(i);
    }
    for (const LinkEntry &o : overrides) {
        int from = renumber[o.from + 1];
        int to = renumber[o.to + 1];
        if (from == kAbsent || to == kAbsent || from == to)
            continue;
        sub.overrides.push_back({from, to, o.spec});
    }
    std::sort(sub.overrides.begin(), sub.overrides.end(), pairLess);
    return sub;
}

double
ClusterSpec::minLinkLatency() const
{
    double best = std::numeric_limits<double>::infinity();
    if (endpointClass.empty())
        return best;
    // Overrides between distinct endpoints, and how many pairs of
    // each class pair they take away from the class default.
    std::vector<int64_t> overridden(classLinks.size(), 0);
    for (const LinkEntry &o : overrides) {
        if (o.from == o.to)
            continue;
        best = std::min(best, o.spec.latencyS);
        ++overridden[static_cast<size_t>(linkClass(o.from)) * numClasses +
                     linkClass(o.to)];
    }
    for (int a = 0; a < numClasses; ++a) {
        for (int b = 0; b < numClasses; ++b) {
            size_t cell = static_cast<size_t>(a) * numClasses + b;
            if (classPairSize(a, b) > overridden[cell])
                best = std::min(best, classLinks[cell].latencyS);
        }
    }
    return best;
}

double
ClusterSpec::totalTflops() const
{
    double total = 0.0;
    for (const auto &n : nodes)
        total += n.totalTflops();
    return total;
}

std::string
ClusterSpec::summary() const
{
    // Count nodes per (gpu type, count) signature, preserving insert
    // order for readability.
    std::vector<std::pair<std::string, int>> groups;
    for (const auto &n : nodes) {
        std::string key = (n.numGpus > 1)
                              ? std::to_string(n.numGpus) + "x" + n.gpu.name
                              : n.gpu.name;
        bool found = false;
        for (auto &[name, count] : groups) {
            if (name == key) {
                ++count;
                found = true;
            }
        }
        if (!found)
            groups.push_back({key, 1});
    }
    std::ostringstream out;
    for (size_t i = 0; i < groups.size(); ++i) {
        if (i > 0)
            out << " + ";
        out << groups[i].second << "x" << groups[i].first;
    }
    out << " (" << numNodes() << " nodes)";
    return out.str();
}

namespace setups {

namespace {

void
addNodes(ClusterSpec &cluster, const GpuSpec &gpu, int count,
         int num_gpus, int region)
{
    for (int i = 0; i < count; ++i) {
        NodeSpec node;
        std::ostringstream name;
        if (num_gpus > 1)
            name << num_gpus << "x";
        name << gpu.name << "-r" << region << "-" << i;
        node.name = name.str();
        node.gpu = gpu;
        node.numGpus = num_gpus;
        node.region = region;
        cluster.addNode(std::move(node));
    }
}

} // namespace

ClusterSpec
singleCluster24()
{
    ClusterSpec cluster;
    addNodes(cluster, gpus::a100_40(), 4, 1, 0);
    addNodes(cluster, gpus::l4(), 8, 1, 0);
    addNodes(cluster, gpus::t4(), 12, 1, 0);
    cluster.setUniformLinks(10 * kGbps, 1e-3);
    return cluster;
}

ClusterSpec
geoDistributed24()
{
    ClusterSpec cluster;
    addNodes(cluster, gpus::a100_40(), 4, 1, 0);
    addNodes(cluster, gpus::l4(), 2, 1, 1);
    addNodes(cluster, gpus::t4(), 8, 1, 1);
    addNodes(cluster, gpus::l4(), 6, 1, 2);
    addNodes(cluster, gpus::t4(), 4, 1, 2);
    cluster.connectRegions({10 * kGbps, 1e-3}, {100 * kMbps, 50e-3}, 0);
    return cluster;
}

ClusterSpec
highHeterogeneity42()
{
    ClusterSpec cluster;
    addNodes(cluster, gpus::a100_40(), 4, 1, 0);
    addNodes(cluster, gpus::v100(), 6, 1, 0);
    addNodes(cluster, gpus::l4(), 8, 1, 0);
    addNodes(cluster, gpus::t4(), 10, 1, 0);
    addNodes(cluster, gpus::l4(), 4, 2, 0);
    addNodes(cluster, gpus::t4(), 6, 2, 0);
    addNodes(cluster, gpus::t4(), 4, 4, 0);
    cluster.setUniformLinks(10 * kGbps, 1e-3);
    return cluster;
}

ClusterSpec
plannerCluster10()
{
    ClusterSpec cluster;
    addNodes(cluster, gpus::l4(), 4, 1, 0);
    addNodes(cluster, gpus::t4(), 6, 1, 0);
    cluster.setUniformLinks(10 * kGbps, 1e-3);
    return cluster;
}

} // namespace setups

} // namespace cluster
} // namespace helix
