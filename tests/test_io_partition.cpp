/**
 * @file
 * Tests for the io serialization module (round trips, malformed-input
 * rejection, file I/O) and the partitioned planner (the paper's
 * Sec. 4.5 scaling path).
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "exp/experiment.h"
#include "io/serialization.h"
#include "model/transformer.h"
#include "placement/partitioned_planner.h"
#include "placement/placement_graph.h"

namespace helix {
namespace {

TEST(IoCluster, RoundTripsNodesAndLinks)
{
    cluster::ClusterSpec original =
        cluster::setups::geoDistributed24();
    std::string text = io::clusterToString(original);
    auto parsed = io::clusterFromString(text);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->numNodes(), original.numNodes());
    for (int i = 0; i < original.numNodes(); ++i) {
        EXPECT_EQ(parsed->node(i).name, original.node(i).name);
        EXPECT_EQ(parsed->node(i).gpu.name, original.node(i).gpu.name);
        EXPECT_DOUBLE_EQ(parsed->node(i).gpu.tflopsFp16,
                         original.node(i).gpu.tflopsFp16);
        EXPECT_EQ(parsed->node(i).numGpus, original.node(i).numGpus);
        EXPECT_EQ(parsed->node(i).region, original.node(i).region);
    }
    // Spot-check links including coordinator links.
    for (int from : {cluster::kCoordinator, 0, 5, 23}) {
        for (int to : {cluster::kCoordinator, 0, 11, 23}) {
            if (from == to)
                continue;
            EXPECT_DOUBLE_EQ(parsed->link(from, to).bandwidthBps,
                             original.link(from, to).bandwidthBps);
            EXPECT_DOUBLE_EQ(parsed->link(from, to).latencyS,
                             original.link(from, to).latencyS);
        }
    }
}

TEST(IoCluster, RejectsMalformedInput)
{
    EXPECT_FALSE(io::clusterFromString("").has_value());
    EXPECT_FALSE(io::clusterFromString("cluster v2\n").has_value());
    EXPECT_FALSE(io::clusterFromString("cluster v1\nbogus\n")
                     .has_value());
    EXPECT_FALSE(
        io::clusterFromString("cluster v1\nnode incomplete\n")
            .has_value());
    // Link referencing an out-of-range node.
    EXPECT_FALSE(io::clusterFromString(
                     "cluster v1\n"
                     "node a T4 65 16 300 70 1 0\n"
                     "link 0 7 1e9 0.001\n")
                     .has_value());
}

TEST(IoCluster, NamesWithSpacesAndHashesEscaped)
{
    cluster::ClusterSpec clus;
    cluster::NodeSpec node;
    node.name = "my node";
    node.gpu = cluster::gpus::t4();
    node.gpu.name = "RTX#4090"; // '#' would start a comment
    clus.addNode(std::move(node));
    clus.setUniformLinks(1e9, 1e-3);
    auto parsed = io::clusterFromString(io::clusterToString(clus));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->node(0).name, "my_node");
    EXPECT_EQ(parsed->node(0).gpu.name, "RTX_4090");
}

TEST(IoPlacement, RoundTrips)
{
    placement::ModelPlacement placement;
    placement.nodes = {{0, 10}, {10, 5}, {0, 0}, {15, 45}};
    auto parsed =
        io::placementFromString(io::placementToString(placement));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, placement);
}

TEST(IoPlacement, RejectsMalformed)
{
    EXPECT_FALSE(io::placementFromString("").has_value());
    EXPECT_FALSE(
        io::placementFromString("placement v1 2\n0 4\n").has_value());
    EXPECT_FALSE(io::placementFromString("placement v1 1\n-2 4\n")
                     .has_value());
}

TEST(IoTrace, RoundTrips)
{
    std::vector<trace::Request> requests = {
        {0, 0.25, 763, 232},
        {1, 1.75, 2048, 1},
        {2, 3.125, 4, 1024},
    };
    auto parsed = io::traceFromString(io::traceToString(requests));
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ((*parsed)[i].id, requests[i].id);
        EXPECT_DOUBLE_EQ((*parsed)[i].arrivalS, requests[i].arrivalS);
        EXPECT_EQ((*parsed)[i].promptLen, requests[i].promptLen);
        EXPECT_EQ((*parsed)[i].outputLen, requests[i].outputLen);
    }
}

TEST(IoTrace, RejectsMalformed)
{
    EXPECT_FALSE(io::traceFromString("trace v1 5\n0 0.0 10\n")
                     .has_value());
    EXPECT_FALSE(io::traceFromString("trace v1 1\n0 0.0 -5 10\n")
                     .has_value());
}

// --- Structured ParseError reporting --------------------------------

TEST(IoParseErrors, ClusterReportsExactLineAndMessage)
{
    io::ParseError error;
    EXPECT_FALSE(io::clusterFromString("", error).has_value());
    EXPECT_EQ(error.line, 0);
    EXPECT_EQ(error.message,
              "empty input; expected 'cluster v1' header");

    EXPECT_FALSE(io::clusterFromString("cluster v2\n", error));
    EXPECT_EQ(error.line, 1);
    EXPECT_EQ(error.message,
              "cluster version 'v2' not supported (expected v1)");

    EXPECT_FALSE(io::clusterFromString(
        "cluster v1\n"
        "node a T4 65 16 300 70 1 0\n"
        "bogus\n",
        error));
    EXPECT_EQ(error.line, 3);
    EXPECT_EQ(error.message,
              "unknown record 'bogus' (expected 'node' or 'link')");

    EXPECT_FALSE(io::clusterFromString("cluster v1\n"
                                       "node incomplete\n",
                                       error));
    EXPECT_EQ(error.line, 2);
    EXPECT_EQ(error.message,
              "node record needs 8 fields (name gpu tflops memGiB "
              "bwGBs powerW gpus region), got 1");

    EXPECT_FALSE(io::clusterFromString(
        "cluster v1\n"
        "node a T4 sixty-five 16 300 70 1 0\n",
        error));
    EXPECT_EQ(error.line, 2);
    EXPECT_EQ(error.message, "node record has a non-numeric field");

    // Comments and blank lines don't shift reported line numbers.
    EXPECT_FALSE(io::clusterFromString(
        "cluster v1\n"
        "# a comment\n"
        "node a T4 65 16 300 70 1 0\n"
        "\n"
        "link 0 7 1e9 0.001\n",
        error));
    EXPECT_EQ(error.line, 5);
    EXPECT_EQ(error.message,
              "link endpoints 0 -> 7 out of range for 1 nodes");
    EXPECT_EQ(error.str(),
              "line 5: link endpoints 0 -> 7 out of range for 1 "
              "nodes");
}

TEST(IoParseErrors, PlacementReportsExactLineAndMessage)
{
    io::ParseError error;
    EXPECT_FALSE(io::placementFromString("placement v1 2\n0 4\n",
                                         error));
    EXPECT_EQ(error.line, 1);
    EXPECT_EQ(error.message, "expected 2 node lines, got 1");

    EXPECT_FALSE(io::placementFromString("placement v1 1\n-2 4\n",
                                         error));
    EXPECT_EQ(error.line, 2);
    EXPECT_EQ(error.message,
              "placement start/count must be non-negative");

    EXPECT_FALSE(io::placementFromString("placement v1 1\n0 4\n5 5\n",
                                         error));
    EXPECT_EQ(error.line, 3);
    EXPECT_EQ(error.message, "trailing content after 1 node lines");

    EXPECT_FALSE(io::placementFromString("placement v1 many\n",
                                         error));
    EXPECT_EQ(error.line, 1);
    EXPECT_EQ(error.message, "invalid node count 'many'");
}

TEST(IoParseErrors, TraceReportsExactLineAndMessage)
{
    io::ParseError error;
    EXPECT_FALSE(io::traceFromString("trace v1 5\n0 0.0 10\n",
                                     error));
    EXPECT_EQ(error.line, 2);
    EXPECT_EQ(error.message,
              "request line needs '<id> <arrivalS> <promptLen> "
              "<outputLen>'");

    EXPECT_FALSE(io::traceFromString("trace v1 1\n0 0.0 -5 10\n",
                                     error));
    EXPECT_EQ(error.line, 2);
    EXPECT_EQ(error.message,
              "prompt/output lengths must be non-negative");

    EXPECT_FALSE(io::traceFromString("trace v1\n", error));
    EXPECT_EQ(error.line, 1);
    EXPECT_EQ(error.message,
              "malformed header: expected 'trace v1 <count>'");
}

TEST(IoParseErrors, CommentsAndBlankLinesAreAccepted)
{
    auto parsed = io::clusterFromString(
        "# generated artifact\n"
        "cluster v1\n"
        "\n"
        "node a T4 65 16 300 70 1 0   # the only node\n");
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->numNodes(), 1);
    EXPECT_EQ(parsed->node(0).name, "a");

    auto trace_parsed = io::traceFromString("trace v1 1\n"
                                            "# id arrival p o\n"
                                            "0 0.5 10 20\n");
    ASSERT_TRUE(trace_parsed.has_value());
    EXPECT_EQ((*trace_parsed)[0].promptLen, 10);
}

TEST(IoFiles, WriteAndReadBack)
{
    std::string path = "/tmp/helix_io_test.txt";
    EXPECT_TRUE(io::writeFile(path, "hello helix\n"));
    auto text = io::readFile(path);
    ASSERT_TRUE(text.has_value());
    EXPECT_EQ(*text, "hello helix\n");
    std::remove(path.c_str());
    EXPECT_FALSE(io::readFile("/nonexistent/helix").has_value());
    EXPECT_FALSE(io::writeFile("/nonexistent/dir/file", "x"));
}

TEST(IoRoundTrip, ResaveIsByteIdentical)
{
    // save -> load -> re-save must reproduce the exact bytes, so
    // artifacts can be diffed and checksummed across runs.
    cluster::ClusterSpec clus = cluster::setups::geoDistributed24();
    std::string cluster_text = io::clusterToString(clus);
    auto cluster_parsed = io::clusterFromString(cluster_text);
    ASSERT_TRUE(cluster_parsed.has_value());
    EXPECT_EQ(io::clusterToString(*cluster_parsed), cluster_text);

    placement::ModelPlacement placement;
    placement.nodes = {{0, 10}, {10, 5}, {0, 0}, {15, 45}};
    std::string placement_text = io::placementToString(placement);
    auto placement_parsed = io::placementFromString(placement_text);
    ASSERT_TRUE(placement_parsed.has_value());
    EXPECT_EQ(io::placementToString(*placement_parsed),
              placement_text);

    // Arrival times that are not exactly representable in short
    // decimal form must still re-save identically.
    std::vector<trace::Request> requests = {
        {0, 1.0 / 3.0, 763, 232},
        {1, 2.0 / 7.0 + 1.0, 2048, 1},
        {2, 3.125, 4, 1024},
    };
    std::string trace_text = io::traceToString(requests);
    auto trace_parsed = io::traceFromString(trace_text);
    ASSERT_TRUE(trace_parsed.has_value());
    EXPECT_EQ(io::traceToString(*trace_parsed), trace_text);

    // Empty trace round-trips too.
    std::string empty_text = io::traceToString({});
    auto empty_parsed = io::traceFromString(empty_text);
    ASSERT_TRUE(empty_parsed.has_value());
    EXPECT_TRUE(empty_parsed->empty());
    EXPECT_EQ(io::traceToString(*empty_parsed), empty_text);
}

TEST(IoRoundTrip, GeneratedGeoClusterCollapsesToClasses)
{
    // The serialized form lists all 201 x 200 directed links; parsing
    // folds them back into the per-region class table with no per-pair
    // overrides, and re-serializing reproduces the exact bytes.
    auto clus = exp::clusterByName("gen:geo-distributed:200");
    ASSERT_TRUE(clus.has_value());
    EXPECT_EQ(clus->numLinkOverrides(), 0u);
    std::string text = io::clusterToString(*clus);
    io::ParseError error;
    auto parsed = io::clusterFromString(text, error);
    ASSERT_TRUE(parsed.has_value()) << error.line << ": " << error.message;
    EXPECT_EQ(parsed->numNodes(), 200);
    EXPECT_EQ(parsed->numLinkOverrides(), 0u);
    EXPECT_EQ(parsed->numLinkClasses(), clus->numLinkClasses());
    EXPECT_EQ(parsed->minLinkLatency(), clus->minLinkLatency());
    EXPECT_EQ(io::clusterToString(*parsed), text);

    // A hand-edited link survives as exactly one override and still
    // round-trips byte for byte.
    parsed->setLink(3, 150, {1e9, 7e-3});
    EXPECT_EQ(parsed->numLinkOverrides(), 1u);
    std::string edited = io::clusterToString(*parsed);
    auto reparsed = io::clusterFromString(edited);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->numLinkOverrides(), 1u);
    EXPECT_EQ(io::clusterToString(*reparsed), edited);
}

TEST(IoEndToEnd, ClusterPlacementTraceArtifacts)
{
    // Full artifact cycle: serialize cluster + planner output + trace,
    // reload, and verify the reloaded placement evaluates identically.
    cluster::ClusterSpec clus = cluster::setups::plannerCluster10();
    cluster::Profiler prof(model::catalog::llama30b());
    placement::PetalsPlanner planner;
    placement::ModelPlacement placement = planner.plan(clus, prof);

    auto clus2 = io::clusterFromString(io::clusterToString(clus));
    auto placement2 =
        io::placementFromString(io::placementToString(placement));
    ASSERT_TRUE(clus2 && placement2);

    placement::PlacementGraph g1(clus, prof, placement);
    placement::PlacementGraph g2(*clus2, prof, *placement2);
    EXPECT_DOUBLE_EQ(g1.maxThroughput(), g2.maxThroughput());
}

// --- Partitioned planner ---

TEST(PartitionByRegion, CoversAllNodesOnce)
{
    cluster::ClusterSpec clus = cluster::setups::geoDistributed24();
    cluster::Profiler prof(model::catalog::llama70b());
    auto partitions = placement::partitionByRegion(clus, prof, 16);
    std::vector<int> seen(clus.numNodes(), 0);
    for (const auto &partition : partitions) {
        for (int node : partition)
            ++seen[node];
    }
    for (int count : seen)
        EXPECT_EQ(count, 1);
}

TEST(PartitionByRegion, EveryPartitionCanHoldTheModel)
{
    cluster::ClusterSpec clus = cluster::setups::geoDistributed24();
    cluster::Profiler prof(model::catalog::llama70b());
    auto partitions = placement::partitionByRegion(clus, prof, 16);
    for (const auto &partition : partitions) {
        int capacity = 0;
        for (int node : partition)
            capacity += prof.maxLayers(clus.node(node));
        EXPECT_GE(capacity, prof.modelSpec().numLayers);
    }
}

TEST(PartitionByRegion, SplitsLargeHomogeneousGroups)
{
    cluster::ClusterSpec clus = cluster::setups::highHeterogeneity42();
    cluster::Profiler prof(model::catalog::llama70b());
    auto partitions = placement::partitionByRegion(clus, prof, 12);
    EXPECT_GT(partitions.size(), 1u);
    for (const auto &partition : partitions) {
        // Cap may be exceeded only by capacity-driven merging, which
        // keeps partitions near the cap, not unbounded.
        EXPECT_LE(partition.size(), 24u);
    }
}

TEST(PartitionedPlanner, ProducesValidPlacement)
{
    cluster::ClusterSpec clus = cluster::setups::highHeterogeneity42();
    cluster::Profiler prof(model::catalog::llama70b());
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 3.0;
    placement::PartitionedPlanner planner(config, 12);
    placement::ModelPlacement placement = planner.plan(clus, prof);
    EXPECT_TRUE(placement::placementValid(placement, clus, prof));
    EXPECT_GT(planner.partitions().size(), 1u);
    placement::PlacementGraph graph(clus, prof, placement);
    EXPECT_GT(graph.maxThroughput(), 0.0);
}

TEST(PartitionedPlanner, PartitionsServeIndependently)
{
    cluster::ClusterSpec clus = cluster::setups::geoDistributed24();
    cluster::Profiler prof(model::catalog::llama70b());
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 2.0;
    placement::PartitionedPlanner planner(config, 16);
    placement::ModelPlacement placement = planner.plan(clus, prof);
    // Each partition's members tile the model among themselves: every
    // partition must contain at least one entry (layer 0) and one
    // exit (layer L) node.
    for (const auto &partition : planner.partitions()) {
        bool has_entry = false;
        bool has_exit = false;
        for (int node : partition) {
            has_entry |= placement[node].count > 0 &&
                         placement[node].start == 0;
            has_exit |= placement[node].count > 0 &&
                        placement[node].end() ==
                            prof.modelSpec().numLayers;
        }
        EXPECT_TRUE(has_entry);
        EXPECT_TRUE(has_exit);
    }
}

} // namespace
} // namespace helix
