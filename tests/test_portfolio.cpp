/**
 * @file
 * Tests for the synthetic cluster generators (src/cluster/generator)
 * and the time-budgeted planner portfolio (src/placement/portfolio):
 * generation determinism and validity per preset, registry name
 * parsing, the portfolio's argmax selection and per-planner report,
 * and the determinism guarantee — the same members and seed choose a
 * byte-identical placement regardless of the executor's thread count.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "exp/spec.h"
#include "io/serialization.h"
#include "placement/portfolio.h"

namespace helix {
namespace {

cluster::gen::GeneratorConfig
genConfig(const std::string &preset, int nodes, uint64_t seed = 42)
{
    cluster::gen::GeneratorConfig config;
    config.preset = preset;
    config.numNodes = nodes;
    config.seed = seed;
    return config;
}

// --- Generators ------------------------------------------------------

TEST(Generator, EveryPresetGeneratesAPlannableCluster)
{
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(model_spec.has_value());
    cluster::Profiler profiler(*model_spec);
    for (const std::string &preset : cluster::gen::presetNames()) {
        auto clus = cluster::gen::generate(genConfig(preset, 24));
        ASSERT_TRUE(clus.has_value()) << preset;
        EXPECT_EQ(clus->numNodes(), 24) << preset;
        // The link matrix is materialized (links are addressable).
        EXPECT_GE(clus->link(0, 1).bandwidthBps, 0.0) << preset;
        // A deterministic baseline planner covers the model.
        placement::SwarmPlanner swarm;
        auto placement = swarm.plan(*clus, profiler);
        EXPECT_TRUE(
            placement::placementValid(placement, *clus, profiler))
            << preset;
    }
    EXPECT_FALSE(
        cluster::gen::generate(genConfig("warehouse", 24)).has_value());
    EXPECT_FALSE(
        cluster::gen::generate(genConfig("homogeneous", 0)).has_value());
}

TEST(Generator, SameSeedIsByteIdenticalDifferentSeedIsNot)
{
    for (const std::string &preset : cluster::gen::presetNames()) {
        auto a = cluster::gen::generate(genConfig(preset, 32, 7));
        auto b = cluster::gen::generate(genConfig(preset, 32, 7));
        ASSERT_TRUE(a && b) << preset;
        EXPECT_EQ(io::clusterToString(*a), io::clusterToString(*b))
            << preset;
    }
    // The randomized presets actually use the seed.
    for (const char *preset :
         {"long-tail-heterogeneous", "geo-distributed"}) {
        auto a = cluster::gen::generate(genConfig(preset, 32, 7));
        auto b = cluster::gen::generate(genConfig(preset, 32, 8));
        ASSERT_TRUE(a && b) << preset;
        EXPECT_NE(io::clusterToString(*a), io::clusterToString(*b))
            << preset;
    }
}

TEST(Generator, PresetShapesMatchTheirDocumentation)
{
    // homogeneous: one GPU type.
    auto homo = cluster::gen::generate(genConfig("homogeneous", 16));
    ASSERT_TRUE(homo.has_value());
    for (int i = 0; i < homo->numNodes(); ++i)
        EXPECT_EQ(homo->node(i).gpu.name, "L4");

    // two-tier: max(1, N/4) A100 head nodes, T4 tail, in that order.
    auto tiered = cluster::gen::generate(genConfig("two-tier", 16));
    ASSERT_TRUE(tiered.has_value());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(tiered->node(i).gpu.name, "A100") << i;
    for (int i = 4; i < 16; ++i)
        EXPECT_EQ(tiered->node(i).gpu.name, "T4") << i;

    // long-tail: more than one GPU type at a reasonable size.
    auto tail = cluster::gen::generate(
        genConfig("long-tail-heterogeneous", 48, 7));
    ASSERT_TRUE(tail.has_value());
    std::set<std::string> types;
    for (int i = 0; i < tail->numNodes(); ++i)
        types.insert(tail->node(i).gpu.name);
    EXPECT_GT(types.size(), 1u);

    // geo-distributed: the documented region count, round-robin.
    auto geo = cluster::gen::generate(
        genConfig("geo-distributed", 64, 7));
    ASSERT_TRUE(geo.has_value());
    int regions = cluster::gen::geoRegionCount(64);
    EXPECT_EQ(regions, 4);
    std::set<int> seen;
    for (int i = 0; i < geo->numNodes(); ++i) {
        EXPECT_EQ(geo->node(i).region, i % regions) << i;
        seen.insert(geo->node(i).region);
    }
    EXPECT_EQ(static_cast<int>(seen.size()), regions);
    // Inter-region links are the slow WAN tier.
    EXPECT_LT(geo->link(0, 1).bandwidthBps,
              geo->link(0, regions).bandwidthBps);
    EXPECT_EQ(cluster::gen::geoRegionCount(16), 2);
    EXPECT_EQ(cluster::gen::geoRegionCount(1000), 8);
}

TEST(Generator, RegistryNameParsing)
{
    auto config = cluster::gen::parseGeneratorName("gen:two-tier:300:7");
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->preset, "two-tier");
    EXPECT_EQ(config->numNodes, 300);
    EXPECT_EQ(config->seed, 7u);

    config = cluster::gen::parseGeneratorName("gen:homogeneous:12");
    ASSERT_TRUE(config.has_value());
    EXPECT_EQ(config->seed, 42u); // default

    for (const char *bad :
         {"two-tier:300", "gen:two-tier", "gen:two-tier:0",
          "gen:two-tier:-3", "gen:two-tier:12:x", "gen::12",
          "gen:two-tier:12:7:9"}) {
        EXPECT_FALSE(cluster::gen::parseGeneratorName(bad).has_value())
            << bad;
    }

    // And the exp registry resolves the same names.
    auto clus = exp::clusterByName("gen:two-tier:12:7");
    ASSERT_TRUE(clus.has_value());
    EXPECT_EQ(clus->numNodes(), 12);
    auto direct = cluster::gen::generate(genConfig("two-tier", 12, 7));
    EXPECT_EQ(io::clusterToString(*clus),
              io::clusterToString(*direct));
    EXPECT_FALSE(exp::clusterByName("gen:warehouse:12").has_value());
    EXPECT_FALSE(exp::clusterByName("gen:two-tier:0").has_value());

    // The lightweight node-count lookup (used by spec validation to
    // avoid generating whole clusters) agrees with
    // clusterByName on both success and failure.
    EXPECT_EQ(exp::clusterNodeCountByName("gen:two-tier:1000:7"),
              std::optional<int>(1000));
    EXPECT_EQ(exp::clusterNodeCountByName("planner10"),
              std::optional<int>(10));
    EXPECT_FALSE(
        exp::clusterNodeCountByName("gen:warehouse:12").has_value());
    EXPECT_FALSE(
        exp::clusterNodeCountByName("gen:two-tier:0").has_value());
    EXPECT_FALSE(
        exp::clusterNodeCountByName("nimbus9000").has_value());
}

// --- Portfolio -------------------------------------------------------

/** Deterministic-member portfolio over the named registry planners. */
placement::PortfolioPlanner
makePortfolio(const std::vector<std::string> &names, double budget_s,
              placement::TaskExecutor executor = {})
{
    std::vector<placement::PortfolioMember> members;
    for (const std::string &name : names) {
        members.push_back({name, [name](double b) {
                               return exp::plannerByName(name, b);
                           }});
    }
    placement::PortfolioConfig config;
    config.budgetS = budget_s;
    return placement::PortfolioPlanner(std::move(members), config,
                                       std::move(executor));
}

TEST(Portfolio, ChoosesTheArgmaxAndReportsEveryMember)
{
    auto clus = exp::clusterByName("hetero42");
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(clus && model_spec);
    cluster::Profiler profiler(*model_spec);

    const std::vector<std::string> names = {"uniform", "swarm",
                                            "petals", "sp+"};
    placement::PortfolioPlanner portfolio =
        makePortfolio(names, 0.5);
    placement::ModelPlacement chosen =
        portfolio.plan(*clus, profiler);
    const placement::PortfolioReport &report = portfolio.report();

    ASSERT_EQ(report.entries.size(), names.size());
    ASSERT_GE(report.bestIndex, 0);
    const placement::PortfolioEntry &best =
        report.entries[report.bestIndex];
    EXPECT_EQ(chosen, best.placement);
    EXPECT_DOUBLE_EQ(
        best.flowBound,
        placement::flowThroughputBound(*clus, profiler, chosen));
    for (size_t i = 0; i < report.entries.size(); ++i) {
        const placement::PortfolioEntry &entry = report.entries[i];
        EXPECT_EQ(entry.planner, names[i]);
        EXPECT_GE(entry.wallSeconds, 0.0);
        EXPECT_EQ(entry.feasible,
                  placement::placementValid(entry.placement, *clus,
                                            profiler));
        // The argmax guarantee: no feasible member beats the choice.
        if (entry.feasible) {
            EXPECT_LE(entry.flowBound, best.flowBound) << names[i];
        }
    }
    // On this cluster the load-balancing heuristics beat uniform.
    EXPECT_GT(best.flowBound,
              report.entries[0].flowBound);
}

TEST(Portfolio, EmptyPortfolioReturnsEmptyPlacement)
{
    auto clus = exp::clusterByName("planner10");
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(clus && model_spec);
    cluster::Profiler profiler(*model_spec);
    placement::PortfolioPlanner portfolio = makePortfolio({}, 0.1);
    placement::ModelPlacement chosen =
        portfolio.plan(*clus, profiler);
    EXPECT_EQ(chosen.size(), 0u);
    EXPECT_EQ(portfolio.report().bestIndex, -1);
}

/** A member that never covers the model (all intervals empty). */
class EmptyPlanner : public placement::Planner
{
  public:
    std::string name() const override { return "empty"; }
    placement::ModelPlacement
    plan(const cluster::ClusterSpec &cluster,
         const cluster::Profiler &profiler) override
    {
        (void)profiler;
        placement::ModelPlacement placement;
        placement.nodes.resize(cluster.numNodes());
        return placement;
    }
};

TEST(Portfolio, InfeasibleMembersLoseToFeasibleOnes)
{
    auto clus = exp::clusterByName("planner10");
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(clus && model_spec);
    cluster::Profiler profiler(*model_spec);
    std::vector<placement::PortfolioMember> members;
    members.push_back({"empty", [](double) {
                           return std::make_unique<EmptyPlanner>();
                       }});
    members.push_back({"swarm", [](double b) {
                           return exp::plannerByName("swarm", b);
                       }});
    placement::PortfolioConfig config;
    config.budgetS = 0.1;
    placement::PortfolioPlanner portfolio(std::move(members), config);
    portfolio.plan(*clus, profiler);
    const placement::PortfolioReport &report = portfolio.report();
    ASSERT_EQ(report.entries.size(), 2u);
    EXPECT_FALSE(report.entries[0].feasible);
    EXPECT_EQ(report.entries[0].flowBound, 0.0);
    EXPECT_TRUE(report.entries[1].feasible);
    EXPECT_EQ(report.bestIndex, 1);
}

/**
 * The determinism guarantee (ISSUE satellite): with deterministic
 * members, the same cluster and seed choose a byte-identical
 * `placement v1` artifact whether the member race runs on 1, 4, or
 * 16 threads.
 */
TEST(Portfolio, ChoiceIsByteIdenticalAcrossThreadCounts)
{
    auto clus = exp::clusterByName("gen:two-tier:24:7");
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(clus && model_spec);
    cluster::Profiler profiler(*model_spec);

    const std::string name = "portfolio:swarm,petals,sp+,uniform";
    std::string reference;
    for (int threads : {1, 4, 16}) {
        auto planner = exp::plannerByName(name, 0.1, threads);
        ASSERT_NE(planner, nullptr);
        std::string artifact = io::placementToString(
            planner->plan(*clus, profiler));
        if (reference.empty())
            reference = artifact;
        EXPECT_EQ(artifact, reference) << threads << " threads";
    }
}

TEST(Portfolio, RegistryNamesResolveAndValidate)
{
    // Bare "portfolio" resolves, with every other planner a member.
    auto planner = exp::plannerByName("portfolio", 0.05);
    ASSERT_NE(planner, nullptr);
    EXPECT_EQ(planner->name(), "portfolio");
    auto *portfolio =
        dynamic_cast<placement::PortfolioPlanner *>(planner.get());
    ASSERT_NE(portfolio, nullptr);

    // Restricted member lists resolve; malformed ones do not.
    EXPECT_NE(exp::plannerByName("portfolio:swarm,sp+,uniform", 0.05),
              nullptr);
    EXPECT_EQ(exp::plannerByName("portfolio:", 0.05), nullptr);
    EXPECT_EQ(exp::plannerByName("portfolio:swarm,,sp", 0.05),
              nullptr);
    EXPECT_EQ(exp::plannerByName("portfolio:gurobi", 0.05), nullptr);
    EXPECT_EQ(exp::plannerByName("portfolio:portfolio", 0.05),
              nullptr);
    EXPECT_EQ(
        exp::plannerByName("portfolio:swarm,portfolio:sp", 0.05),
        nullptr);
}

TEST(Portfolio, RunsThroughTheSpecEngine)
{
    auto spec = io::experimentFromString(
        "experiment v1\n"
        "warmup 1\nmeasure 2\nplanner-budget 0.1\n"
        "cluster gen:two-tier:12:7\nmodel llama30b\n"
        "planner portfolio:swarm,sp+,uniform\n"
        "scheduler helix\n"
        "scenario offline\n");
    ASSERT_TRUE(spec.has_value());
    io::ParseError error;
    ASSERT_TRUE(exp::validateSpec(*spec, &error)) << error.str();

    exp::RunnerOptions serial;
    serial.numThreads = 1;
    exp::RunnerOptions wide;
    wide.numThreads = 4;
    auto a = exp::runSpec(*spec, nullptr, serial);
    auto b = exp::runSpec(*spec, nullptr, wide);
    ASSERT_TRUE(a && b);
    ASSERT_EQ(a->size(), 1u);
    ASSERT_EQ(b->size(), 1u);
    EXPECT_EQ(a->front().label,
              "gen:two-tier:12:7/llama30b/"
              "portfolio:swarm,sp+,uniform/helix/offline");
    EXPECT_GT(a->front().metrics.requestsArrived, 0);
    EXPECT_GT(a->front().metrics.decodeThroughput, 0.0);
    // Deterministic members: metrics identical across thread counts.
    EXPECT_EQ(a->front().metrics.decodeThroughput,
              b->front().metrics.decodeThroughput);
    EXPECT_EQ(a->front().plannedThroughput,
              b->front().plannedThroughput);
}

TEST(Portfolio, FlowBoundIsZeroForUncoveredPlacements)
{
    auto clus = exp::clusterByName("planner10");
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(clus && model_spec);
    cluster::Profiler profiler(*model_spec);
    placement::ModelPlacement empty;
    empty.nodes.resize(clus->numNodes()); // all counts 0
    EXPECT_EQ(placement::flowThroughputBound(*clus, profiler, empty),
              0.0);
    // Size-mismatched placements are rejected rather than evaluated.
    placement::ModelPlacement wrong_size;
    wrong_size.nodes.resize(3);
    EXPECT_EQ(
        placement::flowThroughputBound(*clus, profiler, wrong_size),
        0.0);
}

} // namespace
} // namespace helix
