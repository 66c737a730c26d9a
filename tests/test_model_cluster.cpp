/**
 * @file
 * Tests for the model and cluster substrates: parameter counts against
 * published sizes, KV/activation arithmetic, GPU catalog values
 * (Table 3), cluster generators (Sec. 6.2 setups), link matrices, and
 * the analytic profiler's monotonicity and consistency properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "model/transformer.h"
#include "util/random.h"

namespace helix {
namespace {

using cluster::ClusterSpec;
using cluster::LinkSpec;
using cluster::NodeSpec;
using cluster::Profiler;
using model::TransformerSpec;

TEST(Transformer, Llama70bParameterCount)
{
    TransformerSpec spec = model::catalog::llama70b();
    double params = static_cast<double>(spec.totalParams());
    // Published size: ~70 billion parameters.
    EXPECT_NEAR(params / 1e9, 70.0, 2.0);
    EXPECT_EQ(spec.numLayers, 80);
}

TEST(Transformer, Llama30bParameterCount)
{
    TransformerSpec spec = model::catalog::llama30b();
    double params = static_cast<double>(spec.totalParams());
    // Published size: ~32.5 billion parameters.
    EXPECT_NEAR(params / 1e9, 32.5, 1.5);
}

TEST(Transformer, Gpt3ParameterCount)
{
    double params =
        static_cast<double>(model::catalog::gpt3_175b().totalParams());
    EXPECT_NEAR(params / 1e9, 175.0, 10.0);
}

TEST(Transformer, Llama405bParameterCount)
{
    double params =
        static_cast<double>(model::catalog::llama3_405b().totalParams());
    EXPECT_NEAR(params / 1e9, 405.0, 15.0);
}

TEST(Transformer, Grok314bParameterCount)
{
    double params =
        static_cast<double>(model::catalog::grok1_314b().totalParams());
    EXPECT_NEAR(params / 1e9, 314.0, 20.0);
}

TEST(Transformer, ActivationBytesMatchFig2)
{
    // Fig. 2 uses a 16 KB activation: hidden 8192 at FP16.
    TransformerSpec spec = model::catalog::llama70b();
    EXPECT_EQ(spec.activationBytesPerToken(), 16384);
}

TEST(Transformer, GqaShrinksKvCache)
{
    TransformerSpec dense = model::catalog::llama30b(); // MHA
    TransformerSpec gqa = model::catalog::llama70b();   // 8 KV heads
    // 70B GQA: 2 * 8 heads * 128 dim * 2 bytes = 4096 per token-layer.
    EXPECT_EQ(gqa.kvBytesPerTokenPerLayer(), 4096);
    // 30B MHA: 2 * hidden * 2 bytes.
    EXPECT_EQ(dense.kvBytesPerTokenPerLayer(),
              2LL * dense.hiddenSize * 2);
}

TEST(Transformer, FlopsScaleWithParams)
{
    TransformerSpec spec = model::catalog::llama70b();
    EXPECT_DOUBLE_EQ(spec.flopsPerTokenPerLayer(),
                     2.0 * spec.paramsPerLayer());
    EXPECT_GT(spec.attentionFlopsPerToken(1000),
              spec.attentionFlopsPerToken(10));
}

TEST(GpuCatalog, Table3Values)
{
    auto h100 = cluster::gpus::h100();
    EXPECT_DOUBLE_EQ(h100.tflopsFp16, 1979.0);
    EXPECT_DOUBLE_EQ(h100.memoryGiB, 80.0);
    auto a100 = cluster::gpus::a100_40();
    EXPECT_DOUBLE_EQ(a100.tflopsFp16, 312.0);
    EXPECT_DOUBLE_EQ(a100.memBandwidthGBs, 1555.0);
    auto l4 = cluster::gpus::l4();
    EXPECT_DOUBLE_EQ(l4.tflopsFp16, 242.0);
    EXPECT_DOUBLE_EQ(l4.memoryGiB, 24.0);
    auto t4 = cluster::gpus::t4();
    EXPECT_DOUBLE_EQ(t4.tflopsFp16, 65.0);
    EXPECT_DOUBLE_EQ(t4.memoryGiB, 16.0);
    EXPECT_EQ(cluster::gpus::all().size(), 6u);
}

TEST(GpuCatalog, EightL4sMatchOneH100)
{
    // The paper's Table 3 observation.
    EXPECT_GE(8 * cluster::gpus::l4().tflopsFp16,
              0.95 * cluster::gpus::h100().tflopsFp16);
}

TEST(ClusterSetups, SingleCluster24Composition)
{
    ClusterSpec c = cluster::setups::singleCluster24();
    EXPECT_EQ(c.numNodes(), 24);
    int a100 = 0;
    int l4 = 0;
    int t4 = 0;
    for (int i = 0; i < c.numNodes(); ++i) {
        const std::string &name = c.node(i).gpu.name;
        a100 += name == "A100";
        l4 += name == "L4";
        t4 += name == "T4";
    }
    EXPECT_EQ(a100, 4);
    EXPECT_EQ(l4, 8);
    EXPECT_EQ(t4, 12);
    // 10 Gb/s everywhere.
    EXPECT_DOUBLE_EQ(c.link(0, 1).bandwidthBps, 10e9);
    EXPECT_DOUBLE_EQ(c.link(cluster::kCoordinator, 0).bandwidthBps,
                     10e9);
}

TEST(ClusterSetups, GeoDistributedRegionsAndLinks)
{
    ClusterSpec c = cluster::setups::geoDistributed24();
    EXPECT_EQ(c.numNodes(), 24);
    // Find one intra-region and one cross-region pair.
    int r0 = -1;
    int r1 = -1;
    int r0b = -1;
    for (int i = 0; i < c.numNodes(); ++i) {
        if (c.node(i).region == 0) {
            if (r0 < 0)
                r0 = i;
            else if (r0b < 0)
                r0b = i;
        } else if (c.node(i).region == 1 && r1 < 0) {
            r1 = i;
        }
    }
    ASSERT_GE(r0, 0);
    ASSERT_GE(r0b, 0);
    ASSERT_GE(r1, 0);
    EXPECT_DOUBLE_EQ(c.link(r0, r0b).bandwidthBps, 10e9);
    EXPECT_DOUBLE_EQ(c.link(r0, r1).bandwidthBps, 100e6);
    EXPECT_DOUBLE_EQ(c.link(r0, r1).latencyS, 50e-3);
    EXPECT_EQ(c.coordinatorRegion(), 0);
}

/** Bit-exact link equality (0.0 and -0.0 differ). */
bool
sameBits(const LinkSpec &a, const LinkSpec &b)
{
    return std::memcmp(&a.bandwidthBps, &b.bandwidthBps,
                       sizeof(double)) == 0 &&
           std::memcmp(&a.latencyS, &b.latencyS, sizeof(double)) == 0;
}

/**
 * Dense (n+1)^2 reference model of ClusterSpec's link semantics: the
 * representation the class table + overrides replaced. `fill` holds
 * what the last bulk call (setUniformLinks / connectRegions) gave each
 * pair, i.e. the class default, so the reference also predicts how
 * many overrides the sparse form must store.
 */
struct DenseLinks
{
    int side = 0;
    std::vector<LinkSpec> cells;
    std::vector<LinkSpec> fill;
    /** False after assignLinks, whose defaults are not modeled. */
    bool fillKnown = true;

    explicit DenseLinks(int num_nodes)
        : side(num_nodes + 1),
          cells(static_cast<size_t>(side) * side),
          fill(static_cast<size_t>(side) * side)
    {
    }

    size_t index(int from, int to) const
    {
        return static_cast<size_t>(from + 1) * side + (to + 1);
    }

    double minLatency() const
    {
        double best = std::numeric_limits<double>::infinity();
        for (int from = -1; from < side - 1; ++from) {
            for (int to = -1; to < side - 1; ++to) {
                if (from != to)
                    best = std::min(best, cells[index(from, to)].latencyS);
            }
        }
        return best;
    }

    size_t overrides() const
    {
        size_t count = 0;
        for (size_t i = 0; i < cells.size(); ++i)
            count += sameBits(cells[i], fill[i]) ? 0 : 1;
        return count;
    }
};

void
expectMatchesReference(const ClusterSpec &c, const DenseLinks &ref,
                       const std::string &replay)
{
    for (int from = -1; from < c.numNodes(); ++from) {
        for (int to = -1; to < c.numNodes(); ++to) {
            const LinkSpec &got = c.link(from, to);
            const LinkSpec &want = ref.cells[ref.index(from, to)];
            ASSERT_TRUE(sameBits(got, want))
                << replay << " pair " << from << "->" << to << ": got ("
                << got.bandwidthBps << ", " << got.latencyS
                << ") want (" << want.bandwidthBps << ", "
                << want.latencyS << ")";
        }
    }
    EXPECT_EQ(c.minLinkLatency(), ref.minLatency()) << replay;
    if (ref.fillKnown) {
        EXPECT_EQ(c.numLinkOverrides(), ref.overrides()) << replay;
    }
}

TEST(ClusterLinks, RandomizedOpsMatchDenseReference)
{
    // A small value pool so random setLink calls often hit a pair's
    // class default; -0.0 must still count as different from 0.0.
    const std::vector<LinkSpec> pool = {
        {0.0, 0.0},       {10e9, 1e-3},  {100e6, 50e-3},
        {1e9, 5e-4},      {-0.0, 1e-3},  {10e9, 2e-3},
    };
    const std::vector<int> region_pool = {-1, 0, 3, 7};
    Rng rng(20261017);
    for (int instance = 0; instance < 60; ++instance) {
        const int n = static_cast<int>(rng.nextInt(1, 9));
        ClusterSpec c;
        std::vector<int> region(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i) {
            NodeSpec node;
            node.name = "n" + std::to_string(i);
            node.gpu = cluster::gpus::t4();
            node.region = region_pool[rng.nextBounded(region_pool.size())];
            region[static_cast<size_t>(i)] = node.region;
            c.addNode(std::move(node));
        }
        DenseLinks ref(n);
        auto pick = [&]() { return pool[rng.nextBounded(pool.size())]; };
        auto endpoint = [&]() {
            return static_cast<int>(rng.nextInt(-1, n - 1));
        };
        for (int op = 0; op < 40; ++op) {
            std::string replay = "instance=" + std::to_string(instance) +
                                 " n=" + std::to_string(n) +
                                 " op=" + std::to_string(op);
            switch (rng.nextBounded(6)) {
              case 0: {
                LinkSpec v = pick();
                c.setUniformLinks(v.bandwidthBps, v.latencyS);
                std::fill(ref.cells.begin(), ref.cells.end(), v);
                ref.fill = ref.cells;
                ref.fillKnown = true;
                replay += " uniform";
                break;
              }
              case 1: {
                LinkSpec intra = pick();
                LinkSpec inter = pick();
                int coord_region =
                    rng.nextBounded(4) == 0
                        ? 99
                        : region_pool[rng.nextBounded(region_pool.size())];
                c.connectRegions(intra, inter, coord_region);
                for (int from = -1; from < n; ++from) {
                    for (int to = -1; to < n; ++to) {
                        int rf = from < 0 ? coord_region
                                          : region[static_cast<size_t>(from)];
                        int rt = to < 0 ? coord_region
                                        : region[static_cast<size_t>(to)];
                        ref.cells[ref.index(from, to)] =
                            from == to ? LinkSpec{}
                                       : (rf == rt ? intra : inter);
                    }
                }
                ref.fill = ref.cells;
                ref.fillKnown = true;
                replay += " connect";
                break;
              }
              case 2:
              case 3: {
                int from = endpoint();
                int to = endpoint();
                LinkSpec v = pick();
                c.setLink(from, to, v);
                ref.cells[ref.index(from, to)] = v;
                replay += " set";
                break;
              }
              case 4: {
                // Set a pair back to its class default: the override
                // (if any) must disappear.
                int from = endpoint();
                int to = endpoint();
                LinkSpec v = ref.fill[ref.index(from, to)];
                c.setLink(from, to, v);
                ref.cells[ref.index(from, to)] = v;
                replay += " set-default";
                break;
              }
              default: {
                // Bulk assignment: a random subset of pairs (with
                // repeats; the last entry wins), the rest zero. Often
                // every pair, so whole class pairs collapse.
                std::vector<ClusterSpec::LinkEntry> entries;
                bool all_pairs = rng.nextBounded(2) == 0;
                LinkSpec common = pick();
                for (int from = -1; from < n; ++from) {
                    for (int to = -1; to < n; ++to) {
                        if (from == to ||
                            (!all_pairs && rng.nextBounded(3) == 0))
                            continue;
                        LinkSpec v =
                            rng.nextBounded(5) == 0 ? pick() : common;
                        entries.push_back({from, to, v});
                        if (rng.nextBounded(8) == 0)
                            entries.push_back({from, to, pick()});
                    }
                }
                if (rng.nextBounded(2) == 0)
                    std::reverse(entries.begin(), entries.end());
                std::fill(ref.cells.begin(), ref.cells.end(), LinkSpec{});
                for (const ClusterSpec::LinkEntry &e : entries)
                    ref.cells[ref.index(e.from, e.to)] = e.spec;
                ref.fillKnown = false;
                c.assignLinks(std::move(entries));
                replay += " assign";
                break;
              }
            }
            expectMatchesReference(c, ref, replay);
            if (::testing::Test::HasFatalFailure())
                return;

            // A sub-cluster of a random member subset (shuffled)
            // keeps exactly the members' links; self links are zero.
            std::vector<int> members;
            for (int i = 0; i < n; ++i) {
                if (rng.nextBounded(2) == 0)
                    members.push_back(i);
            }
            for (size_t i = members.size(); i > 1; --i)
                std::swap(members[i - 1], members[rng.nextBounded(i)]);
            ClusterSpec sub = c.subCluster(members);
            const int m = static_cast<int>(members.size());
            DenseLinks sub_ref(m);
            sub_ref.fillKnown = false;
            for (int a = -1; a < m; ++a) {
                for (int b = -1; b < m; ++b) {
                    if (a == b)
                        continue;
                    int from = a < 0 ? -1 : members[static_cast<size_t>(a)];
                    int to = b < 0 ? -1 : members[static_cast<size_t>(b)];
                    sub_ref.cells[sub_ref.index(a, b)] = c.link(from, to);
                }
            }
            expectMatchesReference(sub, sub_ref, replay + " sub");
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

TEST(ClusterLinks, GeneratedGeoClusterHasNoOverrides)
{
    ClusterSpec c = cluster::setups::geoDistributed24();
    // Three regions + the coordinator; every pair follows its class.
    EXPECT_EQ(c.numLinkClasses(), 4);
    EXPECT_EQ(c.numLinkOverrides(), 0u);
    EXPECT_DOUBLE_EQ(c.minLinkLatency(), 1e-3);
    // One override, then back to the class default: none again.
    c.setLink(0, 1, {1e9, 1e-4});
    EXPECT_EQ(c.numLinkOverrides(), 1u);
    EXPECT_DOUBLE_EQ(c.minLinkLatency(), 1e-4);
    c.setLink(0, 1, {10e9, 1e-3});
    EXPECT_EQ(c.numLinkOverrides(), 0u);
    EXPECT_DOUBLE_EQ(c.minLinkLatency(), 1e-3);
}

TEST(ClusterLinks, MinLatencyIgnoresSingletonClassDiagonalAndOverriddenDefaults)
{
    // One node per region: no (c, c) pair exists, so the 0-latency
    // intra default must not count.
    ClusterSpec c;
    for (int i = 0; i < 3; ++i) {
        NodeSpec node;
        node.name = "solo" + std::to_string(i);
        node.gpu = cluster::gpus::t4();
        node.region = i;
        c.addNode(std::move(node));
    }
    c.connectRegions({10e9, 0.0}, {100e6, 50e-3}, 0);
    // The coordinator shares region 0 with node 0: intra, latency 0.
    EXPECT_DOUBLE_EQ(c.minLinkLatency(), 0.0);
    c.setLink(cluster::kCoordinator, 0, {10e9, 2e-3});
    c.setLink(0, cluster::kCoordinator, {10e9, 3e-3});
    // Both coordinator<->node 0 pairs are overridden now; every
    // remaining pair is inter-region.
    EXPECT_DOUBLE_EQ(c.minLinkLatency(), 2e-3);
}

TEST(ClusterSetups, HighHeterogeneity42Composition)
{
    ClusterSpec c = cluster::setups::highHeterogeneity42();
    EXPECT_EQ(c.numNodes(), 42);
    int multi_gpu = 0;
    for (int i = 0; i < c.numNodes(); ++i)
        multi_gpu += c.node(i).numGpus > 1;
    EXPECT_EQ(multi_gpu, 14); // 4 2xL4 + 6 2xT4 + 4 4xT4
}

TEST(ClusterSetups, SummaryString)
{
    ClusterSpec c = cluster::setups::plannerCluster10();
    EXPECT_EQ(c.summary(), "4xL4 + 6xT4 (10 nodes)");
}

TEST(NodeSpec, MultiGpuAggregation)
{
    NodeSpec node;
    node.gpu = cluster::gpus::t4();
    node.numGpus = 4;
    EXPECT_DOUBLE_EQ(node.totalTflops(), 4 * 65.0);
    EXPECT_EQ(node.totalMemoryBytes(), 4 * node.gpu.memoryBytes());
}

class ProfilerTest : public ::testing::Test
{
  protected:
    TransformerSpec model_spec = model::catalog::llama70b();
    Profiler profiler{model_spec};
    NodeSpec a100{"a100", cluster::gpus::a100_40(), 1, 0};
    NodeSpec t4{"t4", cluster::gpus::t4(), 1, 0};
    NodeSpec l4{"l4", cluster::gpus::l4(), 1, 0};
};

TEST_F(ProfilerTest, MaxLayersHonorsHalfVramRule)
{
    int layers = profiler.maxLayers(a100);
    // Weights for that many layers fit in half the usable VRAM.
    double usable = 0.9 * a100.totalMemoryBytes();
    EXPECT_LE(layers * model_spec.layerBytes(), usable * 0.5);
    EXPECT_GT((layers + 1) * model_spec.layerBytes(), usable * 0.5);
}

TEST_F(ProfilerTest, HardMaxExceedsSoftMax)
{
    EXPECT_GT(profiler.hardMaxLayers(a100), profiler.maxLayers(a100));
    EXPECT_LE(profiler.hardMaxLayers(a100), model_spec.numLayers);
}

TEST_F(ProfilerTest, KvCapacityDecreasesWithLayers)
{
    int64_t kv4 = profiler.kvCapacityBytes(a100, 4);
    int64_t kv8 = profiler.kvCapacityBytes(a100, 8);
    EXPECT_GT(kv4, kv8);
    EXPECT_GT(kv8, 0);
}

TEST_F(ProfilerTest, ThroughputOrderingMatchesHardware)
{
    // At the same layer count, A100 beats both commodity GPUs. L4 and
    // T4 share the same 300 GB/s memory bandwidth, so in the
    // memory-bound decode regime L4 is no worse but may tie.
    double ta = profiler.decodeThroughput(a100, 4);
    double tl = profiler.decodeThroughput(l4, 4);
    double tt = profiler.decodeThroughput(t4, 4);
    EXPECT_GT(ta, tl);
    EXPECT_GE(tl, tt);
}

TEST_F(ProfilerTest, ThroughputZeroBeyondHardLimit)
{
    int hard = profiler.hardMaxLayers(t4);
    EXPECT_GT(profiler.decodeThroughput(t4, hard), 0.0);
    EXPECT_DOUBLE_EQ(profiler.decodeThroughput(t4, hard + 1), 0.0);
    EXPECT_DOUBLE_EQ(profiler.decodeThroughput(t4, 0), 0.0);
}

TEST_F(ProfilerTest, DecodeIterationMonotoneInBatchAndLayers)
{
    double t1 = profiler.decodeIterationSeconds(a100, 4, 8, 800);
    double t2 = profiler.decodeIterationSeconds(a100, 4, 64, 800);
    double t3 = profiler.decodeIterationSeconds(a100, 8, 8, 800);
    EXPECT_LE(t1, t2);
    EXPECT_LT(t1, t3);
}

TEST_F(ProfilerTest, PromptSecondsScaleWithTokens)
{
    double short_prompt = profiler.promptSeconds(a100, 8, 128, 128);
    double long_prompt = profiler.promptSeconds(a100, 8, 1024, 1024);
    EXPECT_LT(short_prompt, long_prompt);
}

TEST_F(ProfilerTest, LinkTokenCapacityMatchesFig2Arithmetic)
{
    // Fig. 2: a link's capacity is bandwidth / per-token payload.
    cluster::LinkSpec link{10e9, 1e-3}; // 10 Gb/s
    double act = profiler.linkTokensPerSecond(
        link, profiler.activationBytes());
    EXPECT_NEAR(act, 10e9 / 8.0 / 16384.0, 1.0);
    double tok = profiler.linkTokensPerSecond(link,
                                              profiler.tokenBytes());
    EXPECT_NEAR(tok, 10e9 / 8.0 / 4.0, 1.0);
}

TEST_F(ProfilerTest, UpperBoundPositiveAndFinite)
{
    ClusterSpec c = cluster::setups::singleCluster24();
    double bound = profiler.throughputUpperBound(c);
    EXPECT_GT(bound, 0.0);
    EXPECT_LT(bound, 1e7);
}

TEST(Profiler, ThirtyBFitsMoreLayersThanSeventyB)
{
    NodeSpec t4{"t4", cluster::gpus::t4(), 1, 0};
    Profiler p30(model::catalog::llama30b());
    Profiler p70(model::catalog::llama70b());
    EXPECT_GT(p30.maxLayers(t4), p70.maxLayers(t4));
}

} // namespace
} // namespace helix
