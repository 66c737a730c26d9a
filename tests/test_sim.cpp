/**
 * @file
 * Tests for the discrete-event serving simulator: request accounting
 * conservation, throughput/latency sanity, KV occupancy invariants,
 * chunked prefill, link congestion statistics, and backpressure.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "core/helix.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "scheduler/scheduler.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace helix {
namespace sim {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Profiler;

/** Small 4-node fixture: two parallel 2-stage pipelines on a tiny
 *  12-layer model, fast uniform network. */
class SimFixture : public ::testing::Test
{
  protected:
    SimFixture()
    {
        for (int i = 0; i < 4; ++i) {
            NodeSpec node;
            node.name = "t4-" + std::to_string(i);
            node.gpu = cluster::gpus::t4();
            clusterSpec.addNode(std::move(node));
        }
        clusterSpec.setUniformLinks(10e9, 1e-3);
        toy = model::catalog::llama30b();
        toy.numLayers = 12;
        profiler = std::make_unique<Profiler>(toy);
        placement.nodes = {{0, 6}, {6, 6}, {0, 6}, {6, 6}};
        graph = std::make_unique<placement::PlacementGraph>(
            clusterSpec, *profiler, placement);
        topo = std::make_unique<scheduler::Topology>(
            clusterSpec, *profiler, placement, *graph);
    }

    std::vector<trace::Request>
    makeRequests(int count, double rate, uint64_t seed = 3)
    {
        trace::LengthModel lengths;
        lengths.targetMeanPrompt = 120;
        lengths.maxPromptLen = 512;
        lengths.targetMeanOutput = 40;
        lengths.maxOutputLen = 128;
        trace::TraceGenerator gen(seed, lengths);
        trace::PoissonArrivals arrivals(rate);
        return gen.generateCount(count, arrivals);
    }

    ClusterSpec clusterSpec;
    model::TransformerSpec toy;
    std::unique_ptr<Profiler> profiler;
    placement::ModelPlacement placement;
    std::unique_ptr<placement::PlacementGraph> graph;
    std::unique_ptr<scheduler::Topology> topo;
};

TEST_F(SimFixture, RequestAccountingConserved)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 5.0;
    config.measureSeconds = 60.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(200, 5.0));
    EXPECT_GT(metrics.requestsArrived, 0);
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_LE(metrics.requestsCompleted, metrics.requestsAdmitted);
    EXPECT_LE(metrics.requestsAdmitted + metrics.requestsRejected,
              metrics.requestsArrived);
}

TEST_F(SimFixture, ThroughputPositiveUnderLoad)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 5.0;
    config.measureSeconds = 60.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(500, 10.0));
    EXPECT_GT(metrics.decodeThroughput, 0.0);
    EXPECT_GT(metrics.promptThroughput, 0.0);
    EXPECT_GT(metrics.promptLatency.count(), 0u);
    EXPECT_GT(metrics.decodeLatency.count(), 0u);
    EXPECT_GT(metrics.promptLatency.mean(), 0.0);
    EXPECT_GT(metrics.decodeLatency.mean(), 0.0);
}

TEST_F(SimFixture, LatencyRespectsPhysicalFloor)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(50, 0.5));
    // A decode token crosses at least 4 links (1 ms each) per
    // round trip plus two compute iterations.
    EXPECT_GE(metrics.decodeLatency.min(), 4e-3);
}

TEST_F(SimFixture, EmptyTraceYieldsZeroMetrics)
{
    scheduler::HelixScheduler sched(*topo);
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched);
    auto metrics = sim.run({});
    EXPECT_EQ(metrics.requestsArrived, 0);
    EXPECT_DOUBLE_EQ(metrics.decodeThroughput, 0.0);
}

TEST_F(SimFixture, NonFiniteArrivalTimeIsRejected)
{
    // A NaN arrival has no place in the event order (eventBefore is a
    // strict weak order only over comparable times); a list built in
    // code must not slip one past the trace parser's check.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<trace::Request> requests = makeRequests(20, 5.0);
    requests[7].arrivalS = std::numeric_limits<double>::quiet_NaN();
    scheduler::HelixScheduler sched(*topo);
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched);
    EXPECT_DEATH((void)sim.run(requests), "isfinite");
    requests[7].arrivalS = std::numeric_limits<double>::infinity();
    EXPECT_DEATH((void)sim.run(requests), "isfinite");
}

TEST_F(SimFixture, NodeStatsPopulated)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 30.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(200, 8.0));
    ASSERT_EQ(metrics.nodeStats.size(), 4u);
    for (const auto &stat : metrics.nodeStats) {
        EXPECT_GT(stat.batches, 0);
        EXPECT_GT(stat.tokensProcessed, 0);
        EXPECT_GT(stat.busySeconds, 0.0);
    }
}

TEST_F(SimFixture, LinkStatsCollectCongestion)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 30.0;
    config.collectLinkStats = true;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(200, 8.0));
    EXPECT_FALSE(metrics.linkStats.empty());
    double bytes = 0.0;
    for (const auto &link : metrics.linkStats)
        bytes += link.totalBytes;
    EXPECT_GT(bytes, 0.0);
}

/** Totals of a run's link statistics, printed exactly. */
std::string
linkStatTotals(const SimMetrics &metrics)
{
    long transfers = 0;
    double bytes = 0.0;
    double busy = 0.0;
    double queue_sum = 0.0;
    double queue_max = 0.0;
    for (const LinkStat &link : metrics.linkStats) {
        transfers += link.transfers;
        bytes += link.totalBytes;
        busy += link.busySeconds;
        queue_sum += link.totalQueueDelayS;
        queue_max = std::max(queue_max, link.maxQueueDelayS);
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "links=%zu transfers=%ld bytes=%.17g busy=%.17g "
                  "queue_sum=%.17g queue_max=%.17g",
                  metrics.linkStats.size(), transfers, bytes, busy,
                  queue_sum, queue_max);
    return buf;
}

TEST(SimLinkStats, GeoRunRowMajorWithPinnedTotals)
{
    // The paper's three-region geo cluster serving a 12-layer model
    // as two-stage pipelines, so transfers cross the WAN links too.
    ClusterSpec clus = cluster::setups::geoDistributed24();
    model::TransformerSpec toy = model::catalog::llama30b();
    toy.numLayers = 12;
    Profiler profiler(toy);
    placement::ModelPlacement placement;
    for (int i = 0; i < clus.numNodes(); ++i)
        placement.nodes.push_back(i % 2 == 0 ? placement::NodePlacement{0, 6}
                                             : placement::NodePlacement{6, 6});
    placement::PlacementGraph graph(clus, profiler, placement);
    scheduler::Topology topo(clus, profiler, placement, graph);

    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 120;
    lengths.maxPromptLen = 512;
    lengths.targetMeanOutput = 40;
    lengths.maxOutputLen = 128;
    trace::TraceGenerator gen(5, lengths);
    trace::PoissonArrivals arrivals(12.0);
    auto requests = gen.generateCount(400, arrivals);

    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 30.0;
    config.collectLinkStats = true;
    // Captured from the dense link-matrix implementation: per-link
    // state must be created lazily without changing a single value.
    const std::string golden =
        "links=49 transfers=42618 bytes=780960328 "
        "busy=58.914328188798962 queue_sum=0.83432753517742175 "
        "queue_max=0.013844479999999493";
    for (int threads : {1, 4}) {
        config.simThreads = threads;
        scheduler::HelixScheduler sched(topo);
        ClusterSimulator sim(clus, profiler, placement, sched, config);
        SimMetrics metrics = sim.run(requests);
        ASSERT_FALSE(metrics.linkStats.empty());
        for (size_t i = 1; i < metrics.linkStats.size(); ++i) {
            const LinkStat &a = metrics.linkStats[i - 1];
            const LinkStat &b = metrics.linkStats[i];
            EXPECT_TRUE(a.from < b.from ||
                        (a.from == b.from && a.to < b.to))
                << "entry " << i << ": (" << a.from << "," << a.to
                << ") then (" << b.from << "," << b.to << ")";
        }
        for (const LinkStat &link : metrics.linkStats)
            EXPECT_GT(link.transfers, 0);
        EXPECT_EQ(linkStatTotals(metrics), golden)
            << "sim_threads=" << threads;
    }
}

TEST_F(SimFixture, ActiveRequestCapEnforced)
{
    scheduler::WalkScheduler sched(*topo,
                                   scheduler::WalkPolicy::Random);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 30.0;
    config.maxActiveRequests = 5;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(300, 50.0));
    // Completions keep the window moving, but at no point can more
    // than 5 requests be admitted beyond completions; with 300
    // arrivals at a blast rate the backlog forces admissions to track
    // completions + 5.
    EXPECT_LE(metrics.requestsAdmitted,
              metrics.requestsCompleted + 5 +
                  metrics.requestsRejected);
}

TEST_F(SimFixture, OversizedRequestRejectedWhenIdle)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 1.0;
    config.measureSeconds = 30.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    // One request whose KV estimate exceeds every node's capacity.
    trace::Request monster{0, 0.0, 500000, 10};
    auto metrics = sim.run({monster});
    EXPECT_EQ(metrics.requestsRejected, 1);
    EXPECT_EQ(metrics.requestsAdmitted, 0);
}

TEST_F(SimFixture, ChunkedPrefillSplitsLongPrompts)
{
    // A single 500-token prompt with a 64-token budget must run as
    // ceil(500/64) = 8 chunks on its entry node; with a 4096 budget it
    // runs as one iteration. Decode iterations (outputLen = 4) add the
    // same batch count to both runs.
    trace::Request lone{0, 0.0, 500, 4};

    scheduler::HelixScheduler sched_small(*topo);
    SimConfig small_chunks;
    small_chunks.warmupSeconds = 0.0;
    small_chunks.measureSeconds = 30.0;
    small_chunks.maxBatchTokens = 64;
    ClusterSimulator sim_small(clusterSpec, *profiler, placement,
                               sched_small, small_chunks);
    auto m_small = sim_small.run({lone});

    scheduler::HelixScheduler sched_big(*topo);
    SimConfig big_chunks;
    big_chunks.warmupSeconds = 0.0;
    big_chunks.measureSeconds = 30.0;
    big_chunks.maxBatchTokens = 4096;
    ClusterSimulator sim_big(clusterSpec, *profiler, placement,
                             sched_big, big_chunks);
    auto m_big = sim_big.run({lone});

    ASSERT_EQ(m_small.requestsCompleted, 1);
    ASSERT_EQ(m_big.requestsCompleted, 1);
    long small_batches = 0;
    long big_batches = 0;
    for (const auto &stat : m_small.nodeStats)
        small_batches += stat.batches;
    for (const auto &stat : m_big.nodeStats)
        big_batches += stat.batches;
    // Two stages x 7 extra chunks each = 14 extra batches.
    EXPECT_EQ(small_batches - big_batches, 14);
}

TEST_F(SimFixture, DeterministicForSeedAndTrace)
{
    auto requests = makeRequests(150, 6.0, 11);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 30.0;

    scheduler::HelixScheduler sched1(*topo);
    ClusterSimulator sim1(clusterSpec, *profiler, placement, sched1,
                          config);
    auto m1 = sim1.run(requests);

    scheduler::HelixScheduler sched2(*topo);
    ClusterSimulator sim2(clusterSpec, *profiler, placement, sched2,
                          config);
    auto m2 = sim2.run(requests);

    EXPECT_EQ(m1.requestsCompleted, m2.requestsCompleted);
    EXPECT_DOUBLE_EQ(m1.decodeThroughput, m2.decodeThroughput);
    EXPECT_DOUBLE_EQ(m1.promptLatency.mean(), m2.promptLatency.mean());
}

TEST_F(SimFixture, WarmupStraddlingRequestsExcludedFromPromptLatency)
{
    // Requests that arrive during warmup but produce their first
    // token inside the window used to contribute their (arbitrarily
    // long) pre-window queueing to promptLatency. They must be
    // excluded: only requests measured entirely in-window count.
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 5.0;
    config.measureSeconds = 60.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    // All arrivals just before the warmup boundary; end-to-end first
    // token latency exceeds 10 ms (4 links x 1 ms plus two prompt
    // iterations), so every first token lands inside the window.
    std::vector<trace::Request> straddlers;
    for (int i = 0; i < 3; ++i)
        straddlers.push_back({i, 4.99, 100, 8});
    auto metrics = sim.run(straddlers);
    ASSERT_EQ(metrics.requestsCompleted, 3);
    EXPECT_GT(metrics.decodeTokensInWindow, 0);
    EXPECT_EQ(metrics.promptLatency.count(), 0u);
}

TEST_F(SimFixture, WarmupStraddlingRequestsExcludedFromDecodeLatency)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 5.0;
    config.measureSeconds = 120.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    // The straddler's first token arrives well before the window
    // (arrival at 0, light load) while its long decode finishes
    // inside it; the control runs entirely in-window.
    trace::Request straddler{0, 0.0, 100, 1500};
    trace::Request control{1, 20.0, 100, 16};
    auto metrics = sim.run({straddler, control});
    ASSERT_EQ(metrics.requestsCompleted, 2);
    // Only the control contributes to either latency metric.
    EXPECT_EQ(metrics.promptLatency.count(), 1u);
    EXPECT_EQ(metrics.decodeLatency.count(), 1u);
}

TEST_F(SimFixture, EwmaThroughputTracksBusyAverageRate)
{
    // The throughput EWMA is duration-weighted: after a long steady
    // run it must sit near each node's busy-time average rate rather
    // than being dominated by whichever small batches ran last.
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(400, 8.0));
    for (size_t i = 0; i < metrics.nodeStats.size(); ++i) {
        const auto &stat = metrics.nodeStats[i];
        ASSERT_GT(stat.busySeconds, 0.0);
        double avg_rate = static_cast<double>(stat.tokensProcessed) /
                          stat.busySeconds;
        double ewma = sim.recentThroughput(static_cast<int>(i));
        EXPECT_GT(ewma, 0.2 * avg_rate) << "node " << i;
        EXPECT_LT(ewma, 5.0 * avg_rate) << "node " << i;
    }
}

TEST_F(SimFixture, NodeFailureForcesRescheduling)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    config.churnEvents = {{ChurnEvent::Kind::Fail, 1, 10.0}};
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(200, 5.0));
    // Requests in flight through node 1 at the failure restart and
    // complete on the surviving pipeline.
    EXPECT_GT(metrics.requestsRestarted, 0);
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_FALSE(sim.nodeAlive(1));
    EXPECT_TRUE(sim.nodeAlive(0));
    // Conservation still holds after restarts.
    EXPECT_LE(metrics.requestsCompleted, metrics.requestsAdmitted);
    EXPECT_LE(metrics.requestsAdmitted + metrics.requestsRejected,
              metrics.requestsArrived);
    // The dead node stops executing; the surviving same-layer replica
    // keeps going and ends up with strictly more batches.
    EXPECT_GT(metrics.nodeStats[3].batches,
              metrics.nodeStats[1].batches);
}

TEST_F(SimFixture, ChurnDoesNotDoubleCountWindowMetrics)
{
    // A restarted request regenerates its prompt and its already
    // delivered tokens; none of that recovery work may be recounted
    // as served tokens or resampled into the latency distributions.
    // The single request routes onto one of the two pipelines; fail
    // each candidate node in turn so at least one run restarts it.
    trace::Request lone{0, 0.0, 200, 40};
    long restarts = 0;
    for (int fail_node : {1, 3}) {
        scheduler::HelixScheduler sched(*topo);
        SimConfig config;
        config.warmupSeconds = 0.0;
        config.measureSeconds = 120.0;
        config.churnEvents = {
            {ChurnEvent::Kind::Fail, fail_node, 0.5}};
        ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                             config);
        auto metrics = sim.run({lone});
        restarts += metrics.requestsRestarted;
        ASSERT_EQ(metrics.requestsCompleted, 1);
        // Each of the 40 output tokens counts at most once (the
        // first is prompt completion, not decode), the prompt counts
        // at most once, and at most one latency sample per metric.
        EXPECT_LE(metrics.decodeTokensInWindow, 39);
        EXPECT_LE(metrics.promptTokensInWindow, 200);
        EXPECT_LE(metrics.promptLatency.count(), 1u);
        EXPECT_LE(metrics.decodeLatency.count(), 1u);
    }
    EXPECT_GE(restarts, 1);
}

TEST_F(SimFixture, NodeFailureDeterministic)
{
    auto requests = makeRequests(150, 6.0, 17);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 40.0;
    config.churnEvents = {{ChurnEvent::Kind::Fail, 0, 8.0}};

    scheduler::HelixScheduler sched1(*topo);
    ClusterSimulator sim1(clusterSpec, *profiler, placement, sched1,
                          config);
    auto m1 = sim1.run(requests);

    scheduler::HelixScheduler sched2(*topo);
    ClusterSimulator sim2(clusterSpec, *profiler, placement, sched2,
                          config);
    auto m2 = sim2.run(requests);

    EXPECT_EQ(m1.requestsCompleted, m2.requestsCompleted);
    EXPECT_EQ(m1.requestsRestarted, m2.requestsRestarted);
    EXPECT_DOUBLE_EQ(m1.decodeThroughput, m2.decodeThroughput);
    EXPECT_DOUBLE_EQ(m1.promptLatency.mean(),
                     m2.promptLatency.mean());
}

TEST_F(SimFixture, SlowNetworkRaisesLatency)
{
    // Same workload on a 100x slower, higher-latency network.
    ClusterSpec slow;
    for (int i = 0; i < 4; ++i)
        slow.addNode(clusterSpec.node(i));
    slow.setUniformLinks(100e6, 50e-3);
    placement::PlacementGraph slow_graph(slow, *profiler, placement);
    scheduler::Topology slow_topo(slow, *profiler, placement,
                                  slow_graph);

    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 40.0;

    scheduler::HelixScheduler fast_sched(*topo);
    ClusterSimulator fast_sim(clusterSpec, *profiler, placement,
                              fast_sched, config);
    auto fast = fast_sim.run(makeRequests(100, 2.0));

    scheduler::HelixScheduler slow_sched(slow_topo);
    ClusterSimulator slow_sim(slow, *profiler, placement, slow_sched,
                              config);
    auto slow_metrics = slow_sim.run(makeRequests(100, 2.0));

    EXPECT_GT(slow_metrics.decodeLatency.mean(),
              fast.decodeLatency.mean());
}

TEST_F(SimFixture, ParallelExecutorMatchesSerialExactly)
{
    // The sharded executor (SimConfig::simThreads > 1) must
    // reproduce the serial loop bit-for-bit on this fixture, churn
    // included (the 1 ms uniform link latency is the conservative
    // lookahead). EXPECT_EQ on doubles deliberately: identical bits,
    // not a tolerance.
    SimConfig base;
    base.warmupSeconds = 2.0;
    base.measureSeconds = 40.0;
    base.collectLinkStats = true;
    base.churnEvents = {{ChurnEvent::Kind::Fail, 1, 10.0},
                        {ChurnEvent::Kind::Recover, 1, 20.0}};
    auto requests = makeRequests(150, 4.0);

    SimConfig serial_cfg = base;
    serial_cfg.simThreads = 1;
    scheduler::HelixScheduler serial_sched(*topo);
    ClusterSimulator serial_sim(clusterSpec, *profiler, placement,
                                serial_sched, serial_cfg);
    auto serial = serial_sim.run(requests);

    for (int threads : {2, 4, 8}) {
        SimConfig parallel_cfg = base;
        parallel_cfg.simThreads = threads;
        scheduler::HelixScheduler parallel_sched(*topo);
        ClusterSimulator parallel_sim(clusterSpec, *profiler,
                                      placement, parallel_sched,
                                      parallel_cfg);
        auto parallel = parallel_sim.run(requests);

        EXPECT_EQ(parallel.decodeThroughput, serial.decodeThroughput)
            << "threads=" << threads;
        EXPECT_EQ(parallel.promptThroughput, serial.promptThroughput)
            << "threads=" << threads;
        EXPECT_EQ(parallel.requestsCompleted,
                  serial.requestsCompleted)
            << "threads=" << threads;
        EXPECT_EQ(parallel.requestsRestarted,
                  serial.requestsRestarted)
            << "threads=" << threads;
        EXPECT_EQ(parallel.avgKvUtilization, serial.avgKvUtilization)
            << "threads=" << threads;
        EXPECT_EQ(parallel.promptLatency.mean(),
                  serial.promptLatency.mean())
            << "threads=" << threads;
        EXPECT_EQ(parallel.decodeLatency.mean(),
                  serial.decodeLatency.mean())
            << "threads=" << threads;
        ASSERT_EQ(parallel.flowEvents.size(),
                  serial.flowEvents.size())
            << "threads=" << threads;
        for (size_t i = 0; i < serial.flowEvents.size(); ++i) {
            EXPECT_EQ(parallel.flowEvents[i].time,
                      serial.flowEvents[i].time);
            EXPECT_EQ(parallel.flowEvents[i].flow,
                      serial.flowEvents[i].flow);
        }
        ASSERT_EQ(parallel.nodeStats.size(), serial.nodeStats.size());
        for (size_t i = 0; i < serial.nodeStats.size(); ++i) {
            EXPECT_EQ(parallel.nodeStats[i].batches,
                      serial.nodeStats[i].batches)
                << "node " << i << " threads=" << threads;
            EXPECT_EQ(parallel.nodeStats[i].busySeconds,
                      serial.nodeStats[i].busySeconds)
                << "node " << i << " threads=" << threads;
        }
        ASSERT_EQ(parallel.linkStats.size(), serial.linkStats.size());
        for (size_t i = 0; i < serial.linkStats.size(); ++i) {
            EXPECT_EQ(parallel.linkStats[i].transfers,
                      serial.linkStats[i].transfers);
            EXPECT_EQ(parallel.linkStats[i].totalBytes,
                      serial.linkStats[i].totalBytes);
        }
    }
}

TEST_F(SimFixture, ZeroLatencyClusterFallsBackToSerial)
{
    // A cluster with zero propagation latency has no conservative
    // lookahead window; simThreads > 1 must silently use the serial
    // loop and still produce identical results to simThreads = 1.
    ClusterSpec flat;
    for (int i = 0; i < 4; ++i)
        flat.addNode(clusterSpec.node(i));
    flat.setUniformLinks(10e9, 0.0);
    placement::PlacementGraph flat_graph(flat, *profiler, placement);
    scheduler::Topology flat_topo(flat, *profiler, placement,
                                  flat_graph);
    auto requests = makeRequests(80, 3.0);

    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 20.0;
    scheduler::HelixScheduler serial_sched(flat_topo);
    ClusterSimulator serial_sim(flat, *profiler, placement,
                                serial_sched, config);
    auto serial = serial_sim.run(requests);

    config.simThreads = 4;
    scheduler::HelixScheduler parallel_sched(flat_topo);
    ClusterSimulator parallel_sim(flat, *profiler, placement,
                                  parallel_sched, config);
    auto parallel = parallel_sim.run(requests);

    EXPECT_EQ(parallel.decodeThroughput, serial.decodeThroughput);
    EXPECT_EQ(parallel.requestsCompleted, serial.requestsCompleted);
    EXPECT_EQ(parallel.promptLatency.mean(),
              serial.promptLatency.mean());
}

} // namespace
} // namespace sim
} // namespace helix
