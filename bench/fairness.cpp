/**
 * @file
 * Admission-control overhead benchmark for multi-tenant fair-share
 * serving (scheduler/fair_share.h). Plans a 1000-node generated
 * geo-distributed cluster once, then drives the same trace through
 * the simulator twice: no tenants declared (one implicit FIFO
 * tenant, never held or preempted) and a three-tenant fair-share
 * configuration with SLOs and preemption armed. The delta is the
 * cost of multi-class arbitration, usage tracking, and preemption
 * scanning on the event-loop hot path.
 *
 * Manual timing mirrors micro_sim.cpp: cluster generation, planning,
 * and trace generation happen outside the clock; only
 * ClusterSimulator::run() is measured, best-of-N. Numbers are
 * recorded in BENCH_fairness.json; `--smoke` shrinks the workload so
 * CTest can exercise the harness end to end.
 */

#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <vector>

#include "bench_common.h"
#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/fair_share.h"
#include "scheduler/scheduler.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/random.h"

namespace {

using namespace helix;

constexpr int kNumNodes = 1000;
constexpr double kArrivalRate = 40.0;

struct Fixture
{
    cluster::ClusterSpec clus;
    cluster::Profiler profiler;
    placement::ModelPlacement placement;
    std::unique_ptr<scheduler::Topology> topo;
    std::vector<trace::Request> requests;

    Fixture(const bench::Scale &scale,
            const std::vector<scheduler::Tenant> &tenants)
        : clus(buildCluster()), profiler(model::catalog::llama30b())
    {
        placement::SwarmPlanner planner;
        placement = planner.plan(clus, profiler);
        placement::PlacementGraph graph(clus, profiler, placement);
        topo = std::make_unique<scheduler::Topology>(
            clus, profiler, placement, graph);

        trace::LengthModel lengths;
        lengths.targetMeanPrompt = 120;
        lengths.maxPromptLen = 512;
        lengths.targetMeanOutput = 40;
        lengths.maxOutputLen = 128;
        trace::TraceGenerator gen(42, lengths);
        trace::PoissonArrivals arrivals(kArrivalRate);
        int num_requests = static_cast<int>(
            kArrivalRate *
            (scale.offlineWarmupS + scale.offlineMeasureS));
        requests = gen.generateCount(num_requests, arrivals);
        if (tenants.size() >= 2)
            labelRequests(tenants);
    }

    static cluster::ClusterSpec buildCluster()
    {
        cluster::gen::GeneratorConfig config;
        config.preset = "geo-distributed";
        config.numNodes = kNumNodes;
        config.seed = 42;
        auto generated = cluster::gen::generate(config);
        if (!generated.has_value())
            throw std::runtime_error("generator rejected preset");
        return *generated;
    }

    /** Weight-proportional tenant labels from a dedicated forked
     *  stream, mirroring helix::makeTrace. */
    void labelRequests(const std::vector<scheduler::Tenant> &tenants)
    {
        double total = 0.0;
        for (const scheduler::Tenant &tenant : tenants)
            total += tenant.weight;
        std::vector<double> cumulative;
        double acc = 0.0;
        for (const scheduler::Tenant &tenant : tenants) {
            acc += tenant.weight / total;
            cumulative.push_back(acc);
        }
        Rng rng = Rng(42).fork(0x74656e616e74ULL);
        for (trace::Request &request : requests) {
            double draw = rng.nextDouble();
            int t = 0;
            while (t + 1 < static_cast<int>(cumulative.size()) &&
                   draw >= cumulative[static_cast<size_t>(t)]) {
                ++t;
            }
            request.tenant = t;
        }
    }

    /** Best-of-@p reps timed run() (construction outside the clock). */
    double timedRun(const bench::Scale &scale,
                    const std::vector<scheduler::Tenant> &tenants,
                    int reps, sim::SimMetrics &metrics) const
    {
        sim::SimConfig config;
        config.warmupSeconds = scale.offlineWarmupS;
        config.measureSeconds = scale.offlineMeasureS;
        config.tenants = tenants;
        double best = 0.0;
        for (int rep = 0; rep < reps; ++rep) {
            scheduler::HelixScheduler sched(*topo);
            sim::ClusterSimulator simulator(clus, profiler, placement,
                                            sched, config);
            auto begin = std::chrono::steady_clock::now();
            metrics = simulator.run(requests);
            auto end = std::chrono::steady_clock::now();
            double seconds =
                std::chrono::duration<double>(end - begin).count();
            if (rep == 0 || seconds < best)
                best = seconds;
        }
        return best;
    }
};

std::vector<scheduler::Tenant>
benchTenants()
{
    scheduler::Tenant batch;
    batch.name = "batch";
    batch.weight = 1.0;
    scheduler::Tenant standard;
    standard.name = "standard";
    standard.weight = 2.0;
    scheduler::Tenant interactive;
    interactive.name = "interactive";
    interactive.weight = 4.0;
    interactive.sloTtftS = 2.0;
    interactive.sloTpotS = 0.5;
    return {batch, standard, interactive};
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace helix;
    bench::Scale scale = bench::Scale::fromArgs(argc, argv);
    const int reps = 3;
    const std::vector<scheduler::Tenant> tenants = benchTenants();

    Fixture baseline_fixture(scale, {});
    Fixture tenancy_fixture(scale, tenants);
    std::printf("fair-share admission overhead: %d-node "
                "geo-distributed cluster, %zu requests, best of %d\n",
                kNumNodes, baseline_fixture.requests.size(), reps);

    sim::SimMetrics baseline_metrics;
    double baseline_s = baseline_fixture.timedRun(
        scale, {}, reps, baseline_metrics);
    sim::SimMetrics tenancy_metrics;
    double tenancy_s = tenancy_fixture.timedRun(
        scale, tenants, reps, tenancy_metrics);

    std::printf("%-12s %12s %12s %12s %10s\n", "path", "run ms",
                "decode t/s", "completed", "preempted");
    std::printf("%-12s %12.2f %12.1f %12ld %10ld\n", "no-tenant",
                baseline_s * 1e3, baseline_metrics.decodeThroughput,
                baseline_metrics.requestsCompleted,
                baseline_metrics.requestsPreempted);
    std::printf("%-12s %12.2f %12.1f %12ld %10ld\n", "3-tenant",
                tenancy_s * 1e3, tenancy_metrics.decodeThroughput,
                tenancy_metrics.requestsCompleted,
                tenancy_metrics.requestsPreempted);
    double overhead = baseline_s > 0.0
                          ? (tenancy_s - baseline_s) / baseline_s
                          : 0.0;
    std::printf("admission overhead: %+.1f%%  jain=%.4f\n",
                overhead * 100.0, tenancy_metrics.jainIndex);
    for (const sim::SimMetrics::TenantStat &t :
         tenancy_metrics.tenantStats) {
        std::printf("  tenant %-12s w=%.0f tput=%8.1f done=%ld "
                    "pre=%ld\n",
                    t.name.c_str(), t.weight, t.decodeThroughput,
                    t.requestsCompleted, t.requestsPreempted);
    }

    // Sanity: the no-tenant run must not report tenant metrics, and
    // both runs consumed the same trace.
    if (!baseline_metrics.tenantStats.empty()) {
        std::fprintf(stderr,
                     "no-tenant path produced tenant stats\n");
        return 1;
    }
    if (baseline_metrics.requestsArrived !=
        tenancy_metrics.requestsArrived) {
        std::fprintf(stderr, "paths saw different traces\n");
        return 1;
    }
    return 0;
}
