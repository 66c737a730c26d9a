/**
 * @file
 * Serial-vs-parallel differential harness for the sharded simulation
 * executor (sim/executor.h). Generated clusters (gen:<preset>:<n>,
 * n in {16, 64, 256}) are planned with the Swarm planner and driven
 * through offline, bursty, churn+repair, and drift scenarios; every
 * scenario runs once with the reference serial loop (sim_threads 1)
 * and once per parallel thread count in {2, 4, 8}. The parallel runs
 * must reproduce the serial SimMetrics BYTE-identically — every
 * double compared via its %.17g digits, not a tolerance — and the
 * JSON/CSV experiment emitters must produce identical bytes too.
 *
 * Every parallel run is one "instance"; the default table gives 24.
 * HELIX_FUZZ_ITERS rescales the budget by repeating the table with
 * fresh trace seeds (soak) or truncating it (quick smoke). On failure
 * each assertion carries a single replay line (preset, node count,
 * scenario, trace seed, thread count) that reproduces the instance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "exp/experiment.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/scheduler.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/random.h"

namespace helix {
namespace sim {
namespace {

/** %.17g rendering: two doubles print identically iff they are the
 *  same value (modulo signed zero, which the simulator never emits),
 *  so string equality is byte-level equality of the metrics. */
std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
appendStat(std::ostringstream &out, const char *name,
           const StatAccumulator &stat)
{
    out << name << " count=" << stat.count();
    if (stat.count() == 0) {
        out << "\n";
        return;
    }
    out << " sum=" << num(stat.sum()) << " mean=" << num(stat.mean())
        << " min=" << num(stat.min()) << " max=" << num(stat.max())
        << " p50=" << num(stat.percentile(50.0))
        << " p99=" << num(stat.percentile(99.0)) << "\n";
}

/** Exhaustive textual fingerprint of a SimMetrics: every scalar,
 *  every flow event, every node stat, every link stat, every tenant
 *  stat. helix-analyze's metrics-schema check cross-references the
 *  field tokens emitted here against the schema table in
 *  src/exp/schema.cpp, so new SimMetrics fields must be added to
 *  both (and to the emitters) or the lint CI job fails. */
std::string
fingerprint(const SimMetrics &metrics)
{
    std::ostringstream out;
    out << "decodeThroughput=" << num(metrics.decodeThroughput)
        << "\npromptThroughput=" << num(metrics.promptThroughput)
        << "\narrived=" << metrics.requestsArrived
        << " admitted=" << metrics.requestsAdmitted
        << " completed=" << metrics.requestsCompleted
        << " rejected=" << metrics.requestsRejected
        << " restarted=" << metrics.requestsRestarted
        << " preempted=" << metrics.requestsPreempted
        << "\ndecodeTokens=" << metrics.decodeTokensInWindow
        << " promptTokens=" << metrics.promptTokensInWindow
        << "\navgKvUtilization=" << num(metrics.avgKvUtilization)
        << " simulatedSeconds=" << num(metrics.simulatedSeconds)
        << " jain=" << num(metrics.jainIndex)
        << "\n";
    appendStat(out, "promptLatency", metrics.promptLatency);
    appendStat(out, "decodeLatency", metrics.decodeLatency);
    for (const SimMetrics::FlowEvent &event : metrics.flowEvents) {
        out << "flow t=" << num(event.time) << " node=" << event.node
            << " kind=" << toString(event.kind)
            << " resolve=" << toString(event.resolveKind)
            << " flow=" << num(event.flow) << "\n";
    }
    for (size_t i = 0; i < metrics.nodeStats.size(); ++i) {
        const SimMetrics::NodeStat &stat = metrics.nodeStats[i];
        out << "node " << i << " batches=" << stat.batches
            << " items=" << stat.itemsProcessed
            << " tokens=" << stat.tokensProcessed
            << " busy=" << num(stat.busySeconds)
            << " kvUtil=" << num(stat.kvUtilization) << "\n";
    }
    for (const LinkStat &stat : metrics.linkStats) {
        out << "link " << stat.from << "->" << stat.to
            << " transfers=" << stat.transfers
            << " bytes=" << num(stat.totalBytes)
            << " busy=" << num(stat.busySeconds)
            << " maxDelay=" << num(stat.maxQueueDelayS)
            << " totalDelay=" << num(stat.totalQueueDelayS) << "\n";
    }
    for (size_t t = 0; t < metrics.tenantStats.size(); ++t) {
        const SimMetrics::TenantStat &stat = metrics.tenantStats[t];
        out << "tenant " << t << " name=" << stat.name
            << " weight=" << num(stat.weight)
            << " tput=" << num(stat.decodeThroughput)
            << " arrived=" << stat.requestsArrived
            << " admitted=" << stat.requestsAdmitted
            << " completed=" << stat.requestsCompleted
            << " rejected=" << stat.requestsRejected
            << " preempted=" << stat.requestsPreempted
            << " tokens=" << stat.decodeTokensInWindow
            << " ttft=" << num(stat.ttftAttainment) << "/"
            << stat.ttftMet << ":" << stat.ttftSamples
            << " tpot=" << num(stat.tpotAttainment) << "/"
            << stat.tpotMet << ":" << stat.tpotSamples << "\n";
    }
    return out.str();
}

/** Wrap a metrics value as one JobResult so the real JSON and CSV
 *  emitters compare at the byte level too (the wall clock is pinned:
 *  it is the one field allowed to differ between runs). */
std::string
emitterBytes(const SimMetrics &metrics, const std::string &label)
{
    exp::JobResult result;
    result.label = label;
    result.cluster = "gen";
    result.model = "llama30b";
    result.planner = "swarm";
    result.scheduler = "helix";
    result.arrivals = "poisson";
    result.plannedThroughput = 0.0;
    result.metrics = metrics;
    result.wallSeconds = 0.0;
    std::vector<exp::JobResult> results{result};
    return exp::resultsToJson(results) + "\n---\n" +
           exp::resultsToCsv(results);
}

enum class Scenario
{
    Offline,
    Bursty,
    ChurnRepair,
    Drift,
};

const char *
toString(Scenario scenario)
{
    switch (scenario) {
      case Scenario::Offline:     return "offline";
      case Scenario::Bursty:      return "bursty";
      case Scenario::ChurnRepair: return "churn+repair";
      case Scenario::Drift:       return "drift";
    }
    return "?";
}

struct DiffConfig
{
    const char *preset;
    int numNodes;
    Scenario scenario;
    int numRequests;
    double rate; // requests/s
};

/** Default table: 8 configs x 3 thread counts = 24 instances. */
const DiffConfig kConfigs[] = {
    {"homogeneous", 16, Scenario::Offline, 200, 6.0},
    {"two-tier", 16, Scenario::Bursty, 200, 4.0},
    {"long-tail-heterogeneous", 16, Scenario::ChurnRepair, 200, 4.0},
    {"two-tier", 16, Scenario::Drift, 200, 4.0},
    {"geo-distributed", 64, Scenario::Offline, 240, 6.0},
    {"two-tier", 64, Scenario::ChurnRepair, 240, 6.0},
    {"long-tail-heterogeneous", 256, Scenario::Offline, 240, 8.0},
    {"geo-distributed", 256, Scenario::Bursty, 240, 8.0},
};
const int kThreadCounts[] = {2, 4, 8};
constexpr int kDefaultInstances = 24;

/** Total instance budget: HELIX_FUZZ_ITERS or the default 24. */
int
instanceBudget()
{
    const char *env = std::getenv("HELIX_FUZZ_ITERS");
    if (!env || *env == '\0')
        return kDefaultInstances;
    int value = std::atoi(env);
    return value > 0 ? value : kDefaultInstances;
}

SimConfig
scenarioSimConfig(const DiffConfig &config)
{
    SimConfig sim_config;
    sim_config.warmupSeconds = 5.0;
    sim_config.measureSeconds = 40.0;
    sim_config.collectLinkStats = true;
    switch (config.scenario) {
      case Scenario::Offline:
      case Scenario::Bursty:
        break;
      case Scenario::ChurnRepair:
        sim_config.churnEvents = {
            {ChurnEvent::Kind::Fail, 1, 12.0},
            {ChurnEvent::Kind::Recover, 1, 26.0},
            {ChurnEvent::Kind::Fail, config.numNodes / 2, 18.0},
        };
        break;
      case Scenario::Drift:
        sim_config.driftThreshold = 0.15;
        sim_config.nodeSlowdown.assign(
            static_cast<size_t>(config.numNodes), 1.0);
        sim_config.nodeSlowdown[0] = 2.5;
        sim_config.nodeSlowdown[config.numNodes / 2] = 1.8;
        break;
    }
    return sim_config;
}

std::vector<trace::Request>
makeTrace(const DiffConfig &config, uint64_t trace_seed)
{
    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 120;
    lengths.maxPromptLen = 512;
    lengths.targetMeanOutput = 40;
    lengths.maxOutputLen = 128;
    trace::TraceGenerator gen(trace_seed, lengths);
    if (config.scenario == Scenario::Bursty) {
        trace::BurstyArrivals arrivals(config.rate / 2.0, 5.0, 6.0,
                                       20.0);
        return gen.generateCount(config.numRequests, arrivals);
    }
    trace::PoissonArrivals arrivals(config.rate);
    return gen.generateCount(config.numRequests, arrivals);
}

/** One full simulation with a fresh scheduler (scheduler state must
 *  not leak between the serial and parallel runs). */
SimMetrics
runOnce(const cluster::ClusterSpec &clus,
        const cluster::Profiler &profiler,
        const placement::ModelPlacement &placement,
        const scheduler::Topology &topo,
        const std::vector<trace::Request> &requests,
        SimConfig sim_config, int sim_threads)
{
    sim_config.simThreads = sim_threads;
    scheduler::HelixScheduler sched(topo);
    ClusterSimulator simulator(clus, profiler, placement, sched,
                               sim_config);
    return simulator.run(requests);
}

/** Runs serial + all parallel thread counts for one config; returns
 *  the number of instances (parallel runs) executed, up to @p cap. */
int
runConfig(const DiffConfig &config, uint64_t trace_seed, int cap)
{
    if (cap <= 0)
        return 0;
    cluster::gen::GeneratorConfig gen_config;
    gen_config.preset = config.preset;
    gen_config.numNodes = config.numNodes;
    gen_config.seed = 42;
    auto clus = cluster::gen::generate(gen_config);
    if (!clus.has_value()) {
        ADD_FAILURE() << "generator rejected preset "
                      << config.preset;
        return 0;
    }
    auto model = model::catalog::llama30b();
    cluster::Profiler profiler(model);
    placement::SwarmPlanner planner;
    auto placement = planner.plan(*clus, profiler);
    placement::PlacementGraph graph(*clus, profiler, placement);
    scheduler::Topology topo(*clus, profiler, placement, graph);

    auto requests = makeTrace(config, trace_seed);
    SimConfig sim_config = scenarioSimConfig(config);

    SimMetrics serial = runOnce(*clus, profiler, placement, topo,
                                requests, sim_config, 1);
    std::string serial_print = fingerprint(serial);
    std::string serial_bytes = emitterBytes(serial, "serial");
    // The serial run must do real work, or byte-equality is vacuous.
    EXPECT_GT(serial.requestsCompleted, 0)
        << "preset=" << config.preset << " n=" << config.numNodes
        << " scenario=" << toString(config.scenario);

    int instances = 0;
    for (int threads : kThreadCounts) {
        if (instances >= cap)
            break;
        std::ostringstream replay;
        replay << "replay: preset=" << config.preset
               << " n=" << config.numNodes
               << " scenario=" << toString(config.scenario)
               << " cluster_seed=42 trace_seed=" << trace_seed
               << " sim_threads=" << threads;
        SimMetrics parallel = runOnce(*clus, profiler, placement,
                                      topo, requests, sim_config,
                                      threads);
        EXPECT_EQ(serial_print, fingerprint(parallel)) << replay.str();
        EXPECT_EQ(serial_bytes, emitterBytes(parallel, "serial"))
            << replay.str();
        ++instances;
    }
    return instances;
}

TEST(SimDifferential, ParallelMatchesSerialByteForByte)
{
    const int budget = instanceBudget();
    int instances = 0;
    // Repeat the table with fresh trace seeds until the budget is
    // spent; the default budget covers it exactly once.
    for (uint64_t round = 0; instances < budget; ++round) {
        for (const DiffConfig &config : kConfigs) {
            if (instances >= budget)
                break;
            instances += runConfig(config, 3 + round,
                                   budget - instances);
        }
    }
    SUCCEED() << instances << " differential instances";
}

/** FNV-1a of a fingerprint: pins a whole SimMetrics in one literal. */
uint64_t
fnv1a(const std::string &text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Fixture of the arrival-order cases: a 16-node two-tier cluster
 * planned with Swarm (positive link latencies, so sim_threads > 1
 * really runs the sharded executor) and a 100-request Poisson trace
 * that the cases below reorder, tie and shift.
 */
struct ArrivalFixture
{
    cluster::ClusterSpec clus;
    model::TransformerSpec model = model::catalog::llama30b();
    cluster::Profiler profiler{model};
    placement::ModelPlacement placement;
    std::unique_ptr<placement::PlacementGraph> graph;
    std::unique_ptr<scheduler::Topology> topo;
    std::vector<trace::Request> base;

    ArrivalFixture()
    {
        cluster::gen::GeneratorConfig gen_config;
        gen_config.preset = "two-tier";
        gen_config.numNodes = 16;
        gen_config.seed = 42;
        clus = *cluster::gen::generate(gen_config);
        placement = placement::SwarmPlanner().plan(clus, profiler);
        graph = std::make_unique<placement::PlacementGraph>(
            clus, profiler, placement);
        topo = std::make_unique<scheduler::Topology>(clus, profiler,
                                                     placement, *graph);
        base = makeTrace({"two-tier", 16, Scenario::Offline, 100, 6.0},
                         5);
    }
};

const ArrivalFixture &
arrivalFixture()
{
    static const ArrivalFixture fixture;
    return fixture;
}

/** Deterministic Fisher-Yates shuffle of the list (ids move along,
 *  so request index and id disagree afterwards). */
std::vector<trace::Request>
shuffled(std::vector<trace::Request> requests, uint64_t seed)
{
    Rng rng(seed);
    for (size_t i = requests.size(); i > 1; --i)
        std::swap(requests[i - 1], requests[rng.nextBounded(i)]);
    return requests;
}

/** Arrival times floored to whole seconds: about six requests share
 *  every instant, so ties fall through to the request index. */
std::vector<trace::Request>
tied(std::vector<trace::Request> requests)
{
    for (trace::Request &req : requests)
        req.arrivalS = std::floor(req.arrivalS);
    return requests;
}

/** An 18 s run: the sharded executor rounds on the 1 ms minimum link
 *  latency, so the horizon sets the parallel runs' cost. */
SimConfig
arrivalSimConfig(int sim_threads)
{
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 16.0;
    config.collectLinkStats = true;
    config.simThreads = sim_threads;
    return config;
}

struct ArrivalCase
{
    const char *name;
    std::vector<trace::Request> requests;
    std::vector<ChurnEvent> churn;
    /** FNV-1a of the serial fingerprint, computed with the event loop
     *  that queued every arrival up front. */
    uint64_t pinned;
};

std::vector<ArrivalCase>
arrivalCases()
{
    const std::vector<trace::Request> &base = arrivalFixture().base;
    std::vector<ArrivalCase> cases;
    cases.push_back({"sorted", base, {}, 0x55d5ae20d8dafe0dULL});
    // Without exact ties the request index decides nothing, so the
    // shuffled list must reproduce the sorted run bit for bit.
    cases.push_back(
        {"unsorted", shuffled(base, 17), {}, 0x55d5ae20d8dafe0dULL});
    const std::vector<trace::Request> ties = tied(base);
    cases.push_back({"ties", ties, {}, 0xd2acd13c6a0d11e8ULL});
    cases.push_back(
        {"ties-unsorted", shuffled(ties, 23), {}, 0x2a9864ee8eca0012ULL});
    // Negative arrivals clamp to t = 0: a sorted negative prefix, and
    // one late entry whose clamp puts it out of list order.
    std::vector<trace::Request> negative = base;
    for (size_t i = 0; i < 8; ++i)
        negative[i].arrivalS = -0.5 * static_cast<double>(8 - i);
    negative[40].arrivalS = -1.0;
    cases.push_back({"negative", negative, {}, 0xced4839858a4b3d3ULL});
    // Churn at instants where requests arrive (taken from the trace
    // itself): each tie must put the arrivals ahead of the fail or
    // recover event.
    const double fail_at = ties[40].arrivalS;
    const double recover_at = ties[70].arrivalS;
    cases.push_back({"churn-tie",
                     ties,
                     {{ChurnEvent::Kind::Fail, 1, fail_at},
                      {ChurnEvent::Kind::Recover, 1, recover_at},
                      {ChurnEvent::Kind::Fail, 8, recover_at}},
                     0xe19dd75a587408e2ULL});
    cases.push_back({"empty", {}, {}, 0x65d6e5909162e70fULL});
    return cases;
}

SimMetrics
runArrivalCase(const ArrivalCase &arrival_case, int sim_threads)
{
    const ArrivalFixture &fx = arrivalFixture();
    SimConfig config = arrivalSimConfig(sim_threads);
    config.churnEvents = arrival_case.churn;
    scheduler::HelixScheduler sched(*fx.topo);
    ClusterSimulator simulator(fx.clus, fx.profiler, fx.placement, sched,
                               config);
    return simulator.run(arrival_case.requests);
}

TEST(SimArrivalOrder, CasesMatchAcrossThreadsAndPinned)
{
    const std::vector<ArrivalCase> cases = arrivalCases();
    for (const ArrivalCase &arrival_case : cases) {
        SimMetrics serial = runArrivalCase(arrival_case, 1);
        const std::string serial_print = fingerprint(serial);
        if (!arrival_case.requests.empty()) {
            EXPECT_GT(serial.requestsCompleted, 0) << arrival_case.name;
        }
        EXPECT_EQ(serial.requestsArrived,
                  static_cast<long>(arrival_case.requests.size()))
            << arrival_case.name;
        EXPECT_EQ(fnv1a(serial_print), arrival_case.pinned)
            << arrival_case.name << "\n" << serial_print;
        for (int threads : {2, 4}) {
            EXPECT_EQ(serial_print,
                      fingerprint(runArrivalCase(arrival_case, threads)))
                << arrival_case.name << " sim_threads=" << threads;
        }
    }
}

TEST(SimArrivalOrder, ReusedSimulatorMatchesFreshOne)
{
    // A second run() on one simulator must equal a fresh simulator's
    // run on the same scheduler (the scheduler keeps its own state
    // across runs): nothing of the first run's trace, clock, node,
    // link or live-topology state may leak into the second.
    const ArrivalFixture &fx = arrivalFixture();
    const std::vector<ArrivalCase> cases = arrivalCases();
    const ArrivalCase &first = cases[5];  // churn-tie
    const ArrivalCase &second = cases[1]; // unsorted
    // FNV-1a of the second run's fingerprint, computed with fresh
    // simulators and the event loop that queued every arrival.
    constexpr uint64_t kSecondRunPinned = 0x809a9a7a4facec3eULL;
    for (int threads : {1, 2, 4}) {
        SimConfig config = arrivalSimConfig(threads);
        config.churnEvents = first.churn;
        std::string fresh_print;
        {
            scheduler::HelixScheduler sched(*fx.topo);
            ClusterSimulator before(fx.clus, fx.profiler, fx.placement,
                                    sched, config);
            (void)before.run(first.requests);
            ClusterSimulator fresh(fx.clus, fx.profiler, fx.placement,
                                   sched, config);
            fresh_print = fingerprint(fresh.run(second.requests));
        }
        scheduler::HelixScheduler sched(*fx.topo);
        ClusterSimulator simulator(fx.clus, fx.profiler, fx.placement,
                                   sched, config);
        EXPECT_EQ(fnv1a(fingerprint(simulator.run(first.requests))),
                  first.pinned)
            << "sim_threads=" << threads;
        const std::string reused_print =
            fingerprint(simulator.run(second.requests));
        EXPECT_EQ(reused_print, fresh_print) << "sim_threads=" << threads;
        EXPECT_EQ(fnv1a(reused_print), kSecondRunPinned)
            << "sim_threads=" << threads << "\n" << reused_print;
    }
}

} // namespace
} // namespace sim
} // namespace helix
