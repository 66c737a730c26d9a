/**
 * @file
 * The Helix repository benchmark driver (see perfbench/README.md).
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --bench-dir DIR --out-dir DIR
 *
 * One workload per process: set up the cluster, planner, flow
 * topology and traces, then simulate an offline saturating phase and
 * three online phases at fixed absolute request rates. With --trace 0
 * it prints the end-to-end metrics; with --trace 1 it runs an
 * untraced and a traced pass and prints the per-layer metrics. Every
 * layer is timed from outside, around calls into its public API; no
 * library code is instrumented. The last stdout line is the JSON
 * result; exit status 1 means a check failed, 2 a usage error.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cluster/generator.h"
#include "core/helix.h"
#include "exp/experiment.h"
#include "io/serialization.h"
#include "scheduler/topology_manager.h"
#include "span_trace.h"
#include "util/logging.h"

namespace {

using namespace helix;
using perfbench::jsonString;
using perfbench::SpanTrace;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
fmt(const char *format, ...) __attribute__((format(printf, 1, 2)));

std::string
fmt(const char *format, ...)
{
    char buf[1024];
    va_list args;
    va_start(args, format);
    std::vsnprintf(buf, sizeof buf, format, args);
    va_end(args);
    return buf;
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/** Simulated warmup + measurement window of one phase, seconds. */
struct Window
{
    double warmupS = 0.0;
    double measureS = 0.0;
};

/** Node churn of churn-tenants: from kChurnFirstS on, every
 *  kChurnPeriodS the kChurnNodes busiest nodes fail together for
 *  kChurnDownS seconds. */
constexpr int kChurnNodes = 3;
constexpr double kChurnFirstS = 20.0;
constexpr double kChurnPeriodS = 100.0;
constexpr double kChurnDownS = 20.0;
/** Nodes slowed down (unprofiled degradation) and by how much. */
constexpr int kSlowNodes = 3;
constexpr double kSlowdown = 2.0;
constexpr double kDriftThreshold = 0.3;
/** Fair-share preemption of churn-tenants, armed. */
constexpr double kStarvationTolerance = 0.5;
constexpr double kPreemptionTimeoutS = 2.0;

struct Workload
{
    std::string name;
    /** Generator preset and size; empty preset = the paper's
     *  single24 cluster. */
    std::string preset;
    int nodes = 0;
    model::TransformerSpec model;
    /** Serve the pinned placement file (else the live swarm plan). */
    bool pinned = false;
    /** Live Helix planner budget, seconds (pinned workloads only). */
    double plannerBudgetS = 0.0;
    Window offline;
    Window online;
    /** rate-lo, rate-ref, rate-hi in requests/s (README "Ladder"). */
    double rates[3] = {0.0, 0.0, 0.0};
    /** Workload SLO limits (README "SLO limits"). */
    double sloTtftS = 0.0;
    double sloTpotS = 0.0;
    /** churn-tenants: tenants, churn, slowdown and drift. */
    bool churn = false;
    std::vector<scheduler::Tenant> tenants;
    /** Independent rate-ref replicas whose samples are pooled. */
    int refReplicas = 1;
};

/**
 * Seed of the generated clusters. It is fixed, so --seed varies the
 * traffic (arrivals, lengths, tenant labels) on one cluster per
 * workload: across seeds the metrics then move with the traffic, not
 * with a different hardware mix.
 */
constexpr uint64_t kClusterSeed = 1;

std::string
clusterName(const Workload &wl)
{
    return wl.preset.empty()
               ? std::string("single24")
               : fmt("gen:%s:%d:%" PRIu64, wl.preset.c_str(), wl.nodes,
                     kClusterSeed);
}

std::optional<cluster::ClusterSpec>
buildCluster(const Workload &wl)
{
    if (wl.preset.empty())
        return cluster::setups::singleCluster24();
    cluster::gen::GeneratorConfig config;
    config.preset = wl.preset;
    config.numNodes = wl.nodes;
    config.seed = kClusterSeed;
    return cluster::gen::generate(config);
}

/**
 * The workload catalog. Ladder rates are 0.5, 0.75 and 0.9 of the
 * offline peak at seed 1 (offline decode_tok_s / 232 mean output
 * tokens); SLO limits are 1.5x the rate-lo p99 at seed 1. Both are
 * constants so a change that moves the peak does not move the offered
 * load (README "Ladder rates and windows", "SLO limits").
 */
std::optional<Workload>
workloadByName(const std::string &name)
{
    Workload wl;
    wl.name = name;
    if (name == "paper-single24") {
        wl.model = model::catalog::llama70b();
        wl.pinned = true;
        wl.plannerBudgetS = 1.0;
        wl.offline = {60.0, 240.0};
        wl.online = {300.0, 1200.0};
        wl.rates[0] = 0.82;
        wl.rates[1] = 1.23;
        wl.rates[2] = 1.48;
        wl.sloTtftS = 7.6;
        wl.sloTpotS = 1.4;
    } else if (name == "geo-1k") {
        wl.preset = "geo-distributed";
        wl.nodes = 1000;
        wl.model = model::catalog::llama30b();
        wl.offline = {60.0, 30.0};
        wl.online = {120.0, 200.0};
        wl.rates[0] = 15.6;
        wl.rates[1] = 23.4;
        wl.rates[2] = 28.1;
        wl.sloTtftS = 28.0;
        wl.sloTpotS = 1.3;
    } else if (name == "churn-tenants") {
        wl.preset = "long-tail-heterogeneous";
        wl.nodes = 192;
        wl.model = model::catalog::llama30b();
        wl.offline = {60.0, 60.0};
        wl.online = {90.0, 400.0};
        wl.churn = true;
        wl.refReplicas = 4;
        wl.rates[0] = 7.9;
        wl.rates[1] = 11.8;
        wl.rates[2] = 14.2;
        wl.sloTtftS = 8.7;
        wl.sloTpotS = 0.64;
    } else {
        return std::nullopt;
    }
    if (wl.churn) {
        scheduler::Tenant batch{"batch", 1.0, 0.5, 0.0, 0.0};
        scheduler::Tenant standard{"standard", 2.0, 0.25, 0.0, 0.0};
        scheduler::Tenant interactive{"interactive", 4.0, 0.25,
                                      wl.sloTtftS, wl.sloTpotS};
        wl.tenants = {batch, standard, interactive};
    }
    return wl;
}

// ---------------------------------------------------------------------
// Set-up: cluster, profiler, placements, flow topology, traces
// ---------------------------------------------------------------------

/** Ladder rungs, in phase order. */
constexpr const char *kRungNames[] = {"offline", "rate-lo", "rate-ref",
                                      "rate-hi"};
constexpr int kOffline = 0;
constexpr int kRateRef = 2;

struct Phase
{
    std::string name;
    /** Index into kRungNames. */
    int rung = 0;
    /** Arrival rate, requests/s (Poisson). */
    double rate = 0.0;
    Window window;
    std::vector<trace::Request> requests;
    /** In-window arrivals that can still meet the TTFT limit. */
    long ttftEligible = 0;
    std::vector<sim::ChurnEvent> churn;
};

/** Per-layer figures of one set-up. */
struct SetupStats
{
    double clusterBuildS = 0.0;
    long clusterLinks = 0;
    double profilerBuildS = 0.0;
    double planS = 0.0;
    long candidates = 0;
    double boundRatio = 0.0;
    double graphBuildS = 0.0;
    double solveS = 0.0;
    long flowEdges = 0;
    double traceGenS = 0.0;
    long traceRequests = 0;
};

struct Prepared
{
    cluster::ClusterSpec cluster;
    std::unique_ptr<cluster::Profiler> profiler;
    placement::ModelPlacement served;
    std::unique_ptr<scheduler::Topology> topology;
    double servedFlow = 0.0;
    /** Max flow of the live planner's placement. */
    double plannedFlow = 0.0;
    std::vector<Phase> phases;
    std::vector<double> slowdown;
    SetupStats stats;
};

/** Run @p fn inside a span, adding its wall time to @p seconds. */
template <typename Fn>
auto
timed(SpanTrace *spans, const char *name, double &seconds, Fn &&fn)
{
    perfbench::ScopedSpan span(spans, name);
    Clock::time_point start = Clock::now();
    auto result = fn();
    seconds += secondsSince(start);
    return result;
}

[[noreturn]] void
fatal(const std::string &message)
{
    std::fprintf(stderr, "perfbench: %s\n", message.c_str());
    std::exit(1);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read " + path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** `key value` lines of the pinned placement's provenance file. */
std::map<std::string, std::string>
readProvenance(const std::string &path)
{
    std::map<std::string, std::string> fields;
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t space = line.find(' ');
        if (space != std::string::npos)
            fields[line.substr(0, space)] = line.substr(space + 1);
    }
    return fields;
}

uint64_t
phaseSeed(uint64_t seed, int rung, int replica)
{
    return Rng(seed)
        .fork(static_cast<uint64_t>(rung + 1 + 4 * replica))
        .nextU64();
}

/**
 * Poisson trace over the phase horizon, tenant-labelled by the
 * tenants' mixes from a stream of its own when tenancy is active.
 */
std::vector<trace::Request>
makePhaseTrace(const Workload &wl, uint64_t seed, const Phase &phase)
{
    trace::TraceGenerator generator(seed);
    trace::PoissonArrivals arrivals(phase.rate);
    std::vector<trace::Request> requests = generator.generate(
        phase.window.warmupS + phase.window.measureS, arrivals);
    if (wl.tenants.size() >= 2) {
        Rng rng = Rng(seed).fork(0x74656e616e74ULL);
        for (trace::Request &req : requests) {
            double u = rng.nextDouble();
            size_t t = 0;
            double acc = wl.tenants[0].mix;
            while (t + 1 < wl.tenants.size() && u >= acc)
                acc += wl.tenants[++t].mix;
            req.tenant = static_cast<int>(t);
        }
    }
    return requests;
}

/** Offline arrival rate: the library's offline default, 3x the
 *  served placement's max flow in requests/s. */
double
offlineRate(double served_flow)
{
    trace::LengthModel lengths;
    return 3.0 * served_flow /
           (lengths.targetMeanPrompt + lengths.targetMeanOutput);
}

/** Phase @p rung (replica @p replica) with its trace. */
Phase
makePhase(const Workload &wl, uint64_t seed, double served_flow, int rung,
          int replica)
{
    Phase phase;
    phase.rung = rung;
    phase.name = replica == 0 ? std::string(kRungNames[rung])
                              : fmt("%s.%d", kRungNames[rung], replica);
    phase.window = rung == kOffline ? wl.offline : wl.online;
    phase.rate = rung == kOffline ? offlineRate(served_flow)
                                  : wl.rates[rung - 1];
    phase.requests =
        makePhaseTrace(wl, phaseSeed(seed, rung, replica), phase);
    double begin = phase.window.warmupS;
    double last = begin + phase.window.measureS - wl.sloTtftS;
    for (const trace::Request &req : phase.requests) {
        if (req.arrivalS >= begin && req.arrivalS < last)
            ++phase.ttftEligible;
    }
    return phase;
}

Prepared
setup(const Workload &wl, uint64_t seed, const std::string &bench_dir,
      SpanTrace *spans)
{
    perfbench::ScopedSpan setup_span(spans, "bench.setup");
    Prepared prep;
    SetupStats &st = prep.stats;

    std::optional<cluster::ClusterSpec> built =
        timed(spans, "cluster.build", st.clusterBuildS,
              [&] { return buildCluster(wl); });
    if (!built)
        fatal("cluster generation failed for " + clusterName(wl));
    prep.cluster = std::move(*built);
    st.clusterLinks = static_cast<long>(prep.cluster.numNodes() + 1) *
                      (prep.cluster.numNodes() + 1);

    prep.profiler = timed(spans, "profiler.build", st.profilerBuildS, [&] {
        return std::make_unique<cluster::Profiler>(wl.model);
    });
    const cluster::Profiler &prof = *prep.profiler;

    auto maxFlowOf = [&](const placement::ModelPlacement &plan) {
        auto graph = timed(spans, "flow.graph_build", st.graphBuildS, [&] {
            return std::make_unique<placement::PlacementGraph>(
                prep.cluster, prof, plan);
        });
        st.flowEdges += static_cast<long>(graph->graph().numEdges());
        double flow = timed(spans, "flow.solve", st.solveS,
                            [&] { return graph->maxThroughput(); });
        return std::make_pair(std::move(graph), flow);
    };

    // The live planner: Helix at a fixed budget on the pinned
    // workload, swarm (deterministic) elsewhere, which is also the
    // served placement there.
    placement::ModelPlacement live;
    if (wl.pinned) {
        placement::HelixPlannerConfig config;
        config.timeBudgetSeconds = wl.plannerBudgetS;
        placement::HelixPlanner planner(config);
        live = timed(spans, "placement.plan", st.planS, [&] {
            return planner.plan(prep.cluster, prof);
        });
        st.candidates = planner.report().candidatesEvaluated;
        prep.plannedFlow = maxFlowOf(live).second;
        double load_s = 0.0;
        std::optional<placement::ModelPlacement> pinned =
            timed(spans, "placement.load", load_s, [&] {
                return io::placementFromString(readFile(
                    bench_dir + "/single24_llama70b.placement"));
            });
        if (!pinned || static_cast<int>(pinned->size()) !=
                           prep.cluster.numNodes())
            fatal("the pinned placement does not parse or does not "
                  "match the cluster");
        prep.served = std::move(*pinned);
    } else {
        placement::SwarmPlanner planner;
        live = timed(spans, "placement.plan", st.planS, [&] {
            return planner.plan(prep.cluster, prof);
        });
        st.candidates = 1;
        prep.served = live;
    }

    auto [graph, served_flow] = maxFlowOf(prep.served);
    prep.servedFlow = served_flow;
    if (!(served_flow > 0.0))
        fatal("the served placement has no max flow (a layer is not held)");
    if (!wl.pinned)
        prep.plannedFlow = served_flow;
    st.boundRatio =
        prep.plannedFlow / prof.throughputUpperBound(prep.cluster);
    double topo_s = 0.0;
    prep.topology = timed(spans, "scheduler.topology", topo_s, [&] {
        return std::make_unique<scheduler::Topology>(
            prep.cluster, prof, prep.served, *graph);
    });

    // Churn targets: the nodes carrying the most flow fail and
    // recover; the next ones run slower than profiled.
    std::vector<int> by_flow;
    for (int i = 0; i < prep.cluster.numNodes(); ++i) {
        if (prep.served[static_cast<size_t>(i)].count > 0)
            by_flow.push_back(i);
    }
    std::stable_sort(by_flow.begin(), by_flow.end(), [&](int a, int b) {
        return graph->nodeFlow(a) > graph->nodeFlow(b);
    });
    if (wl.churn) {
        if (by_flow.size() < static_cast<size_t>(kChurnNodes + kSlowNodes))
            fatal("churn-tenants needs more serving nodes");
        prep.slowdown.assign(static_cast<size_t>(prep.cluster.numNodes()),
                             1.0);
        for (int k = 0; k < kSlowNodes; ++k)
            prep.slowdown[static_cast<size_t>(
                by_flow[static_cast<size_t>(kChurnNodes + k)])] = kSlowdown;
    }

    timed(spans, "trace.gen", st.traceGenS, [&] {
        for (int rung = 0; rung < 4; ++rung) {
            int replicas = rung == kRateRef ? wl.refReplicas : 1;
            for (int r = 0; r < replicas; ++r)
                prep.phases.push_back(
                    makePhase(wl, seed, prep.servedFlow, rung, r));
        }
        return 0;
    });
    for (const Phase &phase : prep.phases)
        st.traceRequests += static_cast<long>(phase.requests.size());

    for (Phase &phase : prep.phases) {
        if (!wl.churn)
            continue;
        double horizon = phase.window.warmupS + phase.window.measureS;
        // Every kChurnPeriodS the kChurnNodes busiest nodes fail
        // together for kChurnDownS, for as long as the phase lasts.
        for (int k = 0;; ++k) {
            double fail = kChurnFirstS + kChurnPeriodS * k;
            double recover = fail + kChurnDownS;
            if (recover >= horizon)
                break;
            for (int n = 0; n < kChurnNodes; ++n) {
                int node = by_flow[static_cast<size_t>(n)];
                phase.churn.push_back(
                    {sim::ChurnEvent::Kind::Fail, node, fail});
                phase.churn.push_back(
                    {sim::ChurnEvent::Kind::Recover, node, recover});
            }
        }
        std::stable_sort(phase.churn.begin(), phase.churn.end(),
                         [](const sim::ChurnEvent &a,
                            const sim::ChurnEvent &b) {
                             return a.atSeconds < b.atSeconds;
                         });
    }
    return prep;
}

// ---------------------------------------------------------------------
// Phases: simulate, digest, check
// ---------------------------------------------------------------------

/**
 * Forwarding decorator around the Helix scheduler: counts routing
 * decisions and the host time spent inside every scheduler hook.
 */
class TimedScheduler final : public scheduler::RequestScheduler
{
  public:
    explicit TimedScheduler(scheduler::RequestScheduler &wrapped)
        : inner(wrapped)
    {
    }

    std::string name() const override { return inner.name(); }

    std::optional<scheduler::Pipeline>
    schedule(const trace::Request &request,
             const scheduler::SchedulerContext &ctx) override
    {
        Clock::time_point start = Clock::now();
        std::optional<scheduler::Pipeline> pipeline =
            inner.schedule(request, ctx);
        busyS += secondsSince(start);
        ++calls;
        if (!pipeline)
            ++noRoute;
        return pipeline;
    }

    void
    onRequestAdmitted(const trace::Request &request,
                      const scheduler::Pipeline &pipeline) override
    {
        Clock::time_point start = Clock::now();
        inner.onRequestAdmitted(request, pipeline);
        busyS += secondsSince(start);
    }

    void
    onRequestFinished(const trace::Request &request,
                      const scheduler::Pipeline &pipeline) override
    {
        Clock::time_point start = Clock::now();
        inner.onRequestFinished(request, pipeline);
        busyS += secondsSince(start);
    }

    void
    onTopologyChange(const scheduler::Topology &topology) override
    {
        Clock::time_point start = Clock::now();
        inner.onTopologyChange(topology);
        busyS += secondsSince(start);
    }

    long calls = 0;
    long noRoute = 0;
    double busyS = 0.0;

  private:
    scheduler::RequestScheduler &inner;
};

/** FNV-1a over the bit patterns of simulated statistics. */
class Digest
{
  public:
    void
    add(const void *data, size_t size)
    {
        const unsigned char *bytes = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < size; ++i) {
            hash ^= bytes[i];
            hash *= 0x100000001b3ULL;
        }
    }
    void add(double v) { add(&v, sizeof v); }
    void add(long v) { add(&v, sizeof v); }
    void add(int v) { add(&v, sizeof v); }
    void add(const std::string &s) { add(s.data(), s.size()); }
    void
    add(const StatAccumulator &acc)
    {
        add(static_cast<long>(acc.count()));
        if (acc.count() == 0)
            return;
        add(acc.sum());
        for (double p : {0.0, 1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0,
                         95.0, 99.0, 99.9, 100.0})
            add(acc.percentile(p));
    }
    uint64_t value() const { return hash; }

  private:
    uint64_t hash = 0xcbf29ce484222325ULL;
};

/**
 * Digest of every SimMetrics field except linkStats, which only the
 * traced run collects (collectLinkStats).
 */
uint64_t
simDigest(const sim::SimMetrics &m)
{
    Digest d;
    d.add(m.decodeThroughput);
    d.add(m.promptThroughput);
    d.add(m.promptLatency);
    d.add(m.decodeLatency);
    for (long v : {m.requestsArrived, m.requestsAdmitted,
                   m.requestsCompleted, m.requestsRejected,
                   m.requestsRestarted, m.requestsPreempted,
                   m.decodeTokensInWindow, m.promptTokensInWindow})
        d.add(v);
    for (const sim::SimMetrics::FlowEvent &e : m.flowEvents) {
        d.add(e.time);
        d.add(e.node);
        d.add(static_cast<int>(e.kind));
        d.add(e.flow);
        d.add(static_cast<int>(e.resolveKind));
    }
    d.add(m.simulatedSeconds);
    d.add(m.avgKvUtilization);
    for (const sim::SimMetrics::NodeStat &n : m.nodeStats) {
        d.add(n.batches);
        d.add(n.itemsProcessed);
        d.add(n.tokensProcessed);
        d.add(n.busySeconds);
        d.add(n.kvUtilization);
    }
    for (const sim::SimMetrics::TenantStat &t : m.tenantStats) {
        d.add(t.name);
        d.add(t.weight);
        for (long v : {t.requestsArrived, t.requestsAdmitted,
                       t.requestsCompleted, t.requestsRejected,
                       t.requestsPreempted, t.decodeTokensInWindow,
                       t.ttftSamples, t.ttftMet, t.tpotSamples, t.tpotMet})
            d.add(v);
        for (double v : {t.decodeThroughput, t.sloTtftS, t.sloTpotS,
                         t.ttftAttainment, t.tpotAttainment})
            d.add(v);
    }
    d.add(m.jainIndex);
    return d.value();
}

/** Number of samples in @p acc at most @p limit (binary search over
 *  the accumulator's exact-rank percentiles). */
long
countAtMost(const StatAccumulator &acc, double limit)
{
    long n = static_cast<long>(acc.count());
    auto rankValue = [&](long k) {
        return n == 1 ? acc.percentile(0.0)
                      : acc.percentile(100.0 * static_cast<double>(k) /
                                       static_cast<double>(n - 1));
    };
    long lo = 0;
    long hi = n; // answer in [lo, hi]
    while (lo < hi) {
        long mid = (lo + hi + 1) / 2;
        if (rankValue(mid - 1) <= limit)
            lo = mid;
        else
            hi = mid - 1;
    }
    return lo;
}

struct PhaseResult
{
    sim::SimMetrics metrics;
    double runS = 0.0;
    uint64_t digest = 0;
    long schedCalls = 0;
    long schedNoRoute = 0;
    double schedBusyS = 0.0;
};

PhaseResult
runPhase(const Workload &wl, const Prepared &prep, const Phase &phase,
         SpanTrace *spans)
{
    perfbench::ScopedSpan phase_span(spans, "bench.phase." + phase.name);
    PhaseResult out;
    sim::SimConfig config;
    config.warmupSeconds = phase.window.warmupS;
    config.measureSeconds = phase.window.measureS;
    config.collectLinkStats = spans != nullptr;
    config.churnEvents = phase.churn;
    if (wl.churn) {
        config.driftThreshold = kDriftThreshold;
        config.nodeSlowdown = prep.slowdown;
        config.tenants = wl.tenants;
        config.starvationTolerance = kStarvationTolerance;
        config.preemptionTimeoutS = kPreemptionTimeoutS;
    }
    scheduler::HelixScheduler helix_scheduler(*prep.topology);
    TimedScheduler timed_scheduler(helix_scheduler);
    scheduler::RequestScheduler &used =
        spans != nullptr
            ? static_cast<scheduler::RequestScheduler &>(timed_scheduler)
            : helix_scheduler;
    double init_s = 0.0;
    std::unique_ptr<sim::ClusterSimulator> simulator =
        timed(spans, "sim.init", init_s, [&] {
            return std::make_unique<sim::ClusterSimulator>(
                prep.cluster, *prep.profiler, prep.served, used, config);
        });
    {
        perfbench::ScopedSpan run_span(spans, "sim.run");
        Clock::time_point start = Clock::now();
        out.metrics = simulator->run(phase.requests);
        out.runS = secondsSince(start);
        if (spans != nullptr) {
            spans->aggregate("scheduler.route", timed_scheduler.calls,
                             timed_scheduler.busyS);
        }
    }
    out.digest = simDigest(out.metrics);
    out.schedCalls = timed_scheduler.calls;
    out.schedNoRoute = timed_scheduler.noRoute;
    out.schedBusyS = timed_scheduler.busyS;
    return out;
}

struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
    /** A known library defect: reported and counted, not fatal. */
    bool known = false;
};

/** Output checks of one phase (README "Output checks"). */
void
checkPhase(const Workload &wl, const Phase &phase, const PhaseResult &r,
           std::vector<Check> &checks)
{
    const sim::SimMetrics &m = r.metrics;
    const std::string &p = phase.name;
    checks.push_back({p + ".completed_le_admitted_le_arrived",
                      m.requestsCompleted <= m.requestsAdmitted &&
                          m.requestsAdmitted <= m.requestsArrived,
                      fmt("completed=%ld admitted=%ld arrived=%ld",
                          m.requestsCompleted, m.requestsAdmitted,
                          m.requestsArrived),
                      false});
    // The offline phase reports throughput only; online phases feed
    // the latency and SLO metrics, which must not read an empty
    // accumulator.
    if (phase.name == "offline") {
        checks.push_back({p + ".decode_tokens", m.decodeTokensInWindow > 0,
                          fmt("n=%ld", m.decodeTokensInWindow), false});
    } else {
        checks.push_back({p + ".ttft_samples", m.promptLatency.count() > 0,
                          fmt("n=%zu", m.promptLatency.count()), false});
        checks.push_back({p + ".tpot_samples", m.decodeLatency.count() > 0,
                          fmt("n=%zu", m.decodeLatency.count()), false});
    }

    // Scheduled fail/recover events must appear, in order, as re-solves
    // at exactly their time; drift re-solves are extra.
    size_t next = 0;
    bool order_ok = true;
    long drift = 0;
    for (const sim::SimMetrics::FlowEvent &e : m.flowEvents) {
        if (e.kind == sim::ChurnEvent::Kind::Drift) {
            ++drift;
            continue;
        }
        if (next >= phase.churn.size() ||
            phase.churn[next].node != e.node ||
            phase.churn[next].kind != e.kind ||
            phase.churn[next].atSeconds != e.time) {
            order_ok = false;
            break;
        }
        ++next;
    }
    checks.push_back({p + ".flow_events_match_churn",
                      order_ok && next == phase.churn.size() &&
                          (wl.churn || drift == 0),
                      fmt("scheduled=%zu applied=%zu drift=%ld",
                          phase.churn.size(), next, drift),
                      false});

    if (m.tenantStats.empty())
        return;
    long arrived = 0, admitted = 0, completed = 0, rejected = 0,
         preempted = 0;
    for (const sim::SimMetrics::TenantStat &t : m.tenantStats) {
        arrived += t.requestsArrived;
        admitted += t.requestsAdmitted;
        completed += t.requestsCompleted;
        rejected += t.requestsRejected;
        preempted += t.requestsPreempted;
    }
    checks.push_back({p + ".tenant_sums",
                      arrived == m.requestsArrived &&
                          completed == m.requestsCompleted &&
                          rejected == m.requestsRejected &&
                          preempted == m.requestsPreempted,
                      fmt("arrived %ld/%ld completed %ld/%ld rejected "
                          "%ld/%ld preempted %ld/%ld",
                          arrived, m.requestsArrived, completed,
                          m.requestsCompleted, rejected, m.requestsRejected,
                          preempted, m.requestsPreempted),
                      false});
    // Known defect: a restart decrements only the total admitted count
    // (ClusterSimulator::restartRequest), so the tenants' admitted
    // counts sum to total + restarts. Reported, counted, not fatal.
    checks.push_back({p + ".tenant_admitted_sum",
                      admitted == m.requestsAdmitted,
                      fmt("tenants=%ld total=%ld restarted=%ld", admitted,
                          m.requestsAdmitted, m.requestsRestarted),
                      true});
}

/** SLO figures of one online phase. */
struct SloResult
{
    double attain = 0.0;
    bool keepsUp = false;
};

// ---------------------------------------------------------------------
// Host block and output
// ---------------------------------------------------------------------

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string name = brand;
        size_t first = name.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : name.substr(first);
    }
#endif
    return "unknown";
}

std::string
hostBlock()
{
    double load[3] = {-1.0, -1.0, -1.0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1.0;
    return fmt("{\"nproc\": %ld, \"cpu\": %s, \"compiler\": %s, "
               "\"build_type\": %s, \"loadavg_start\": [%.2f, %.2f, %.2f]}",
               sysconf(_SC_NPROCESSORS_ONLN), jsonString(cpuModel()).c_str(),
               jsonString(std::string(PERFBENCH_COMPILER) + " (" +
                          __VERSION__ + ")")
                   .c_str(),
               jsonString(PERFBENCH_BUILD_TYPE).c_str(), load[0], load[1],
               load[2]);
}

double
peakRssMb()
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
resultJson(bool correct, long attempted, long failed,
           const std::vector<Metric> &metrics)
{
    std::string out = fmt("{\"correct\": %s, \"attempted\": %ld, "
                          "\"failed\": %ld, \"metrics\": {",
                          correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics.size(); ++i) {
        out += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i > 0 ? ", " : "", metrics[i].name.c_str(),
                   metrics[i].value, metrics[i].unit.c_str());
    }
    return out + "}}";
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    out << text;
    if (!out)
        fatal("cannot write " + path);
}

std::string
latencyText(const StatAccumulator &acc, double p)
{
    return acc.count() == 0 ? std::string("n/a")
                            : fmt("%.4f", acc.percentile(p));
}

void
printPhase(const Phase &phase, const PhaseResult &r)
{
    const sim::SimMetrics &m = r.metrics;
    std::printf(
        "phase %-8s rate=%.3f req/s window=%.0f+%.0f s  attempted=%ld "
        "succeeded=%ld failed=%ld in_flight=%ld  decode=%.1f tok/s  "
        "ttft p50/p99=%s/%s s (n=%zu)  tpot p50/p99=%s/%s s (n=%zu)  "
        "restarted=%ld preempted=%ld flow_events=%zu  sim_run=%.3f s  "
        "digest=%016" PRIx64 "\n",
        phase.name.c_str(), phase.rate, phase.window.warmupS,
        phase.window.measureS, m.requestsArrived, m.requestsCompleted,
        m.requestsRejected,
        m.requestsArrived - m.requestsCompleted - m.requestsRejected,
        m.decodeThroughput, latencyText(m.promptLatency, 50).c_str(),
        latencyText(m.promptLatency, 99).c_str(), m.promptLatency.count(),
        latencyText(m.decodeLatency, 50).c_str(),
        latencyText(m.decodeLatency, 99).c_str(), m.decodeLatency.count(),
        m.requestsRestarted, m.requestsPreempted, m.flowEvents.size(),
        r.runS, r.digest);
}

std::vector<exp::JobResult>
jobResults(const Workload &wl, const Prepared &prep,
           const std::vector<PhaseResult> &results)
{
    std::vector<exp::JobResult> jobs;
    for (size_t p = 0; p < results.size(); ++p) {
        exp::JobResult job;
        job.label = wl.name + "/" + prep.phases[p].name;
        job.cluster = prep.cluster.summary();
        job.model = wl.model.name;
        job.planner = wl.pinned ? "pinned-helix" : "swarm";
        job.scheduler = "helix";
        job.arrivals = "poisson";
        job.plannedThroughput = prep.servedFlow;
        job.metrics = results[p].metrics;
        job.wallSeconds = results[p].runS;
        jobs.push_back(std::move(job));
    }
    return jobs;
}

// ---------------------------------------------------------------------
// main
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    int seconds = 0;
    int trace = -1;
    std::string benchDir;
    std::string outDir;
};

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        std::string value = argv[i + 1];
        char *end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (key == "--seconds") {
            opt.seconds =
                static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else if (key == "--trace") {
            opt.trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
        } else if (key == "--bench-dir") {
            opt.benchDir = value;
        } else if (key == "--out-dir") {
            opt.outDir = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return argc % 2 == 1 && !opt.workload.empty() && opt.seconds >= 1 &&
           (opt.trace == 0 || opt.trace == 1) && !opt.benchDir.empty() &&
           !opt.outDir.empty();
}

/** An untraced run sets up at least kSetupRuns times and until
 *  kSetupSeconds have passed; setup_s is the median. */
constexpr int kSetupRuns = 3;
constexpr double kSetupSeconds = 1.0;

/** One pass over the workload: a set-up, then every phase in order. */
struct Pass
{
    Prepared prep;
    std::vector<PhaseResult> results;
    double setupS = 0.0;
    double simS = 0.0;
};

std::vector<PhaseResult>
runPhases(const Workload &wl, const Prepared &prep, SpanTrace *spans,
          double &sim_s)
{
    std::vector<PhaseResult> results;
    for (const Phase &phase : prep.phases) {
        results.push_back(runPhase(wl, prep, phase, spans));
        sim_s += results.back().runS;
    }
    return results;
}

Pass
runPass(const Workload &wl, const Options &opt, SpanTrace *spans)
{
    Pass pass;
    Clock::time_point start = Clock::now();
    pass.prep = setup(wl, opt.seed, opt.benchDir, spans);
    pass.setupS = secondsSince(start);
    pass.results = runPhases(wl, pass.prep, spans, pass.simS);
    return pass;
}

/**
 * Self-test of the pinned placement: it parses, covers every layer of
 * the model, is valid on the cluster, and its max flow equals the
 * value recorded in its provenance file.
 */
void
checkPinned(const Workload &wl, const Prepared &prep,
            const std::string &bench_dir, std::vector<Check> &checks)
{
    std::map<std::string, std::string> meta =
        readProvenance(bench_dir + "/single24_llama70b.provenance");
    double recorded = std::strtod(meta["max_flow_tok_s"].c_str(), nullptr);
    int layers = std::atoi(meta["layers"].c_str());
    std::vector<int> cover(static_cast<size_t>(wl.model.numLayers), 0);
    for (const placement::NodePlacement &node : prep.served.nodes) {
        for (int l = node.start;
             l < node.end() && l < wl.model.numLayers && l >= 0; ++l)
            ++cover[static_cast<size_t>(l)];
    }
    bool covered = std::all_of(cover.begin(), cover.end(),
                               [](int c) { return c > 0; });
    bool ok = covered && layers == wl.model.numLayers &&
              static_cast<int>(prep.served.size()) ==
                  prep.cluster.numNodes() &&
              placement::placementValid(prep.served, prep.cluster,
                                        *prep.profiler) &&
              std::fabs(prep.servedFlow - recorded) <=
                  1e-9 * std::max(1.0, recorded);
    checks.push_back({"pinned_placement", ok,
                      fmt("layers=%d covered=%s max_flow=%.17g "
                          "recorded=%.17g",
                          wl.model.numLayers, covered ? "yes" : "no",
                          prep.servedFlow, recorded),
                      false});
}

/** Indices of the phases of @p rung (rate-ref may have replicas). */
std::vector<size_t>
rungPhases(const Pass &pass, int rung)
{
    std::vector<size_t> out;
    for (size_t p = 0; p < pass.prep.phases.size(); ++p) {
        if (pass.prep.phases[p].rung == rung)
            out.push_back(p);
    }
    return out;
}

/** One latency distribution of @p rung, pooled over its phases. */
StatAccumulator
pooled(const Pass &pass, int rung, StatAccumulator sim::SimMetrics::*field)
{
    StatAccumulator out;
    for (size_t p : rungPhases(pass, rung))
        out.merge(pass.results[p].metrics.*field);
    return out;
}

/**
 * Share of the rung's in-window arrivals meeting both limits, bounded
 * below by (share meeting the TTFT limit) - (share of decode samples
 * over the TPOT limit): SimMetrics reports the two distributions
 * separately. Requests with no first token (rejected, still queued)
 * are misses.
 */
SloResult
sloOf(const Workload &wl, const Pass &pass, int rung)
{
    long eligible = 0, ttft_met = 0, tpot_n = 0, tpot_met = 0,
         arrived = 0, waiting = 0, rejected = 0;
    for (size_t p : rungPhases(pass, rung)) {
        const sim::SimMetrics &m = pass.results[p].metrics;
        eligible += pass.prep.phases[p].ttftEligible;
        ttft_met += countAtMost(m.promptLatency, wl.sloTtftS);
        tpot_n += static_cast<long>(m.decodeLatency.count());
        tpot_met += countAtMost(m.decodeLatency, wl.sloTpotS);
        arrived += m.requestsArrived;
        waiting += m.requestsArrived - m.requestsAdmitted;
        rejected += m.requestsRejected;
    }
    auto share = [](long part, long whole) {
        return static_cast<double>(part) / static_cast<double>(whole);
    };
    double ttft_share =
        eligible > 0 ? std::min(1.0, share(ttft_met, eligible)) : 0.0;
    double tpot_missed = tpot_n > 0 ? 1.0 - share(tpot_met, tpot_n) : 1.0;
    SloResult out;
    out.attain = std::max(0.0, ttft_share - tpot_missed);
    // The backlog does not grow when admission keeps up with arrivals.
    out.keepsUp = rejected == 0 && static_cast<double>(waiting) <=
                                       0.02 * static_cast<double>(arrived);
    return out;
}

/** The end-to-end metrics of an untraced run. */
std::vector<Metric>
endToEnd(const Workload &wl, const Pass &pass, double setup_s,
         std::vector<Check> &checks)
{
    const sim::SimMetrics &offline = pass.results[0].metrics;
    StatAccumulator ttft =
        pooled(pass, kRateRef, &sim::SimMetrics::promptLatency);
    StatAccumulator tpot =
        pooled(pass, kRateRef, &sim::SimMetrics::decodeLatency);
    double goodput = 0.0;
    for (int rung = kOffline + 1; rung < 4; ++rung) {
        SloResult slo = sloOf(wl, pass, rung);
        std::printf("slo %-8s attain=%.4f keeps_up=%s\n", kRungNames[rung],
                    slo.attain, slo.keepsUp ? "yes" : "no");
        if (slo.attain >= 0.9 && slo.keepsUp)
            goodput = std::max(goodput, wl.rates[rung - 1]);
    }
    checks.push_back({"rate-ref.p99_samples",
                      ttft.count() >= 1000 && tpot.count() >= 1000,
                      fmt("ttft n=%zu tpot n=%zu", ttft.count(),
                          tpot.count()),
                      false});
    return {
        {"decode_tok_s", offline.decodeThroughput, "tok/s"},
        {"ttft_p50_s", ttft.percentile(50), "s"},
        {"ttft_p99_s", ttft.percentile(99), "s"},
        {"tpot_p50_s", tpot.percentile(50), "s"},
        {"tpot_p99_s", tpot.percentile(99), "s"},
        {"slo_attain_frac", sloOf(wl, pass, kRateRef).attain, "fraction"},
        {"slo_goodput_req_s", goodput, "req/s"},
        {"planned_flow_tok_s", pass.prep.plannedFlow, "tok/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/** Replay the churn schedule and slowdowns through TopologyManager,
 *  outside the simulator: the cost of the live re-solve path. */
void
replayResolves(const Workload &wl, const Prepared &prep, SpanTrace *spans,
               double &resolve_s, long &resolves)
{
    if (!wl.churn)
        return;
    double build_s = 0.0;
    auto manager = timed(spans, "scheduler.topology_manager", build_s, [&] {
        return std::make_unique<scheduler::TopologyManager>(
            prep.cluster, *prep.profiler, prep.served);
    });
    timed(spans, "flow.resolve", resolve_s, [&] {
        for (const Phase &phase : prep.phases) {
            for (const sim::ChurnEvent &event : phase.churn) {
                (void)manager->setNodeAlive(
                    event.node, event.kind == sim::ChurnEvent::Kind::Recover);
                ++resolves;
            }
        }
        for (size_t node = 0; node < prep.slowdown.size(); ++node) {
            if (prep.slowdown[node] == 1.0)
                continue;
            int n = static_cast<int>(node);
            (void)manager->setNodeCapacity(
                n, manager->plannedNodeFlow(n) / prep.slowdown[node]);
            ++resolves;
        }
        return 0;
    });
}

/** Per-layer metrics of the traced pass (README "Per-layer"). */
std::vector<Metric>
perLayer(const Pass &pass, double resolve_s, long resolves, double emit_s,
         long emit_bytes)
{
    auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    const SetupStats &st = pass.prep.stats;
    std::vector<Metric> out = {
        {"cluster.build_s", st.clusterBuildS, "s"},
        {"cluster.links", static_cast<double>(st.clusterLinks), "count"},
        {"profiler.build_s", st.profilerBuildS, "s"},
        {"placement.plan_s", st.planS, "s"},
        {"placement.candidates", static_cast<double>(st.candidates), "count"},
        {"placement.candidates_per_s",
         ratio(static_cast<double>(st.candidates), st.planS), "1/s"},
        {"placement.bound_ratio", st.boundRatio, "fraction"},
        {"flow.graph_build_s", st.graphBuildS, "s"},
        {"flow.solve_s", st.solveS, "s"},
        {"flow.edges", static_cast<double>(st.flowEdges), "count"},
        {"flow.resolve_s", resolve_s, "s"},
        {"flow.resolves", static_cast<double>(resolves), "count"},
        {"trace.gen_s", st.traceGenS, "s"},
        {"trace.requests", static_cast<double>(st.traceRequests), "count"},
    };

    long calls = 0, no_route = 0, batches = 0, items = 0, restarted = 0,
         flow_events = 0, preempted = 0, rejected = 0, transfers = 0;
    double sched_s = 0.0, run_s = 0.0, simulated_s = 0.0, busy_sum = 0.0,
           busy_max = 0.0, node_time = 0.0, link_busy_max = 0.0,
           queue_delay = 0.0, queue_delay_max = 0.0;
    double rung_run_s[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t p = 0; p < pass.results.size(); ++p) {
        const PhaseResult &r = pass.results[p];
        const sim::SimMetrics &m = r.metrics;
        // Busy time accrues over warmup and window alike, while
        // SimMetrics::simulatedSeconds is the window alone.
        const Window &window = pass.prep.phases[p].window;
        double horizon = window.warmupS + window.measureS;
        calls += r.schedCalls;
        no_route += r.schedNoRoute;
        sched_s += r.schedBusyS;
        run_s += r.runS;
        simulated_s += horizon;
        restarted += m.requestsRestarted;
        preempted += m.requestsPreempted;
        rejected += m.requestsRejected;
        flow_events += static_cast<long>(m.flowEvents.size());
        for (size_t n = 0; n < m.nodeStats.size(); ++n) {
            if (pass.prep.served[n].count == 0)
                continue;
            const sim::SimMetrics::NodeStat &ns = m.nodeStats[n];
            batches += ns.batches;
            items += ns.itemsProcessed;
            busy_sum += ns.busySeconds;
            node_time += horizon;
            busy_max = std::max(busy_max, ns.busySeconds / horizon);
        }
        for (const sim::LinkStat &link : m.linkStats) {
            transfers += link.transfers;
            queue_delay += link.totalQueueDelayS;
            queue_delay_max = std::max(queue_delay_max, link.maxQueueDelayS);
            link_busy_max =
                std::max(link_busy_max, link.busySeconds / horizon);
        }
        rung_run_s[pass.prep.phases[p].rung] += r.runS;
    }
    out.push_back({"sim.run_s", run_s, "s"});
    for (int rung = 0; rung < 4; ++rung) {
        out.push_back({std::string("sim.run_s.") + kRungNames[rung],
                       rung_run_s[rung], "s"});
    }
    // Interactive tenant (the last one) at rate-ref, both SLOs, with
    // the same lower bound as slo_attain_frac.
    long ttft_n = 0, ttft_met = 0, tpot_n = 0, tpot_met = 0;
    for (size_t p : rungPhases(pass, kRateRef)) {
        const sim::SimMetrics &m = pass.results[p].metrics;
        if (m.tenantStats.empty())
            continue;
        const sim::SimMetrics::TenantStat &t = m.tenantStats.back();
        ttft_n += t.ttftSamples;
        ttft_met += t.ttftMet;
        tpot_n += t.tpotSamples;
        tpot_met += t.tpotMet;
    }
    double interactive =
        std::max(0.0, ratio(static_cast<double>(ttft_met),
                            static_cast<double>(ttft_n)) +
                          ratio(static_cast<double>(tpot_met),
                                static_cast<double>(tpot_n)) -
                          1.0);
    const sim::SimMetrics &offline = pass.results[0].metrics;
    std::vector<Metric> rest = {
        {"scheduler.calls", static_cast<double>(calls), "count"},
        {"scheduler.busy_s", sched_s, "s"},
        {"scheduler.us_per_call",
         1e6 * ratio(sched_s, static_cast<double>(calls)), "us"},
        {"scheduler.no_route_frac",
         ratio(static_cast<double>(no_route), static_cast<double>(calls)),
         "fraction"},
        {"fair_share.preempted", static_cast<double>(preempted), "count"},
        {"fair_share.rejected", static_cast<double>(rejected), "count"},
        {"fair_share.jain_index", offline.jainIndex, "fraction"},
        {"fair_share.interactive_slo_attain", interactive, "fraction"},
        {"sim.batches", static_cast<double>(batches), "count"},
        {"sim.host_us_per_batch",
         1e6 * ratio(run_s, static_cast<double>(batches)), "us"},
        {"sim.sim_s_per_host_s", ratio(simulated_s, run_s), "s/s"},
        {"sim.items_per_batch",
         ratio(static_cast<double>(items), static_cast<double>(batches)),
         "count"},
        {"sim.node_busy_frac", ratio(busy_sum, node_time), "fraction"},
        {"sim.node_busy_frac_max", busy_max, "fraction"},
        {"sim.kv_util", offline.avgKvUtilization, "fraction"},
        {"sim.restarted", static_cast<double>(restarted), "count"},
        {"sim.flow_events", static_cast<double>(flow_events), "count"},
        {"sim.link_busy_frac_max", link_busy_max, "fraction"},
        {"sim.link_queue_delay_mean_s",
         ratio(queue_delay, static_cast<double>(transfers)), "s"},
        {"sim.link_queue_delay_max_s", queue_delay_max, "s"},
        {"exp.emit_s", emit_s, "s"},
        {"exp.emit_bytes", static_cast<double>(emit_bytes), "bytes"},
    };
    out.insert(out.end(), rest.begin(), rest.end());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: perfbench_driver --workload NAME --seed N "
                     "--seconds S --trace 0|1 --bench-dir DIR "
                     "--out-dir DIR\n");
        return 2;
    }
    std::optional<Workload> found = workloadByName(opt.workload);
    if (!found) {
        std::fprintf(stderr, "perfbench: unknown workload %s\n",
                     opt.workload.c_str());
        return 2;
    }
    const Workload &wl = *found;
    setLogThreshold(LogLevel::Error);
    std::string host = hostBlock();
    std::printf("host %s\n", host.c_str());
    std::printf("workload %s seed %" PRIu64 " cluster %s model %s "
                "trace %d\n",
                wl.name.c_str(), opt.seed, clusterName(wl).c_str(),
                wl.model.name.c_str(), opt.trace);
    std::string stem = fmt("%s/%s-seed%" PRIu64 "-trace%d",
                           opt.outDir.c_str(), wl.name.c_str(), opt.seed,
                           opt.trace);
    std::error_code error;
    std::filesystem::create_directories(opt.outDir, error);
    if (error)
        fatal("cannot create " + opt.outDir + ": " + error.message());

    std::vector<Check> checks;
    std::vector<Metric> metrics;
    Pass first;
    Clock::time_point run_start = Clock::now();
    if (opt.trace == 0) {
        // Set up several times (setup_s is the median), then repeat the
        // phases until --seconds have passed (sim_s is the median).
        std::vector<double> setup_times;
        Clock::time_point setups_start = Clock::now();
        while (setup_times.size() < kSetupRuns ||
               secondsSince(setups_start) < kSetupSeconds) {
            Clock::time_point start = Clock::now();
            first.prep = setup(wl, opt.seed, opt.benchDir, nullptr);
            setup_times.push_back(secondsSince(start));
        }
        std::vector<double> sim_times;
        std::vector<uint64_t> digests;
        Clock::time_point measure_start = Clock::now();
        do {
            double sim_s = 0.0;
            std::vector<PhaseResult> results =
                runPhases(wl, first.prep, nullptr, sim_s);
            sim_times.push_back(sim_s);
            for (const PhaseResult &r : results)
                digests.push_back(r.digest);
            if (first.results.empty())
                first.results = std::move(results);
        } while (secondsSince(measure_start) < opt.seconds);
        size_t phases = first.results.size();
        bool repeat = true;
        for (size_t i = phases; i < digests.size(); ++i)
            repeat = repeat && digests[i] == digests[i % phases];
        checks.push_back({"digest_repeats", repeat,
                          fmt("%zu passes", sim_times.size()), false});
        // Host time inside ClusterSimulator::run is printed, not
        // gated: it drifts with the shared host's load (README).
        std::printf("sim_s %.6f s (median of %zu passes)\n",
                    median(sim_times), sim_times.size());
        metrics = endToEnd(wl, first, median(setup_times), checks);
    } else {
        // An untraced pass, then the same pass traced; the difference
        // of their set-up + simulation times is the tracing overhead.
        first = runPass(wl, opt, nullptr);
        SpanTrace spans;
        double resolve_s = 0.0, emit_s = 0.0;
        long resolves = 0;
        int root = spans.begin("bench.pass");
        Pass traced = runPass(wl, opt, &spans);
        replayResolves(wl, traced.prep, &spans, resolve_s, resolves);
        std::string emitted = timed(&spans, "exp.emit", emit_s, [&] {
            return exp::resultsToJson(jobResults(wl, traced.prep,
                                                 traced.results));
        });
        spans.end(root);

        bool same = traced.results.size() == first.results.size();
        for (size_t p = 0; same && p < first.results.size(); ++p)
            same = traced.results[p].digest == first.results[p].digest;
        checks.push_back({"digest_traced_equals_untraced", same, "", false});

        std::vector<SpanTrace::SelfTime> rows = spans.selfTimes();
        double total = 0.0, attributed = 0.0;
        std::string table = "span                          calls      "
                            "total_s       self_s\n";
        for (const SpanTrace::SelfTime &row : rows) {
            if (row.name == "bench.pass")
                total = row.totalS;
            if (row.name.rfind("bench.", 0) != 0)
                attributed += row.selfS;
            table += fmt("%-28s %7ld %12.6f %12.6f\n", row.name.c_str(),
                         row.count, row.totalS, row.selfS);
        }
        double overhead = (traced.setupS + traced.simS) -
                          (first.setupS + first.simS);
        table += fmt("attributed to layer spans: %.4f of %.6f s; "
                     "tracing overhead %.6f s (traced %.6f s - untraced "
                     "%.6f s)\n",
                     attributed / total, total, overhead,
                     traced.setupS + traced.simS,
                     first.setupS + first.simS);
        std::fputs(table.c_str(), stdout);
        writeFile(stem + ".selftime.txt", table);
        writeFile(stem + ".trace.json", spans.chromeJson());
        writeFile(stem + ".results.json", emitted);
        checks.push_back({"trace_attribution", attributed >= 0.95 * total,
                          fmt("%.4f", attributed / total), false});
        metrics = perLayer(traced, resolve_s, resolves, emit_s,
                           static_cast<long>(emitted.size()));
        metrics.push_back({"trace.overhead_s", overhead, "s"});
        metrics.push_back({"trace.attributed_frac", attributed / total,
                           "fraction"});
    }

    if (wl.pinned)
        checkPinned(wl, first.prep, opt.benchDir, checks);
    long attempted = 0, failed = 0;
    for (size_t p = 0; p < first.results.size(); ++p) {
        printPhase(first.prep.phases[p], first.results[p]);
        checkPhase(wl, first.prep.phases[p], first.results[p], checks);
        attempted += first.results[p].metrics.requestsArrived;
        failed += first.results[p].metrics.requestsRejected;
    }
    bool correct = true;
    long known = 0;
    for (const Check &check : checks) {
        const char *verdict = check.ok ? "pass"
                              : check.known ? "FAIL (known defect, counted)"
                                            : "FAIL";
        std::printf("check %-44s %s  %s\n", check.name.c_str(), verdict,
                    check.detail.c_str());
        if (!check.ok && check.known)
            ++known;
        else if (!check.ok)
            correct = false;
    }
    std::printf("known invariant failures: %ld\n", known);
    for (const Metric &metric : metrics) {
        std::printf("metric %-36s %.6g %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    }
    std::printf("wall %.3f s\n", secondsSince(run_start));
    std::string result = resultJson(correct, attempted, failed, metrics);
    writeFile(stem + ".summary.json",
              "{\"host\": " + host + ", \"result\": " + result + "}\n");
    std::printf("%s\n", result.c_str());
    return correct ? 0 : 1;
}
