/**
 * @file
 * Shared helpers for the per-figure benchmark harnesses. Each harness
 * regenerates one table or figure of the paper's evaluation and prints
 * the corresponding rows; EXPERIMENTS.md records paper-vs-measured.
 */

#ifndef HELIX_BENCH_BENCH_COMMON_H
#define HELIX_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/helix.h"
#include "exp/experiment.h"
#include "exp/spec.h"

namespace helix {
namespace bench {

/**
 * Experiment scale knobs. Three tiers:
 *  - full (default): the paper's warmup/measure windows;
 *  - fast (HELIX_BENCH_FAST env): reduced windows for quick local runs;
 *  - smoke (`--smoke` flag): minimal windows so CTest can exercise
 *    every figure end-to-end in about a second per binary.
 */
struct Scale
{
    double plannerBudgetS = 6.0;
    double offlineWarmupS = 120.0;
    double offlineMeasureS = 180.0;
    double onlineWarmupS = 60.0;
    double onlineMeasureS = 180.0;

    static Scale
    fromEnv()
    {
        Scale scale;
        if (std::getenv("HELIX_BENCH_FAST")) {
            scale.plannerBudgetS = 2.0;
            scale.offlineWarmupS = 30.0;
            scale.offlineMeasureS = 60.0;
            scale.onlineWarmupS = 20.0;
            scale.onlineMeasureS = 60.0;
        }
        return scale;
    }

    /**
     * Parse command-line flags on top of the environment defaults.
     * `--smoke` overrides everything with the minimal tier.
     */
    static Scale
    fromArgs(int argc, char **argv)
    {
        Scale scale = fromEnv();
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--smoke") == 0) {
                scale.plannerBudgetS = 0.05;
                scale.offlineWarmupS = 1.0;
                scale.offlineMeasureS = 3.0;
                scale.onlineWarmupS = 1.0;
                scale.onlineMeasureS = 3.0;
            } else {
                std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
                std::exit(2);
            }
        }
        return scale;
    }
};

/** One measured row of a throughput/latency comparison. */
struct SystemResult
{
    std::string system;
    double plannedThroughput = 0.0;
    sim::SimMetrics metrics;
};

/** Print the standard comparison header. */
inline void
printHeader(const char *title)
{
    std::printf("\n=== %s ===\n", title);
    std::printf("%-10s %10s %12s %12s %12s %12s %12s\n", "system",
                "planned", "decode t/s", "p-lat mean", "p-lat p95",
                "d-lat mean", "d-lat p95");
}

/** Print the mean and p95 cells of @p latency with @p precision
 *  decimals; `n/a` for an accumulator without samples, never 0. */
inline void
printLatencyCells(const StatAccumulator &latency, int precision)
{
    if (latency.count() == 0) {
        std::printf(" %12s %12s", "n/a", "n/a");
        return;
    }
    std::printf(" %12.*f %12.*f", precision, latency.mean(), precision,
                latency.percentile(95));
}

/** Print one comparison row. */
inline void
printRow(const SystemResult &row)
{
    std::printf("%-10s %10.0f %12.1f", row.system.c_str(),
                row.plannedThroughput, row.metrics.decodeThroughput);
    printLatencyCells(row.metrics.promptLatency, 2);
    printLatencyCells(row.metrics.decodeLatency, 3);
    std::printf("\n");
}

/** Print pairwise throughput ratios against the first (Helix) row. */
inline void
printRatios(const std::vector<SystemResult> &rows)
{
    if (rows.empty())
        return;
    double helix = rows.front().metrics.decodeThroughput;
    for (size_t i = 1; i < rows.size(); ++i) {
        double other = rows[i].metrics.decodeThroughput;
        // No denominator is no ratio, not 0.00x.
        if (other > 0)
            std::printf("helix / %-8s throughput ratio: %.2fx\n",
                        rows[i].system.c_str(), helix / other);
        else
            std::printf("helix / %-8s throughput ratio: n/a\n",
                        rows[i].system.c_str());
    }
}

/** Offline run configuration at the given scale (deep-dive benches;
 *  the figure comparisons get the equivalent from their spec). */
inline RunConfig
offlineRun(const Scale &scale, uint64_t seed = 42)
{
    RunConfig run;
    run.online = false;
    run.sim.warmupSeconds = scale.offlineWarmupS;
    run.sim.measureSeconds = scale.offlineMeasureS;
    run.seed = seed;
    return run;
}

/**
 * One system under test in a figure comparison, named via the
 * src/exp registries (see exp::plannerNames / exp::schedulerNames).
 */
struct System
{
    const char *name;
    const char *planner;
    const char *scheduler;
};

/**
 * The declarative spec for one figure's offline + online comparison:
 * offline (saturating Poisson, seed 42), then online at 75% of the
 * first system's measured offline peak (Sec. 6.2, seed 43). This is
 * the exact structure examples/fig6.exp (and friends) carry as text;
 * the figure binaries and `helixctl run` execute it through the same
 * exp::runSpec engine.
 */
inline io::ExperimentSpec
figureSpec(const std::string &figure_name, const char *cluster,
           const std::vector<const char *> &models,
           const std::vector<System> &systems, const Scale &scale)
{
    io::ExperimentSpec spec;
    spec.name = figure_name;
    spec.seed = 42;
    spec.warmupS = scale.offlineWarmupS;
    spec.measureS = scale.offlineMeasureS;
    spec.plannerBudgetS = scale.plannerBudgetS;
    spec.clusters.push_back({cluster, 0});
    for (const char *model : models)
        spec.models.push_back({model, 0});
    for (const System &sys : systems)
        spec.systems.push_back({sys.name, sys.planner, sys.scheduler, 0});
    io::ScenarioSpec offline;
    offline.kind = "offline";
    io::ScenarioSpec online;
    online.kind = "online-peak";
    online.options = {{"fraction", 0.75},
                      {"seed", 43.0},
                      {"warmup", scale.onlineWarmupS},
                      {"measure", scale.onlineMeasureS}};
    spec.scenarios = {offline, online};
    return spec;
}

/**
 * Run one figure's offline + online comparison for @p model (a model
 * registry name) over @p systems through the shared spec engine,
 * printing the standard tables. Each system is planned once; the
 * offline batch and the online batch (whose arrival rate is 75% of
 * the measured offline peak of the first — Helix — system, Sec. 6.2)
 * each execute on the runner's thread pool. This is exactly
 * `helixctl run` on the equivalent spec file.
 */
inline void
runFigureComparison(const char *cluster_name, const char *model_name,
                    const std::vector<System> &systems,
                    const Scale &scale,
                    const std::string &offline_title,
                    const std::string &online_title)
{
    io::ExperimentSpec spec = figureSpec(
        "figure", cluster_name, {model_name}, systems, scale);
    io::ParseError error;
    auto results = exp::runSpec(spec, &error);
    if (!results) {
        std::fprintf(stderr, "invalid figure spec: %s\n",
                     error.str().c_str());
        std::exit(1);
    }

    auto to_rows = [&](size_t first) {
        std::vector<SystemResult> rows;
        rows.reserve(systems.size());
        for (size_t i = 0; i < systems.size(); ++i) {
            const exp::JobResult &result = results->at(first + i);
            SystemResult row;
            row.system = systems[i].name;
            row.plannedThroughput = result.plannedThroughput;
            row.metrics = result.metrics;
            rows.push_back(std::move(row));
        }
        return rows;
    };

    auto offline_rows = to_rows(0);
    printHeader(offline_title.c_str());
    for (const auto &row : offline_rows)
        printRow(row);
    printRatios(offline_rows);

    auto online_rows = to_rows(systems.size());
    printHeader(online_title.c_str());
    for (const auto &row : online_rows)
        printRow(row);
    printRatios(online_rows);
}

} // namespace bench
} // namespace helix

#endif // HELIX_BENCH_BENCH_COMMON_H
