/**
 * @file
 * Experiment-runner subsystem: simulation jobs over
 * (cluster x placement x scheduler x trace scenario) configurations,
 * executed on a thread pool with structured JSON/CSV output, plus
 * the name registries that `experiment v1` specs resolve against.
 *
 * Specs (exp/spec.h) expand into jobs here; ExperimentRunner runs
 * each ClusterSimulator instance on its own worker. Every job is
 * self-contained (its own scheduler and simulator over a shared const
 * Deployment), so results are byte-identical to invoking
 * runExperiment() directly, regardless of thread count or completion
 * order.
 */

#ifndef HELIX_EXP_EXPERIMENT_H
#define HELIX_EXP_EXPERIMENT_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/helix.h"

namespace helix {
namespace exp {

/** One unit of work: simulate a deployment under one configuration. */
struct Job
{
    /** Row label in the emitted results. */
    std::string label;
    /** Planned deployment (non-owning; must outlive the run). */
    const Deployment *deployment = nullptr;
    SchedulerKind scheduler = SchedulerKind::Helix;
    scheduler::SchedulerConfig schedulerConfig;
    RunConfig run;
};

/** Result of one job. */
struct JobResult
{
    std::string label;
    std::string cluster;
    std::string model;
    std::string planner;
    std::string scheduler;
    std::string arrivals;
    double plannedThroughput = 0.0;
    sim::SimMetrics metrics;
    /** Wall-clock seconds the simulation took. */
    double wallSeconds = 0.0;
};

/** Thread-pool options for ExperimentRunner. */
struct RunnerOptions
{
    /** Worker threads; 0 = hardware concurrency. */
    int numThreads = 0;
};

/**
 * Runs batches of jobs on a thread pool. Results are returned in job
 * order and are independent of the number of workers.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions options = {});

    /** Run every job; results align with the input order. */
    [[nodiscard]] std::vector<JobResult> run(
        const std::vector<Job> &jobs) const;

    /**
     * Run arbitrary tasks on the pool; each task runs exactly once,
     * and the call returns after all of them finish. Tasks must only
     * touch their own state (the simulation path writes one result
     * slot per job; the planner portfolio writes one report entry per
     * member). run() is implemented on top of this.
     */
    void runTasks(const std::vector<std::function<void()>> &tasks)
        const;

  private:
    RunnerOptions opts;
};

/** Structured emitters for downstream analysis/plotting. */
[[nodiscard]] std::string resultsToJson(const std::vector<JobResult> &results);
[[nodiscard]] std::string resultsToCsv(const std::vector<JobResult> &results);

// --- Registries (declarative configs name their parts) -------------

/**
 * "single24", "geo24", "hetero42", "planner10", plus generated
 * clusters named "gen:<preset>:<nodes>[:<seed>]" (seed defaults to
 * 42) — e.g. "gen:two-tier:300:7". Presets: cluster::gen::presetNames.
 */
[[nodiscard]] std::optional<cluster::ClusterSpec> clusterByName(
    const std::string &name);

/**
 * Node count of the cluster @p name resolves to, without
 * materializing it — for a generated cluster this skips generating
 * its nodes, so validation of e.g. "gen:...:1000:7" stays O(1).
 * Nullopt exactly when clusterByName would fail.
 */
[[nodiscard]] std::optional<int> clusterNodeCountByName(const std::string &name);

/** "llama30b", "llama70b", "gpt3-175b", "grok1-314b", "llama3-405b". */
[[nodiscard]] std::optional<model::TransformerSpec> modelByName(
    const std::string &name);

/**
 * "helix" / "helix-pruned" (budgeted, the latter with bandwidth
 * pruning), "helix-partitioned" (budgeted, region-partitioned),
 * "swarm", "petals", "sp", "sp+", "uniform", and "portfolio" — all
 * other registry planners raced concurrently under the budget (see
 * placement/portfolio.h). "portfolio:<a>,<b>,..." restricts the
 * member list (e.g. "portfolio:swarm,sp+,uniform"; members may not
 * themselves be portfolios).
 *
 * @param portfolio_threads worker threads for a portfolio's member
 *        race (0 = one thread per member); ignored by every other
 *        planner. `helixctl plan --threads` and a spec's `threads`
 *        land here.
 * @return a fresh planner instance, or nullptr for unknown names.
 */
[[nodiscard]] std::unique_ptr<placement::Planner> plannerByName(
    const std::string &name, double planner_budget_s,
    int portfolio_threads = 0);

/** Scheduler kind from its toString name. */
[[nodiscard]] std::optional<SchedulerKind> schedulerKindByName(
    const std::string &name);

/**
 * Registry enumeration (for `helixctl list` and spec validation).
 * Every returned name resolves through the matching *ByName lookup;
 * tests/test_spec.cpp pins that invariant.
 */
[[nodiscard]] const std::vector<std::string> &clusterNames();
[[nodiscard]] const std::vector<std::string> &modelNames();
[[nodiscard]] const std::vector<std::string> &plannerNames();
[[nodiscard]] const std::vector<std::string> &schedulerNames();

} // namespace exp
} // namespace helix

#endif // HELIX_EXP_EXPERIMENT_H
