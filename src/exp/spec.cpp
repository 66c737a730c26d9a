#include "exp/spec.h"

#include <algorithm>

#include "util/logging.h"

namespace helix {
namespace exp {

using io::joinNames;

namespace {

void
setError(io::ParseError *error, int line, std::string message)
{
    if (error) {
        error->line = line;
        error->message = std::move(message);
    }
}

/** A resolved planner+scheduler pair with its row label. */
struct ResolvedSystem
{
    std::string label;
    std::string planner;
    SchedulerKind scheduler = SchedulerKind::Helix;
};

/**
 * The systems a spec runs per (cluster, model): either its `system`
 * lines verbatim, or the planner x scheduler cartesian product with
 * "<planner>/<scheduler>" labels.
 */
std::vector<ResolvedSystem>
resolveSystems(const io::ExperimentSpec &spec)
{
    std::vector<ResolvedSystem> systems;
    if (!spec.systems.empty()) {
        for (const io::SystemSpec &system : spec.systems) {
            ResolvedSystem resolved;
            resolved.label = system.label;
            resolved.planner = system.planner;
            resolved.scheduler =
                *schedulerKindByName(system.scheduler);
            systems.push_back(std::move(resolved));
        }
        return systems;
    }
    for (const io::SpecName &planner : spec.planners) {
        for (const io::SpecName &sched : spec.schedulers) {
            ResolvedSystem resolved;
            resolved.label = planner.value + "/" + sched.value;
            resolved.planner = planner.value;
            resolved.scheduler = *schedulerKindByName(sched.value);
            systems.push_back(std::move(resolved));
        }
    }
    return systems;
}

} // namespace

bool
validateSpec(const io::ExperimentSpec &spec, io::ParseError *error)
{
    int min_nodes = -1;
    for (const io::SpecName &name : spec.clusters) {
        // Node-count lookup only: resolving a generated cluster here
        // would generate all of its nodes just to validate the name.
        auto num_nodes = clusterNodeCountByName(name.value);
        if (!num_nodes) {
            setError(error, name.line,
                     "unknown cluster '" + name.value + "' (known: " +
                         joinNames(clusterNames()) + ")");
            return false;
        }
        if (min_nodes < 0 || *num_nodes < min_nodes)
            min_nodes = *num_nodes;
    }
    for (const io::SpecName &name : spec.models) {
        if (!modelByName(name.value)) {
            setError(error, name.line,
                     "unknown model '" + name.value + "' (known: " +
                         joinNames(modelNames()) + ")");
            return false;
        }
    }
    for (const io::SpecName &name : spec.planners) {
        if (!plannerByName(name.value, 0.01)) {
            setError(error, name.line,
                     "unknown planner '" + name.value + "' (known: " +
                         joinNames(plannerNames()) + ")");
            return false;
        }
    }
    for (const io::SpecName &name : spec.schedulers) {
        if (!schedulerKindByName(name.value)) {
            setError(error, name.line,
                     "unknown scheduler '" + name.value +
                         "' (known: " + joinNames(schedulerNames()) +
                         ")");
            return false;
        }
    }
    for (const io::SystemSpec &system : spec.systems) {
        if (!plannerByName(system.planner, 0.01)) {
            setError(error, system.line,
                     "system '" + system.label +
                         "' names unknown planner '" + system.planner +
                         "' (known: " + joinNames(plannerNames()) +
                         ")");
            return false;
        }
        if (!schedulerKindByName(system.scheduler)) {
            setError(error, system.line,
                     "system '" + system.label +
                         "' names unknown scheduler '" +
                         system.scheduler + "' (known: " +
                         joinNames(schedulerNames()) + ")");
            return false;
        }
    }
    for (const io::ScenarioSpec &scenario : spec.scenarios) {
        if (scenario.kind != "churn")
            continue;
        double drift = scenario.get("drift", 0.0);
        if (drift < 0.0 || drift >= 1.0) {
            setError(error, scenario.line,
                     "churn drift=" + std::to_string(drift) +
                         " must be a fraction in [0, 1)");
            return false;
        }
        // Event schedule: every event's node must exist in every
        // declared cluster, times must be fractions declared in
        // non-decreasing order, and the fail/recover alternation must
        // be consistent per node (no double fail, no recover of a
        // node that never failed).
        double prev_at = -1.0;
        std::vector<int> dead;
        for (const io::ChurnEventSpec &event : scenario.events) {
            const std::string what =
                std::string(event.fail ? "fail=" : "recover=") +
                std::to_string(event.node) + "@" +
                std::to_string(event.atFraction);
            if (event.node < 0 ||
                (min_nodes >= 0 && event.node >= min_nodes)) {
                setError(error, event.line,
                         "churn event node index " +
                             std::to_string(event.node) +
                             " is out of range for the smallest "
                             "declared cluster (" +
                             std::to_string(min_nodes) + " nodes)");
                return false;
            }
            if (event.atFraction < 0.0 || event.atFraction > 1.0) {
                setError(error, event.line,
                         "churn event " + what +
                             " must occur at a fraction of the run "
                             "in [0, 1]");
                return false;
            }
            if (event.atFraction < prev_at) {
                setError(error, event.line,
                         "churn event " + what +
                             " is out of order: events must be "
                             "declared in non-decreasing time order");
                return false;
            }
            prev_at = event.atFraction;
            auto found =
                std::find(dead.begin(), dead.end(), event.node);
            if (event.fail) {
                if (found != dead.end()) {
                    setError(error, event.line,
                             "churn event " + what +
                                 " fails a node that is already "
                                 "failed");
                    return false;
                }
                dead.push_back(event.node);
            } else {
                if (found == dead.end()) {
                    setError(error, event.line,
                             "churn event " + what +
                                 " recovers a node with no earlier "
                                 "fail event");
                    return false;
                }
                dead.erase(found);
            }
        }
    }
    return true;
}

RunConfig
scenarioRunConfig(const io::ExperimentSpec &spec,
                  const io::ScenarioSpec &scenario,
                  double offline_peak)
{
    RunConfig run;
    run.online = scenario.kind != "offline";
    run.utilization = scenario.get("utilization", 0.0);
    run.seed = static_cast<uint64_t>(
        scenario.get("seed", static_cast<double>(spec.seed)));
    run.sim.warmupSeconds = scenario.get("warmup", spec.warmupS);
    run.sim.measureSeconds = scenario.get("measure", spec.measureS);
    // Purely a wall-clock knob: the sharded executor is byte-identical
    // to the serial loop, so sim-threads never alters results.
    run.sim.simThreads = spec.simThreads;
    // Tenancy: two or more tenant lines activate fair-share admission
    // and tenant-labeled trace generation; zero or one leaves the run
    // byte-identical to the pre-tenancy path.
    if (spec.tenants.size() >= 2) {
        run.sim.tenants.reserve(spec.tenants.size());
        for (const io::TenantSpec &tenant : spec.tenants) {
            scheduler::Tenant cls;
            cls.name = tenant.name;
            cls.weight = tenant.weight;
            cls.mix = tenant.mix;
            cls.sloTtftS = tenant.sloTtftS;
            cls.sloTpotS = tenant.sloTpotS;
            run.sim.tenants.push_back(std::move(cls));
        }
        run.sim.starvationTolerance = spec.starvationTolerance;
        run.sim.preemptionTimeoutS = spec.preemptionTimeoutS;
    }
    if (scenario.kind == "bursty") {
        run.arrivals = ArrivalKind::Bursty;
        run.burstMultiplier =
            scenario.get("multiplier", run.burstMultiplier);
        run.burstMeanS = scenario.get("burst", run.burstMeanS);
        run.burstGapS = scenario.get("gap", run.burstGapS);
    } else if (scenario.kind == "churn") {
        run.online = scenario.get("online", 1.0) != 0.0;
        run.sim.driftThreshold = scenario.get("drift", 0.0);
        // Each event lands at its fraction of the run horizon.
        double horizon = run.sim.warmupSeconds + run.sim.measureSeconds;
        run.sim.churnEvents.reserve(scenario.events.size());
        for (const io::ChurnEventSpec &event : scenario.events) {
            run.sim.churnEvents.push_back(
                {event.fail ? sim::ChurnEvent::Kind::Fail
                            : sim::ChurnEvent::Kind::Recover,
                 event.node, event.atFraction * horizon});
        }
    } else if (scenario.kind == "online-peak") {
        // Sec. 6.2: the online arrival rate is `fraction` of the
        // measured offline peak, in requests/s of mean output length.
        double fraction = scenario.get("fraction", 0.75);
        run.requestRate = fraction * offline_peak /
                          run.lengths.targetMeanOutput;
    }
    return run;
}

std::optional<std::vector<JobResult>>
runSpec(const io::ExperimentSpec &spec, io::ParseError *error,
        RunnerOptions options)
{
    if (!validateSpec(spec, error))
        return std::nullopt;

    if (options.numThreads <= 0)
        options.numThreads = spec.threads;
    ExperimentRunner runner(options);
    std::vector<ResolvedSystem> systems = resolveSystems(spec);

    std::vector<JobResult> results;
    for (const io::SpecName &cluster_name : spec.clusters) {
        auto clus = clusterByName(cluster_name.value);
        for (const io::SpecName &model_name : spec.models) {
            auto model_spec = modelByName(model_name.value);

            // Plan each distinct planner once per (cluster, model);
            // every system and scenario job naming it shares the
            // deployment const (schedulers don't affect planning).
            std::vector<std::string> planner_order;
            std::vector<size_t> system_deployment(systems.size());
            for (size_t i = 0; i < systems.size(); ++i) {
                auto found = std::find(planner_order.begin(),
                                       planner_order.end(),
                                       systems[i].planner);
                system_deployment[i] =
                    static_cast<size_t>(found - planner_order.begin());
                if (found == planner_order.end())
                    planner_order.push_back(systems[i].planner);
            }
            std::vector<Deployment> deployments;
            deployments.reserve(planner_order.size());
            for (const std::string &planner_name : planner_order) {
                // The thread count also caps a portfolio planner's
                // member race, so `--threads 1` runs serially and a
                // spec's results stay reproducible either way.
                auto planner = plannerByName(planner_name,
                                             spec.plannerBudgetS,
                                             options.numThreads);
                deployments.emplace_back(*clus, *model_spec,
                                         *planner);
            }

            double offline_peak = 0.0;
            for (const io::ScenarioSpec &scenario : spec.scenarios) {
                RunConfig run =
                    scenarioRunConfig(spec, scenario, offline_peak);
                std::vector<Job> jobs;
                jobs.reserve(systems.size());
                for (size_t i = 0; i < systems.size(); ++i) {
                    Job job;
                    job.label = cluster_name.value + "/" +
                                model_name.value + "/" +
                                systems[i].label + "/" +
                                scenario.kind;
                    job.deployment =
                        &deployments[system_deployment[i]];
                    job.scheduler = systems[i].scheduler;
                    job.run = run;
                    jobs.push_back(std::move(job));
                }
                std::vector<JobResult> batch = runner.run(jobs);
                for (const JobResult &result : batch) {
                    const sim::SimMetrics &m = result.metrics;
                    if (m.requestsArrived == 0 ||
                        m.requestsCompleted == 0) {
                        HELIX_WARN("%s measured nothing (%ld arrivals, "
                                   "%ld completions); widen its "
                                   "warmup/measure windows",
                                   result.label.c_str(),
                                   m.requestsArrived,
                                   m.requestsCompleted);
                    }
                }
                if (scenario.kind == "offline" && !batch.empty()) {
                    offline_peak =
                        batch.front().metrics.decodeThroughput;
                }
                for (JobResult &result : batch)
                    results.push_back(std::move(result));
            }
        }
    }
    return results;
}

} // namespace exp
} // namespace helix
