/**
 * @file
 * The `experiment v1` declarative experiment-spec format.
 *
 * An experiment spec is a line-oriented text file (same grammar family
 * as `cluster v1` / `trace v1`: one record per line, `#` comments,
 * whitespace-separated tokens) that names every part of a sweep via
 * the src/exp registries instead of compiled code:
 *
 *   experiment v1
 *   name fig6
 *   seed 42
 *   warmup 1              # seconds excluded from metrics
 *   measure 3             # measurement window, seconds
 *   planner-budget 0.05   # wall-clock budget for budgeted planners
 *   output csv            # csv | json
 *   cluster single24      # sweep axis: cluster registry names
 *   model llama30b        # sweep axis: model registry names
 *   system helix helix helix        # label, planner, scheduler
 *   system swarm swarm swarm        # (paired planner+scheduler)
 *   scenario offline
 *   scenario online-peak fraction=0.75 seed=43
 *
 * Job generation is either *paired* (`system` lines: each declares a
 * labeled planner+scheduler pair, as the paper's figure comparisons
 * do) or *cartesian* (`planner` and `scheduler` axis lines, crossed
 * into every pair). Scenario lines carry `key=value` options inline
 * (see docs/SCENARIOS.md for the catalog and semantics).
 *
 * This header is pure syntax: names are kept as strings with their
 * source lines. Registry resolution and execution live in
 * src/exp/spec.h, so `helixctl validate` can report line-numbered
 * errors for unknown names as well as grammar violations.
 */

#ifndef HELIX_IO_SPEC_H
#define HELIX_IO_SPEC_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "io/serialization.h"

namespace helix {
namespace io {

/** A registry name plus the spec line it came from. */
struct SpecName
{
    std::string value;
    int line = 0;

    bool operator==(const SpecName &other) const
    {
        return value == other.value;
    }
};

/** One `system <label> <planner> <scheduler>` line. */
struct SystemSpec
{
    std::string label;
    std::string planner;
    std::string scheduler;
    int line = 0;
};

/**
 * One churn event from a `fail=<node>@<fraction>` or
 * `recover=<node>@<fraction>` scenario option (churn scenarios only;
 * repeatable, in declaration order).
 */
struct ChurnEventSpec
{
    /** True for `fail=`, false for `recover=`. */
    bool fail = true;
    int node = -1;
    /** Event time as a fraction of (warmup + measure), in [0, 1]. */
    double atFraction = 0.0;
    int line = 0;

    bool operator==(const ChurnEventSpec &other) const
    {
        if (fail != other.fail || node != other.node)
            return false;
        // helix-lint: allow(float-eq) structural equality of parsed specs: identical text must parse bit-identically
        return atFraction == other.atFraction;
    }
};

/**
 * One `tenant <name> weight=<w> [mix=<f>] [slo-ttft=<s>]
 * [slo-tpot=<s>]` line (fair-share serving; see docs/SCENARIOS.md).
 */
struct TenantSpec
{
    std::string name;
    /** Fair-share weight (> 0; see core::specParams()). */
    double weight = 1.0;
    /** Arrival-mix fraction in [0, 1]; negative = unset (defaults to
     *  weight-proportional at run time). If any tenant declares a
     *  mix, all must, and they must sum to 1. */
    double mix = -1.0;
    /** Time-to-first-token SLO in seconds; 0 = no SLO declared. */
    double sloTtftS = 0.0;
    /** Time-per-output-token SLO in seconds; 0 = no SLO declared. */
    double sloTpotS = 0.0;
    int line = 0;

    bool operator==(const TenantSpec &other) const
    {
        if (name != other.name)
            return false;
        // helix-lint: allow(float-eq) structural equality of parsed specs: identical text must parse bit-identically
        return weight == other.weight && mix == other.mix &&
               // helix-lint: allow(float-eq) same: parsed-literal bit equality
               sloTtftS == other.sloTtftS &&
               // helix-lint: allow(float-eq) same: parsed-literal bit equality
               sloTpotS == other.sloTpotS;
    }
};

/** One `scenario <kind> [key=value ...]` line. */
struct ScenarioSpec
{
    std::string kind;
    /** Options in declaration order (serialization round-trips). */
    std::vector<std::pair<std::string, double>> options;
    /** Churn schedule (`fail=`/`recover=` options, declaration
     *  order). Only populated for kind == "churn". */
    std::vector<ChurnEventSpec> events;
    int line = 0;

    [[nodiscard]] bool has(const std::string &key) const;
    [[nodiscard]] double get(const std::string &key, double fallback) const;
};

/** A parsed `experiment v1` file. */
struct ExperimentSpec
{
    std::string name = "experiment";
    /** Emitter for `helixctl run`: "csv" or "json". */
    std::string output = "csv";
    /** Worker threads (0 = hardware concurrency). */
    int threads = 0;
    /** Worker threads inside each simulation's sharded event loop
     *  (sim::SimConfig::simThreads); 1 = serial reference loop. Any
     *  value produces byte-identical results, so this is purely a
     *  wall-clock knob. */
    int simThreads = 1;
    uint64_t seed = 42;
    /** Default warmup/measure windows, overridable per scenario. */
    double warmupS = 30.0;
    double measureS = 120.0;
    /** Wall-clock budget handed to budgeted planners. */
    double plannerBudgetS = 2.0;
    /** Fair-share starvation tolerance in [0, 1]: a demanding tenant
     *  below this fraction of its fair share is starving. */
    double starvationTolerance = 0.8;
    /** Seconds a tenant may starve before an over-share tenant's
     *  newest in-flight request is preempted. */
    double preemptionTimeoutS = 5.0;

    /** Declared tenants (empty = single implicit tenant; the
     *  simulation path is byte-identical to pre-tenancy). */
    std::vector<TenantSpec> tenants;

    std::vector<SpecName> clusters;
    std::vector<SpecName> models;
    /** Cartesian axes; mutually exclusive with `systems`. */
    std::vector<SpecName> planners;
    std::vector<SpecName> schedulers;
    /** Paired mode; mutually exclusive with planner/scheduler axes. */
    std::vector<SystemSpec> systems;
    std::vector<ScenarioSpec> scenarios;
};

/** Serialize a spec (comments are not preserved). */
[[nodiscard]] std::string experimentToString(const ExperimentSpec &spec);

/**
 * Parse an `experiment v1` file. Grammar-level validation only (the
 * header, directive arity, numeric fields, known directives, known
 * scenario kinds, paired-vs-cartesian exclusivity, and the presence
 * of clusters/models/scenarios and a planner source). Registry names
 * are not resolved here; see exp::validateSpec.
 */
[[nodiscard]] std::optional<ExperimentSpec> experimentFromString(
    const std::string &text, ParseError &error);

/** As above, discarding the error detail. */
[[nodiscard]] std::optional<ExperimentSpec> experimentFromString(
    const std::string &text);

/** The scenario kinds the format accepts (see docs/SCENARIOS.md). */
[[nodiscard]] const std::vector<std::string> &scenarioKinds();

/** Option keys accepted by @p kind (common keys included). */
[[nodiscard]] std::vector<std::string> scenarioOptionKeys(const std::string &kind);

/** Option keys accepted by `tenant` lines. */
[[nodiscard]] std::vector<std::string> tenantOptionKeys();

} // namespace io
} // namespace helix

#endif // HELIX_IO_SPEC_H
