/**
 * @file
 * Tests for the `experiment v1` spec format (src/io/spec.h) and its
 * resolution/execution semantics (src/exp/spec.h): serialization
 * round trips, golden files under tests/data/, exact line/message
 * assertions on malformed input, registry enumeration invariants,
 * and byte-identity between the spec engine and a direct
 * experiment-runner replication of the figure-bench path.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/params.h"
#include "exp/spec.h"
#include "io/serialization.h"
#include "io/spec.h"

namespace helix {
namespace {

std::string
dataPath(const std::string &name)
{
    return std::string(HELIX_TEST_DATA_DIR) + "/" + name;
}

std::string
examplePath(const std::string &name)
{
    return std::string(HELIX_EXAMPLES_DIR) + "/" + name;
}

/** Parse failure helper: assert exact {line, message}. */
void
expectSpecError(const std::string &text, int line,
                const std::string &message)
{
    io::ParseError error;
    auto spec = io::experimentFromString(text, error);
    EXPECT_FALSE(spec.has_value()) << text;
    EXPECT_EQ(error.line, line) << text;
    EXPECT_EQ(error.message, message) << text;
}

void
expectMetricsIdentical(const sim::SimMetrics &a,
                       const sim::SimMetrics &b)
{
    EXPECT_EQ(a.decodeThroughput, b.decodeThroughput);
    EXPECT_EQ(a.promptThroughput, b.promptThroughput);
    EXPECT_EQ(a.requestsArrived, b.requestsArrived);
    EXPECT_EQ(a.requestsAdmitted, b.requestsAdmitted);
    EXPECT_EQ(a.requestsCompleted, b.requestsCompleted);
    EXPECT_EQ(a.requestsRejected, b.requestsRejected);
    EXPECT_EQ(a.requestsRestarted, b.requestsRestarted);
    EXPECT_EQ(a.decodeTokensInWindow, b.decodeTokensInWindow);
    EXPECT_EQ(a.promptTokensInWindow, b.promptTokensInWindow);
    EXPECT_EQ(a.avgKvUtilization, b.avgKvUtilization);
    EXPECT_EQ(a.promptLatency.count(), b.promptLatency.count());
    EXPECT_EQ(a.promptLatency.mean(), b.promptLatency.mean());
    EXPECT_EQ(a.promptLatency.percentile(95),
              b.promptLatency.percentile(95));
    EXPECT_EQ(a.decodeLatency.count(), b.decodeLatency.count());
    EXPECT_EQ(a.decodeLatency.mean(), b.decodeLatency.mean());
    EXPECT_EQ(a.decodeLatency.percentile(95),
              b.decodeLatency.percentile(95));
}

// --- Parsing: golden files ------------------------------------------

TEST(SpecGolden, Fig6SmokeParsesToTheBenchStructure)
{
    auto text = io::readFile(dataPath("fig6_smoke.exp"));
    ASSERT_TRUE(text.has_value());
    io::ParseError error;
    auto spec = io::experimentFromString(*text, error);
    ASSERT_TRUE(spec.has_value()) << error.str();

    EXPECT_EQ(spec->name, "fig6-smoke");
    EXPECT_EQ(spec->output, "csv");
    EXPECT_EQ(spec->threads, 0);
    EXPECT_EQ(spec->seed, 42u);
    EXPECT_DOUBLE_EQ(spec->warmupS, 1.0);
    EXPECT_DOUBLE_EQ(spec->measureS, 3.0);
    EXPECT_DOUBLE_EQ(spec->plannerBudgetS, 0.05);
    ASSERT_EQ(spec->clusters.size(), 1u);
    EXPECT_EQ(spec->clusters[0].value, "single24");
    ASSERT_EQ(spec->models.size(), 1u);
    EXPECT_EQ(spec->models[0].value, "llama30b");
    ASSERT_EQ(spec->systems.size(), 2u);
    EXPECT_EQ(spec->systems[0].label, "swarm");
    EXPECT_EQ(spec->systems[0].planner, "swarm");
    EXPECT_EQ(spec->systems[0].scheduler, "swarm");
    EXPECT_EQ(spec->systems[1].label, "sp");
    EXPECT_EQ(spec->systems[1].planner, "sp");
    EXPECT_EQ(spec->systems[1].scheduler, "fixed-rr");
    ASSERT_EQ(spec->scenarios.size(), 2u);
    EXPECT_EQ(spec->scenarios[0].kind, "offline");
    EXPECT_TRUE(spec->scenarios[0].options.empty());
    EXPECT_EQ(spec->scenarios[1].kind, "online-peak");
    EXPECT_DOUBLE_EQ(spec->scenarios[1].get("fraction", 0), 0.75);
    EXPECT_DOUBLE_EQ(spec->scenarios[1].get("seed", 0), 43.0);

    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
}

TEST(SpecGolden, SweepAxesParsesToCartesianMode)
{
    auto text = io::readFile(dataPath("sweep_axes.exp"));
    ASSERT_TRUE(text.has_value());
    io::ParseError error;
    auto spec = io::experimentFromString(*text, error);
    ASSERT_TRUE(spec.has_value()) << error.str();

    EXPECT_EQ(spec->name, "axes-golden");
    EXPECT_EQ(spec->output, "json");
    EXPECT_EQ(spec->threads, 2);
    EXPECT_EQ(spec->seed, 7u);
    EXPECT_TRUE(spec->systems.empty());
    ASSERT_EQ(spec->planners.size(), 2u);
    ASSERT_EQ(spec->schedulers.size(), 2u);
    ASSERT_EQ(spec->scenarios.size(), 4u);
    EXPECT_DOUBLE_EQ(spec->scenarios[0].get("utilization", 0), 2.5);
    EXPECT_DOUBLE_EQ(spec->scenarios[2].get("multiplier", 0), 4.0);
    ASSERT_EQ(spec->scenarios[3].events.size(), 1u);
    EXPECT_TRUE(spec->scenarios[3].events[0].fail);
    EXPECT_EQ(spec->scenarios[3].events[0].node, 1);
    EXPECT_DOUBLE_EQ(spec->scenarios[3].events[0].atFraction, 0.5);
    EXPECT_DOUBLE_EQ(spec->scenarios[3].get("online", 1), 0.0);

    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
}

TEST(SpecGolden, ShippedExamplesParseAndValidate)
{
    for (const char *name :
         {"fig6.exp", "sweep.exp", "portfolio.exp", "churn.exp"}) {
        auto text = io::readFile(examplePath(name));
        ASSERT_TRUE(text.has_value()) << name;
        io::ParseError error;
        auto spec = io::experimentFromString(*text, error);
        ASSERT_TRUE(spec.has_value()) << name << ": " << error.str();
        EXPECT_TRUE(exp::validateSpec(*spec, &error))
            << name << ": " << error.str();
    }
    // examples/fig6.exp is the fast tier (HELIX_BENCH_FAST) of
    // bench_fig6: same windows, systems, and scenario structure.
    auto spec = io::experimentFromString(
        *io::readFile(examplePath("fig6.exp")));
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->name, "fig6");
    EXPECT_EQ(spec->seed, 42u);
    EXPECT_DOUBLE_EQ(spec->warmupS, 30.0);
    EXPECT_DOUBLE_EQ(spec->measureS, 60.0);
    EXPECT_DOUBLE_EQ(spec->plannerBudgetS, 2.0);
    ASSERT_EQ(spec->models.size(), 2u);
    ASSERT_EQ(spec->systems.size(), 3u);
    EXPECT_EQ(spec->systems[0].label, "helix");
    ASSERT_EQ(spec->scenarios.size(), 2u);
    EXPECT_EQ(spec->scenarios[1].kind, "online-peak");
    EXPECT_DOUBLE_EQ(spec->scenarios[1].get("fraction", 0), 0.75);
    EXPECT_DOUBLE_EQ(spec->scenarios[1].get("seed", 0), 43.0);
    EXPECT_DOUBLE_EQ(spec->scenarios[1].get("warmup", 0), 20.0);
    EXPECT_DOUBLE_EQ(spec->scenarios[1].get("measure", 0), 60.0);
}

// --- Parsing: round trip --------------------------------------------

TEST(SpecRoundTrip, SerializeParseSerializeIsByteIdentical)
{
    auto text = io::readFile(dataPath("sweep_axes.exp"));
    ASSERT_TRUE(text.has_value());
    auto spec = io::experimentFromString(*text);
    ASSERT_TRUE(spec.has_value());
    std::string canonical = io::experimentToString(*spec);
    auto reparsed = io::experimentFromString(canonical);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);
    // And the reparse carries the same content.
    EXPECT_EQ(reparsed->name, spec->name);
    EXPECT_EQ(reparsed->threads, spec->threads);
    EXPECT_EQ(reparsed->seed, spec->seed);
    ASSERT_EQ(reparsed->scenarios.size(), spec->scenarios.size());
    for (size_t i = 0; i < spec->scenarios.size(); ++i) {
        EXPECT_EQ(reparsed->scenarios[i].kind,
                  spec->scenarios[i].kind);
        EXPECT_EQ(reparsed->scenarios[i].options,
                  spec->scenarios[i].options);
    }
}

// --- Parsing: malformed input, exact line + message -----------------

TEST(SpecErrors, HeaderProblems)
{
    expectSpecError("", 0,
                    "empty input; expected 'experiment v1' header");
    expectSpecError("cluster v1\n", 1,
                    "expected 'experiment v1' header, got 'cluster'");
    expectSpecError("experiment v2\n", 1,
                    "experiment version 'v2' not supported "
                    "(expected v1)");
}

TEST(SpecErrors, DirectiveProblems)
{
    expectSpecError("experiment v1\nfrobnicate 3\n", 2,
                    "unknown directive 'frobnicate'");
    expectSpecError("experiment v1\nseed 42\n# c\nseed 43\n", 4,
                    "duplicate 'seed' directive (first on line 2)");
    expectSpecError("experiment v1\nwarmup -3\n", 2,
                    "'warmup' must be a non-negative number of "
                    "seconds, got '-3'");
    expectSpecError("experiment v1\noutput yaml\n", 2,
                    "output must be 'csv' or 'json', got 'yaml'");
    expectSpecError("experiment v1\nseed banana\n", 2,
                    "seed must be an unsigned integer, got 'banana'");
    expectSpecError("experiment v1\ncluster\n", 2,
                    "'cluster' needs 1 argument(s): cluster "
                    "<registry-name>");
}

TEST(SpecErrors, ModeMixing)
{
    expectSpecError("experiment v1\n"
                    "cluster planner10\n"
                    "model llama30b\n"
                    "system a swarm helix\n"
                    "planner swarm\n",
                    5,
                    "cannot mix 'planner' axes with 'system' lines "
                    "(first system on line 4)");
    expectSpecError("experiment v1\n"
                    "cluster planner10\n"
                    "model llama30b\n"
                    "scheduler helix\n"
                    "system a swarm helix\n",
                    5,
                    "cannot mix 'system' lines with planner/scheduler "
                    "axes (first axis on line 4)");
    expectSpecError("experiment v1\n"
                    "cluster planner10\n"
                    "model llama30b\n"
                    "planner swarm\n"
                    "scenario offline\n",
                    4, "cartesian mode needs at least one 'scheduler'");
}

TEST(SpecErrors, ScenarioProblems)
{
    const std::string preamble = "experiment v1\n"
                                 "cluster planner10\n"
                                 "model llama30b\n"
                                 "system a swarm helix\n";
    expectSpecError(preamble + "scenario rushhour\n", 5,
                    "unknown scenario kind 'rushhour' (known: "
                    "offline, online, bursty, churn, online-peak)");
    expectSpecError(preamble + "scenario offline node=3\n", 5,
                    "scenario 'offline' does not take option 'node' "
                    "(known: seed, warmup, measure, utilization)");
    expectSpecError(preamble + "scenario offline seed=abc\n", 5,
                    "scenario option 'seed' has non-numeric value "
                    "'abc'");
    expectSpecError(preamble + "scenario offline seed=1 seed=2\n", 5,
                    "duplicate scenario option 'seed'");
    expectSpecError(preamble + "scenario churn online=0\n", 5,
                    "churn scenario requires fail=<node>@<fraction> "
                    "events");
    // The removed churn keys name their replacement.
    expectSpecError(preamble + "scenario churn at=0.5\n", 5,
                    "churn option 'at' was removed: declare failures "
                    "as fail=<node>@<fraction>");
    expectSpecError(preamble + "scenario churn repair=1 fail=0@0.3\n",
                    5,
                    "churn option 'repair' was removed: re-solves "
                    "always repair");
    expectSpecError(preamble + "scenario online-peak\n"
                               "scenario offline\n",
                    5,
                    "online-peak needs an earlier offline scenario "
                    "to derive its arrival rate from");
}

TEST(SpecErrors, ChurnEventGrammar)
{
    const std::string preamble = "experiment v1\n"
                                 "cluster planner10\n"
                                 "model llama30b\n"
                                 "system a swarm helix\n";
    // Event values must be <node>@<fraction>.
    expectSpecError(preamble + "scenario churn fail=0.3\n", 5,
                    "scenario option 'fail' must be "
                    "<node>@<fraction>, got '0.3'");
    expectSpecError(preamble + "scenario churn fail=a@0.3\n", 5,
                    "scenario option 'fail' must be "
                    "<node>@<fraction>, got 'a@0.3'");
    expectSpecError(preamble + "scenario churn recover=1@\n", 5,
                    "scenario option 'recover' must be "
                    "<node>@<fraction>, got '1@'");
    // The removed single-failure keys point at the event schedule.
    expectSpecError(preamble +
                        "scenario churn node=0 fail=1@0.3\n",
                    5,
                    "churn option 'node' was removed: declare "
                    "failures as fail=<node>@<fraction>");
    // Repeated fail=/recover= keys are legal (an event schedule).
    auto spec = io::experimentFromString(
        preamble +
        "scenario churn fail=0@0.2 recover=0@0.5 fail=1@0.7\n");
    ASSERT_TRUE(spec.has_value());
    ASSERT_EQ(spec->scenarios.size(), 1u);
    const auto &events = spec->scenarios[0].events;
    ASSERT_EQ(events.size(), 3u);
    EXPECT_TRUE(events[0].fail);
    EXPECT_EQ(events[0].node, 0);
    EXPECT_DOUBLE_EQ(events[0].atFraction, 0.2);
    EXPECT_FALSE(events[1].fail);
    EXPECT_EQ(events[1].node, 0);
    EXPECT_DOUBLE_EQ(events[1].atFraction, 0.5);
    EXPECT_TRUE(events[2].fail);
    EXPECT_EQ(events[2].node, 1);
    EXPECT_DOUBLE_EQ(events[2].atFraction, 0.7);
    io::ParseError error;
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    // Canonical serialization keeps the schedule and round-trips.
    std::string canonical = io::experimentToString(*spec);
    EXPECT_NE(canonical.find(
                  "scenario churn fail=0@0.20000000000000001 "
                  "recover=0@0.5 fail=1@0.69999999999999996"),
              std::string::npos)
        << canonical;
    auto reparsed = io::experimentFromString(canonical);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);
    EXPECT_EQ(reparsed->scenarios[0].events, events);
}

TEST(SpecValidate, ChurnEventScheduleConsistency)
{
    const std::string preamble = "experiment v1\n"
                                 "cluster planner10\n"
                                 "model llama30b\n"
                                 "system a swarm helix\n";
    io::ParseError error;
    auto check = [&](const std::string &scenario_line,
                     const std::string &message) {
        auto spec =
            io::experimentFromString(preamble + scenario_line + "\n");
        ASSERT_TRUE(spec.has_value()) << scenario_line;
        EXPECT_FALSE(exp::validateSpec(*spec, &error))
            << scenario_line;
        EXPECT_EQ(error.line, 5) << scenario_line;
        EXPECT_EQ(error.message, message) << scenario_line;
    };
    check("scenario churn fail=10@0.3",
          "churn event node index 10 is out of range for the "
          "smallest declared cluster (10 nodes)");
    check("scenario churn fail=0@1.5",
          "churn event fail=0@1.500000 must occur at a fraction of "
          "the run in [0, 1]");
    check("scenario churn fail=0@0.5 recover=0@0.2",
          "churn event recover=0@0.200000 is out of order: events "
          "must be declared in non-decreasing time order");
    check("scenario churn fail=0@0.2 fail=0@0.5",
          "churn event fail=0@0.500000 fails a node that is already "
          "failed");
    check("scenario churn recover=0@0.2",
          "churn event recover=0@0.200000 recovers a node with no "
          "earlier fail event");
    // Fail, recover, then fail again on the same node is a legal
    // flapping-node schedule.
    auto flap = io::experimentFromString(
        preamble +
        "scenario churn fail=2@0.2 recover=2@0.4 fail=2@0.8\n");
    ASSERT_TRUE(flap.has_value());
    EXPECT_TRUE(exp::validateSpec(*flap, &error)) << error.str();
}

TEST(SpecErrors, NonFiniteAndPrecisionLosingValuesRejected)
{
    // inf/nan would hang a run (infinite warmup) or poison configs;
    // parseDouble rejects them everywhere.
    expectSpecError("experiment v1\nwarmup inf\n", 2,
                    "'warmup' must be a non-negative number of "
                    "seconds, got 'inf'");
    expectSpecError("experiment v1\nmeasure nan\n", 2,
                    "'measure' must be a non-negative number of "
                    "seconds, got 'nan'");
    const std::string preamble = "experiment v1\n"
                                 "cluster planner10\n"
                                 "model llama30b\n"
                                 "system a swarm helix\n"
                                 "scenario offline\n";
    expectSpecError(preamble + "scenario online-peak fraction=inf\n",
                    6,
                    "scenario option 'fraction' has non-numeric "
                    "value 'inf'");
    // Scenario seeds ride the double-valued option table; values
    // beyond 2^53 would silently shift the RNG stream.
    expectSpecError(preamble +
                        "scenario offline seed=12345678901234567890\n",
                    6,
                    "scenario option 'seed' exceeds 2^53 and would "
                    "lose precision; use the top-level 'seed' "
                    "directive");
}

TEST(SpecErrors, MissingSections)
{
    expectSpecError("experiment v1\n", 0,
                    "spec declares no 'cluster' lines");
    expectSpecError("experiment v1\ncluster planner10\n", 0,
                    "spec declares no 'model' lines");
    expectSpecError("experiment v1\ncluster planner10\n"
                    "model llama30b\n",
                    0,
                    "spec declares no 'system' lines and no "
                    "planner/scheduler axes");
    expectSpecError("experiment v1\ncluster planner10\n"
                    "model llama30b\nsystem a swarm helix\n",
                    0, "spec declares no 'scenario' lines");
}

// --- Registry resolution (exp::validateSpec) ------------------------

TEST(SpecValidate, UnknownNamesReportTheirSpecLine)
{
    const std::string text = "experiment v1\n"
                             "cluster nimbus9000\n"
                             "model llama30b\n"
                             "system a swarm helix\n"
                             "scenario offline\n";
    auto spec = io::experimentFromString(text);
    ASSERT_TRUE(spec.has_value());
    io::ParseError error;
    EXPECT_FALSE(exp::validateSpec(*spec, &error));
    EXPECT_EQ(error.line, 2);
    EXPECT_EQ(error.message,
              "unknown cluster 'nimbus9000' (known: single24, geo24, "
              "hetero42, planner10)");

    auto bad_model = io::experimentFromString(
        "experiment v1\ncluster planner10\nmodel llama13b\n"
        "system a swarm helix\nscenario offline\n");
    ASSERT_TRUE(bad_model.has_value());
    EXPECT_FALSE(exp::validateSpec(*bad_model, &error));
    EXPECT_EQ(error.line, 3);
    EXPECT_EQ(error.message,
              "unknown model 'llama13b' (known: llama30b, llama70b, "
              "gpt3-175b, grok1-314b, llama3-405b)");

    auto bad_system = io::experimentFromString(
        "experiment v1\ncluster planner10\nmodel llama30b\n"
        "system a gurobi helix\nscenario offline\n");
    ASSERT_TRUE(bad_system.has_value());
    EXPECT_FALSE(exp::validateSpec(*bad_system, &error));
    EXPECT_EQ(error.line, 4);
    EXPECT_EQ(error.message,
              "system 'a' names unknown planner 'gurobi' (known: "
              "helix, helix-pruned, helix-partitioned, swarm, petals, "
              "sp, sp+, uniform, portfolio)");
}

TEST(SpecValidate, ChurnNodeMustBeAnIntegerIndex)
{
    io::ParseError error;
    auto spec = io::experimentFromString(
        "experiment v1\ncluster planner10\nmodel llama30b\n"
        "system a swarm helix\nscenario churn fail=1.9@0.3\n",
        error);
    EXPECT_FALSE(spec.has_value());
    EXPECT_EQ(error.line, 5);
    EXPECT_EQ(error.message, "scenario option 'fail' must be "
                             "<node>@<fraction>, got '1.9@0.3'");
}

TEST(SpecValidate, ChurnNodeMustExistInEveryCluster)
{
    auto spec = io::experimentFromString(
        "experiment v1\ncluster planner10\nmodel llama30b\n"
        "system a swarm helix\nscenario churn fail=10@0.3\n");
    ASSERT_TRUE(spec.has_value());
    io::ParseError error;
    EXPECT_FALSE(exp::validateSpec(*spec, &error));
    EXPECT_EQ(error.line, 5);
    EXPECT_EQ(error.message,
              "churn event node index 10 is out of range for the "
              "smallest declared cluster (10 nodes)");
}

TEST(SpecValidate, EnumeratedRegistryNamesAllResolve)
{
    for (const std::string &name : exp::clusterNames())
        EXPECT_TRUE(exp::clusterByName(name).has_value()) << name;
    for (const std::string &name : exp::modelNames())
        EXPECT_TRUE(exp::modelByName(name).has_value()) << name;
    for (const std::string &name : exp::plannerNames())
        EXPECT_NE(exp::plannerByName(name, 0.01), nullptr) << name;
    for (const std::string &name : exp::schedulerNames())
        EXPECT_TRUE(exp::schedulerKindByName(name).has_value())
            << name;
    // And pruning actually differs from the plain helix planner only
    // in its configuration, not its registry identity.
    EXPECT_EQ(exp::plannerByName("helix", 0.01)->name(),
              exp::plannerByName("helix-pruned", 0.01)->name());
}

// --- Scenario materialization ---------------------------------------

TEST(SpecScenarios, ScenarioLinesMaterializeRunConfigs)
{
    io::ExperimentSpec spec;
    spec.seed = 11;
    spec.warmupS = 2.0;
    spec.measureS = 8.0;

    io::ScenarioSpec offline;
    offline.kind = "offline";
    RunConfig run = exp::scenarioRunConfig(spec, offline, 0.0);
    EXPECT_FALSE(run.online);
    EXPECT_EQ(run.seed, 11u);
    EXPECT_DOUBLE_EQ(run.sim.warmupSeconds, 2.0);
    EXPECT_DOUBLE_EQ(run.sim.measureSeconds, 8.0);
    EXPECT_EQ(run.arrivals, ArrivalKind::Auto);
    EXPECT_DOUBLE_EQ(run.requestRate, 0.0);
    EXPECT_DOUBLE_EQ(run.utilization, 0.0);
    EXPECT_TRUE(run.sim.churnEvents.empty());

    // Online: diurnal (Auto) arrivals; utilization= overrides the
    // mode's default load.
    io::ScenarioSpec online;
    online.kind = "online";
    online.options = {{"utilization", 0.4}};
    run = exp::scenarioRunConfig(spec, online, 0.0);
    EXPECT_TRUE(run.online);
    EXPECT_EQ(run.arrivals, ArrivalKind::Auto);
    EXPECT_DOUBLE_EQ(run.utilization, 0.4);
    EXPECT_DOUBLE_EQ(run.requestRate, 0.0);
    EXPECT_EQ(run.seed, 11u);

    // Bursty without options takes RunConfig's burst shape.
    io::ScenarioSpec plain_bursty;
    plain_bursty.kind = "bursty";
    run = exp::scenarioRunConfig(spec, plain_bursty, 0.0);
    RunConfig defaults;
    EXPECT_EQ(run.arrivals, ArrivalKind::Bursty);
    EXPECT_DOUBLE_EQ(run.burstMultiplier, defaults.burstMultiplier);
    EXPECT_DOUBLE_EQ(run.burstMeanS, defaults.burstMeanS);
    EXPECT_DOUBLE_EQ(run.burstGapS, defaults.burstGapS);

    io::ScenarioSpec bursty;
    bursty.kind = "bursty";
    bursty.options = {{"multiplier", 7.0}, {"burst", 12.0},
                      {"gap", 60.0}, {"seed", 5.0},
                      {"warmup", 1.0}};
    run = exp::scenarioRunConfig(spec, bursty, 0.0);
    EXPECT_TRUE(run.online);
    EXPECT_EQ(run.arrivals, ArrivalKind::Bursty);
    EXPECT_DOUBLE_EQ(run.burstMultiplier, 7.0);
    EXPECT_DOUBLE_EQ(run.burstMeanS, 12.0);
    EXPECT_DOUBLE_EQ(run.burstGapS, 60.0);
    EXPECT_EQ(run.seed, 5u);
    EXPECT_DOUBLE_EQ(run.sim.warmupSeconds, 1.0);
    EXPECT_DOUBLE_EQ(run.sim.measureSeconds, 8.0);
    EXPECT_TRUE(run.sim.churnEvents.empty());

    // Churn defaults to online mode; one event lands at its fraction
    // of the (per-scenario) horizon.
    io::ScenarioSpec churn;
    churn.kind = "churn";
    churn.options = {{"warmup", 10.0}, {"measure", 30.0},
                     {"seed", 7.0}};
    churn.events = {{true, 2, 0.5, 0}};
    run = exp::scenarioRunConfig(spec, churn, 0.0);
    EXPECT_TRUE(run.online);
    EXPECT_EQ(run.seed, 7u);
    EXPECT_DOUBLE_EQ(run.sim.driftThreshold, 0.0);
    ASSERT_EQ(run.sim.churnEvents.size(), 1u);
    EXPECT_EQ(run.sim.churnEvents[0].node, 2);
    EXPECT_DOUBLE_EQ(run.sim.churnEvents[0].atSeconds, 20.0);

    // An event schedule materializes at fractions of the horizon.
    io::ScenarioSpec schedule;
    schedule.kind = "churn";
    schedule.options = {{"online", 0.0}};
    schedule.events = {{true, 1, 0.3, 0}, {false, 1, 0.6, 0}};
    run = exp::scenarioRunConfig(spec, schedule, 0.0);
    EXPECT_FALSE(run.online);
    ASSERT_EQ(run.sim.churnEvents.size(), 2u);
    EXPECT_EQ(run.sim.churnEvents[0].kind, sim::ChurnEvent::Kind::Fail);
    EXPECT_EQ(run.sim.churnEvents[0].node, 1);
    EXPECT_DOUBLE_EQ(run.sim.churnEvents[0].atSeconds,
                     0.3 * (2.0 + 8.0));
    EXPECT_EQ(run.sim.churnEvents[1].kind,
              sim::ChurnEvent::Kind::Recover);
    EXPECT_DOUBLE_EQ(run.sim.churnEvents[1].atSeconds,
                     0.6 * (2.0 + 8.0));

    // online-peak reproduces bench_common's Sec. 6.2 derivation:
    // rate = fraction * peak / mean output length.
    io::ScenarioSpec peak;
    peak.kind = "online-peak";
    peak.options = {{"fraction", 0.75}, {"seed", 43.0}};
    run = exp::scenarioRunConfig(spec, peak, 1000.0);
    EXPECT_TRUE(run.online);
    EXPECT_EQ(run.seed, 43u);
    trace::LengthModel lengths;
    EXPECT_DOUBLE_EQ(run.requestRate,
                     0.75 * 1000.0 / lengths.targetMeanOutput);
}

// --- docs/FILE_FORMATS.md worked examples ---------------------------
// These literals are byte-for-byte the examples in the doc; each must
// parse and round-trip so the normative reference cannot drift from
// the implementation.

TEST(DocFileFormats, ClusterExampleRoundTrips)
{
    const std::string example = "cluster v1\n"
                                "node a100-0 A100 312 80 2039 400 1 0\n"
                                "node t4-0 T4 65 16 300 70 1 1\n"
                                "link -1 0 1.25e9 0.0005\n"
                                "link -1 1 1.25e9 0.0005\n"
                                "link 0 -1 1.25e9 0.0005\n"
                                "link 0 1 1.25e9 0.0005\n"
                                "link 1 -1 1.25e9 0.0005\n"
                                "link 1 0 1.25e9 0.0005\n";
    io::ParseError error;
    auto clus = io::clusterFromString(example, error);
    ASSERT_TRUE(clus.has_value()) << error.str();
    EXPECT_EQ(clus->numNodes(), 2);
    EXPECT_EQ(clus->node(0).gpu.name, "A100");
    EXPECT_EQ(clus->node(1).region, 1);
    EXPECT_DOUBLE_EQ(clus->link(0, 1).bandwidthBps, 1.25e9);
    EXPECT_DOUBLE_EQ(clus->link(-1, 0).latencyS, 0.0005);
    // Canonical re-serialization is stable.
    std::string canonical = io::clusterToString(*clus);
    auto reparsed = io::clusterFromString(canonical);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(io::clusterToString(*reparsed), canonical);
}

TEST(DocFileFormats, PlacementExampleRoundTrips)
{
    const std::string example = "placement v1 2\n"
                                "0 40\n"
                                "40 40\n";
    io::ParseError error;
    auto placement = io::placementFromString(example, error);
    ASSERT_TRUE(placement.has_value()) << error.str();
    ASSERT_EQ(placement->size(), 2u);
    EXPECT_EQ((*placement)[0].start, 0);
    EXPECT_EQ((*placement)[0].count, 40);
    EXPECT_EQ((*placement)[1].end(), 80);
    EXPECT_EQ(io::placementToString(*placement), example);
}

TEST(DocFileFormats, TraceExampleRoundTrips)
{
    const std::string example = "trace v1 3\n"
                                "0 0.25 763 232\n"
                                "1 1.75 2048 1\n"
                                "2 3.125 4 1024\n";
    io::ParseError error;
    auto requests = io::traceFromString(example, error);
    ASSERT_TRUE(requests.has_value()) << error.str();
    ASSERT_EQ(requests->size(), 3u);
    EXPECT_DOUBLE_EQ((*requests)[1].arrivalS, 1.75);
    EXPECT_EQ((*requests)[2].outputLen, 1024);
    EXPECT_EQ(io::traceToString(*requests), example);
}

TEST(DocFileFormats, ExperimentExampleParsesAndValidates)
{
    const std::string example =
        "experiment v1\n"
        "name fig6-mini\n"
        "output csv\n"
        "seed 42\n"
        "warmup 1\n"
        "measure 3\n"
        "planner-budget 0.05\n"
        "cluster single24\n"
        "model llama30b\n"
        "system helix helix helix\n"
        "system swarm swarm swarm\n"
        "scenario offline\n"
        "scenario online-peak fraction=0.75 seed=43\n";
    io::ParseError error;
    auto spec = io::experimentFromString(example, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    EXPECT_EQ(spec->name, "fig6-mini");
    ASSERT_EQ(spec->systems.size(), 2u);
    ASSERT_EQ(spec->scenarios.size(), 2u);
    // Canonical re-serialization is stable.
    std::string canonical = io::experimentToString(*spec);
    auto reparsed = io::experimentFromString(canonical);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);
}

TEST(DocFileFormats, PortfolioGeneratedClusterExampleValidates)
{
    // Byte-for-byte the "planner portfolio on a generated cluster"
    // worked example in docs/FILE_FORMATS.md.
    const std::string example =
        "experiment v1\n"
        "name portfolio-scale\n"
        "output csv\n"
        "seed 42\n"
        "warmup 30\n"
        "measure 120\n"
        "planner-budget 2\n"
        "cluster gen:long-tail-heterogeneous:100:7\n"
        "model llama30b\n"
        "system portfolio portfolio helix\n"
        "system helix     helix     helix\n"
        "scenario offline\n";
    io::ParseError error;
    auto spec = io::experimentFromString(example, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    EXPECT_EQ(spec->name, "portfolio-scale");
    EXPECT_DOUBLE_EQ(spec->plannerBudgetS, 2.0);
    ASSERT_EQ(spec->clusters.size(), 1u);
    EXPECT_EQ(spec->clusters[0].value,
              "gen:long-tail-heterogeneous:100:7");
    ASSERT_EQ(spec->systems.size(), 2u);
    EXPECT_EQ(spec->systems[0].planner, "portfolio");
    // Canonical re-serialization is stable.
    std::string canonical = io::experimentToString(*spec);
    auto reparsed = io::experimentFromString(canonical);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);
}

TEST(DocFileFormats, ChurnExampleMatchesShippedSpec)
{
    // Byte-for-byte the worked churn example in docs/FILE_FORMATS.md.
    const std::string example =
        "experiment v1\n"
        "name churn\n"
        "output csv\n"
        "seed 42\n"
        "warmup 1\n"
        "measure 6\n"
        "planner-budget 0.05\n"
        "cluster single24\n"
        "model llama30b\n"
        "system helix swarm helix\n"
        "system swarm swarm swarm\n"
        "scenario offline\n"
        "scenario churn online=0 fail=4@0.33 recover=4@0.66\n";
    io::ParseError error;
    auto spec = io::experimentFromString(example, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    ASSERT_EQ(spec->scenarios.size(), 2u);
    ASSERT_EQ(spec->scenarios[1].events.size(), 2u);
    // Canonical re-serialization is stable...
    std::string canonical = io::experimentToString(*spec);
    auto reparsed = io::experimentFromString(canonical);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);
    // ...and the shipped examples/churn.exp is this exact experiment
    // (identical canonical bytes; the file only adds comments).
    auto shipped_text = io::readFile(examplePath("churn.exp"));
    ASSERT_TRUE(shipped_text.has_value());
    auto shipped = io::experimentFromString(*shipped_text, error);
    ASSERT_TRUE(shipped.has_value()) << error.str();
    EXPECT_EQ(io::experimentToString(*shipped), canonical);
}

TEST(DocFileFormats, ChurnDriftRepairExampleRoundTrips)
{
    // Byte-for-byte the worked drift churn example in
    // docs/FILE_FORMATS.md.
    const std::string example =
        "experiment v1\n"
        "name churn-drift\n"
        "output csv\n"
        "seed 42\n"
        "warmup 1\n"
        "measure 6\n"
        "planner-budget 0.05\n"
        "cluster single24\n"
        "model llama30b\n"
        "system helix swarm helix\n"
        "scenario churn drift=0.25 online=0 "
        "fail=4@0.33 recover=4@0.66\n";
    io::ParseError error;
    auto spec = io::experimentFromString(example, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    // Canonical re-serialization is stable (like the churn example
    // above: %.17g widens 0.05, so the doc bytes themselves are not
    // the canonical form).
    std::string canonical = io::experimentToString(*spec);
    auto reparsed = io::experimentFromString(canonical);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);

    // The spec keys reach the run configuration: drift threshold
    // 0.25, and the event schedule at fractions of the 1 + 6 second
    // horizon.
    ASSERT_EQ(spec->scenarios.size(), 1u);
    RunConfig run =
        exp::scenarioRunConfig(*spec, spec->scenarios[0], 0.0);
    EXPECT_DOUBLE_EQ(run.sim.driftThreshold, 0.25);
    ASSERT_EQ(run.sim.churnEvents.size(), 2u);
    EXPECT_EQ(run.sim.churnEvents[0].kind, sim::ChurnEvent::Kind::Fail);
    EXPECT_EQ(run.sim.churnEvents[0].node, 4);
    EXPECT_DOUBLE_EQ(run.sim.churnEvents[0].atSeconds, 0.33 * 7.0);
    EXPECT_EQ(run.sim.churnEvents[1].kind,
              sim::ChurnEvent::Kind::Recover);
    EXPECT_DOUBLE_EQ(run.sim.churnEvents[1].atSeconds, 0.66 * 7.0);
}

TEST(SpecValidate, GeneratedClusterNamesResolveWithLineErrors)
{
    // A well-formed generator name validates like any registry name.
    auto good = io::experimentFromString(
        "experiment v1\ncluster gen:two-tier:12:7\nmodel llama30b\n"
        "system a swarm helix\nscenario offline\n");
    ASSERT_TRUE(good.has_value());
    io::ParseError error;
    EXPECT_TRUE(exp::validateSpec(*good, &error)) << error.str();

    // Unknown presets / malformed node counts report the spec line.
    for (const char *bad_name :
         {"gen:warehouse:12", "gen:two-tier:0", "gen:two-tier"}) {
        auto bad = io::experimentFromString(
            std::string("experiment v1\ncluster ") + bad_name +
            "\nmodel llama30b\n"
            "system a swarm helix\nscenario offline\n");
        ASSERT_TRUE(bad.has_value()) << bad_name;
        EXPECT_FALSE(exp::validateSpec(*bad, &error)) << bad_name;
        EXPECT_EQ(error.line, 2) << bad_name;
        EXPECT_EQ(error.message.rfind("unknown cluster 'gen:", 0), 0u)
            << error.message;
    }

    // The churn node-range check sees the generated cluster's size.
    auto churn = io::experimentFromString(
        "experiment v1\ncluster gen:two-tier:12:7\nmodel llama30b\n"
        "system a swarm helix\nscenario churn fail=12@0.3\n");
    ASSERT_TRUE(churn.has_value());
    EXPECT_FALSE(exp::validateSpec(*churn, &error));
    EXPECT_EQ(error.line, 5);
    EXPECT_EQ(error.message,
              "churn event node index 12 is out of range for the "
              "smallest declared cluster (12 nodes)");
}

// --- Engine equivalence ---------------------------------------------

/**
 * The acceptance criterion: running the fig6-equivalent golden spec
 * through the spec engine produces SimMetrics byte-identical to the
 * figure-bench path (the pre-spec bench_common.h logic, replicated
 * here directly over ExperimentRunner: plan each system once, run
 * the offline batch, then the online batch at 75% of the first
 * system's measured offline peak).
 */
TEST(SpecEngine, MatchesDirectFigurePathByteForByte)
{
    auto text = io::readFile(dataPath("fig6_smoke.exp"));
    ASSERT_TRUE(text.has_value());
    auto spec = io::experimentFromString(*text);
    ASSERT_TRUE(spec.has_value());

    io::ParseError error;
    auto results = exp::runSpec(*spec, &error);
    ASSERT_TRUE(results.has_value()) << error.str();
    ASSERT_EQ(results->size(), 4u); // 2 systems x 2 scenarios

    // Reference implementation: the direct runner path.
    auto clus = exp::clusterByName("single24");
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(clus && model_spec);
    struct Sys
    {
        const char *planner;
        SchedulerKind scheduler;
    };
    const Sys systems[] = {{"swarm", SchedulerKind::Swarm},
                           {"sp", SchedulerKind::FixedRoundRobin}};
    std::vector<Deployment> deployments;
    for (const Sys &sys : systems) {
        auto planner = exp::plannerByName(sys.planner, 0.05);
        deployments.emplace_back(*clus, *model_spec, *planner);
    }
    exp::ExperimentRunner runner;
    auto make_jobs = [&](const RunConfig &run) {
        std::vector<exp::Job> jobs;
        for (size_t i = 0; i < 2; ++i) {
            exp::Job job;
            job.deployment = &deployments[i];
            job.scheduler = systems[i].scheduler;
            job.run = run;
            jobs.push_back(std::move(job));
        }
        return jobs;
    };
    RunConfig offline;
    offline.online = false;
    offline.sim.warmupSeconds = 1.0;
    offline.sim.measureSeconds = 3.0;
    offline.seed = 42;
    auto offline_rows = runner.run(make_jobs(offline));
    ASSERT_EQ(offline_rows.size(), 2u);
    EXPECT_GT(offline_rows[0].metrics.requestsArrived, 0);

    RunConfig online;
    online.online = true;
    online.sim.warmupSeconds = 1.0;
    online.sim.measureSeconds = 3.0;
    online.seed = 43;
    trace::LengthModel lengths;
    online.requestRate = 0.75 *
                         offline_rows[0].metrics.decodeThroughput /
                         lengths.targetMeanOutput;
    auto online_rows = runner.run(make_jobs(online));

    expectMetricsIdentical(results->at(0).metrics,
                           offline_rows[0].metrics);
    expectMetricsIdentical(results->at(1).metrics,
                           offline_rows[1].metrics);
    expectMetricsIdentical(results->at(2).metrics,
                           online_rows[0].metrics);
    expectMetricsIdentical(results->at(3).metrics,
                           online_rows[1].metrics);
    EXPECT_EQ(results->at(0).plannedThroughput,
              offline_rows[0].plannedThroughput);
    EXPECT_EQ(results->at(1).plannedThroughput,
              offline_rows[1].plannedThroughput);

    // Labels carry the (cluster, model, system, scenario) coordinates.
    EXPECT_EQ(results->at(0).label,
              "single24/llama30b/swarm/offline");
    EXPECT_EQ(results->at(3).label,
              "single24/llama30b/sp/online-peak");
}

/** Spec execution is invariant to the worker-thread count. */
TEST(SpecEngine, ThreadCountInvariant)
{
    auto spec = io::experimentFromString(
        "experiment v1\n"
        "warmup 1\nmeasure 2\nplanner-budget 0.05\n"
        "cluster planner10\nmodel llama30b\n"
        "planner swarm\nplanner sp\n"
        "scheduler helix\n"
        "scenario offline\nscenario churn fail=0@0.5 online=0\n");
    ASSERT_TRUE(spec.has_value());
    exp::RunnerOptions serial;
    serial.numThreads = 1;
    exp::RunnerOptions wide;
    wide.numThreads = 4;
    auto a = exp::runSpec(*spec, nullptr, serial);
    auto b = exp::runSpec(*spec, nullptr, wide);
    ASSERT_TRUE(a && b);
    ASSERT_EQ(a->size(), b->size());
    ASSERT_EQ(a->size(), 4u); // 2 planners x 1 sched x 2 scenarios
    for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ(a->at(i).label, b->at(i).label);
        expectMetricsIdentical(a->at(i).metrics, b->at(i).metrics);
    }
}

// --- sim-threads: grammar, round trip, and result invariance --------

TEST(SpecErrors, SimThreadsGrammar)
{
    expectSpecError("experiment v1\nsim-threads\n", 2,
                    "'sim-threads' needs 1 argument(s): sim-threads "
                    "<count>");
    expectSpecError("experiment v1\nsim-threads 0\n", 2,
                    "sim-threads must be a positive integer, got '0'");
    expectSpecError("experiment v1\nsim-threads -4\n", 2,
                    "sim-threads must be a positive integer, "
                    "got '-4'");
    expectSpecError("experiment v1\nsim-threads banana\n", 2,
                    "sim-threads must be a positive integer, "
                    "got 'banana'");
    expectSpecError("experiment v1\nsim-threads 2\nsim-threads 4\n",
                    3,
                    "duplicate 'sim-threads' directive (first on "
                    "line 2)");
}

TEST(SpecRoundTrip, SimThreadsWorkedExamplePinnedByteForByte)
{
    // The worked example from docs/FILE_FORMATS.md, pinned in its
    // canonical form: parse -> serialize must reproduce these exact
    // bytes, and the default (1) must stay omitted on emission.
    const std::string canonical = "experiment v1\n"
                                  "name sim-threads-example\n"
                                  "output json\n"
                                  "sim-threads 4\n"
                                  "seed 7\n"
                                  "warmup 10\n"
                                  "measure 60\n"
                                  "planner-budget 0.5\n"
                                  "cluster gen:geo-distributed:64\n"
                                  "model llama30b\n"
                                  "planner swarm\n"
                                  "scheduler helix\n"
                                  "scenario offline\n";
    io::ParseError error;
    auto spec = io::experimentFromString(canonical, error);
    ASSERT_TRUE(spec.has_value()) << error.message;
    EXPECT_EQ(spec->simThreads, 4);
    EXPECT_EQ(io::experimentToString(*spec), canonical);

    // Default sim-threads is not emitted.
    auto plain = io::experimentFromString("experiment v1\n"
                                          "cluster planner10\n"
                                          "model llama30b\n"
                                          "planner swarm\n"
                                          "scheduler helix\n"
                                          "scenario offline\n");
    ASSERT_TRUE(plain.has_value());
    EXPECT_EQ(plain->simThreads, 1);
    EXPECT_EQ(io::experimentToString(*plain).find("sim-threads"),
              std::string::npos);
}

TEST(SpecEngine, SimThreadsInvariant)
{
    // sim-threads is a wall-clock knob only: the sharded executor
    // must reproduce the serial loop's metrics exactly, through the
    // full spec-driven path (trace generation, scheduler, emitters).
    const std::string base = "experiment v1\n"
                             "warmup 1\nmeasure 2\n"
                             "planner-budget 0.05\n"
                             "cluster planner10\nmodel llama30b\n"
                             "planner swarm\n"
                             "scheduler helix\n"
                             "scenario offline\n"
                             "scenario churn fail=0@0.5 online=0\n";
    auto serial_spec = io::experimentFromString(base);
    auto parallel_spec =
        io::experimentFromString("experiment v1\nsim-threads 4\n" +
                                 base.substr(base.find('\n') + 1));
    ASSERT_TRUE(serial_spec && parallel_spec);
    EXPECT_EQ(serial_spec->simThreads, 1);
    EXPECT_EQ(parallel_spec->simThreads, 4);
    auto a = exp::runSpec(*serial_spec, nullptr, {});
    auto b = exp::runSpec(*parallel_spec, nullptr, {});
    ASSERT_TRUE(a && b);
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ(a->at(i).label, b->at(i).label);
        expectMetricsIdentical(a->at(i).metrics, b->at(i).metrics);
    }
    // Emitter bytes (the wall clock is the one legitimate delta).
    std::vector<exp::JobResult> ra = *a;
    std::vector<exp::JobResult> rb = *b;
    for (auto *rows : {&ra, &rb})
        for (exp::JobResult &row : *rows)
            row.wallSeconds = 0.0;
    EXPECT_EQ(exp::resultsToJson(ra), exp::resultsToJson(rb));
    EXPECT_EQ(exp::resultsToCsv(ra), exp::resultsToCsv(rb));
}

// --- Parameter registry (core/params.h) -----------------------------

TEST(SpecRegistry, DuplicateParameterDeclarationThrows)
{
    core::ParamRegistry registry;
    registry.parameter("alpha", core::ParamKind::Double);
    EXPECT_THROW(registry.parameter("alpha", core::ParamKind::Int),
                 std::logic_error);
    try {
        registry.parameter("alpha", core::ParamKind::Int);
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error &error) {
        EXPECT_STREQ(error.what(),
                     "duplicate parameter declaration 'alpha'");
    }
    // An alias reserves its name too: a later key that collides with
    // an existing alias is a declaration bug, not a lookup miss.
    registry.parameter("beta", core::ParamKind::Double).alias("b");
    EXPECT_THROW(registry.parameter("b", core::ParamKind::Double),
                 std::logic_error);
}

TEST(SpecRegistry, AliasResolvesToCanonicalParam)
{
    core::ParamRegistry registry;
    registry.parameter("gamma", core::ParamKind::Double).alias("g");
    const core::Param *via_alias = registry.find("g");
    ASSERT_NE(via_alias, nullptr);
    EXPECT_EQ(via_alias->key(), "gamma");
    EXPECT_EQ(registry.find("gamma"), via_alias);
    EXPECT_EQ(registry.find("delta"), nullptr);
}

TEST(SpecRegistry, SpecKnobEnumerationPinned)
{
    // Declaration order is load-bearing: keysInScope() feeds the
    // pinned "(known: ...)" parse errors, so this list may only ever
    // grow at the end.
    const std::vector<std::string> top = {
        "name",          "output",
        "threads",       "sim-threads",
        "seed",          "warmup",
        "measure",       "planner-budget",
        "starvation-tolerance", "preemption-timeout",
        "cluster",       "model",
        "planner",       "scheduler",
        "system",        "scenario",
        "tenant",
    };
    EXPECT_EQ(core::specParams().keysInScope("top"), top);
    const std::vector<std::string> tenant = {"weight", "mix",
                                             "slo-ttft", "slo-tpot"};
    EXPECT_EQ(core::specParams().keysInScope("tenant"), tenant);
    EXPECT_EQ(io::tenantOptionKeys(), tenant);
}

TEST(SpecRegistry, RangeChecksMatchDeclaredBounds)
{
    const core::Param *mix = core::specParams().find("mix");
    ASSERT_NE(mix, nullptr);
    EXPECT_TRUE(mix->check(0.0));
    EXPECT_TRUE(mix->check(1.0));
    EXPECT_FALSE(mix->check(1.0000001));
    EXPECT_FALSE(mix->check(-0.0000001));
    const core::Param *weight = core::specParams().find("weight");
    ASSERT_NE(weight, nullptr);
    EXPECT_FALSE(weight->check(0.0));
    EXPECT_TRUE(weight->check(0.0000001));
}

// --- Fair-share directives: grammar and ranges ----------------------

TEST(SpecErrors, FairShareDirectiveRanges)
{
    expectSpecError("experiment v1\nstarvation-tolerance\n", 2,
                    "'starvation-tolerance' needs 1 argument(s): "
                    "starvation-tolerance <fraction>");
    expectSpecError("experiment v1\nstarvation-tolerance 1.5\n", 2,
                    "starvation-tolerance must be a fraction in "
                    "[0, 1], got '1.5'");
    expectSpecError("experiment v1\nstarvation-tolerance -0.1\n", 2,
                    "starvation-tolerance must be a fraction in "
                    "[0, 1], got '-0.1'");
    expectSpecError("experiment v1\nstarvation-tolerance abc\n", 2,
                    "starvation-tolerance must be a fraction in "
                    "[0, 1], got 'abc'");
    expectSpecError("experiment v1\nstarvation-tolerance 0.5\n"
                    "starvation-tolerance 0.6\n",
                    3,
                    "duplicate 'starvation-tolerance' directive "
                    "(first on line 2)");
    expectSpecError("experiment v1\npreemption-timeout\n", 2,
                    "'preemption-timeout' needs 1 argument(s): "
                    "preemption-timeout <seconds>");
    expectSpecError("experiment v1\npreemption-timeout -1\n", 2,
                    "'preemption-timeout' must be a non-negative "
                    "number of seconds, got '-1'");
    // Pre-registry knobs keep their exact messages through the
    // registry migration.
    expectSpecError("experiment v1\nplanner-budget -1\n", 2,
                    "'planner-budget' must be a non-negative number "
                    "of seconds, got '-1'");
    expectSpecError("experiment v1\nmeasure -0.5\n", 2,
                    "'measure' must be a non-negative number of "
                    "seconds, got '-0.5'");
    expectSpecError("experiment v1\nthreads -1\n", 2,
                    "threads must be a non-negative integer, "
                    "got '-1'");
}

TEST(SpecErrors, SimulationThreadsAliasSharesTheCanonicalKnob)
{
    // The alias parses into the same knob, reports errors under the
    // canonical key, and counts against the same duplicate check.
    expectSpecError("experiment v1\nsimulation-threads 0\n", 2,
                    "sim-threads must be a positive integer, "
                    "got '0'");
    expectSpecError("experiment v1\nsim-threads 2\n"
                    "simulation-threads 4\n",
                    3,
                    "duplicate 'sim-threads' directive (first on "
                    "line 2)");
    auto spec = io::experimentFromString("experiment v1\n"
                                         "simulation-threads 4\n"
                                         "cluster planner10\n"
                                         "model llama30b\n"
                                         "planner swarm\n"
                                         "scheduler helix\n"
                                         "scenario offline\n");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->simThreads, 4);
    // Serialization canonicalizes the alias away.
    EXPECT_NE(io::experimentToString(*spec).find("sim-threads 4\n"),
              std::string::npos);
    EXPECT_EQ(io::experimentToString(*spec).find("simulation-threads"),
              std::string::npos);
}

// --- Tenant lines: grammar, options, and cross-line validation ------

TEST(SpecErrors, TenantGrammar)
{
    expectSpecError("experiment v1\ntenant\n", 2,
                    "'tenant' needs a name: tenant <name> "
                    "[key=value ...]");
    expectSpecError("experiment v1\ntenant a weight=1\n"
                    "tenant a weight=2\n",
                    3, "duplicate tenant 'a' (first on line 2)");
    expectSpecError("experiment v1\ntenant a weight\n", 2,
                    "tenant option 'weight' is not key=value");
    expectSpecError("experiment v1\ntenant a quota=3\n", 2,
                    "tenant 'a' does not take option 'quota' (known: "
                    "weight, mix, slo-ttft, slo-tpot)");
    // A knob that exists in another scope is still unknown here.
    expectSpecError("experiment v1\ntenant a utilization=0.5\n", 2,
                    "tenant 'a' does not take option 'utilization' "
                    "(known: weight, mix, slo-ttft, slo-tpot)");
    expectSpecError("experiment v1\ntenant a weight=1 weight=2\n", 2,
                    "duplicate tenant option 'weight'");
    expectSpecError("experiment v1\ntenant a weight=abc\n", 2,
                    "tenant option 'weight' has non-numeric value "
                    "'abc'");
    expectSpecError("experiment v1\ntenant a weight=0\n", 2,
                    "tenant option 'weight' must be positive, "
                    "got '0'");
    expectSpecError("experiment v1\ntenant a weight=-2\n", 2,
                    "tenant option 'weight' must be positive, "
                    "got '-2'");
    expectSpecError("experiment v1\ntenant a weight=1 mix=1.5\n", 2,
                    "tenant option 'mix' must be a fraction in "
                    "[0, 1], got '1.5'");
    expectSpecError("experiment v1\ntenant a weight=1 slo-ttft=0\n",
                    2,
                    "tenant option 'slo-ttft' must be a positive "
                    "number of seconds, got '0'");
    expectSpecError("experiment v1\ntenant a weight=1 slo-tpot=-1\n",
                    2,
                    "tenant option 'slo-tpot' must be a positive "
                    "number of seconds, got '-1'");
    expectSpecError("experiment v1\ntenant a mix=0.5\n", 2,
                    "tenant 'a' requires weight=<w>");
}

TEST(SpecErrors, TenantMixesAreAllOrNoneAndSumToOne)
{
    const std::string head = "experiment v1\n"
                             "cluster planner10\n"
                             "model llama30b\n"
                             "planner swarm\n"
                             "scheduler helix\n"
                             "scenario offline\n";
    // A missing mix is reported on the offending tenant's line.
    expectSpecError(head + "tenant a weight=1 mix=0.5\n"
                           "tenant b weight=1\n",
                    8,
                    "tenant 'b' needs mix=<fraction>: arrival mixes "
                    "are all-or-none");
    // A bad sum is reported on the first tenant line.
    expectSpecError(head + "tenant a weight=1 mix=0.5\n"
                           "tenant b weight=1 mix=0.25\n",
                    7, "tenant mixes must sum to 1, got 0.75");
}

TEST(SpecRoundTrip, MultiTenantWorkedExamplePinnedByteForByte)
{
    // The worked example from docs/FILE_FORMATS.md, pinned in its
    // canonical form: parse -> serialize must reproduce these exact
    // bytes. starvation-tolerance / preemption-timeout are emitted
    // only when tenants are declared; unset tenant options (mix,
    // SLOs) stay omitted.
    const std::string canonical =
        "experiment v1\n"
        "name multi-tenant-example\n"
        "output csv\n"
        "seed 7\n"
        "warmup 10\n"
        "measure 60\n"
        "planner-budget 0.5\n"
        "starvation-tolerance 0.5\n"
        "preemption-timeout 2\n"
        "cluster gen:geo-distributed:64\n"
        "model llama30b\n"
        "planner swarm\n"
        "scheduler helix\n"
        "tenant batch weight=1 mix=0.75\n"
        "tenant interactive weight=4 mix=0.25 slo-ttft=1.5 "
        "slo-tpot=0.125\n"
        "scenario offline\n";
    io::ParseError error;
    auto spec = io::experimentFromString(canonical, error);
    ASSERT_TRUE(spec.has_value())
        << error.line << ": " << error.message;
    ASSERT_EQ(spec->tenants.size(), 2u);
    EXPECT_EQ(spec->tenants[0].name, "batch");
    EXPECT_EQ(spec->tenants[0].weight, 1.0);
    EXPECT_EQ(spec->tenants[0].mix, 0.75);
    EXPECT_EQ(spec->tenants[0].sloTtftS, 0.0);
    EXPECT_EQ(spec->tenants[1].name, "interactive");
    EXPECT_EQ(spec->tenants[1].weight, 4.0);
    EXPECT_EQ(spec->tenants[1].sloTtftS, 1.5);
    EXPECT_EQ(spec->tenants[1].sloTpotS, 0.125);
    EXPECT_EQ(spec->starvationTolerance, 0.5);
    EXPECT_EQ(spec->preemptionTimeoutS, 2.0);
    EXPECT_EQ(io::experimentToString(*spec), canonical);

    // Without tenants the fair-share directives are not emitted, so
    // pre-tenancy specs round-trip to their pre-tenancy bytes.
    auto plain = io::experimentFromString("experiment v1\n"
                                          "cluster planner10\n"
                                          "model llama30b\n"
                                          "planner swarm\n"
                                          "scheduler helix\n"
                                          "scenario offline\n");
    ASSERT_TRUE(plain.has_value());
    EXPECT_TRUE(plain->tenants.empty());
    const std::string emitted = io::experimentToString(*plain);
    EXPECT_EQ(emitted.find("starvation-tolerance"),
              std::string::npos);
    EXPECT_EQ(emitted.find("preemption-timeout"), std::string::npos);
    EXPECT_EQ(emitted.find("tenant"), std::string::npos);
}

/** runSpec refuses invalid specs through the same validate path. */
TEST(SpecEngine, RejectsInvalidSpecWithError)
{
    auto spec = io::experimentFromString(
        "experiment v1\ncluster nimbus9000\nmodel llama30b\n"
        "system a swarm helix\nscenario offline\n");
    ASSERT_TRUE(spec.has_value());
    io::ParseError error;
    auto results = exp::runSpec(*spec, &error);
    EXPECT_FALSE(results.has_value());
    EXPECT_EQ(error.line, 2);
}

} // namespace
} // namespace helix
