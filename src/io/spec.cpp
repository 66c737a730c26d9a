#include "io/spec.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "core/params.h"

namespace helix {
namespace io {

bool
ScenarioSpec::has(const std::string &key) const
{
    for (const auto &option : options) {
        if (option.first == key)
            return true;
    }
    return false;
}

double
ScenarioSpec::get(const std::string &key, double fallback) const
{
    for (const auto &option : options) {
        if (option.first == key)
            return option.second;
    }
    return fallback;
}

const std::vector<std::string> &
scenarioKinds()
{
    static const std::vector<std::string> kinds = {
        "offline", "online", "bursty", "churn", "online-peak"};
    return kinds;
}

std::vector<std::string>
scenarioOptionKeys(const std::string &kind)
{
    // Declaration order in core::specParams() is pinned: it decides
    // the "(known: ...)" error messages golden-tested in test_spec.
    return core::specParams().keysInScope("scenario:" + kind);
}

std::vector<std::string>
tenantOptionKeys()
{
    return core::specParams().keysInScope("tenant");
}

namespace {

std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

std::string
experimentToString(const ExperimentSpec &spec)
{
    std::ostringstream out;
    out << "experiment v1\n";
    out << "name " << spec.name << "\n";
    out << "output " << spec.output << "\n";
    if (spec.threads != 0)
        out << "threads " << spec.threads << "\n";
    if (spec.simThreads != 1)
        out << "sim-threads " << spec.simThreads << "\n";
    out << "seed " << spec.seed << "\n";
    out << "warmup " << num(spec.warmupS) << "\n";
    out << "measure " << num(spec.measureS) << "\n";
    out << "planner-budget " << num(spec.plannerBudgetS) << "\n";
    if (!spec.tenants.empty()) {
        out << "starvation-tolerance " << num(spec.starvationTolerance)
            << "\n";
        out << "preemption-timeout " << num(spec.preemptionTimeoutS)
            << "\n";
    }
    for (const SpecName &name : spec.clusters)
        out << "cluster " << name.value << "\n";
    for (const SpecName &name : spec.models)
        out << "model " << name.value << "\n";
    for (const SpecName &name : spec.planners)
        out << "planner " << name.value << "\n";
    for (const SpecName &name : spec.schedulers)
        out << "scheduler " << name.value << "\n";
    for (const SystemSpec &system : spec.systems) {
        out << "system " << system.label << " " << system.planner
            << " " << system.scheduler << "\n";
    }
    for (const TenantSpec &tenant : spec.tenants) {
        out << "tenant " << tenant.name
            << " weight=" << num(tenant.weight);
        if (tenant.mix >= 0.0)
            out << " mix=" << num(tenant.mix);
        if (tenant.sloTtftS > 0.0)
            out << " slo-ttft=" << num(tenant.sloTtftS);
        if (tenant.sloTpotS > 0.0)
            out << " slo-tpot=" << num(tenant.sloTpotS);
        out << "\n";
    }
    for (const ScenarioSpec &scenario : spec.scenarios) {
        out << "scenario " << scenario.kind;
        for (const auto &option : scenario.options)
            out << " " << option.first << "=" << num(option.second);
        for (const ChurnEventSpec &event : scenario.events) {
            out << " " << (event.fail ? "fail=" : "recover=")
                << event.node << "@" << num(event.atFraction);
        }
        out << "\n";
    }
    return out.str();
}

std::optional<ExperimentSpec>
experimentFromString(const std::string &text, ParseError &error)
{
    LineReader reader(text);
    if (!checkHeader(reader, "experiment", 0, error))
        return std::nullopt;

    ExperimentSpec spec;
    std::map<std::string, int> seen_scalar;
    auto scalar_once = [&](const std::string &tag, int line) {
        auto inserted = seen_scalar.emplace(tag, line);
        if (!inserted.second) {
            error = {line,
                     "duplicate '" + tag + "' directive (first on line " +
                         std::to_string(inserted.first->second) + ")"};
            return false;
        }
        return true;
    };
    auto want_args = [&](const std::vector<std::string> &toks,
                         size_t n, const std::string &usage) {
        if (toks.size() == n + 1)
            return true;
        error = {reader.line(), "'" + toks[0] + "' needs " +
                                    std::to_string(n) +
                                    " argument(s): " + usage};
        return false;
    };
    // One top-level scalar directive, resolved through the validated
    // parameter registry: kind, range, and the pinned error message
    // all come from the declaration in core::specParams().
    auto handle_scalar = [&](const core::Param &param,
                             const std::vector<std::string> &toks,
                             int line) {
        const std::string &key = param.key();
        if (!want_args(toks, 1, param.usageText()) ||
            !scalar_once(key, line))
            return false;
        const std::string &raw = toks[1];
        switch (param.kind()) {
          case core::ParamKind::String: {
            if (!param.checkText(raw)) {
                error = {line, param.formatError(raw)};
                return false;
            }
            if (key == "name")
                spec.name = raw;
            else
                spec.output = raw;
            return true;
          }
          case core::ParamKind::Int: {
            int value = 0;
            if (!parseInt(raw, value) || !param.check(value)) {
                error = {line, param.formatError(raw)};
                return false;
            }
            if (key == "threads")
                spec.threads = value;
            else
                spec.simThreads = value;
            return true;
          }
          case core::ParamKind::UInt64: {
            uint64_t value = 0;
            if (!parseU64(raw, value)) {
                error = {line, param.formatError(raw)};
                return false;
            }
            spec.seed = value;
            return true;
          }
          default: {
            double value = 0.0;
            if (!parseDouble(raw, value) || !param.check(value)) {
                error = {line, param.formatError(raw)};
                return false;
            }
            if (key == "warmup")
                spec.warmupS = value;
            else if (key == "measure")
                spec.measureS = value;
            else if (key == "planner-budget")
                spec.plannerBudgetS = value;
            else if (key == "starvation-tolerance")
                spec.starvationTolerance = value;
            else
                spec.preemptionTimeoutS = value;
            return true;
          }
        }
    };

    while (reader.next()) {
        const auto &toks = reader.tokens();
        const std::string &tag = toks[0];
        const int line = reader.line();
        const core::Param *top_param = core::specParams().find(tag);
        if (top_param != nullptr &&
            top_param->kind() != core::ParamKind::Structural &&
            top_param->inScope("top")) {
            if (!handle_scalar(*top_param, toks, line))
                return std::nullopt;
        } else if (tag == "cluster" || tag == "model" ||
                   tag == "planner" || tag == "scheduler") {
            if (!want_args(toks, 1, tag + " <registry-name>"))
                return std::nullopt;
            if ((tag == "planner" || tag == "scheduler") &&
                !spec.systems.empty()) {
                error = {line,
                         "cannot mix '" + tag + "' axes with 'system' "
                         "lines (first system on line " +
                             std::to_string(spec.systems.front().line) +
                             ")"};
                return std::nullopt;
            }
            SpecName name{toks[1], line};
            if (tag == "cluster")
                spec.clusters.push_back(std::move(name));
            else if (tag == "model")
                spec.models.push_back(std::move(name));
            else if (tag == "planner")
                spec.planners.push_back(std::move(name));
            else
                spec.schedulers.push_back(std::move(name));
        } else if (tag == "system") {
            if (!want_args(toks, 3,
                           "system <label> <planner> <scheduler>"))
                return std::nullopt;
            if (!spec.planners.empty() || !spec.schedulers.empty()) {
                int axis_line = spec.planners.empty()
                                    ? spec.schedulers.front().line
                                    : spec.planners.front().line;
                error = {line,
                         "cannot mix 'system' lines with "
                         "planner/scheduler axes (first axis on line " +
                             std::to_string(axis_line) + ")"};
                return std::nullopt;
            }
            spec.systems.push_back({toks[1], toks[2], toks[3], line});
        } else if (tag == "scenario") {
            if (toks.size() < 2) {
                error = {line, "'scenario' needs a kind: scenario "
                               "<kind> [key=value ...]"};
                return std::nullopt;
            }
            ScenarioSpec scenario;
            scenario.kind = toks[1];
            scenario.line = line;
            const auto &kinds = scenarioKinds();
            if (std::find(kinds.begin(), kinds.end(), scenario.kind) ==
                kinds.end()) {
                error = {line, "unknown scenario kind '" +
                                   scenario.kind + "' (known: " +
                                   joinNames(kinds) + ")"};
                return std::nullopt;
            }
            std::vector<std::string> known =
                scenarioOptionKeys(scenario.kind);
            for (size_t i = 2; i < toks.size(); ++i) {
                size_t eq = toks[i].find('=');
                if (eq == std::string::npos || eq == 0) {
                    error = {line, "scenario option '" + toks[i] +
                                       "' is not key=value"};
                    return std::nullopt;
                }
                std::string key = toks[i].substr(0, eq);
                if (const char *replacement = core::removedSpecKey(
                        "scenario:" + scenario.kind, key)) {
                    error = {line, scenario.kind + " option '" + key +
                                       "' was removed: " +
                                       replacement};
                    return std::nullopt;
                }
                if (std::find(known.begin(), known.end(), key) ==
                    known.end()) {
                    error = {line, "scenario '" + scenario.kind +
                                       "' does not take option '" +
                                       key + "' (known: " +
                                       joinNames(known) + ")"};
                    return std::nullopt;
                }
                if (key == "fail" || key == "recover") {
                    // Churn events are repeatable and carry a
                    // <node>@<fraction> value instead of a number.
                    const std::string raw = toks[i].substr(eq + 1);
                    size_t at = raw.find('@');
                    ChurnEventSpec event;
                    event.fail = key == "fail";
                    event.line = line;
                    if (at == std::string::npos || at == 0 ||
                        at + 1 >= raw.size() ||
                        !parseInt(raw.substr(0, at), event.node) ||
                        !parseDouble(raw.substr(at + 1),
                                     event.atFraction)) {
                        error = {line,
                                 "scenario option '" + key +
                                     "' must be <node>@<fraction>, "
                                     "got '" + raw + "'"};
                        return std::nullopt;
                    }
                    scenario.events.push_back(event);
                    continue;
                }
                if (scenario.has(key)) {
                    error = {line, "duplicate scenario option '" +
                                       key + "'"};
                    return std::nullopt;
                }
                const std::string raw = toks[i].substr(eq + 1);
                double value = 0.0;
                if (key == "seed") {
                    // Seeds route through the double-valued option
                    // table; cap them at 2^53 so the round trip is
                    // exact and never silently shifts the RNG stream.
                    uint64_t seed_value = 0;
                    if (!parseU64(raw, seed_value)) {
                        error = {line, "scenario option 'seed' has "
                                       "non-numeric value '" +
                                           raw + "'"};
                        return std::nullopt;
                    }
                    if (seed_value > (uint64_t{1} << 53)) {
                        error = {line,
                                 "scenario option 'seed' exceeds "
                                 "2^53 and would lose precision; use "
                                 "the top-level 'seed' directive"};
                        return std::nullopt;
                    }
                    value = static_cast<double>(seed_value);
                } else if (!parseDouble(raw, value)) {
                    error = {line, "scenario option '" + key +
                                       "' has non-numeric value '" +
                                       raw + "'"};
                    return std::nullopt;
                }
                scenario.options.emplace_back(std::move(key), value);
            }
            if (scenario.kind == "churn" && scenario.events.empty()) {
                error = {line, "churn scenario requires "
                               "fail=<node>@<fraction> events"};
                return std::nullopt;
            }
            spec.scenarios.push_back(std::move(scenario));
        } else if (tag == "tenant") {
            if (toks.size() < 2) {
                error = {line, "'tenant' needs a name: tenant <name> "
                               "[key=value ...]"};
                return std::nullopt;
            }
            TenantSpec tenant;
            tenant.name = toks[1];
            tenant.line = line;
            for (const TenantSpec &existing : spec.tenants) {
                if (existing.name == tenant.name) {
                    error = {line,
                             "duplicate tenant '" + tenant.name +
                                 "' (first on line " +
                                 std::to_string(existing.line) + ")"};
                    return std::nullopt;
                }
            }
            bool saw_weight = false;
            std::vector<std::string> seen_keys;
            for (size_t i = 2; i < toks.size(); ++i) {
                size_t eq = toks[i].find('=');
                if (eq == std::string::npos || eq == 0) {
                    error = {line, "tenant option '" + toks[i] +
                                       "' is not key=value"};
                    return std::nullopt;
                }
                std::string key = toks[i].substr(0, eq);
                const core::Param *opt = core::specParams().find(key);
                if (opt == nullptr || !opt->inScope("tenant")) {
                    error = {line,
                             "tenant '" + tenant.name +
                                 "' does not take option '" + key +
                                 "' (known: " +
                                 joinNames(tenantOptionKeys()) + ")"};
                    return std::nullopt;
                }
                if (std::find(seen_keys.begin(), seen_keys.end(),
                              opt->key()) != seen_keys.end()) {
                    error = {line, "duplicate tenant option '" +
                                       opt->key() + "'"};
                    return std::nullopt;
                }
                seen_keys.push_back(opt->key());
                const std::string raw = toks[i].substr(eq + 1);
                double value = 0.0;
                if (!parseDouble(raw, value)) {
                    error = {line, "tenant option '" + opt->key() +
                                       "' has non-numeric value '" +
                                       raw + "'"};
                    return std::nullopt;
                }
                if (!opt->check(value)) {
                    error = {line, opt->formatError(raw)};
                    return std::nullopt;
                }
                if (opt->key() == "weight") {
                    tenant.weight = value;
                    saw_weight = true;
                } else if (opt->key() == "mix") {
                    tenant.mix = value;
                } else if (opt->key() == "slo-ttft") {
                    tenant.sloTtftS = value;
                } else {
                    tenant.sloTpotS = value;
                }
            }
            if (!saw_weight) {
                error = {line, "tenant '" + tenant.name +
                                   "' requires weight=<w>"};
                return std::nullopt;
            }
            spec.tenants.push_back(std::move(tenant));
        } else {
            error = {line, "unknown directive '" + tag + "'"};
            return std::nullopt;
        }
    }

    if (spec.clusters.empty()) {
        error = {0, "spec declares no 'cluster' lines"};
        return std::nullopt;
    }
    if (spec.models.empty()) {
        error = {0, "spec declares no 'model' lines"};
        return std::nullopt;
    }
    if (spec.systems.empty() && spec.planners.empty() &&
        spec.schedulers.empty()) {
        error = {0, "spec declares no 'system' lines and no "
                    "planner/scheduler axes"};
        return std::nullopt;
    }
    if (spec.systems.empty()) {
        if (spec.planners.empty()) {
            error = {spec.schedulers.front().line,
                     "cartesian mode needs at least one 'planner'"};
            return std::nullopt;
        }
        if (spec.schedulers.empty()) {
            error = {spec.planners.front().line,
                     "cartesian mode needs at least one 'scheduler'"};
            return std::nullopt;
        }
    }
    if (spec.scenarios.empty()) {
        error = {0, "spec declares no 'scenario' lines"};
        return std::nullopt;
    }
    bool offline_seen = false;
    for (const ScenarioSpec &scenario : spec.scenarios) {
        if (scenario.kind == "offline")
            offline_seen = true;
        if (scenario.kind == "online-peak" && !offline_seen) {
            error = {scenario.line,
                     "online-peak needs an earlier offline scenario "
                     "to derive its arrival rate from"};
            return std::nullopt;
        }
    }
    int mixes = 0;
    for (const TenantSpec &tenant : spec.tenants) {
        if (tenant.mix >= 0.0)
            ++mixes;
    }
    if (mixes > 0) {
        for (const TenantSpec &tenant : spec.tenants) {
            if (tenant.mix < 0.0) {
                error = {tenant.line,
                         "tenant '" + tenant.name +
                             "' needs mix=<fraction>: arrival mixes "
                             "are all-or-none"};
                return std::nullopt;
            }
        }
        double sum = 0.0;
        for (const TenantSpec &tenant : spec.tenants)
            sum += tenant.mix;
        if (std::fabs(sum - 1.0) > 1e-9) {
            error = {spec.tenants.front().line,
                     "tenant mixes must sum to 1, got " + num(sum)};
            return std::nullopt;
        }
    }
    return spec;
}

std::optional<ExperimentSpec>
experimentFromString(const std::string &text)
{
    ParseError ignored;
    return experimentFromString(text, ignored);
}

} // namespace io
} // namespace helix
