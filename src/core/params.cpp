#include "core/params.h"

#include <stdexcept>

namespace helix {
namespace core {

Param &
Param::inRange(double range_lo, double range_hi)
{
    lo = range_lo;
    hi = range_hi;
    loExclusive = false;
    hiExclusive = false;
    hasRangeFlag = true;
    return *this;
}

Param &
Param::inRangeHalfOpen(double range_lo, double range_hi)
{
    lo = range_lo;
    hi = range_hi;
    loExclusive = false;
    hiExclusive = true;
    hasRangeFlag = true;
    return *this;
}

Param &
Param::atLeast(double range_lo)
{
    lo = range_lo;
    hi = std::numeric_limits<double>::infinity();
    loExclusive = false;
    hiExclusive = false;
    hasRangeFlag = true;
    return *this;
}

Param &
Param::greaterThan(double range_lo)
{
    lo = range_lo;
    hi = std::numeric_limits<double>::infinity();
    loExclusive = true;
    hiExclusive = false;
    hasRangeFlag = true;
    return *this;
}

Param &
Param::defaultValue(double value)
{
    defNumber = value;
    hasDefaultFlag = true;
    return *this;
}

Param &
Param::defaultText(std::string value)
{
    defText = std::move(value);
    hasDefaultFlag = true;
    return *this;
}

Param &
Param::alias(std::string name)
{
    aliasNames.push_back(std::move(name));
    return *this;
}

Param &
Param::scope(std::string name)
{
    scopeNames.push_back(std::move(name));
    return *this;
}

Param &
Param::usage(std::string text)
{
    use = std::move(text);
    return *this;
}

Param &
Param::oneOf(std::vector<std::string> values)
{
    allowed = std::move(values);
    return *this;
}

Param &
Param::errorTemplate(std::string text)
{
    errTemplate = std::move(text);
    return *this;
}

bool
Param::inScope(const std::string &scope_name) const
{
    if (scopeNames.empty())
        return scope_name == "top";
    for (const std::string &name : scopeNames) {
        if (name == scope_name)
            return true;
    }
    return false;
}

bool
Param::check(double value) const
{
    if (!hasRangeFlag)
        return true;
    if (loExclusive ? !(value > lo) : !(value >= lo))
        return false;
    if (hiExclusive ? !(value < hi) : !(value <= hi))
        return false;
    return true;
}

bool
Param::checkText(const std::string &text) const
{
    if (allowed.empty())
        return true;
    for (const std::string &choice : allowed) {
        if (choice == text)
            return true;
    }
    return false;
}

std::string
Param::formatError(const std::string &value) const
{
    std::string out;
    out.reserve(errTemplate.size() + keyName.size() + value.size());
    for (size_t i = 0; i < errTemplate.size();) {
        if (errTemplate.compare(i, 5, "{key}") == 0) {
            out += keyName;
            i += 5;
        } else if (errTemplate.compare(i, 7, "{value}") == 0) {
            out += value;
            i += 7;
        } else {
            out += errTemplate[i];
            ++i;
        }
    }
    return out;
}

Param &
ParamRegistry::parameter(const std::string &key, ParamKind kind)
{
    if (taken(key)) {
        throw std::logic_error("duplicate parameter declaration '" +
                               key + "'");
    }
    params.emplace_back(key, kind, static_cast<int>(params.size()));
    return params.back();
}

bool
ParamRegistry::taken(const std::string &name) const
{
    for (const Param &param : params) {
        if (param.key() == name)
            return true;
        for (const std::string &alias : param.aliases()) {
            if (alias == name)
                return true;
        }
    }
    return false;
}

const Param *
ParamRegistry::find(const std::string &key_or_alias) const
{
    for (const Param &param : params) {
        if (param.key() == key_or_alias)
            return &param;
        for (const std::string &alias : param.aliases()) {
            if (alias == key_or_alias)
                return &param;
        }
    }
    return nullptr;
}

std::vector<std::string>
ParamRegistry::keysInScope(const std::string &scope_name) const
{
    std::vector<std::string> keys;
    for (const Param &param : params) {
        if (param.inScope(scope_name))
            keys.push_back(param.key());
    }
    return keys;
}

std::vector<std::string>
ParamRegistry::allKeys() const
{
    std::vector<std::string> keys;
    keys.reserve(params.size());
    for (const Param &param : params)
        keys.push_back(param.key());
    return keys;
}

namespace {

/**
 * Declare every `experiment v1` spec knob. Error templates are
 * pinned byte-for-byte by tests/test_spec.cpp; scenario-option
 * declaration order determines io::scenarioOptionKeys() and with it
 * the pinned "(known: ...)" messages — append new options at the end
 * of their scope, never in the middle.
 */
ParamRegistry
buildSpecParams()
{
    ParamRegistry registry;

    // --- Top-level scalar directives -------------------------------
    registry.parameter("name", ParamKind::String)
        .usage("name <identifier>");
    registry.parameter("output", ParamKind::String)
        .defaultText("csv")
        .oneOf({"csv", "json"})
        .usage("output <csv|json>")
        .errorTemplate("output must be 'csv' or 'json', got '{value}'");
    registry.parameter("threads", ParamKind::Int)
        .atLeast(0)
        .defaultValue(0)
        .usage("threads <count>")
        .errorTemplate(
            "threads must be a non-negative integer, got '{value}'");
    registry.parameter("sim-threads", ParamKind::Int)
        .atLeast(1)
        .defaultValue(1)
        .alias("simulation-threads")
        .usage("sim-threads <count>")
        .errorTemplate(
            "sim-threads must be a positive integer, got '{value}'");
    registry.parameter("seed", ParamKind::UInt64)
        .defaultValue(42)
        .scope("top")
        .scope("scenario:offline")
        .scope("scenario:online")
        .scope("scenario:bursty")
        .scope("scenario:churn")
        .scope("scenario:online-peak")
        .usage("seed <uint64>")
        .errorTemplate(
            "seed must be an unsigned integer, got '{value}'");
    registry.parameter("warmup", ParamKind::Double)
        .atLeast(0.0)
        .defaultValue(30.0)
        .scope("top")
        .scope("scenario:offline")
        .scope("scenario:online")
        .scope("scenario:bursty")
        .scope("scenario:churn")
        .scope("scenario:online-peak")
        .usage("<seconds>")
        .errorTemplate("'{key}' must be a non-negative number of "
                       "seconds, got '{value}'");
    registry.parameter("measure", ParamKind::Double)
        .atLeast(0.0)
        .defaultValue(120.0)
        .scope("top")
        .scope("scenario:offline")
        .scope("scenario:online")
        .scope("scenario:bursty")
        .scope("scenario:churn")
        .scope("scenario:online-peak")
        .usage("<seconds>")
        .errorTemplate("'{key}' must be a non-negative number of "
                       "seconds, got '{value}'");
    registry.parameter("planner-budget", ParamKind::Double)
        .atLeast(0.0)
        .defaultValue(2.0)
        .usage("<seconds>")
        .errorTemplate("'{key}' must be a non-negative number of "
                       "seconds, got '{value}'");
    registry.parameter("starvation-tolerance", ParamKind::Double)
        .inRange(0.0, 1.0)
        .defaultValue(0.8)
        .usage("starvation-tolerance <fraction>")
        .errorTemplate("starvation-tolerance must be a fraction in "
                       "[0, 1], got '{value}'");
    registry.parameter("preemption-timeout", ParamKind::Double)
        .atLeast(0.0)
        .defaultValue(5.0)
        .usage("preemption-timeout <seconds>")
        .errorTemplate("'{key}' must be a non-negative number of "
                       "seconds, got '{value}'");

    // --- Structural directives -------------------------------------
    registry.parameter("cluster", ParamKind::Structural)
        .usage("cluster <registry-name>");
    registry.parameter("model", ParamKind::Structural)
        .usage("model <registry-name>");
    registry.parameter("planner", ParamKind::Structural)
        .usage("planner <registry-name>");
    registry.parameter("scheduler", ParamKind::Structural)
        .usage("scheduler <registry-name>");
    registry.parameter("system", ParamKind::Structural)
        .usage("system <label> <planner> <scheduler>");
    registry.parameter("scenario", ParamKind::Structural)
        .usage("scenario <kind> [key=value ...]");
    registry.parameter("tenant", ParamKind::Structural)
        .usage("tenant <name> [key=value ...]");

    // --- Scenario options (scoped by kind; order is pinned) --------
    registry.parameter("utilization", ParamKind::Double)
        .greaterThan(0.0)
        .scope("scenario:offline")
        .scope("scenario:online")
        .scope("scenario:bursty")
        .scope("scenario:churn");
    registry.parameter("multiplier", ParamKind::Double)
        .atLeast(1.0)
        .defaultValue(5.0)
        .scope("scenario:bursty");
    registry.parameter("burst", ParamKind::Double)
        .greaterThan(0.0)
        .defaultValue(30.0)
        .scope("scenario:bursty");
    registry.parameter("gap", ParamKind::Double)
        .greaterThan(0.0)
        .defaultValue(270.0)
        .scope("scenario:bursty");
    registry.parameter("online", ParamKind::Flag)
        .inRange(0.0, 1.0)
        .defaultValue(0.0)
        .scope("scenario:churn");
    registry.parameter("fail", ParamKind::Composite)
        .scope("scenario:churn");
    registry.parameter("recover", ParamKind::Composite)
        .scope("scenario:churn");
    registry.parameter("drift", ParamKind::Double)
        .inRangeHalfOpen(0.0, 1.0)
        .defaultValue(0.0)
        .scope("scenario:churn");
    registry.parameter("fraction", ParamKind::Double)
        .greaterThan(0.0)
        .defaultValue(0.75)
        .scope("scenario:online-peak");

    // --- Tenant options (fair-share serving) -----------------------
    registry.parameter("weight", ParamKind::Double)
        .greaterThan(0.0)
        .defaultValue(1.0)
        .scope("tenant")
        .errorTemplate(
            "tenant option 'weight' must be positive, got '{value}'");
    registry.parameter("mix", ParamKind::Double)
        .inRange(0.0, 1.0)
        .scope("tenant")
        .errorTemplate("tenant option 'mix' must be a fraction in "
                       "[0, 1], got '{value}'");
    registry.parameter("slo-ttft", ParamKind::Double)
        .greaterThan(0.0)
        .scope("tenant")
        .errorTemplate("tenant option '{key}' must be a positive "
                       "number of seconds, got '{value}'");
    registry.parameter("slo-tpot", ParamKind::Double)
        .greaterThan(0.0)
        .scope("tenant")
        .errorTemplate("tenant option '{key}' must be a positive "
                       "number of seconds, got '{value}'");

    return registry;
}

} // namespace

const ParamRegistry &
specParams()
{
    static const ParamRegistry registry = buildSpecParams();
    return registry;
}

const char *
removedSpecKey(const std::string &scope_name, const std::string &key)
{
    struct Removed
    {
        const char *scope;
        const char *key;
        const char *replacement;
    };
    static const Removed kRemoved[] = {
        {"scenario:churn", "node",
         "declare failures as fail=<node>@<fraction>"},
        {"scenario:churn", "at",
         "declare failures as fail=<node>@<fraction>"},
        {"scenario:churn", "repair", "re-solves always repair"},
    };
    for (const Removed &removed : kRemoved) {
        if (scope_name == removed.scope && key == removed.key)
            return removed.replacement;
    }
    return nullptr;
}

} // namespace core
} // namespace helix
