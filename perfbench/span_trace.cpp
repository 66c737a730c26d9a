#include "span_trace.h"

#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

SpanTrace::SpanTrace() : origin(std::chrono::steady_clock::now()) {}

double
SpanTrace::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin)
        .count();
}

int
SpanTrace::begin(const std::string &name)
{
    Span span;
    span.name = name;
    span.parent = open.empty() ? -1 : open.back();
    span.startUs = nowUs();
    spans.push_back(span);
    int id = static_cast<int>(spans.size()) - 1;
    open.push_back(id);
    return id;
}

void
SpanTrace::end(int id)
{
    if (open.empty() || open.back() != id)
        throw std::logic_error("span closed out of order: " +
                               spans.at(static_cast<size_t>(id)).name);
    open.pop_back();
    spans[static_cast<size_t>(id)].endUs = nowUs();
}

void
SpanTrace::aggregate(const std::string &name, long count, double seconds)
{
    Span span;
    span.name = name;
    span.parent = open.empty() ? -1 : open.back();
    span.endUs = nowUs();
    span.startUs = span.endUs - seconds * 1e6;
    span.count = count;
    span.aggregate = true;
    spans.push_back(span);
}

std::vector<SpanTrace::SelfTime>
SpanTrace::selfTimes() const
{
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span &span : spans) {
        if (span.parent >= 0)
            child_us[static_cast<size_t>(span.parent)] +=
                span.endUs - span.startUs;
    }
    std::vector<SelfTime> rows;
    std::map<std::string, size_t> row_of;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        auto [it, fresh] = row_of.emplace(span.name, rows.size());
        if (fresh) {
            rows.push_back({});
            rows.back().name = span.name;
        }
        SelfTime &row = rows[it->second];
        double dur_us = span.endUs - span.startUs;
        row.count += span.count;
        row.totalS += dur_us * 1e-6;
        row.selfS += (dur_us - child_us[i]) * 1e-6;
    }
    return rows;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
SpanTrace::chromeJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[512];
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        if (i > 0)
            out += ",\n";
        if (span.aggregate) {
            // Counter track: calls and busy time folded into one entry.
            std::snprintf(buf, sizeof buf,
                          "{\"name\":%s,\"ph\":\"C\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"args\":{\"calls\":%ld,"
                          "\"busy_ms\":%.6f}}",
                          jsonString(span.name).c_str(), span.endUs,
                          span.count,
                          (span.endUs - span.startUs) * 1e-3);
        } else {
            std::snprintf(buf, sizeof buf,
                          "{\"name\":%s,\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                          "\"args\":{\"id\":%zu,\"parent\":%d}}",
                          jsonString(span.name).c_str(), span.startUs,
                          span.endUs - span.startUs, i, span.parent);
        }
        out += buf;
    }
    out += "]}\n";
    return out;
}

} // namespace perfbench
