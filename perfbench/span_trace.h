/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are opened and closed around calls into one library layer,
 * from the benchmark's own code, on one thread; each records its
 * parent (the innermost span open when it began). Work too fine to
 * give one span per call (scheduler decisions) is folded into an
 * aggregate: a count and a busy time charged as a child of the span
 * that was open. Everything stays in memory until the run ends, then
 * is written as Chrome trace-event JSON (opens offline in Perfetto or
 * chrome://tracing) and summarized as a per-name self-time table.
 */

#ifndef PERFBENCH_SPAN_TRACE_H
#define PERFBENCH_SPAN_TRACE_H

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

class SpanTrace
{
  public:
    SpanTrace();

    /** Open a span named @p name under the innermost open span. */
    int begin(const std::string &name);
    /** Close span @p id, which must be the innermost open one. */
    void end(int id);

    /**
     * Charge @p count calls taking @p seconds in total, named
     * @p name, to the innermost open span as one aggregate child.
     */
    void aggregate(const std::string &name, long count, double seconds);

    /** One row of the self-time table. */
    struct SelfTime
    {
        std::string name;
        long count = 0;
        double totalS = 0.0;
        /** Duration minus the time covered by child spans. */
        double selfS = 0.0;
    };
    /** Rows ordered by first appearance. */
    std::vector<SelfTime> selfTimes() const;

    /** Chrome trace-event JSON of every span and aggregate. */
    std::string chromeJson() const;

  private:
    struct Span
    {
        std::string name;
        int parent = -1;
        double startUs = 0.0;
        double endUs = -1.0;
        /** Aggregates: calls folded into this entry (spans: 1). */
        long count = 1;
        bool aggregate = false;
    };

    double nowUs() const;

    std::chrono::steady_clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int> open;
};

/** @p text as a quoted JSON string literal. */
std::string jsonString(const std::string &text);

/** Opens a span for its lifetime; a no-op without a trace. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanTrace *spans, const std::string &name)
        : trace(spans), id(spans != nullptr ? spans->begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (trace != nullptr)
            trace->end(id);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanTrace *trace;
    int id;
};

} // namespace perfbench

#endif // PERFBENCH_SPAN_TRACE_H
