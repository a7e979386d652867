/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded only from the benchmark's own code, around its
 * calls into each simulator layer; nothing inside the simulator is
 * instrumented.  When tracing is off every Span is a no-op that never
 * reads the clock, so the untraced run measures the bare calls.
 * Spans are kept in memory and written out once, at exit, as Chrome
 * trace-event JSON (loadable in Perfetto / chrome://tracing).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SpanRecord
{
    std::string name;
    /** Free-form "key=value" annotation shown in the trace viewer. */
    std::string detail;
    std::uint64_t id = 0;
    /** Causing span (0 = root). */
    std::uint64_t parent = 0;
    /** Host thread, numbered in order of first appearance. */
    std::uint32_t tid = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
};

/** Per-name aggregate: total duration and total self time. */
struct SpanTotals
{
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};

class Tracer
{
  public:
    /** Process-wide recorder; disabled until enable() is called. */
    static Tracer &instance();

    void enable() { enabled_ = true; }
    void disable() { enabled_ = false; }
    bool enabled() const { return enabled_; }

    std::uint64_t begin();
    void end(std::uint64_t id, std::string name, std::string detail,
             std::uint64_t parent, Clock::time_point start);

    /** Copy of every finished span, in completion order. */
    std::vector<SpanRecord> spans() const;

    /**
     * Self time per span name: a span's duration minus the part of
     * its interval covered by the union of its children's intervals
     * (children may run on other threads and overlap each other).
     */
    std::map<std::string, SpanTotals> totals() const;

    /** Write the Chrome trace-event JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Tracer();

    std::uint32_t threadIndexLocked();

    bool enabled_ = false;
    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::uint64_t next_id_ = 1;
    std::vector<SpanRecord> spans_;
    std::map<std::uint64_t, std::uint32_t> thread_ids_;
};

/**
 * RAII span.  @p parent names the causing span explicitly, because a
 * cell span on a pool worker is caused by the round span on the main
 * thread.  id() is 0 when tracing is off.
 */
class Span
{
  public:
    Span(const char *name, std::uint64_t parent = 0,
         std::string detail = {});
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    const char *name_;
    std::string detail_;
    std::uint64_t parent_ = 0;
    std::uint64_t id_ = 0;
    Clock::time_point start_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
