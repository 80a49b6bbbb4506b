/**
 * @file
 * Span recorder and sample statistics for the benchmark.
 *
 * A span is one timed call into a layer: its name, start, end and the
 * span that caused it.  Spans stay in memory and are written out when
 * the run ends.  A layer's self time is each of its spans minus the
 * part of that interval its child spans cover; children may run in
 * parallel (campaign jobs on worker threads), so "covered" is the
 * union of the child intervals, not their sum.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds from @p a to @p b. */
inline double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

struct Span
{
    std::string name;
    uint32_t id = 0;
    uint32_t parent = 0;    //!< 0 = root
    Clock::time_point start;
    Clock::time_point end;
};

/**
 * Thread-safe, in-memory span store.  Disabled recorders hand out id
 * 0 and store nothing, so the untraced run pays one branch per call.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled = false) : on(enabled) {}

    bool enabled() const { return on; }
    void setEnabled(bool enabled) { on = enabled; }

    /** Record a finished span; returns its id (0 when disabled). */
    uint32_t record(const std::string &name, uint32_t parent,
                    Clock::time_point start, Clock::time_point end);

    /** Reserve an id for a span whose end is not known yet. */
    uint32_t open(const std::string &name, uint32_t parent = 0);

    /** Close a span opened with open(). */
    void close(uint32_t id);

    /** Sum of self time per span name, in seconds. */
    std::map<std::string, double> selfSeconds() const;

    /** One JSON object per span, times in µs from the first span. */
    void writeJsonl(const std::string &path) const;

  private:
    bool on;
    mutable std::mutex mtx;
    std::vector<Span> store;
};

double median(std::vector<double> v);
double mean(const std::vector<double> &v);

/**
 * The tail of a latency sample: the highest percentile with at least
 * ten samples beyond it, i.e. the 11th-largest sample.  @p pct is set
 * to the percentile that sample sits at; with fewer than 11 samples
 * there is no such tail and the maximum is returned with pct = 100.
 */
double tail(std::vector<double> v, double &pct);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
