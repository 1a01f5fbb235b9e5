#ifndef KEQBENCH_STATS_H
#define KEQBENCH_STATS_H

/**
 * @file
 * The benchmark's own measurement helpers, kept free of keq types so
 * they can be unit-tested on their own (stats_test.cc):
 *
 *  - nearest-rank percentiles that carry their sample count and the
 *    number of samples beyond them;
 *  - a request tally in which a failed request counts as attempted,
 *    failed, and as missing every latency limit;
 *  - an in-memory span recorder and the self time of a span whose
 *    children may overlap each other (children run on a pool).
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace keqbench {

/** A percentile with the evidence behind it. */
struct Percentile
{
    double value = 0.0;
    size_t samples = 0; ///< samples the percentile was taken over
    size_t beyond = 0;  ///< samples strictly ranked after the value
};

/**
 * Nearest-rank percentile: the smallest sample such that at least
 * @p q of all samples are <= it (q in (0, 1]). An empty sample set
 * gives value 0 with samples 0.
 */
Percentile percentile(std::vector<double> samples, double q);

/**
 * Per-request outcome accounting for one timed phase. A failed request
 * (wrong, missing or errored verdict) is attempted and failed, and its
 * latency sample is +infinity, so it misses every latency limit.
 */
class RequestTally
{
  public:
    void record(double latencySeconds, bool ok, size_t functions);

    size_t attempted() const { return latencies_.size(); }
    size_t failed() const { return failed_; }
    size_t functions() const { return functions_; }
    /** failed / attempted; 0 when nothing was attempted. */
    double failedRatio() const;
    /** Latency percentile in milliseconds over all attempted requests. */
    Percentile latencyMs(double q) const;

    /** Appends @p other's requests (callers tally separately). */
    void merge(const RequestTally &other);

  private:
    std::vector<double> latencies_; ///< seconds; +inf for failures
    size_t failed_ = 0;
    size_t functions_ = 0;
};

/** The work of one complete pass over a workload's request stream. */
struct PassSample
{
    double wallSeconds = 0.0; ///< first request sent -> last verdict in
    double cpuSeconds = 0.0;  ///< process CPU over the same interval
    size_t functions = 0;
};

/** Per-pass rates of a timed phase, medians over passes. */
struct PassRates
{
    double functionsPerSecond = 0.0;
    double cpuSecondsPerFunction = 0.0;
    size_t passes = 0; ///< passes the medians were taken over
};

/**
 * Median throughput and CPU per function over complete passes. Every
 * pass carries the same functions, so its rate does not depend on
 * which part of the stream a run happened to reach, and one slow pass
 * (a neighbour stealing the CPU) does not decide the figure.
 */
PassRates medianPassRates(const std::vector<PassSample> &passes);

/** One timed interval at a layer boundary. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = root
    uint64_t request = 0; ///< shared by every span of one request
    std::string name;
    double start = 0.0; ///< seconds since the recorder's epoch
    double end = 0.0;
    unsigned thread = 0;
    /** Counts recorded at the same boundary (name -> value). */
    std::map<std::string, double> counts;

    double duration() const { return end - start; }
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its direct children (clipped to the parent,
 * so overlapping children are not double-subtracted). Index-aligned
 * with @p spans.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Thread-safe, append-only, in-memory span store. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Seconds since construction (steady clock). */
    double now() const;

    /**
     * A fresh span id (ids start at 1), so a parent can hand its id to
     * children that finish before it does.
     */
    uint64_t newId();

    /** Stores a finished span (assigning an id when it has none) and
     *  returns its id. */
    uint64_t record(Span span);

    /** A copy of every span recorded so far, in recording order. */
    std::vector<Span> spans() const;

  private:
    int64_t epochNs_ = 0;
    std::atomic<uint64_t> nextId_{1};
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/**
 * Chrome trace-event JSON (chrome://tracing, Perfetto) of @p spans;
 * ids, parents, requests and counts travel in each event's args, and
 * @p metadata lands under "otherData".
 */
std::string traceEventJson(const std::vector<Span> &spans,
                           const std::map<std::string, std::string>
                               &metadata);

/** JSON string literal of @p text (quotes included). */
std::string jsonString(const std::string &text);

/** JSON number, or null when @p value is not finite. */
std::string jsonNumber(double value);

} // namespace keqbench

#endif // KEQBENCH_STATS_H
