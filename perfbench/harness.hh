/**
 * @file
 * Shared plumbing of the perfbench binary: run options, the result
 * every workload fills in, statistics helpers, and the in-memory
 * span recorder whose spans become per-layer self times.
 *
 * Spans are recorded from the benchmark's own code, around each
 * public call into a layer; spans the program already records
 * (obs::SpanBuffer) are read back and merged. Self time is computed
 * on the wall-clock timeline: every instant of a measured interval
 * goes to the deepest spans active at that instant, split evenly
 * between concurrent ones, so layer self times plus the uncovered
 * remainder sum exactly to the interval.
 */

#ifndef TPUPOINT_PERFBENCH_HARNESS_HH
#define TPUPOINT_PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/span.hh"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;

    /** Flip one payload byte of one generated trace (self-test). */
    bool corrupt = false;

    /** Scratch directory for traces, spool and span files. */
    std::string work_dir;
};

/** What a workload run reports. */
class Outcome
{
  public:
    /** Count one operation; @p ok false counts it failed. */
    void attempt(bool ok, const std::string &why = "");

    /** Record a failed check that is not an operation of its own. */
    void fail(const std::string &why);

    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Print the human-readable lines and the final JSON line. */
    void print() const;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
};

using Clock = std::chrono::steady_clock;

/** steady_clock nanoseconds: the obs::SpanRecord timebase. */
std::int64_t nowNs();

double seconds(std::int64_t ns);

/** Nearest-rank percentile (q in [0, 1]); 0 for an empty sample. */
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/** Deterministic seed stream (SplitMix64). */
class SeedStream
{
  public:
    explicit SeedStream(std::uint64_t seed) : state(seed) {}
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double unit();

  private:
    std::uint64_t state;
};

/**
 * Return freed heap to the kernel (malloc_trim) and restart the
 * kernel's peak-RSS watermark (Linux clear_refs), so the next peak
 * reflects what is live from here on, not what the allocator kept
 * from earlier phases — as in a fresh tool process.
 */
void resetPeakRss();

/** Peak resident set size of this process in MiB since the last
 * resetPeakRss() (or since start). */
double peakRssMb();

/** Hardware threads available (at least 1). */
unsigned hardwareThreads();

/** One recorded span. */
struct Span
{
    std::string name;
    std::string layer;
    int depth = 1;
    std::uint64_t thread_id = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;

    /** A task the program's instrumented thread pool ran. */
    bool pool_task = false;
};

/**
 * The benchmark's spans. Call sites record through obs::TraceSpan
 * (see ScopedSpan) into a dedicated obs::SpanBuffer, with the layer
 * and nesting depth as span args; collect() moves them, with the
 * program's own spans from obs::SpanBuffer::global(), into the store
 * the attribution reads. Disabled recorders keep nothing, so the
 * untraced path pays one branch per call site. Single-threaded:
 * only the program's pool threads record concurrently, and they
 * record into the global buffer.
 */
class Recorder
{
  public:
    explicit Recorder(bool enabled);

    bool enabled() const { return on; }

    /** Where the benchmark's own spans are recorded. */
    tpupoint::obs::SpanBuffer &buffer() { return own; }

    /**
     * Move the benchmark's spans and the program's own spans into
     * the store (program spans mapped to layers; unknown names are
     * kept for the trace file with an empty layer) and clear both
     * buffers.
     */
    void collect();

    /** Copies of the spans stored at or after index @p from. */
    std::vector<Span> spans(std::size_t from = 0) const;

    std::size_t size() const { return store.size(); }

    /**
     * Write the spans (at most @p limit, oldest first) as
     * trace-event JSON and re-validate the written file with
     * tpupoint's JSON validator.
     */
    bool writeTrace(const std::string &path, std::size_t limit,
                    std::string *error) const;

  private:
    bool on;
    tpupoint::obs::SpanBuffer own;
    std::vector<Span> store;
};

/**
 * Times one call; records it as an obs::TraceSpan when the recorder
 * is enabled.
 */
class ScopedSpan
{
  public:
    ScopedSpan(Recorder &recorder, const char *name,
               const char *layer, int depth = 1);
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;
    ~ScopedSpan() { finish(); }

    /** End the span now; returns its duration in ns. */
    std::int64_t finish();

  private:
    std::optional<tpupoint::obs::TraceSpan> span;
    std::int64_t begin;
    std::int64_t end = 0;
};

/** Layer self times over a set of measured intervals. */
struct Attribution
{
    std::map<std::string, double> layer_ns;
    double wall_ns = 0;
    double unattributed_ns = 0;

    /**
     * Charge the interval [begin_ns, end_ns) from @p spans: each
     * instant goes to the deepest spans active then, split evenly;
     * instants no layer span covers are unattributed.
     */
    void add(const std::vector<Span> &spans, std::int64_t begin_ns,
             std::int64_t end_ns);

    /** Share of wall, in percent, for @p layer. */
    double pct(const std::string &layer) const;

    double unattributedPct() const;
};

/**
 * Busy share, in percent, of @p executors threads over [begin, end):
 * the union of each thread's pool-task spans, summed over threads.
 */
double poolBusyPct(const std::vector<Span> &spans, double executors,
                   std::int64_t begin_ns, std::int64_t end_ns);

/** Layers the per-layer self-time shares are reported for. */
const std::vector<std::string> &layerNames();

} // namespace perfbench

#endif // TPUPOINT_PERFBENCH_HARNESS_HH
