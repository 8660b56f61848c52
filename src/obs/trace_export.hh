/**
 * @file
 * Trace-event JSON export: the bridge between TPUPoint's recorded
 * profiles (and the toolchain's own spans) and the viewers the real
 * Cloud TPU stack feeds — chrome://tracing and Perfetto both load
 * the trace-event JSON produced here.
 *
 * TraceEventWriter is the one emitter of the format: the document
 * envelope, `thread_name` metadata, `X` durations, `i` instants and
 * `C` counters. Three producers map their data onto it:
 *
 *  - ProfileTraceWriter turns a stream of profile records into
 *    device/host tracks: one `X` duration event per per-step
 *    operator row, a step track, a profile-window track, counter
 *    tracks for idle/MXU, and an instant event at every
 *    attempt-boundary (preemption) marker.
 *  - writeSpanTrace turns the obs::SpanBuffer self-telemetry into
 *    one track per tool thread.
 *  - The analyzer's writeChromeTrace (analyzer/visualization) draws
 *    the Profile Breakdown and Phase Breakdown tracks.
 *
 * All timestamps are microseconds, as the trace-event spec
 * requires; profile tracks carry simulated time, span tracks carry
 * wall time (normalized to start at zero).
 */

#ifndef TPUPOINT_OBS_TRACE_EXPORT_HH
#define TPUPOINT_OBS_TRACE_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.hh"
#include "obs/span.hh"
#include "proto/columnar.hh"

namespace tpupoint {
namespace obs {

/**
 * Non-owning reference to a callable `void(JsonWriter &)` that
 * writes the fields of one event's `args` object. Empty means the
 * event has no `args`. Holds two pointers and never allocates, so
 * building one per event costs nothing on the export hot path; the
 * callable must outlive the call it is passed to.
 */
class TraceArgs
{
  public:
    TraceArgs() = default;

    /** Implicit, so a lambda can be passed where TraceArgs is. */
    template <typename Fn>
    TraceArgs(const Fn &fn)
        : target(&fn),
          thunk([](const void *f, JsonWriter &json) {
              (*static_cast<const Fn *>(f))(json);
          })
    {
    }

    explicit operator bool() const { return thunk != nullptr; }

    void operator()(JsonWriter &json) const { thunk(target, json); }

  private:
    const void *target = nullptr;
    void (*thunk)(const void *, JsonWriter &) = nullptr;
};

/**
 * The trace-event document writer: opens `{"traceEvents":[` on
 * construction, appends one event per call (times given in
 * nanoseconds, written in microseconds), and closes the document
 * with `"displayTimeUnit":"ms"` on finish() or destruction.
 */
class TraceEventWriter
{
  public:
    explicit TraceEventWriter(std::ostream &out,
                              bool pretty = false);

    TraceEventWriter(const TraceEventWriter &) = delete;
    TraceEventWriter &operator=(const TraceEventWriter &) = delete;

    ~TraceEventWriter();

    /** `M` metadata naming track (@p pid, @p tid) @p label. */
    void threadName(int pid, std::uint64_t tid,
                    std::string_view label);

    /** `X` slice @p length ns long, starting at @p start ns. */
    void duration(std::string_view name, int pid, std::uint64_t tid,
                  SimTime start, SimTime length,
                  TraceArgs args = {});

    /** Global-scope `i` instant at @p at ns. */
    void instant(std::string_view name, int pid, std::uint64_t tid,
                 SimTime at, TraceArgs args = {});

    /** `C` counter sample: series @p name is @p value at @p at. */
    void counter(std::string_view name, int pid, SimTime at,
                 double value);

    /** Close the document. Idempotent; later events are dropped. */
    void finish();

    /** True once finish() has run. */
    bool finished() const { return done; }

  private:
    void begin(std::string_view name, const char *phase, int pid);
    void end(TraceArgs args);

    JsonWriter json;
    bool done = false;
};

/**
 * A profile window's slice on a window track: named "profile N"
 * (plus " (truncated)" when the window was cut short) and spanning
 * [begin, end], clamped to zero width for an inverted window.
 */
struct WindowSlice
{
    std::string name;
    SimTime start = 0;
    SimTime duration = 0;
};

WindowSlice profileWindowSlice(std::uint64_t sequence, SimTime begin,
                               SimTime end, bool truncated);

/** Profile-export knobs. */
struct ProfileTraceOptions
{
    /** Export only steps in [first_step, last_step]. The default
     * range covers every step. */
    StepId first_step = 0;
    StepId last_step = kNoStep;

    /** Emit per-step operator rows (the bulk of the events). */
    bool include_ops = true;

    /** Emit idle-fraction / MXU counter tracks. */
    bool include_counters = true;

    /** Pretty-print the JSON. */
    bool pretty = false;
};

/**
 * Streaming exporter: records are added one at a time as the
 * profile reader produces them, so memory stays bounded by one
 * record regardless of profile size. finish() (or destruction)
 * closes the JSON document.
 */
class ProfileTraceWriter
{
  public:
    ProfileTraceWriter(std::ostream &out,
                       const ProfileTraceOptions &options = {});

    ProfileTraceWriter(const ProfileTraceWriter &) = delete;
    ProfileTraceWriter &operator=(const ProfileTraceWriter &) =
        delete;

    /** Export one record (window, steps, ops or boundary). */
    void add(const ColumnarRecord &record);

    /** Close the trace document. Idempotent. */
    void finish();

    /** `X` duration events emitted so far. */
    std::uint64_t durationEvents() const { return x_events; }

    /** Instant (attempt-boundary) events emitted so far. */
    std::uint64_t instantEvents() const { return i_events; }

    /** Steps skipped by the [first_step, last_step] filter. */
    std::uint64_t stepsFiltered() const { return filtered; }

  private:
    void opRows(SimTime step_begin, OpStatsSpan ops, int tid);

    ProfileTraceOptions opts;
    TraceEventWriter events;
    std::uint64_t x_events = 0;
    std::uint64_t i_events = 0;
    std::uint64_t filtered = 0;
    std::vector<NamedOpStats> named; ///< opRows() scratch.
};

/**
 * Export the toolchain's own spans: one track per recording
 * thread, wall times normalized so the earliest span starts at 0.
 */
void writeSpanTrace(const std::vector<SpanRecord> &spans,
                    std::ostream &out, bool pretty = false);

/** Convenience: export a SpanBuffer's current contents. */
void writeSpanTrace(const SpanBuffer &buffer, std::ostream &out,
                    bool pretty = false);

} // namespace obs
} // namespace tpupoint

#endif // TPUPOINT_OBS_TRACE_EXPORT_HH
