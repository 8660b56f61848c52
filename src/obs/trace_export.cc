#include "obs/trace_export.hh"

#include <string>

namespace tpupoint {
namespace obs {

namespace {

/** Track ids within the profile process (pid 1). */
constexpr int kProfilePid = 1;
constexpr int kStepTrack = 1;
constexpr int kTpuTrack = 2;
constexpr int kHostTrack = 3;
constexpr int kWindowTrack = 4;

/** Span tracks live in their own process, one tid per thread. */
constexpr int kSpanPid = 2;

/** Nanoseconds -> trace-event microseconds. */
double
toTraceUs(SimTime t)
{
    return static_cast<double>(t) / 1e3;
}

/** A pid-1 `X` slice whose args carry @p count, omitted at 0. */
void
countedSlice(TraceEventWriter &events, std::string_view name,
             int tid, SimTime start, SimTime duration,
             std::uint64_t count)
{
    const auto count_args = [count](JsonWriter &args) {
        args.field("count", count);
    };
    events.duration(name, kProfilePid, tid, start, duration,
                    count > 0 ? TraceArgs(count_args) : TraceArgs());
}

} // namespace

TraceEventWriter::TraceEventWriter(std::ostream &out, bool pretty)
    : json(out, pretty)
{
    json.beginObject();
    json.key("traceEvents");
    json.beginArray();
}

TraceEventWriter::~TraceEventWriter()
{
    finish();
}

void
TraceEventWriter::begin(std::string_view name, const char *phase,
                        int pid)
{
    json.beginObject();
    json.field("name", name);
    json.field("ph", phase);
    json.field("pid", pid);
}

void
TraceEventWriter::end(TraceArgs args)
{
    if (args) {
        json.key("args");
        json.beginObject();
        args(json);
        json.endObject();
    }
    json.endObject();
}

void
TraceEventWriter::threadName(int pid, std::uint64_t tid,
                             std::string_view label)
{
    if (done)
        return;
    begin("thread_name", "M", pid);
    json.field("tid", tid);
    end([label](JsonWriter &args) { args.field("name", label); });
}

void
TraceEventWriter::duration(std::string_view name, int pid,
                           std::uint64_t tid, SimTime start,
                           SimTime length, TraceArgs args)
{
    if (done)
        return;
    begin(name, "X", pid);
    json.field("tid", tid);
    json.field("ts", toTraceUs(start));
    json.field("dur", toTraceUs(length));
    end(args);
}

void
TraceEventWriter::instant(std::string_view name, int pid,
                          std::uint64_t tid, SimTime at,
                          TraceArgs args)
{
    if (done)
        return;
    begin(name, "i", pid);
    json.field("tid", tid);
    json.field("ts", toTraceUs(at));
    json.field("s", "g");
    end(args);
}

void
TraceEventWriter::counter(std::string_view name, int pid, SimTime at,
                          double value)
{
    if (done)
        return;
    begin(name, "C", pid);
    json.field("ts", toTraceUs(at));
    end([value](JsonWriter &args) { args.field("value", value); });
}

void
TraceEventWriter::finish()
{
    if (done)
        return;
    done = true;
    json.endArray();
    json.field("displayTimeUnit", "ms");
    json.endObject();
}

WindowSlice
profileWindowSlice(std::uint64_t sequence, SimTime begin, SimTime end,
                   bool truncated)
{
    return {"profile " + std::to_string(sequence) +
                (truncated ? " (truncated)" : ""),
            begin, end > begin ? end - begin : 0};
}

ProfileTraceWriter::ProfileTraceWriter(
    std::ostream &out, const ProfileTraceOptions &options)
    : opts(options), events(out, options.pretty)
{
    events.threadName(kProfilePid, kStepTrack, "Steps");
    events.threadName(kProfilePid, kTpuTrack, "TPU ops");
    events.threadName(kProfilePid, kHostTrack, "Host ops");
    events.threadName(kProfilePid, kWindowTrack, "Profile windows");
}

void
ProfileTraceWriter::opRows(SimTime step_begin, OpStatsSpan ops,
                           int tid)
{
    // Each operator's aggregate time becomes one slice; slices are
    // laid out head to tail, in name order, from the step's start,
    // so a step reads as a flame row of its operator mix
    // (aggregate durations, not individual invocation times — the
    // profiler only keeps statistics).
    opsByName(ops, StringInterner::global(), named);
    SimTime cursor = step_begin;
    for (const NamedOpStats &entry : named) {
        countedSlice(events, entry.name, tid, cursor,
                     entry.total_duration, entry.count);
        ++x_events;
        cursor += entry.total_duration;
    }
}

void
ProfileTraceWriter::add(const ColumnarRecord &record)
{
    if (events.finished())
        return;
    if (record.attempt_boundary) {
        // A preemption: the previous attempt died here and the
        // next one resumes from a restored checkpoint.
        events.instant(
            "preempted (attempt " + std::to_string(record.attempt) +
                ")",
            kProfilePid, kStepTrack, record.window_begin,
            [&record](JsonWriter &args) {
                args.field("preempted_at_step",
                           record.preempted_at_step);
                args.field("resume_step", record.resume_step);
                args.field("attempt", static_cast<std::uint64_t>(
                    record.attempt));
            });
        ++i_events;
        return;
    }

    const WindowSlice window = profileWindowSlice(
        record.sequence, record.window_begin, record.window_end,
        record.truncated);
    countedSlice(events, window.name, kWindowTrack, window.start,
                 window.duration, record.event_count);
    ++x_events;

    if (opts.include_counters) {
        events.counter("tpu_idle_fraction", kProfilePid,
                       record.window_begin, record.tpu_idle_fraction);
        events.counter("mxu_utilization", kProfilePid,
                       record.window_begin, record.mxu_utilization);
    }

    for (std::size_t i = 0; i < record.stepCount(); ++i) {
        const StepId step = record.step[i];
        if (step < opts.first_step || step > opts.last_step) {
            ++filtered;
            continue;
        }
        events.duration("step " + std::to_string(step), kProfilePid,
                        kStepTrack, record.begin[i],
                        record.stepSpan(i));
        ++x_events;
        if (!opts.include_ops)
            continue;
        opRows(record.begin[i], record.tpuOps(i), kTpuTrack);
        opRows(record.begin[i], record.hostOps(i), kHostTrack);
    }
}

void
ProfileTraceWriter::finish()
{
    events.finish();
}

void
writeSpanTrace(const std::vector<SpanRecord> &spans,
               std::ostream &out, bool pretty)
{
    // Normalize to the earliest span: steady-clock epochs are
    // arbitrary, trace viewers want the run to start near zero.
    std::int64_t origin = 0;
    bool first = true;
    for (const auto &span : spans) {
        if (first || span.begin_ns < origin) {
            origin = span.begin_ns;
            first = false;
        }
    }

    TraceEventWriter events(out, pretty);
    for (const auto &span : spans) {
        const auto span_args = [&span](JsonWriter &args) {
            for (const auto &[key, value] : span.args)
                args.field(key, value);
        };
        events.duration(span.name, kSpanPid, span.thread_id,
                        span.begin_ns - origin, span.duration_ns(),
                        span.args.empty() ? TraceArgs()
                                          : TraceArgs(span_args));
    }
}

void
writeSpanTrace(const SpanBuffer &buffer, std::ostream &out,
               bool pretty)
{
    writeSpanTrace(buffer.snapshot(), out, pretty);
}

} // namespace obs
} // namespace tpupoint
