#include "obs/trace_export.hh"

#include <algorithm>
#include <string>

namespace tpupoint {
namespace obs {

namespace {

/** Track ids within the profile process (pid 1). */
constexpr int kStepTrack = 1;
constexpr int kTpuTrack = 2;
constexpr int kHostTrack = 3;
constexpr int kWindowTrack = 4;

/** Nanoseconds -> trace-event microseconds. */
double
toTraceUs(SimTime t)
{
    return static_cast<double>(t) / 1e3;
}

} // namespace

ProfileTraceWriter::ProfileTraceWriter(
    std::ostream &out, const ProfileTraceOptions &options)
    : stream(out), opts(options), json(out, options.pretty)
{
    json.beginObject();
    json.key("traceEvents");
    json.beginArray();
    metadataEvent(kStepTrack, "Steps");
    metadataEvent(kTpuTrack, "TPU ops");
    metadataEvent(kHostTrack, "Host ops");
    metadataEvent(kWindowTrack, "Profile windows");
}

ProfileTraceWriter::~ProfileTraceWriter()
{
    finish();
}

void
ProfileTraceWriter::metadataEvent(int tid, const char *label)
{
    json.beginObject();
    json.field("name", "thread_name");
    json.field("ph", "M");
    json.field("pid", 1);
    json.field("tid", tid);
    json.key("args");
    json.beginObject();
    json.field("name", label);
    json.endObject();
    json.endObject();
}

void
ProfileTraceWriter::durationEvent(std::string_view name, int tid,
                                  SimTime start, SimTime duration,
                                  std::uint64_t count)
{
    json.beginObject();
    json.field("name", name);
    json.field("ph", "X");
    json.field("pid", 1);
    json.field("tid", tid);
    json.field("ts", toTraceUs(start));
    json.field("dur", toTraceUs(duration));
    if (count > 0) {
        json.key("args");
        json.beginObject();
        json.field("count", count);
        json.endObject();
    }
    json.endObject();
    ++x_events;
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
        durationEvent(entry.name, tid, cursor,
                      entry.total_duration, entry.count);
        cursor += entry.total_duration;
    }
}

void
ProfileTraceWriter::add(const ColumnarRecord &record)
{
    if (finished)
        return;
    if (record.attempt_boundary) {
        // A preemption: the previous attempt died here and the
        // next one resumes from a restored checkpoint.
        json.beginObject();
        json.field("name",
                   "preempted (attempt " +
                       std::to_string(record.attempt) + ")");
        json.field("ph", "i");
        json.field("pid", 1);
        json.field("tid", kStepTrack);
        json.field("ts", toTraceUs(record.window_begin));
        json.field("s", "g");
        json.key("args");
        json.beginObject();
        json.field("preempted_at_step",
                   record.preempted_at_step);
        json.field("resume_step", record.resume_step);
        json.field("attempt", static_cast<std::uint64_t>(
            record.attempt));
        json.endObject();
        json.endObject();
        ++i_events;
        return;
    }

    const std::string window_name =
        "profile " + std::to_string(record.sequence) +
        (record.truncated ? " (truncated)" : "");
    const SimTime window_span =
        record.window_end > record.window_begin
            ? record.window_end - record.window_begin
            : 0;
    durationEvent(window_name, kWindowTrack, record.window_begin,
                  window_span, record.event_count);

    if (opts.include_counters) {
        for (const auto &[counter, value] :
             {std::pair<const char *, double>{
                  "tpu_idle_fraction", record.tpu_idle_fraction},
              std::pair<const char *, double>{
                  "mxu_utilization", record.mxu_utilization}}) {
            json.beginObject();
            json.field("name", counter);
            json.field("ph", "C");
            json.field("pid", 1);
            json.field("ts", toTraceUs(record.window_begin));
            json.key("args");
            json.beginObject();
            json.field("value", value);
            json.endObject();
            json.endObject();
        }
    }

    for (std::size_t i = 0; i < record.stepCount(); ++i) {
        const StepId step = record.step[i];
        if (step < opts.first_step || step > opts.last_step) {
            ++filtered;
            continue;
        }
        durationEvent("step " + std::to_string(step), kStepTrack,
                      record.begin[i], record.stepSpan(i));
        if (!opts.include_ops)
            continue;
        opRows(record.begin[i], record.tpuOps(i), kTpuTrack);
        opRows(record.begin[i], record.hostOps(i), kHostTrack);
    }
}

void
ProfileTraceWriter::finish()
{
    if (finished)
        return;
    finished = true;
    json.endArray();
    json.field("displayTimeUnit", "ms");
    json.endObject();
}

void
writeProfileTrace(const std::vector<ColumnarRecord> &records,
                  std::ostream &out,
                  const ProfileTraceOptions &options)
{
    ProfileTraceWriter writer(out, options);
    for (const auto &record : records)
        writer.add(record);
    writer.finish();
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

    JsonWriter w(out, pretty);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const auto &span : spans) {
        w.beginObject();
        w.field("name", span.name);
        w.field("ph", "X");
        w.field("pid", 2);
        w.field("tid", span.thread_id);
        w.field("ts",
                static_cast<double>(span.begin_ns - origin) / 1e3);
        w.field("dur",
                static_cast<double>(span.duration_ns()) / 1e3);
        if (!span.args.empty()) {
            w.key("args");
            w.beginObject();
            for (const auto &[key, value] : span.args)
                w.field(key, value);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();
}

void
writeSpanTrace(const SpanBuffer &buffer, std::ostream &out,
               bool pretty)
{
    writeSpanTrace(buffer.snapshot(), out, pretty);
}

} // namespace obs
} // namespace tpupoint
