#include "analyzer/visualization.hh"

#include <algorithm>
#include <string>

#include "core/csv.hh"
#include "core/json.hh"
#include "core/strings.hh"
#include "obs/trace_export.hh"

namespace tpupoint {

namespace {

/** The two tracks of Figure 3, in one trace process. */
constexpr int kTracePid = 1;
constexpr int kProfileTrack = 1;
constexpr int kPhaseTrack = 2;

/** First/last event timestamps of a phase's member steps. */
std::pair<SimTime, SimTime>
phaseExtent(const Phase &phase, const StepTable &table)
{
    SimTime begin = kTimeForever;
    SimTime end = 0;
    for (const std::size_t index : phase.members) {
        begin = std::min(begin, table.beginTime(index));
        end = std::max(end, table.endTime(index));
    }
    if (begin == kTimeForever)
        begin = 0;
    return {begin, end};
}

std::string
phaseLabel(const Phase &phase)
{
    if (phase.is_noise)
        return "noise";
    return "phase " + std::to_string(phase.id) + " [steps " +
        std::to_string(phase.first_step) + ".." +
        std::to_string(phase.last_step) + "]";
}

} // namespace

void
writeChromeTrace(const AnalysisResult &analysis,
                 const std::vector<ProfileWindowInfo> &windows,
                 std::ostream &out)
{
    obs::TraceEventWriter events(out);
    events.threadName(kTracePid, kProfileTrack, "Profile Breakdown");
    events.threadName(kTracePid, kPhaseTrack, "Phase Breakdown");

    // Profile Breakdown: one slice per profile window.
    for (const auto &window : windows) {
        const obs::WindowSlice slice = obs::profileWindowSlice(
            window.sequence, window.window_begin, window.window_end,
            window.truncated);
        events.duration(slice.name, kTracePid, kProfileTrack,
                        slice.start, slice.duration);
    }

    // Phase Breakdown: one slice per phase.
    for (const auto &phase : analysis.phases) {
        const auto [begin, end] =
            phaseExtent(phase, analysis.table);
        events.duration(phaseLabel(phase), kTracePid, kPhaseTrack,
                        begin, end > begin ? end - begin : 0);
    }
}

void
writePhaseCsv(const AnalysisResult &analysis, std::ostream &out)
{
    CsvWriter csv(out);
    csv.header({"phase", "first_step", "last_step", "steps",
                "duration_ms", "share", "top_tpu_ops",
                "top_host_ops"});
    SimTime total = 0;
    for (const auto &phase : analysis.phases)
        total += phase.total_duration;

    auto join_ops = [](const std::vector<RankedOp> &ops) {
        std::vector<std::string> names;
        names.reserve(ops.size());
        for (const auto &op : ops) {
            names.push_back(op.name + " (" +
                            formatDouble(100.0 * op.share, 1) +
                            "%)");
        }
        return join(names, "; ");
    };

    for (const auto &phase : analysis.phases) {
        csv.field(phaseLabel(phase))
            .field(static_cast<std::uint64_t>(phase.first_step))
            .field(static_cast<std::uint64_t>(phase.last_step))
            .field(static_cast<std::uint64_t>(phase.size()))
            .field(toMillis(phase.total_duration), 3)
            .field(total ? static_cast<double>(
                phase.total_duration) /
                static_cast<double>(total) : 0.0, 4)
            .field(join_ops(topOps(phase.tpu_ops, 5)))
            .field(join_ops(topOps(phase.host_ops, 5)));
        csv.endRow();
    }
}

void
writeAnalysisJson(const AnalysisResult &analysis, std::ostream &out,
                  bool pretty)
{
    JsonWriter w(out, pretty);
    w.beginObject();
    w.field("algorithm", phaseAlgorithmName(analysis.algorithm));
    w.field("steps", static_cast<std::uint64_t>(
        analysis.table.size()));
    w.field("phases", static_cast<std::uint64_t>(
        analysis.phases.size()));
    w.field("top3_coverage", analysis.top3_coverage);
    w.field("attempts",
            static_cast<std::uint64_t>(analysis.attempts));
    w.field("replayed_steps", analysis.replayed_steps);
    w.field("discarded_steps", analysis.discarded_steps);
    w.field("discarded_time_ns", analysis.discarded_time);
    w.field("dropped_events", analysis.dropped_events);

    w.key("phase_list");
    w.beginArray();
    for (const auto &phase : analysis.phases) {
        w.beginObject();
        w.field("id", phase.id);
        w.field("is_noise", phase.is_noise);
        w.field("first_step", static_cast<std::uint64_t>(
            phase.first_step));
        w.field("last_step", static_cast<std::uint64_t>(
            phase.last_step));
        w.field("steps", static_cast<std::uint64_t>(phase.size()));
        w.field("duration_ns", phase.total_duration);
        auto ranked_ops = [&w](const char *key,
                               const std::vector<RankedOp> &ops) {
            w.key(key);
            w.beginArray();
            for (const auto &op : ops) {
                w.beginObject();
                w.field("name", op.name);
                w.field("duration_ns", op.total_duration);
                w.field("count", op.count);
                w.field("share", op.share);
                w.endObject();
            }
            w.endArray();
        };
        ranked_ops("top_tpu_ops", topOps(phase.tpu_ops, 5));
        ranked_ops("top_host_ops", topOps(phase.host_ops, 5));
        w.endObject();
    }
    w.endArray();

    w.key("checkpoints");
    w.beginArray();
    for (const auto &assoc : analysis.checkpoints) {
        w.beginObject();
        w.field("phase_id", assoc.phase_id);
        w.field("checkpoint_step", static_cast<std::uint64_t>(
            assoc.checkpoint_step));
        w.field("distance_steps", static_cast<std::uint64_t>(
            assoc.distance));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace tpupoint
