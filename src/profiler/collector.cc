#include "profiler/collector.hh"

#include <algorithm>
#include <string_view>

#include "graph/op.hh"
#include "host/host_ops.hh"
#include "obs/logger.hh"

namespace tpupoint {

namespace {

/**
 * A saturated window drops every further event, so the drop report
 * must be per-interval, not per-event — one structured line with
 * the running tally, never a line per dropped event.
 */
void
reportDrop(const char *why, std::uint64_t dropped_total)
{
    static obs::LogSite drop_site(5000);
    obs::Logger::global().logLimited(
        drop_site, LogLevel::Warn, "profiler",
        "profile window saturated; dropping events",
        {{"cause", why}, {"dropped", dropped_total}});
}

bool
byId(const ColumnarOpStats &a, const ColumnarOpStats &b)
{
    return a.op < b.op;
}

} // namespace

StatsCollector::StatsCollector(SimTime start)
    : window_begin(start),
      accepted_metric(&obs::MetricsRegistry::global().counter(
          "profiler.events_accepted")),
      dropped_metric(&obs::MetricsRegistry::global().counter(
          "profiler.events_dropped"))
{
}

std::uint32_t
StatsCollector::slotFor(const char *type)
{
    const auto cached = slot_by_type.find(type);
    if (cached != slot_by_type.end())
        return cached->second;
    // First sight of this pointer. Distinct pointers may spell the
    // same label, so slots are per interner id, not per pointer.
    const std::string_view name = type ? type : "";
    const std::uint32_t id = StringInterner::global().intern(name);
    const auto [slot, inserted] = slot_by_id.try_emplace(
        id, static_cast<std::uint32_t>(labels.size()));
    if (inserted) {
        Label label;
        label.id = id;
        label.feed = name == opKindName(OpKind::Infeed) ||
            name == opKindName(OpKind::Outfeed);
        label.retry = name == hostop::kStorageRetry;
        labels.push_back(label);
    }
    slot_by_type.emplace(type, slot->second);
    return slot->second;
}

StatsCollector::OpenStep &
StatsCollector::stepFor(StepId step, const TraceEvent &event)
{
    // Producers interleave, but events land on the newest step or
    // one just before it: scan from the back.
    std::size_t i = steps.size();
    while (i > 0 && steps[i - 1].step > step)
        --i;
    if (i > 0 && steps[i - 1].step == step) {
        OpenStep &open = steps[i - 1];
        open.begin = std::min(open.begin, event.start);
        open.end = std::max(open.end, event.end());
        return open;
    }
    OpenStep fresh;
    fresh.step = step;
    fresh.begin = event.start;
    fresh.end = event.end();
    return *steps.insert(steps.begin() + static_cast<std::ptrdiff_t>(i),
                         std::move(fresh));
}

void
StatsCollector::record(const TraceEvent &event)
{
    if (events >= kMaxEventsPerProfile) {
        truncated = true;
        ++dropped;
        dropped_metric->add(1);
        reportDrop("event cap", dropped);
        return;
    }
    if (event.end() - window_begin > kMaxProfileDuration) {
        truncated = true;
        ++dropped;
        dropped_metric->add(1);
        reportDrop("duration cap", dropped);
        return;
    }
    StepId step = event.step;
    if (step == kNoStep) {
        step = latest_step; // out-of-step events join the current
    } else {
        latest_step = std::max(latest_step, step);
    }
    const std::uint32_t slot = slotFor(event.type);
    const Label &label = labels[slot];
    OpenStep &open = stepFor(step, event);

    const bool tpu = event.device == EventDevice::Tpu;
    const std::size_t key = std::size_t{slot} * 2 + (tpu ? 1 : 0);
    if (key >= open.where.size())
        open.where.resize(labels.size() * 2, 0);
    std::vector<ColumnarOpStats> &ops = tpu ? open.tpu : open.host;
    std::uint32_t &where = open.where[key];
    if (where == 0) {
        ops.push_back(ColumnarOpStats{label.id, 0, 0});
        where = static_cast<std::uint32_t>(ops.size());
    }
    ColumnarOpStats &entry = ops[where - 1];
    ++entry.count;
    entry.total_duration += event.duration;

    if (tpu) {
        (label.feed ? open.idle : open.busy) += event.duration;
        open.mxu += event.mxu_active;
    }
    if (label.retry) {
        // Surface fault-induced retries as window meta-data so the
        // analyzer can attribute slowdown without op-name lookups.
        ++retry_events;
        retry_time += event.duration;
    }
    ++events;
    accepted_metric->add(1);
}

ColumnarRecord
StatsCollector::harvest(SimTime window_end)
{
    ColumnarRecord record;
    record.sequence = sequence++;
    record.window_begin = window_begin;
    record.window_end = window_end;
    record.event_count = events;
    record.truncated = truncated;
    record.events_dropped = dropped;
    record.retries = retry_events;
    record.retry_time = retry_time;

    std::size_t host_total = 0, tpu_total = 0;
    for (const OpenStep &open : steps) {
        host_total += open.host.size();
        tpu_total += open.tpu.size();
    }
    for (auto *column :
         {&record.begin, &record.end, &record.tpu_busy,
          &record.tpu_idle, &record.mxu_active})
        column->reserve(steps.size());
    record.step.reserve(steps.size());
    record.host_offsets.reserve(steps.size() + 1);
    record.tpu_offsets.reserve(steps.size() + 1);
    record.host_ops.reserve(host_total);
    record.tpu_ops.reserve(tpu_total);

    SimTime busy = 0;
    SimTime mxu = 0;
    for (OpenStep &open : steps) {
        std::sort(open.host.begin(), open.host.end(), byId);
        std::sort(open.tpu.begin(), open.tpu.end(), byId);
        record.appendStep(open.step, open.begin, open.end,
                          open.busy, open.idle, open.mxu, open.host,
                          open.tpu);
        busy += open.busy;
        mxu += open.mxu;
    }
    const double span =
        static_cast<double>(window_end - window_begin);
    if (span > 0) {
        record.tpu_idle_fraction =
            std::max(0.0, 1.0 - static_cast<double>(busy) / span);
        record.mxu_utilization = static_cast<double>(mxu) / span;
    }

    steps.clear();
    events = 0;
    dropped = 0;
    truncated = false;
    retry_events = 0;
    retry_time = 0;
    window_begin = window_end;
    return record;
}

} // namespace tpupoint
