#include "proto/columnar.hh"

#include <algorithm>

#include "trace/bytes.hh"

namespace tpupoint {

void
ColumnarRecord::appendStep(StepId id, SimTime first, SimTime last,
                           SimTime busy, SimTime idle, SimTime mxu,
                           OpStatsSpan host, OpStatsSpan tpu)
{
    step.push_back(id);
    begin.push_back(first);
    end.push_back(last);
    tpu_busy.push_back(busy);
    tpu_idle.push_back(idle);
    mxu_active.push_back(mxu);
    host_ops.insert(host_ops.end(), host.begin(), host.end());
    tpu_ops.insert(tpu_ops.end(), tpu.begin(), tpu.end());
    host_offsets.push_back(
        static_cast<std::uint32_t>(host_ops.size()));
    tpu_offsets.push_back(static_cast<std::uint32_t>(tpu_ops.size()));
}

void
ColumnarRecord::clear()
{
    sequence = 0;
    window_begin = 0;
    window_end = 0;
    event_count = 0;
    truncated = false;
    events_dropped = 0;
    tpu_idle_fraction = 0.0;
    mxu_utilization = 0.0;
    retries = 0;
    retry_time = 0;
    attempt = 0;
    attempt_boundary = false;
    preempted_at_step = 0;
    resume_step = 0;
    step.clear();
    begin.clear();
    end.clear();
    tpu_busy.clear();
    tpu_idle.clear();
    mxu_active.clear();
    host_offsets.assign(1, 0);
    tpu_offsets.assign(1, 0);
    host_ops.clear();
    tpu_ops.clear();
}

void
mergeOpRuns(std::vector<ColumnarOpStats> &dst, OpStatsSpan src,
            std::vector<ColumnarOpStats> &scratch)
{
    if (src.empty())
        return;
    if (dst.empty()) {
        dst.assign(src.begin(), src.end());
        return;
    }
    scratch.clear();
    std::size_t i = 0, j = 0;
    while (i < dst.size() && j < src.size()) {
        if (dst[i].op == src[j].op) {
            ColumnarOpStats merged = dst[i];
            merged.count += src[j].count;
            merged.total_duration += src[j].total_duration;
            scratch.push_back(merged);
            ++i;
            ++j;
        } else if (dst[i].op < src[j].op) {
            scratch.push_back(dst[i]);
            ++i;
        } else {
            scratch.push_back(src[j]);
            ++j;
        }
    }
    for (; i < dst.size(); ++i)
        scratch.push_back(dst[i]);
    for (; j < src.size(); ++j)
        scratch.push_back(src[j]);
    dst.assign(scratch.begin(), scratch.end());
}

void
opsByName(OpStatsSpan ops, const StringInterner &interner,
          std::vector<NamedOpStats> &out)
{
    out.clear();
    for (const ColumnarOpStats &entry : ops)
        out.push_back(NamedOpStats{interner.view(entry.op),
                                   entry.count,
                                   entry.total_duration});
    std::sort(out.begin(), out.end(),
              [](const NamedOpStats &a, const NamedOpStats &b) {
                  return a.name < b.name;
              });
}

namespace {

void
putOps(ByteWriter &out, OpStatsSpan ops,
       const StringInterner &interner,
       std::vector<NamedOpStats> &named)
{
    opsByName(ops, interner, named);
    out.putU32(static_cast<std::uint32_t>(named.size()));
    for (const NamedOpStats &entry : named) {
        out.putString(entry.name);
        out.putU64(entry.count);
        out.putI64(entry.total_duration);
    }
}

/**
 * Decode one wire op list into @p ops, interning names from views
 * borrowed off the payload (no string copies). Appended entries are
 * id-sorted afterwards so consumers can merge them linearly; a name
 * listed twice would leave two entries for one id, so it fails the
 * decode.
 */
bool
getOps(ByteReader &in, std::vector<ColumnarOpStats> &ops,
       StringInterner &interner)
{
    std::uint32_t count;
    if (!in.getU32(count))
        return false;
    const std::size_t first = ops.size();
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t length;
        std::string_view name;
        ColumnarOpStats entry;
        if (!in.getU32(length) || !in.getBytes(length, name) ||
            !in.getU64(entry.count) ||
            !in.getI64(entry.total_duration))
            return false;
        entry.op = interner.intern(name);
        ops.push_back(entry);
    }
    std::sort(ops.begin() + static_cast<std::ptrdiff_t>(first),
              ops.end(),
              [](const ColumnarOpStats &a,
                 const ColumnarOpStats &b) { return a.op < b.op; });
    for (std::size_t i = first + 1; i < ops.size(); ++i) {
        if (ops[i].op == ops[i - 1].op)
            return false;
    }
    return true;
}

} // namespace

std::string
encodeProfileRecord(const ColumnarRecord &record)
{
    const StringInterner &interner = StringInterner::global();
    ByteWriter out;
    out.putU64(record.sequence);
    out.putI64(record.window_begin);
    out.putI64(record.window_end);
    out.putU64(record.event_count);
    out.putU32(record.truncated ? 1 : 0);
    out.putF64(record.tpu_idle_fraction);
    out.putF64(record.mxu_utilization);
    out.putU64(record.retries);
    out.putI64(record.retry_time);
    out.putU32(static_cast<std::uint32_t>(record.stepCount()));
    std::vector<NamedOpStats> named;
    for (std::size_t i = 0; i < record.stepCount(); ++i) {
        out.putU64(record.step[i]);
        out.putI64(record.begin[i]);
        out.putI64(record.end[i]);
        out.putI64(record.tpu_busy[i]);
        out.putI64(record.tpu_idle[i]);
        out.putI64(record.mxu_active[i]);
        putOps(out, record.hostOps(i), interner, named);
        putOps(out, record.tpuOps(i), interner, named);
    }
    // Container v4: the attempt-continuity tail. Appended after the
    // steps so v3 payloads decode as records that simply end here.
    out.putU32(record.attempt);
    out.putU32(record.attempt_boundary ? 1 : 0);
    out.putU64(record.preempted_at_step);
    out.putU64(record.resume_step);
    // Container v5: the transport-cap drop count; v4 payloads end
    // above and decode with events_dropped = 0.
    out.putU64(record.events_dropped);
    return std::move(out).str();
}

bool
decodeProfileRecordColumnar(std::string_view payload,
                            ColumnarRecord &record,
                            StringInterner &interner)
{
    record.clear();
    ByteReader in(payload);
    std::uint32_t truncated = 0;
    std::uint32_t num_steps = 0;
    if (!in.getU64(record.sequence) ||
        !in.getI64(record.window_begin) ||
        !in.getI64(record.window_end) ||
        !in.getU64(record.event_count) ||
        !in.getU32(truncated) ||
        !in.getF64(record.tpu_idle_fraction) ||
        !in.getF64(record.mxu_utilization) ||
        !in.getU64(record.retries) ||
        !in.getI64(record.retry_time) ||
        !in.getU32(num_steps))
        return false;
    record.truncated = truncated != 0;
    // Each step needs at least 56 payload bytes (six 8-byte
    // fields plus two empty op lists); reject counts the remaining
    // payload cannot possibly hold before growing any column.
    if (num_steps > in.remaining() / 56)
        return false;
    for (std::uint32_t i = 0; i < num_steps; ++i) {
        std::uint64_t step_id;
        SimTime begin, end, busy, idle, mxu;
        if (!in.getU64(step_id) || !in.getI64(begin) ||
            !in.getI64(end) || !in.getI64(busy) ||
            !in.getI64(idle) || !in.getI64(mxu) ||
            !getOps(in, record.host_ops, interner))
            return false;
        record.host_offsets.push_back(
            static_cast<std::uint32_t>(record.host_ops.size()));
        if (!getOps(in, record.tpu_ops, interner))
            return false;
        record.tpu_offsets.push_back(
            static_cast<std::uint32_t>(record.tpu_ops.size()));
        record.step.push_back(step_id);
        record.begin.push_back(begin);
        record.end.push_back(end);
        record.tpu_busy.push_back(busy);
        record.tpu_idle.push_back(idle);
        record.mxu_active.push_back(mxu);
    }
    // Version tails: v3 ends after the steps, v4 adds attempt
    // continuity, v5 the drop count.
    if (in.atEnd())
        return true;
    std::uint32_t boundary = 0;
    if (!in.getU32(record.attempt) || !in.getU32(boundary) ||
        !in.getU64(record.preempted_at_step) ||
        !in.getU64(record.resume_step))
        return false;
    record.attempt_boundary = boundary != 0;
    if (in.atEnd())
        return true;
    if (!in.getU64(record.events_dropped))
        return false;
    return in.atEnd();
}

} // namespace tpupoint
