/**
 * @file
 * Statistical profile records. TPUPoint-Profiler does not retain raw
 * events; each profile window is summarized into per-step operator
 * statistics plus device meta-data (TPU idle time, MXU
 * utilization), exactly the information Section III-A describes.
 *
 * One representation serves every layer. ColumnarRecord stores one
 * struct-of-arrays block per record: contiguous per-step columns
 * plus a CSR-style (offsets + flat entries) layout for the per-step
 * operator lists, with operator names replaced by dense
 * StringInterner ids. The profiler's collector builds it directly,
 * the codec below writes and reads it, and the analyzer folds it
 * id-to-id into its step table.
 *
 * The decode path is built for reuse: `decodeProfileRecordColumnar`
 * writes into a caller-owned record whose `clear()` retains vector
 * capacity, and it reads op names as `string_view`s borrowed from
 * the chunk buffer (ByteReader::getBytes) straight into the
 * interner — so after the vocabulary stabilizes, steady-state
 * decoding performs no heap allocation at all.
 *
 * In memory a step's operator entries are sorted by interned id;
 * on the wire, and in every name-keyed output, they are sorted by
 * name. opsByName() is the one place that maps between the two.
 */

#ifndef TPUPOINT_PROTO_COLUMNAR_HH
#define TPUPOINT_PROTO_COLUMNAR_HH

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/interner.hh"
#include "core/types.hh"

namespace tpupoint {

/** One operator's accumulated stats, name replaced by its id. */
struct ColumnarOpStats
{
    std::uint32_t op = 0;        ///< StringInterner id.
    std::uint64_t count = 0;     ///< Invocations.
    SimTime total_duration = 0;  ///< Sum of elapsed times.
};

/** A borrowed view of one step's id-sorted operator entries. */
using OpStatsSpan = std::span<const ColumnarOpStats>;

/**
 * One profile response: a bounded window of execution summarized
 * into per-step statistics. Steps are parallel arrays indexed
 * 0..stepCount(), and each step's host/TPU operator entries live
 * in flat arrays addressed by offset columns (entries id-sorted and
 * unique within a step). Every record — default-constructed,
 * cleared, collector-built or decoded — keeps offsets of
 * stepCount() + 1 elements, so a zero-step record holds {0}.
 */
struct ColumnarRecord
{
    std::uint64_t sequence = 0;   ///< Profile number in the session.
    SimTime window_begin = 0;
    SimTime window_end = 0;
    std::uint64_t event_count = 0;

    /** The window hit the 1M-event or 60 s transport cap. */
    bool truncated = false;

    /**
     * Events the collector rejected after the window hit a
     * transport cap: how much of a `truncated` window is missing
     * (container v5; 0 on older profiles).
     */
    std::uint64_t events_dropped = 0;

    /** Device meta-data sampled with the response. */
    double tpu_idle_fraction = 0.0;  ///< Idle / elapsed in window.
    double mxu_utilization = 0.0;    ///< MXU-active / elapsed.

    /** Storage retry events (transient faults) in the window. */
    std::uint64_t retries = 0;

    /** Time lost to failed attempts + backoff in the window. */
    SimTime retry_time = 0;

    /**
     * Attempt of a resilient run this window belongs to (container
     * v4; 0 on v3 profiles and single-attempt runs).
     */
    std::uint32_t attempt = 0;

    /**
     * True for an attempt-boundary marker record: a stepless record
     * announcing that the previous attempt was preempted at
     * `preempted_at_step` and this attempt resumes from
     * `resume_step` (the restored checkpoint). Steps in
     * (resume_step, preempted_at_step] are replays.
     */
    bool attempt_boundary = false;

    /** Boundary only: last step the preempted attempt completed. */
    StepId preempted_at_step = 0;

    /** Boundary only: checkpoint step the new attempt resumes at. */
    StepId resume_step = 0;

    /** Per-step columns (parallel arrays), ascending by step. */
    std::vector<StepId> step;
    std::vector<SimTime> begin;      ///< Earliest event start.
    std::vector<SimTime> end;        ///< Latest event end.
    std::vector<SimTime> tpu_busy;   ///< TPU time attributed to ops.
    std::vector<SimTime> tpu_idle;   ///< TPU time stalled on feeds.
    std::vector<SimTime> mxu_active; ///< Full-MXU-equivalent time.

    /** CSR: step i's entries are ops[offsets[i] .. offsets[i+1]). */
    std::vector<std::uint32_t> host_offsets{0}; ///< stepCount()+1.
    std::vector<std::uint32_t> tpu_offsets{0};  ///< stepCount()+1.
    std::vector<ColumnarOpStats> host_ops;
    std::vector<ColumnarOpStats> tpu_ops;

    std::size_t stepCount() const { return step.size(); }

    OpStatsSpan
    hostOps(std::size_t i) const
    {
        return OpStatsSpan(host_ops.data() + host_offsets[i],
                           host_offsets[i + 1] - host_offsets[i]);
    }

    OpStatsSpan
    tpuOps(std::size_t i) const
    {
        return OpStatsSpan(tpu_ops.data() + tpu_offsets[i],
                           tpu_offsets[i + 1] - tpu_offsets[i]);
    }

    /** Wall-clock span of step @p i. */
    SimTime
    stepSpan(std::size_t i) const
    {
        return end[i] > begin[i] ? end[i] - begin[i] : 0;
    }

    /**
     * Append one step row. @p host and @p tpu must each be
     * id-sorted with unique ids; steps must be appended in
     * ascending step order.
     */
    void appendStep(StepId id, SimTime first, SimTime last,
                    SimTime busy, SimTime idle, SimTime mxu,
                    OpStatsSpan host, OpStatsSpan tpu);

    /**
     * Reset to an empty record, retaining every vector's capacity
     * so a reused record stops allocating once it has seen the
     * largest record of the stream.
     */
    void clear();
};

/**
 * Merge the id-sorted run @p src into the id-sorted run @p dst,
 * summing stats for shared ids (linear merge through @p scratch,
 * whose capacity is retained across calls).
 */
void mergeOpRuns(std::vector<ColumnarOpStats> &dst, OpStatsSpan src,
                 std::vector<ColumnarOpStats> &scratch);

/** One operator entry with its name resolved. */
struct NamedOpStats
{
    std::string_view name; ///< Borrowed from the interner.
    std::uint64_t count = 0;
    SimTime total_duration = 0;
};

/**
 * Resolve @p ops through @p interner into @p out sorted by name —
 * the order the wire format stores op lists in and every
 * name-keyed output prints them in. @p out is cleared first; its
 * capacity is reused.
 */
void opsByName(OpStatsSpan ops, const StringInterner &interner,
               std::vector<NamedOpStats> &out);

/**
 * Encode one record's wire payload (no container framing),
 * resolving op ids through the global interner.
 */
std::string encodeProfileRecord(const ColumnarRecord &record);

/**
 * Decode one record's wire payload into @p record, interning
 * operator names into @p interner as they stream past. @p record is
 * cleared first; capacity is reused.
 * @return false when the payload is malformed, lists one op name
 *     twice within a step, or has slack bytes.
 */
bool decodeProfileRecordColumnar(std::string_view payload,
                                 ColumnarRecord &record,
                                 StringInterner &interner);

} // namespace tpupoint

#endif // TPUPOINT_PROTO_COLUMNAR_HH
