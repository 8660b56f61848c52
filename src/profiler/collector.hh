/**
 * @file
 * The statistics collector behind TPUPoint-Profiler. It consumes
 * the raw event stream and maintains per-step operator statistics
 * for the current profile window — "by storing only statistical
 * information in a profile, TPUPoint-Profiler reduces memory
 * consumption and accelerates the post-processing" (Section III-A).
 */

#ifndef TPUPOINT_PROFILER_COLLECTOR_HH
#define TPUPOINT_PROFILER_COLLECTOR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hh"
#include "proto/columnar.hh"
#include "proto/event.hh"
#include "proto/limits.hh"

namespace tpupoint {

/**
 * Aggregates trace events into the per-step summaries of one
 * profile window. Enforces the transport caps: once a window holds
 * 1,000,000 events or spans 60 s, further events are dropped and
 * the harvested record is flagged truncated.
 *
 * Op labels are resolved once per distinct TraceEvent::type
 * pointer: a per-collector cache maps the pointer to its id in
 * the global interner (plus the two label facts the accounting
 * needs), so the per-event path never touches the interner or
 * compares names.
 */
class StatsCollector : public TraceSink
{
  public:
    /** Begin the first window at @p start. */
    explicit StatsCollector(SimTime start = 0);

    /**
     * Fold one event into its step. TPU time counts as busy, except
     * Infeed/Outfeed time, which is idle (stalled on the host);
     * events outside any step join the latest step seen.
     */
    void record(const TraceEvent &event) override;

    /**
     * Close the current window and return its record; a fresh
     * window begins at @p window_end.
     */
    ColumnarRecord harvest(SimTime window_end);

    /** Events accepted into the current window. */
    std::uint64_t eventsInWindow() const { return events; }

    /** Events rejected from the current window after a cap. */
    std::uint64_t eventsDropped() const { return dropped; }

    /** True once the current window hit a transport cap. */
    bool overflowed() const { return truncated; }

    /** Start timestamp of the current window. */
    SimTime windowBegin() const { return window_begin; }

  private:
    /** What the collector knows about one distinct op label. */
    struct Label
    {
        std::uint32_t id = 0; ///< Interner id.
        bool feed = false;    ///< Infeed/Outfeed: TPU idle time.
        bool retry = false;   ///< A storage retry event.
    };

    /** One step of the open window. */
    struct OpenStep
    {
        StepId step = 0;
        SimTime begin = 0;
        SimTime end = 0;
        SimTime busy = 0;
        SimTime idle = 0;
        SimTime mxu = 0;
        std::vector<ColumnarOpStats> host, tpu; ///< First-seen order.
        /** Label slot * 2 + side -> entry index + 1 (0 = none). */
        std::vector<std::uint32_t> where;
    };

    /** The label slot of @p type, resolving it on first sight. */
    std::uint32_t slotFor(const char *type);

    /** The open step @p step, created at @p event if absent. */
    OpenStep &stepFor(StepId step, const TraceEvent &event);

    std::unordered_map<const char *, std::uint32_t> slot_by_type;
    std::unordered_map<std::uint32_t, std::uint32_t> slot_by_id;
    std::vector<Label> labels; ///< By slot.

    std::vector<OpenStep> steps; ///< Ascending by step id.
    SimTime window_begin;
    std::uint64_t events = 0;
    std::uint64_t dropped = 0;
    std::uint64_t sequence = 0;
    bool truncated = false;
    StepId latest_step = 0;
    std::uint64_t retry_events = 0;
    SimTime retry_time = 0;

    /** Registry counters, resolved once so the per-event path is a
     * relaxed atomic increment with no registry lookup. Pointers
     * (not references) keep the collector assignable — the profiler
     * replaces its collector at every start(). */
    obs::Counter *accepted_metric;
    obs::Counter *dropped_metric;
};

/**
 * A sink that retains raw events (tests and visualization demos
 * only — the production path never stores raw events).
 */
class InMemoryTrace : public TraceSink
{
  public:
    void
    record(const TraceEvent &event) override
    {
        trace.push_back(event);
    }

    const std::vector<TraceEvent> &events() const { return trace; }

    void clear() { trace.clear(); }

  private:
    std::vector<TraceEvent> trace;
};

} // namespace tpupoint

#endif // TPUPOINT_PROFILER_COLLECTOR_HH
