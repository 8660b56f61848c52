/**
 * @file
 * The Online Linear Scan (OLS) phase detector — TPUPoint's
 * lower-overhead alternative to k-means/DBSCAN (Section IV-A). OLS
 * runs *during* recording: it only ever holds the current step, the
 * previous step, and the step before that, comparing neighbours
 * with Equation 1 and growing a segment while the similarity stays
 * above the threshold (70% by default). Recurring segments with the
 * same operator signature (e.g. every eval pass) then aggregate
 * into a single phase — the paper notes all three algorithms
 * "aggregate the same set of phases into a single phase".
 *
 * Internally steps compare as sorted sets of integer operator keys
 * (interned op id * 2 + device side) rather than label strings:
 * Equation 1 only depends on set cardinalities, which the
 * label <-> key bijection preserves, so results are identical while
 * the scan never touches operator names. Signature label strings
 * are materialized only when a new phase group is created.
 */

#ifndef TPUPOINT_ANALYZER_OLS_HH
#define TPUPOINT_ANALYZER_OLS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "proto/columnar.hh"

namespace tpupoint {

/** OLS options. */
struct OlsOptions
{
    /** Equation 1 threshold; neighbours at or above it merge. */
    double similarity_threshold = 0.70;
};

/**
 * Streaming phase detection over the per-step record stream.
 */
class OnlineLinearScan
{
  public:
    /** A run of consecutive similar steps. */
    struct Span
    {
        StepId first_step = 0;
        StepId last_step = 0;
        std::size_t steps = 0;
        SimTime duration = 0; ///< Sum of member step spans.
    };

    /** A phase: one or more recurring spans with one signature. */
    struct Group
    {
        std::vector<Span> spans;
        std::vector<std::string> signature; ///< Sorted op labels.
        std::size_t steps = 0;
        SimTime duration = 0;
    };

    explicit OnlineLinearScan(const OlsOptions &options = {});

    /**
     * Feed the next step (ascending step order) as its wall span
     * plus its sorted operator-key set (see opKeys()). No strings
     * are touched until a new phase group forms.
     */
    void addStep(StepId step, SimTime span,
                 std::vector<std::uint64_t> event_keys);

    /** Close the trailing segment and aggregate phases. */
    void finish();

    /** Compact per-phase aggregates for a mid-scan snapshot. */
    struct PhasePeek
    {
        StepId first_step = 0;
        StepId last_step = 0;
        std::size_t steps = 0;
        SimTime duration = 0;
        std::size_t spans = 0; ///< Recurrences of the phase.
    };

    /**
     * Non-destructive view of the phases as they stand mid-scan:
     * the closed groups, with the open segment folded into its
     * matching group (or appended as its own phase) exactly as
     * closeSegment() would on the next boundary. O(groups), no
     * strings, usable any time before finish(); after finish() it
     * reports the final groups.
     */
    std::vector<PhasePeek> peekPhases() const;

    /** Raw consecutive segments, in execution order. */
    const std::vector<Span> &spans() const;

    /** Aggregated phases (recurring segments merged). */
    const std::vector<Group> &phases() const;

    /** Peak number of step records held at any point (the OLS
     * memory footprint — contrast with k-means/DBSCAN which hold
     * every step). */
    std::size_t peakStepsHeld() const { return peak_held; }

    /**
     * Equation 1: |events(a) ∩ events(b)| / min(|events(a)|,
     * |events(b)|), where a step's event set is its distinct
     * operator labels — here their sorted operator keys.
     */
    static double
    keySimilarity(const std::vector<std::uint64_t> &a,
                  const std::vector<std::uint64_t> &b);

    /**
     * Build the sorted operator-key set of one columnar step row:
     * host entries map to even keys (id * 2), TPU entries to odd
     * (id * 2 + 1), linearly merged in ascending key order (both
     * input runs are id-sorted).
     */
    static std::vector<std::uint64_t> opKeys(OpStatsSpan host,
                                             OpStatsSpan tpu);

  private:
    /** Close the open segment and fold it into its phase group. */
    void closeSegment();

    OlsOptions opts;
    std::vector<Span> segments;
    std::vector<Group> groups;
    /** Per-group key signatures, parallel to groups. */
    std::vector<std::vector<std::uint64_t>> group_keys;
    Span current;
    std::vector<std::uint64_t> current_signature;
    std::vector<std::uint64_t> previous_set;    ///< Step i-1.
    std::vector<std::uint64_t> preprevious_set; ///< Step i-2.
    bool have_current = false;
    bool finished = false;
    std::size_t peak_held = 0;
};

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_OLS_HH
