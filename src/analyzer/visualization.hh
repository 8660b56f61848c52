/**
 * @file
 * TPUPoint-Analyzer output files (Section IV-B): a JSON trace
 * compatible with Chrome's chrome://tracing viewer — showing the
 * Profile Breakdown and Phase Breakdown tracks of Figure 3 — plus a
 * CSV with the formatted description of each phase and the
 * TPU/host operations executed during training steps.
 */

#ifndef TPUPOINT_ANALYZER_VISUALIZATION_HH
#define TPUPOINT_ANALYZER_VISUALIZATION_HH

#include <ostream>
#include <vector>

#include "analyzer/analyzer.hh"

namespace tpupoint {

/**
 * The slice of a profile record the trace viewer needs. Collected
 * by streaming consumers so records themselves don't have to stay
 * resident just to draw the Profile Breakdown track.
 */
struct ProfileWindowInfo
{
    std::uint64_t sequence = 0;
    SimTime window_begin = 0;
    SimTime window_end = 0;
    bool truncated = false;

    ProfileWindowInfo() = default;

    explicit ProfileWindowInfo(const ColumnarRecord &record)
        : sequence(record.sequence),
          window_begin(record.window_begin),
          window_end(record.window_end),
          truncated(record.truncated)
    {
    }
};

/**
 * Write a chrome://tracing JSON file with one track of profile
 * windows and one track of detected phases.
 */
void writeChromeTrace(const AnalysisResult &analysis,
                      const std::vector<ProfileWindowInfo> &windows,
                      std::ostream &out);

/**
 * Write the companion CSV: one row per phase with timing, step
 * range and its top host/TPU operators.
 */
void writePhaseCsv(const AnalysisResult &analysis,
                   std::ostream &out);

/**
 * Write a machine-readable JSON summary of the analysis (phases,
 * coverage, per-phase top operators, checkpoint association).
 */
void writeAnalysisJson(const AnalysisResult &analysis,
                       std::ostream &out, bool pretty = true);

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_VISUALIZATION_HH
