/**
 * @file
 * TPUPoint-Optimizer's online tuner (Section VII-B). It watches the
 * profiler's statistical records until the workload enters its
 * performance-critical phase — detected either by the common
 * pattern of operators (reshape, infeed, fusion, outfeed) topping
 * the current phase, or by the current phase exceeding half of the
 * aggregated execution time — then hill-climbs the adjustable
 * parameters: keep moving a value in a direction while performance
 * improves and output is unchanged, revert otherwise, and finish
 * the run with the best configuration found.
 */

#ifndef TPUPOINT_OPTIMIZER_TUNER_HH
#define TPUPOINT_OPTIMIZER_TUNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analyzer/ols.hh"
#include "optimizer/parameters.hh"
#include "optimizer/quality.hh"
#include "profiler/profiler.hh"
#include "runtime/session.hh"
#include "sim/simulator.hh"

namespace tpupoint {

/** Tuning knobs. */
struct TunerOptions
{
    /** Steps skipped after applying a change before measuring. */
    std::uint64_t settle_steps = 5;

    /** Steps in one measurement window. */
    std::uint64_t window_steps = 30;

    /** Required relative improvement to keep a change. */
    double min_improvement = 0.03;

    /** Phase share that marks the performance-critical phase. */
    double critical_share = 0.5;

    /** How often the tuner polls the profiler's records. */
    SimTime poll_interval = 500 * kMsec;

    /** OLS threshold for the tuner's phase tracking. */
    double ols_threshold = 0.70;
};

/**
 * The online tuner. Owns no threads: everything runs on simulator
 * events and the session's step callback.
 */
class OnlineTuner
{
  public:
    /** What the tuner did, for reporting and tests. */
    struct Report
    {
        PipelineConfig initial_config;
        PipelineConfig best_config;
        bool critical_phase_detected = false;
        SimTime critical_detected_at = 0;
        std::uint64_t trials = 0;
        std::uint64_t accepted = 0;
        bool finished = false;
        std::vector<std::string> log;
    };

    OnlineTuner(Simulator &simulator, TrainingSession &session,
                TpuPointProfiler &profiler,
                const std::vector<TunableParam> &adjustable,
                const TunerOptions &options = {});

    /** Install callbacks and begin watching for the critical
     * phase. */
    void start();

    /** Detach (no further changes are applied). */
    void stop();

    /** Tuning report so far. */
    const Report &report() const { return status; }

  private:
    enum class State
    {
        WaitCritical,
        Settle,
        Measure,
        Done,
    };

    void pollRecords();
    void onStep(StepId step, SimTime step_time);
    void beginWindow(bool is_baseline);
    void windowComplete(double window_time);
    bool advanceToNextCandidate();
    void applyCandidate();
    void note(std::string message);

    Simulator &sim;
    TrainingSession &session;
    TpuPointProfiler &profiler;
    TunerOptions opts;
    std::vector<TunableParam> params;
    OutputQualityGuard guard;

    // Phase tracking (the OLS three-step sliding window).
    OnlineLinearScan ols;
    std::size_t records_seen = 0;
    SimTime observed_time = 0;
    SimTime current_phase_time = 0;
    std::vector<std::uint64_t> prev_keys; ///< OLS key set.
    bool have_prev_step = false;
    std::vector<ColumnarOpStats> phase_tpu_ops; ///< Id-sorted.
    std::vector<ColumnarOpStats> phase_host_ops;
    std::vector<ColumnarOpStats> merge_scratch;

    // Hill climbing.
    State state = State::WaitCritical;
    bool measuring_baseline = true;
    double best_window_time = 0.0;
    std::size_t param_index = 0;
    int direction = +1;
    std::uint64_t steps_in_state = 0;
    double window_accum = 0.0;
    EventId poll_event = 0;
    PipelineConfig pending_config;
    TunableParam pending_param = TunableParam::ParallelCalls;
    std::int64_t pending_value = 0;

    Report status;
};

} // namespace tpupoint

#endif // TPUPOINT_OPTIMIZER_TUNER_HH
