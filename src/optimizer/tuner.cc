#include "optimizer/tuner.hh"

#include <algorithm>

#include "core/logging.hh"
#include "core/strings.hh"

namespace tpupoint {

namespace {

/** The common operator pattern of Section VI (Observations 3-4). */
bool
matchesCommonPattern(OpStatsSpan tpu, OpStatsSpan host)
{
    // Merge (TPU then host, each in name order) and rank by
    // duration.
    std::vector<std::pair<std::string, SimTime>> ranked;
    std::vector<NamedOpStats> named;
    opsByName(tpu, StringInterner::global(), named);
    for (const NamedOpStats &entry : named)
        ranked.emplace_back("tpu:" + std::string(entry.name),
                            entry.total_duration);
    opsByName(host, StringInterner::global(), named);
    for (const NamedOpStats &entry : named)
        ranked.emplace_back("host:" + std::string(entry.name),
                            entry.total_duration);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    if (ranked.size() > 5)
        ranked.resize(5);

    static const char *pattern[] = {
        "tpu:fusion", "tpu:Reshape", "tpu:Infeed",
        "tpu:InfeedDequeueTuple", "tpu:Outfeed",
        "host:OutfeedDequeueTuple",
        "host:TransferBufferToInfeedLocked",
    };
    int hits = 0;
    for (const auto &[name, duration] : ranked) {
        for (const char *candidate : pattern) {
            if (name == candidate) {
                ++hits;
                break;
            }
        }
    }
    return hits >= 2;
}

} // namespace

OnlineTuner::OnlineTuner(Simulator &simulator,
                         TrainingSession &session_ref,
                         TpuPointProfiler &profiler_ref,
                         const std::vector<TunableParam> &adjustable,
                         const TunerOptions &options)
    : sim(simulator), session(session_ref), profiler(profiler_ref),
      opts(options), params(adjustable),
      ols(OlsOptions{options.ols_threshold})
{
    status.initial_config = session.pipeline().config();
    status.best_config = status.initial_config;
}

void
OnlineTuner::note(std::string message)
{
    status.log.push_back("[" + formatDuration(sim.now()) + "] " +
                         std::move(message));
}

void
OnlineTuner::start()
{
    session.setStepCallback(
        [this](StepId step, SimTime step_time) {
            onStep(step, step_time);
        });
    poll_event = sim.schedule(opts.poll_interval,
                              [this]() { pollRecords(); });
    note("tuner armed: waiting for the performance-critical phase");
}

void
OnlineTuner::stop()
{
    if (poll_event) {
        sim.cancel(poll_event);
        poll_event = 0;
    }
    session.setStepCallback(nullptr);
    // A trial may still be in flight when the program ends; the
    // best known configuration is what the program keeps.
    if (state != State::Done && !measuring_baseline &&
        status.critical_phase_detected) {
        session.pipeline().setConfig(status.best_config);
    }
}

void
OnlineTuner::pollRecords()
{
    poll_event = 0;
    const auto &records = profiler.records();

    // Track phases over newly arrived records.
    for (; records_seen < records.size(); ++records_seen) {
        const ColumnarRecord &record = records[records_seen];
        for (std::size_t i = 0; i < record.stepCount(); ++i) {
            const SimTime span = record.stepSpan(i);
            observed_time += span;

            std::vector<std::uint64_t> keys =
                OnlineLinearScan::opKeys(record.hostOps(i),
                                         record.tpuOps(i));
            if (have_prev_step) {
                const double similarity =
                    OnlineLinearScan::keySimilarity(prev_keys,
                                                    keys);
                if (similarity < opts.ols_threshold) {
                    // Phase boundary: reset the running phase.
                    current_phase_time = 0;
                    phase_tpu_ops.clear();
                    phase_host_ops.clear();
                }
            }
            current_phase_time += span;
            mergeOpRuns(phase_tpu_ops, record.tpuOps(i),
                        merge_scratch);
            mergeOpRuns(phase_host_ops, record.hostOps(i),
                        merge_scratch);
            prev_keys = std::move(keys);
            have_prev_step = true;

            if (state == State::WaitCritical) {
                const bool dominant = observed_time > 0 &&
                    static_cast<double>(current_phase_time) /
                        static_cast<double>(observed_time) >
                        opts.critical_share;
                const bool pattern = matchesCommonPattern(
                    phase_tpu_ops, phase_host_ops);
                if (dominant || pattern) {
                    status.critical_phase_detected = true;
                    status.critical_detected_at = sim.now();
                    note(std::string("performance-critical phase "
                                     "detected (") +
                         (dominant ? "dominant share"
                                   : "common operator pattern") +
                         "); tuning begins");
                    beginWindow(true);
                }
            }
        }
    }

    if (state != State::Done && !session.finished()) {
        poll_event = sim.schedule(opts.poll_interval,
                                  [this]() { pollRecords(); });
    }
}

void
OnlineTuner::beginWindow(bool is_baseline)
{
    measuring_baseline = is_baseline;
    state = State::Settle;
    steps_in_state = 0;
    window_accum = 0.0;
}

void
OnlineTuner::onStep(StepId step, SimTime step_time)
{
    guard.onStep(step);
    switch (state) {
      case State::WaitCritical:
      case State::Done:
        return;
      case State::Settle:
        if (++steps_in_state >= opts.settle_steps) {
            state = State::Measure;
            steps_in_state = 0;
            window_accum = 0.0;
        }
        return;
      case State::Measure:
        window_accum += static_cast<double>(step_time);
        if (++steps_in_state >= opts.window_steps) {
            windowComplete(window_accum);
        }
        return;
    }
}

bool
OnlineTuner::advanceToNextCandidate()
{
    while (param_index < params.size()) {
        const TunableParam param = params[param_index];
        if (OutputQualityGuard::preservesOutput(param)) {
            const auto candidate = neighborValue(
                status.best_config, param, direction);
            if (candidate) {
                PipelineConfig probe = status.best_config;
                setParam(probe, param, *candidate);
                if (isValidConfig(probe,
                                  session.workload().dataset,
                                  session.sessionConfig().host)) {
                    pending_config = probe;
                    pending_param = param;
                    pending_value = *candidate;
                    return true;
                }
            }
        }
        // Exhausted this direction: flip, then move on.
        if (direction > 0) {
            direction = -1;
        } else {
            direction = +1;
            ++param_index;
        }
    }
    return false;
}

void
OnlineTuner::applyCandidate()
{
    session.pipeline().setConfig(pending_config);
    note(std::string("trial: ") + tunableParamName(pending_param) +
         " -> " + std::to_string(pending_value));
    beginWindow(false);
}

void
OnlineTuner::windowComplete(double window_time)
{
    if (measuring_baseline) {
        best_window_time = window_time;
        note("baseline window: " +
             formatDuration(static_cast<SimTime>(window_time)));
        if (advanceToNextCandidate()) {
            applyCandidate();
        } else {
            state = State::Done;
            status.finished = true;
            note("no adjustable parameters; keeping defaults");
        }
        return;
    }

    ++status.trials;
    const bool improved = window_time <
        best_window_time * (1.0 - opts.min_improvement);
    if (improved && guard.consistent()) {
        best_window_time = window_time;
        status.best_config = pending_config;
        ++status.accepted;
        note(std::string("accepted ") +
             tunableParamName(pending_param) + " = " +
             std::to_string(pending_value) + " (window " +
             formatDuration(static_cast<SimTime>(window_time)) +
             ")");
        // Keep pushing the same parameter in the same direction.
    } else {
        session.pipeline().setConfig(status.best_config);
        note(std::string("rejected ") +
             tunableParamName(pending_param) + " = " +
             std::to_string(pending_value));
        if (direction > 0) {
            direction = -1;
        } else {
            direction = +1;
            ++param_index;
        }
    }

    if (advanceToNextCandidate()) {
        applyCandidate();
    } else {
        state = State::Done;
        status.finished = true;
        note("tuning complete: " + status.best_config.toString());
        session.pipeline().setConfig(status.best_config);
    }
}

} // namespace tpupoint
