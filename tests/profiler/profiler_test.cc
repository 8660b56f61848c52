/** @file TPUPoint-Profiler against live sessions. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

RuntimeWorkload
smallWorkload(std::uint64_t steps = 60)
{
    WorkloadOptions options;
    options.step_scale = 0.01;
    options.max_train_steps = steps;
    return makeWorkload(WorkloadId::DcganCifar10, options);
}

TEST(ProfilerTest, CollectsRecordsOverWholeRun)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    ProfilerOptions options;
    options.profile_interval = 100 * kMsec;
    TpuPointProfiler profiler(sim, session, options);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    EXPECT_FALSE(profiler.running());
    EXPECT_GT(profiler.requestsIssued(), 2u);
    ASSERT_FALSE(profiler.records().empty());

    // Sequences ascend; windows tile the run.
    StepId max_step = 0;
    std::uint64_t total_events = 0;
    for (std::size_t i = 0; i < profiler.records().size(); ++i) {
        const ColumnarRecord &r = profiler.records()[i];
        if (i) {
            EXPECT_GE(r.window_begin,
                      profiler.records()[i - 1].window_begin);
        }
        total_events += r.event_count;
        for (const StepId s : r.step)
            max_step = std::max(max_step, s);
    }
    EXPECT_GT(total_events, 0u);
    // The profiler saw training through the last step.
    EXPECT_GE(max_step, w.schedule.train_steps);
}

TEST(ProfilerTest, AnalyzerFlagControlsRecordingThread)
{
    const RuntimeWorkload w = smallWorkload();
    auto run = [&](bool analyzer) {
        Simulator sim;
        TrainingSession session(sim, SessionConfig{}, w);
        TpuPointProfiler profiler(sim, session);
        profiler.start(analyzer);
        session.start(nullptr);
        sim.run();
        profiler.stop();
        return profiler.bytesRecorded();
    };
    EXPECT_GT(run(true), 0u);   // records streamed to storage
    EXPECT_EQ(run(false), 0u);  // host-memory buffering only
}

TEST(ProfilerTest, ProfilingAddsBoundedOverhead)
{
    const RuntimeWorkload w = smallWorkload(100);
    auto run = [&](bool profiled) {
        Simulator sim;
        TrainingSession session(sim, SessionConfig{}, w);
        std::unique_ptr<TpuPointProfiler> profiler;
        if (profiled) {
            profiler = std::make_unique<TpuPointProfiler>(
                sim, session);
            profiler->start(true);
        }
        session.start(nullptr);
        sim.run();
        if (profiler)
            profiler->stop();
        return session.result().wall_time;
    };
    const SimTime plain = run(false);
    const SimTime traced = run(true);
    EXPECT_GE(traced, plain);
    // Section VII-C: overhead stays under 10%.
    EXPECT_LT(static_cast<double>(traced),
              1.10 * static_cast<double>(plain));
}

TEST(ProfilerTest, BreakpointStopsProfilingEarly)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload(100);
    TrainingSession session(sim, SessionConfig{}, w);
    ProfilerOptions options;
    options.breakpoint = 20;
    // Breakpoints are checked when profile responses arrive, so
    // use a fine-grained interval for a sharp stop.
    options.profile_interval = 20 * kMsec;
    TpuPointProfiler profiler(sim, session, options);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    EXPECT_FALSE(profiler.running());
    // The session itself ran to the end regardless.
    EXPECT_EQ(session.result().steps_completed, 100u);
    // Only early steps were profiled.
    StepId max_step = 0;
    for (const auto &r : profiler.records())
        for (const StepId s : r.step)
            max_step = std::max(max_step, s);
    EXPECT_LT(max_step, 60u);
}

TEST(ProfilerTest, WriteRecordsRoundTrips)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    std::stringstream buffer;
    profiler.writeRecords(buffer);
    ProfileReader reader(buffer);
    const auto decoded = reader.readAll();
    EXPECT_EQ(decoded.size(), profiler.records().size());
}

TEST(ProfilerTest, StreamedProfileMatchesBufferedWriteRecords)
{
    const RuntimeWorkload w = smallWorkload();

    // Buffered path: retain every record, serialize at the end.
    Simulator buffered_sim;
    TrainingSession buffered_session(buffered_sim,
                                     SessionConfig{}, w);
    TpuPointProfiler buffered(buffered_sim, buffered_session);
    buffered.start(true);
    buffered_session.start(nullptr);
    buffered_sim.run();
    buffered.stop();
    std::stringstream buffered_bytes;
    buffered.writeRecords(buffered_bytes);

    // Streaming path: records go to the sink as harvested and are
    // never retained in host memory.
    Simulator streamed_sim;
    TrainingSession streamed_session(streamed_sim,
                                     SessionConfig{}, w);
    ProfilerOptions options;
    options.retain_records = false;
    TpuPointProfiler streamed(streamed_sim, streamed_session,
                              options);
    std::stringstream streamed_bytes;
    streamed.streamTo(streamed_bytes);
    streamed.start(true);
    streamed_session.start(nullptr);
    streamed_sim.run();
    streamed.stop();

    EXPECT_EQ(streamed.recordsRecorded(),
              buffered.recordsRecorded());

    // The streamed profile decodes to exactly the records the
    // buffered run retained, byte for byte.
    ProfileReader reader(streamed_bytes);
    const auto decoded = reader.readAll();
    ASSERT_EQ(decoded.size(), buffered.records().size());
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        EXPECT_EQ(encodeProfileRecord(decoded[i]),
                  encodeProfileRecord(buffered.records()[i]));
    }

    // Retention off means the in-memory accessors refuse.
    EXPECT_THROW(streamed.records(), std::runtime_error);
}

TEST(ProfilerTest, StreamToAfterStartIsRejected)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    std::stringstream sink;
    EXPECT_THROW(profiler.streamTo(sink), std::runtime_error);
}

TEST(ProfilerTest, DoubleStartPanics)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    EXPECT_THROW(profiler.start(true), std::logic_error);
}

TEST(ProfilerTest, StopDetachesInstrumentation)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    EXPECT_NE(session.traceHub().attached(), nullptr);
    EXPECT_GT(session.tpu().traceOverhead(), 0);
    profiler.stop();
    EXPECT_EQ(session.traceHub().attached(), nullptr);
    EXPECT_EQ(session.tpu().traceOverhead(), 0);
}

TEST(ProfilerTest, BadIntervalRejected)
{
    Simulator sim;
    const RuntimeWorkload w = smallWorkload();
    TrainingSession session(sim, SessionConfig{}, w);
    ProfilerOptions options;
    options.profile_interval = 0;
    EXPECT_THROW(TpuPointProfiler(sim, session, options),
                 std::runtime_error);
}

} // namespace
} // namespace tpupoint
