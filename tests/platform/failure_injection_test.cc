/**
 * @file Failure/degradation injection: a degraded storage service
 * or a starved host must surface in exactly the places TPUPoint
 * looks — TPU idle time, the Infeed/Recv operators and the phase
 * tables — rather than wedging the platform.
 */

#include <gtest/gtest.h>

#include "analyzer/analyzer.hh"
#include "profiler/collector.hh"
#include "profiler/profiler.hh"
#include "tests/analyzer/synthetic.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace {

RuntimeWorkload
workload()
{
    WorkloadOptions options;
    options.step_scale = 0.05;
    options.max_train_steps = 150;
    return makeWorkload(WorkloadId::DcganCifar10, options);
}

struct MeasuredRun
{
    SessionResult result;
    std::vector<ColumnarRecord> records;
};

MeasuredRun
runWith(const StorageSpec &storage)
{
    Simulator sim;
    SessionConfig config;
    config.storage = storage;
    const RuntimeWorkload w = workload();
    TrainingSession session(sim, config, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();
    return {session.result(), profiler.records()};
}

struct FaultedRun
{
    SessionResult result;
    std::vector<ColumnarRecord> records;
    std::uint64_t retries = 0;
    SimTime retry_time = 0;
    std::uint64_t injected = 0;
};

FaultedRun
runWithFaults(const FaultSpec &faults, std::uint64_t seed)
{
    Simulator sim;
    SessionConfig config;
    config.faults = faults;
    config.seed = seed;
    const RuntimeWorkload w = workload();
    TrainingSession session(sim, config, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();
    return {session.result(), profiler.records(),
            session.storageBucket().retriesPerformed(),
            session.storageBucket().retryTime(),
            session.faultPlan().injectedTotal()};
}

TEST(FailureInjectionTest, DegradedStorageStillCompletes)
{
    StorageSpec degraded;
    degraded.stream_bandwidth = 2e6; // 2 MB/s: a sick bucket
    degraded.request_latency = 200 * kMsec;
    degraded.max_streams = 2;

    const MeasuredRun healthy = runWith(StorageSpec{});
    const MeasuredRun sick = runWith(degraded);

    // The run completes either way...
    EXPECT_EQ(healthy.result.steps_completed,
              sick.result.steps_completed);
    // ...but the degradation is visible exactly where TPUPoint
    // looks: wall time and TPU idle.
    EXPECT_GT(sick.result.wall_time, healthy.result.wall_time);
    EXPECT_GT(sick.result.tpu_idle_fraction,
              healthy.result.tpu_idle_fraction + 0.2);
    EXPECT_LT(sick.result.mxu_utilization,
              healthy.result.mxu_utilization);
}

TEST(FailureInjectionTest, AnalyzerPinpointsTheStarvation)
{
    StorageSpec degraded;
    degraded.stream_bandwidth = 2e6;
    degraded.request_latency = 200 * kMsec;
    degraded.max_streams = 2;
    const MeasuredRun sick = runWith(degraded);

    const AnalysisResult analysis =
        TpuPointAnalyzer().analyze(sick.records);
    const Phase *longest = analysis.longest();
    ASSERT_NE(longest, nullptr);

    // The device-side Infeed stall tops the TPU operators and the
    // storage reads (Recv) dominate the host side.
    const auto tpu_top = topOps(longest->tpu_ops, 3);
    ASSERT_FALSE(tpu_top.empty());
    EXPECT_EQ(tpu_top[0].name, "Infeed");
    const auto host_top = topOps(longest->host_ops, 3);
    bool recv_dominates = false;
    for (const auto &op : host_top)
        recv_dominates |= op.name == "Recv";
    EXPECT_TRUE(recv_dominates);
}

TEST(FailureInjectionTest, SingleThreadHostStillCompletes)
{
    Simulator sim;
    SessionConfig config;
    config.host.physical_cores = 1;
    config.host.smt_ways = 1;
    config.pipeline = PipelineConfig::naive();
    const RuntimeWorkload w = workload();
    TrainingSession session(sim, config, w);
    session.start(nullptr);
    sim.run();
    EXPECT_EQ(session.result().steps_completed,
              w.schedule.train_steps);
    EXPECT_GT(session.result().tpu_idle_fraction, 0.3);
}

TEST(FailureInjectionTest, TransientFaultsRetryToCompletion)
{
    const FaultedRun healthy = runWithFaults(FaultSpec{}, 1);
    const FaultedRun faulted =
        runWithFaults(FaultSpec::uniform(0.01), 1);

    // A 1% transient-error plan completes the full run...
    EXPECT_EQ(faulted.result.steps_completed,
              healthy.result.steps_completed);
    EXPECT_GT(faulted.injected, 0u);
    EXPECT_GT(faulted.retries, 0u);
    EXPECT_GT(faulted.retry_time, 0);
    // ...and the extra wall time shows up as infeed/idle, exactly
    // where TPUPoint looks.
    EXPECT_GT(faulted.result.wall_time, healthy.result.wall_time);
    EXPECT_GE(faulted.result.tpu_idle_fraction,
              healthy.result.tpu_idle_fraction);
}

TEST(FailureInjectionTest, FaultedRunsReplayBitForBit)
{
    const FaultSpec faults = FaultSpec::uniform(0.01, 0.01, 0.002);
    const FaultedRun a = runWithFaults(faults, 7);
    const FaultedRun b = runWithFaults(faults, 7);

    EXPECT_EQ(a.result.wall_time, b.result.wall_time);
    EXPECT_EQ(a.result.steps_completed, b.result.steps_completed);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.retry_time, b.retry_time);
    EXPECT_EQ(a.injected, b.injected);

    // A different seed draws a different fault schedule.
    const FaultedRun c = runWithFaults(faults, 8);
    EXPECT_NE(a.retries, c.retries);
}

TEST(FailureInjectionTest, RetriesSurfaceInProfileRecords)
{
    // A heavy plan so every profile window sees some retries.
    const FaultedRun faulted =
        runWithFaults(FaultSpec::uniform(0.25), 3);

    std::uint64_t recorded_retries = 0;
    SimTime recorded_retry_time = 0;
    bool retry_op_in_host_table = false;
    for (const ColumnarRecord &record : faulted.records) {
        recorded_retries += record.retries;
        recorded_retry_time += record.retry_time;
        for (std::size_t i = 0; i < record.stepCount(); ++i)
            retry_op_in_host_table |=
                testutil::findOp(record.hostOps(i),
                                 "StorageRetry") != nullptr;
    }
    EXPECT_GT(recorded_retries, 0u);
    EXPECT_GT(recorded_retry_time, 0);
    EXPECT_TRUE(retry_op_in_host_table);

    // The analyzer still produces a phase structure from the
    // faulted records, with the slowdown attributed to input.
    const AnalysisResult analysis =
        TpuPointAnalyzer().analyze(faulted.records);
    EXPECT_FALSE(analysis.phases.empty());
}

TEST(TraceHubTest, CountsWithAndWithoutSink)
{
    TraceHub hub;
    TraceEvent event;
    event.type = "MatMul";
    hub.record(event);
    EXPECT_EQ(hub.totalEvents(), 1u); // counted even when dropped
    EXPECT_EQ(hub.attached(), nullptr);

    InMemoryTrace trace;
    hub.attach(&trace);
    hub.record(event);
    EXPECT_EQ(hub.totalEvents(), 2u);
    ASSERT_EQ(trace.events().size(), 1u);

    hub.attach(nullptr);
    hub.record(event);
    EXPECT_EQ(trace.events().size(), 1u); // detached
    EXPECT_EQ(hub.totalEvents(), 3u);

    trace.clear();
    EXPECT_TRUE(trace.events().empty());
}

} // namespace
} // namespace tpupoint
