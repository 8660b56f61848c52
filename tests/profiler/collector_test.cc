/** @file StatsCollector windowing and transport caps. */

#include <gtest/gtest.h>

#include <string>

#include "profiler/collector.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::findOp;

TraceEvent
makeEvent(const char *type, SimTime start, SimTime duration,
          StepId step, EventDevice device = EventDevice::Tpu,
          SimTime mxu_active = 0)
{
    TraceEvent e;
    e.type = type;
    e.start = start;
    e.duration = duration;
    e.step = step;
    e.device = device;
    e.mxu = mxu_active > 0;
    e.mxu_active = mxu_active;
    return e;
}

TEST(CollectorTest, AggregatesByStep)
{
    StatsCollector collector(0);
    collector.record(makeEvent("MatMul", 0, 10, 1));
    collector.record(makeEvent("MatMul", 10, 10, 1));
    collector.record(makeEvent("fusion", 30, 10, 2));
    EXPECT_EQ(collector.eventsInWindow(), 3u);

    const ColumnarRecord record = collector.harvest(100);
    EXPECT_EQ(record.event_count, 3u);
    ASSERT_EQ(record.stepCount(), 2u);
    EXPECT_EQ(record.step[0], 1u);
    ASSERT_NE(findOp(record.tpuOps(0), "MatMul"), nullptr);
    EXPECT_EQ(findOp(record.tpuOps(0), "MatMul")->count, 2u);
    EXPECT_EQ(record.step[1], 2u);
    EXPECT_FALSE(record.truncated);
    EXPECT_EQ(record.window_begin, 0);
    EXPECT_EQ(record.window_end, 100);
}

TEST(CollectorTest, HarvestResetsWindow)
{
    StatsCollector collector(0);
    collector.record(makeEvent("MatMul", 0, 10, 1));
    (void)collector.harvest(50);
    EXPECT_EQ(collector.eventsInWindow(), 0u);
    EXPECT_EQ(collector.windowBegin(), 50);
    collector.record(makeEvent("fusion", 60, 5, 2));
    const ColumnarRecord second = collector.harvest(100);
    EXPECT_EQ(second.sequence, 1u);
    ASSERT_EQ(second.stepCount(), 1u);
    EXPECT_EQ(second.step[0], 2u);
}

TEST(CollectorTest, NoStepEventsJoinLatestStep)
{
    StatsCollector collector(0);
    collector.record(makeEvent("MatMul", 0, 10, 7));
    collector.record(
        makeEvent("Recv", 10, 5, kNoStep, EventDevice::Host));
    const ColumnarRecord record = collector.harvest(100);
    ASSERT_EQ(record.stepCount(), 1u);
    EXPECT_EQ(record.step[0], 7u);
    ASSERT_NE(findOp(record.hostOps(0), "Recv"), nullptr);
    EXPECT_EQ(findOp(record.hostOps(0), "Recv")->count, 1u);
}

TEST(CollectorTest, AccumulatesOpStatistics)
{
    StatsCollector collector(0);
    collector.record(
        makeEvent("MatMul", 10, 5, 4, EventDevice::Tpu, 2));
    collector.record(
        makeEvent("MatMul", 20, 7, 4, EventDevice::Tpu, 3));
    collector.record(
        makeEvent("RunGraph", 0, 3, 4, EventDevice::Host));
    const ColumnarRecord record = collector.harvest(100);

    ASSERT_EQ(record.stepCount(), 1u);
    const auto *matmul = findOp(record.tpuOps(0), "MatMul");
    const auto *run_graph = findOp(record.hostOps(0), "RunGraph");
    ASSERT_NE(matmul, nullptr);
    ASSERT_NE(run_graph, nullptr);
    EXPECT_EQ(matmul->count, 2u);
    EXPECT_EQ(matmul->total_duration, 12);
    EXPECT_EQ(run_graph->count, 1u);
    EXPECT_EQ(record.hostOps(0).size(), 1u);
    EXPECT_EQ(record.tpu_busy[0], 12);
    EXPECT_EQ(record.mxu_active[0], 5);
    EXPECT_EQ(record.begin[0], 0);
    EXPECT_EQ(record.end[0], 27);
    EXPECT_EQ(record.stepSpan(0), 27);
}

TEST(CollectorTest, InfeedWaitCountsAsIdleNotBusy)
{
    StatsCollector collector(0);
    collector.record(makeEvent("Infeed", 0, 100, 1));
    collector.record(
        makeEvent("MatMul", 100, 50, 1, EventDevice::Tpu, 10));
    // A host-side op that happens to share the name is not a TPU
    // stall.
    collector.record(
        makeEvent("Infeed", 100, 30, 1, EventDevice::Host));
    const ColumnarRecord record = collector.harvest(1000);
    ASSERT_EQ(record.stepCount(), 1u);
    EXPECT_EQ(record.tpu_idle[0], 100);
    EXPECT_EQ(record.tpu_busy[0], 50);
}

TEST(CollectorTest, EntriesAreIdSortedAndUniquePerLabel)
{
    // Two distinct pointers spelling one label share one entry.
    const std::string copy = "MatMul";
    StatsCollector collector(0);
    collector.record(makeEvent("fusion", 0, 1, 0));
    collector.record(makeEvent("MatMul", 1, 1, 0));
    collector.record(makeEvent(copy.c_str(), 2, 1, 0));
    const ColumnarRecord record = collector.harvest(10);
    ASSERT_EQ(record.stepCount(), 1u);
    const OpStatsSpan ops = record.tpuOps(0);
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_LT(ops[0].op, ops[1].op);
    EXPECT_EQ(findOp(ops, "MatMul")->count, 2u);
}

TEST(CollectorTest, EventCapTruncates)
{
    StatsCollector collector(0);
    for (std::uint64_t i = 0; i < kMaxEventsPerProfile + 10; ++i)
        collector.record(makeEvent("MatMul", 0, 1, 0));
    EXPECT_TRUE(collector.overflowed());
    const ColumnarRecord record = collector.harvest(1);
    EXPECT_TRUE(record.truncated);
    EXPECT_EQ(record.event_count, kMaxEventsPerProfile);
    // The cap resets with the window.
    EXPECT_FALSE(collector.overflowed());
}

TEST(CollectorTest, DurationCapTruncates)
{
    StatsCollector collector(0);
    collector.record(makeEvent("MatMul", 0, 10, 0));
    // An event past the 60 s window limit is dropped.
    collector.record(
        makeEvent("MatMul", kMaxProfileDuration + kSec, 10, 0));
    EXPECT_TRUE(collector.overflowed());
    EXPECT_EQ(collector.eventsInWindow(), 1u);
}

TEST(CollectorTest, DroppedEventsAreCountedNotJustFlagged)
{
    StatsCollector collector(0);
    constexpr std::uint64_t kOverflow = 37;
    for (std::uint64_t i = 0; i < kMaxEventsPerProfile + kOverflow;
         ++i) {
        collector.record(makeEvent("MatMul", 0, 1, 0));
    }
    EXPECT_EQ(collector.eventsDropped(), kOverflow);

    const ColumnarRecord record = collector.harvest(1);
    EXPECT_TRUE(record.truncated);
    EXPECT_EQ(record.events_dropped, kOverflow);
    // The drop count resets with the window, like the cap flag.
    EXPECT_EQ(collector.eventsDropped(), 0u);
    const ColumnarRecord clean = collector.harvest(2);
    EXPECT_EQ(clean.events_dropped, 0u);
    EXPECT_FALSE(clean.truncated);
}

TEST(CollectorTest, MetadataComputedOverWindow)
{
    StatsCollector collector(0);
    TraceEvent busy = makeEvent("MatMul", 0, 400, 0);
    busy.mxu = true;
    busy.mxu_active = 100;
    collector.record(busy);
    const ColumnarRecord record = collector.harvest(1000);
    // 400 of 1000 ns busy -> 60% idle; 100/1000 MXU.
    EXPECT_NEAR(record.tpu_idle_fraction, 0.6, 1e-9);
    EXPECT_NEAR(record.mxu_utilization, 0.1, 1e-9);
}

TEST(CollectorTest, HostEventsDoNotCountAsTpuBusy)
{
    StatsCollector collector(0);
    collector.record(
        makeEvent("RunGraph", 0, 500, 0, EventDevice::Host));
    const ColumnarRecord record = collector.harvest(1000);
    EXPECT_NEAR(record.tpu_idle_fraction, 1.0, 1e-9);
}

} // namespace
} // namespace tpupoint
