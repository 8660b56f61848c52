/** @file Step table aggregation across profile records. */

#include <gtest/gtest.h>

#include "analyzer/step_table.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::findOp;
using testutil::makeRecord;
using testutil::makeStep;
using testutil::opRun;
using testutil::SyntheticStep;

TEST(StepTableTest, MergesRecordsByStep)
{
    // Step 2 spans two profile windows.
    auto first = makeRecord(
        {makeStep(1, {"fusion"}), makeStep(2, {"fusion"})}, 0);
    auto second = makeRecord(
        {makeStep(2, {"MatMul"}), makeStep(3, {"fusion"})}, 1);
    const StepTable table =
        StepTable::fromRecords({first, second});

    ASSERT_EQ(table.size(), 3u);
    EXPECT_EQ(table.stepId(0), 1u);
    EXPECT_EQ(table.stepId(1), 2u);
    EXPECT_EQ(table.stepId(2), 3u);
    // The merged step carries both windows' ops.
    EXPECT_EQ(table.tpuOps(1).size(), 2u);
    EXPECT_NE(findOp(table.tpuOps(1), "fusion"), nullptr);
    EXPECT_NE(findOp(table.tpuOps(1), "MatMul"), nullptr);
}

TEST(StepTableTest, MergeCombinesOpsAndCounters)
{
    // One step seen by two windows: op entries sum per op, the
    // device counters add, and the event envelope widens.
    SyntheticStep a;
    a.step = 3;
    a.begin = 0;
    a.end = 5;
    a.tpu_busy = 5;
    a.mxu_active = 1;
    a.tpu_ops = opRun({{"MatMul", {0, 1, 5}}});
    SyntheticStep b;
    b.step = 3;
    b.begin = 50;
    b.end = 58;
    b.tpu_busy = 8;
    b.tpu_idle = 4;
    b.mxu_active = 2;
    b.tpu_ops = opRun({{"MatMul", {0, 1, 7}}, {"Relu", {0, 1, 1}}});
    const StepTable table = StepTable::fromRecords(
        {makeRecord({a}, 0), makeRecord({b}, 1)});

    ASSERT_EQ(table.size(), 1u);
    const auto *matmul = findOp(table.tpuOps(0), "MatMul");
    const auto *relu = findOp(table.tpuOps(0), "Relu");
    ASSERT_NE(matmul, nullptr);
    ASSERT_NE(relu, nullptr);
    EXPECT_EQ(matmul->count, 2u);
    EXPECT_EQ(matmul->total_duration, 12);
    EXPECT_EQ(relu->count, 1u);
    EXPECT_EQ(table.tpuBusy(0), 13);
    EXPECT_EQ(table.tpuIdle(0), 4);
    EXPECT_EQ(table.mxuActive(0), 3);
    EXPECT_EQ(table.beginTime(0), 0);
    EXPECT_EQ(table.endTime(0), 58);
}

TEST(StepTableTest, StepsAreAscendingRegardlessOfInput)
{
    auto record = makeRecord({makeStep(9, {"a"}),
                              makeStep(3, {"b"}),
                              makeStep(7, {"c"})});
    const StepTable table = StepTable::fromRecords({record});
    ASSERT_EQ(table.size(), 3u);
    EXPECT_EQ(table.stepId(0), 3u);
    EXPECT_EQ(table.stepId(1), 7u);
    EXPECT_EQ(table.stepId(2), 9u);
}

TEST(StepTableTest, TotalDurationSumsSpans)
{
    auto record = makeRecord(
        {makeStep(0, {"a"}, {}, 100), makeStep(1, {"a"}, {}, 50)});
    const StepTable table = StepTable::fromRecords({record});
    EXPECT_EQ(table.totalDuration(), 150);
}

TEST(StepTableTest, OpUniverseIsSortedAndPrefixed)
{
    auto record = makeRecord(
        {makeStep(0, {"MatMul"}, {"RunGraph"}),
         makeStep(1, {"fusion"}, {"Recv"})});
    const StepTable table = StepTable::fromRecords({record});
    const auto universe = table.opUniverse();
    ASSERT_EQ(universe.size(), 4u);
    EXPECT_EQ(universe[0], "host:Recv");
    EXPECT_EQ(universe[1], "host:RunGraph");
    EXPECT_EQ(universe[2], "tpu:MatMul");
    EXPECT_EQ(universe[3], "tpu:fusion");
}

TEST(StepTableTest, DropAfterErasesTailAndReportsSpan)
{
    StepTableBuilder builder;
    builder.ingest(makeRecord({makeStep(1, {"a"}, {}, 100),
                               makeStep(2, {"a"}, {}, 100),
                               makeStep(3, {"a"}, {}, 100),
                               makeStep(4, {"a"}, {}, 100)}));
    SimTime span = 0;
    EXPECT_EQ(builder.dropAfter(2, &span), 2u);
    EXPECT_EQ(span, 200);
    EXPECT_EQ(builder.stepsAggregated(), 2u);
    // Idempotent once the tail is gone.
    EXPECT_EQ(builder.dropAfter(2), 0u);

    const StepTable table = std::move(builder).build();
    ASSERT_EQ(table.size(), 2u);
    EXPECT_EQ(table.stepId(1), 2u);
}

TEST(StepTableTest, DropAfterCountsMergedWindowEnvelope)
{
    // Step 3 arrives in two windows (its envelope widens on the
    // second merge) and step 5 arrives before step 4; the dropped
    // span must reflect the merged columnar rows, not the raw
    // ingest order.
    StepTableBuilder builder;
    builder.ingest(makeRecord({makeStep(2, {"a"}, {}, 100),
                               makeStep(3, {"a"}, {}, 100)}));
    builder.ingest(makeRecord({makeStep(3, {"a"}, {}, 100),
                               makeStep(5, {"a"}, {}, 100)}));
    builder.ingest(makeRecord({makeStep(4, {"a"}, {}, 100)}));
    SimTime span = 0;
    // Drops steps 3 (merged, same envelope), 4 and 5.
    EXPECT_EQ(builder.dropAfter(2, &span), 3u);
    EXPECT_EQ(span, 300);
    const StepTable table = std::move(builder).build();
    ASSERT_EQ(table.size(), 1u);
    EXPECT_EQ(table.stepId(0), 2u);
}

TEST(StepTableTest, MarkReplayedFlagsReingestedRange)
{
    StepTableBuilder builder;
    builder.ingest(makeRecord({makeStep(1, {"a"}),
                               makeStep(2, {"a"}),
                               makeStep(3, {"a"})}));
    // The dead attempt reached step 3, the restart resumes at 1:
    // steps (1, 3] come back as replays.
    builder.dropAfter(1);
    builder.markReplayed(1, 3);
    builder.ingest(makeRecord(
        {makeStep(2, {"a"}), makeStep(3, {"a"}),
         makeStep(4, {"a"})},
        1));

    const StepTable table = std::move(builder).build();
    ASSERT_EQ(table.size(), 4u);
    EXPECT_FALSE(table.replayed(0)); // step 1
    EXPECT_TRUE(table.replayed(1));  // step 2: replayed
    EXPECT_TRUE(table.replayed(2));  // step 3: replayed
    EXPECT_FALSE(table.replayed(3)); // step 4: new progress
    // Replayed steps count once: one row each, single-window span
    // and a single op invocation, not a doubled aggregate.
    EXPECT_EQ(table.span(1), 100 * kUsec);
    ASSERT_NE(findOp(table.tpuOps(1), "a"), nullptr);
    EXPECT_EQ(findOp(table.tpuOps(1), "a")->count, 1u);
}

TEST(StepTableTest, MarkReplayedEmptyRangeIsIgnored)
{
    StepTableBuilder builder;
    builder.markReplayed(5, 5);
    builder.markReplayed(7, 3);
    builder.ingest(makeRecord({makeStep(5, {"a"}),
                               makeStep(4, {"a"})}));
    const StepTable table = std::move(builder).build();
    EXPECT_FALSE(table.replayed(0));
    EXPECT_FALSE(table.replayed(1));
}

TEST(StepTableTest, EmptyInput)
{
    const StepTable table = StepTable::fromRecords({});
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.totalDuration(), 0);
    EXPECT_TRUE(table.opUniverse().empty());
}

} // namespace
} // namespace tpupoint
