/** @file Online Linear Scan: Equation 1 and phase aggregation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyzer/ols.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::makeStep;
using testutil::SyntheticStep;
using testutil::threePhaseRun;

/** Equation 1 between two steps' operator-key sets. */
double
similarity(const SyntheticStep &a, const SyntheticStep &b)
{
    return OnlineLinearScan::keySimilarity(a.keys(), b.keys());
}

/** Feed one step to @p ols. */
void
feed(OnlineLinearScan &ols, const SyntheticStep &step)
{
    ols.addStep(step.step, step.span(), step.keys());
}

TEST(OlsSimilarityTest, EquationOneExamples)
{
    // Identical sets -> 1.0.
    const auto a = makeStep(0, {"fusion", "MatMul"});
    const auto b = makeStep(1, {"fusion", "MatMul"});
    EXPECT_DOUBLE_EQ(similarity(a, b), 1.0);

    // Disjoint sets -> 0.0.
    const auto c = makeStep(2, {"Reshape"});
    EXPECT_DOUBLE_EQ(similarity(a, c), 0.0);

    // Subset: intersection over the *smaller* set -> 1.0.
    const auto d = makeStep(3, {"fusion"});
    EXPECT_DOUBLE_EQ(similarity(a, d), 1.0);

    // Partial overlap: |{fusion}| / min(2, 2) = 0.5.
    const auto e = makeStep(4, {"fusion", "Reshape"});
    EXPECT_DOUBLE_EQ(similarity(a, e), 0.5);
}

TEST(OlsSimilarityTest, EmptySets)
{
    const auto empty1 = makeStep(0, {});
    const auto empty2 = makeStep(1, {});
    const auto full = makeStep(2, {"MatMul"});
    EXPECT_DOUBLE_EQ(
        similarity(empty1, empty2), 1.0);
    EXPECT_DOUBLE_EQ(
        similarity(empty1, full), 0.0);
}

TEST(OlsSimilarityTest, DevicePrefixSeparatesNamesakes)
{
    // A host ArgMax and a TPU ArgMax are different events.
    const auto host_side = makeStep(0, {}, {"ArgMax"});
    const auto tpu_side = makeStep(1, {"ArgMax"}, {});
    EXPECT_DOUBLE_EQ(
        similarity(host_side, tpu_side),
        0.0);
}

TEST(OlsTest, OpKeysTagDeviceSideAndSort)
{
    // Host keys are id * 2, TPU keys id * 2 + 1, merged ascending;
    // a phase signature materializes them as prefixed labels,
    // sorted ("host:" before "tpu:").
    const auto step =
        makeStep(0, {"MatMul", "Relu"}, {"RunGraph"});
    const std::vector<std::uint64_t> keys = step.keys();
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    auto has = [&keys](std::uint64_t key) {
        return std::find(keys.begin(), keys.end(), key) != keys.end();
    };
    EXPECT_TRUE(has(std::uint64_t{step.host_ops[0].op} * 2));
    for (const ColumnarOpStats &entry : step.tpu_ops)
        EXPECT_TRUE(has(std::uint64_t{entry.op} * 2 + 1));

    OnlineLinearScan ols;
    feed(ols, step);
    ols.finish();
    ASSERT_EQ(ols.phases().size(), 1u);
    const std::vector<std::string> expected{
        "host:RunGraph", "tpu:MatMul", "tpu:Relu"};
    EXPECT_EQ(ols.phases()[0].signature, expected);
}

TEST(OlsTest, UniformRunIsOnePhase)
{
    OnlineLinearScan ols;
    for (StepId i = 0; i < 50; ++i)
        feed(ols, makeStep(i, {"fusion", "MatMul"}));
    ols.finish();
    EXPECT_EQ(ols.spans().size(), 1u);
    EXPECT_EQ(ols.phases().size(), 1u);
    EXPECT_EQ(ols.phases()[0].steps, 50u);
}

TEST(OlsTest, ThreePhaseRunFindsThreePhases)
{
    OnlineLinearScan ols(OlsOptions{0.70});
    for (const auto &step : threePhaseRun())
        feed(ols, step);
    ols.finish();
    // init | train | eval | train -> 4 segments...
    EXPECT_EQ(ols.spans().size(), 4u);
    // ...but the two train segments share a signature: 3 phases.
    EXPECT_EQ(ols.phases().size(), 3u);
}

TEST(OlsTest, RecurringPhaseAggregatesDurations)
{
    OnlineLinearScan ols(OlsOptions{0.70});
    const auto steps = threePhaseRun(10, 4);
    for (const auto &step : steps)
        feed(ols, step);
    ols.finish();
    // The aggregated train phase owns both segments.
    const OnlineLinearScan::Group *train = nullptr;
    for (const auto &group : ols.phases())
        if (group.spans.size() == 2)
            train = &group;
    ASSERT_NE(train, nullptr);
    EXPECT_EQ(train->steps, 20u);
}

TEST(OlsTest, ThresholdZeroMergesEverything)
{
    OnlineLinearScan ols(OlsOptions{0.0});
    for (const auto &step : threePhaseRun())
        feed(ols, step);
    ols.finish();
    EXPECT_EQ(ols.phases().size(), 1u);
}

TEST(OlsTest, PhaseCountMonotoneInThreshold)
{
    const auto steps = threePhaseRun();
    std::size_t previous = 0;
    for (const double threshold :
         {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
        OnlineLinearScan ols(OlsOptions{threshold});
        for (const auto &step : steps)
            feed(ols, step);
        ols.finish();
        EXPECT_GE(ols.phases().size(), previous);
        previous = ols.phases().size();
    }
}

TEST(OlsTest, ConstantMemoryFootprint)
{
    OnlineLinearScan ols;
    for (StepId i = 0; i < 10000; ++i)
        feed(ols, makeStep(i, {"fusion"}));
    ols.finish();
    // OLS never holds more than the 3-step sliding window.
    EXPECT_LE(ols.peakStepsHeld(), 3u);
}

TEST(OlsTest, UsageErrors)
{
    EXPECT_THROW(OnlineLinearScan(OlsOptions{-0.1}),
                 std::runtime_error);
    EXPECT_THROW(OnlineLinearScan(OlsOptions{1.5}),
                 std::runtime_error);
    OnlineLinearScan ols;
    EXPECT_THROW(ols.phases(), std::logic_error);
    ols.finish();
    EXPECT_THROW(feed(ols, makeStep(0, {"x"})),
                 std::logic_error);
}

TEST(OlsTest, FinishIsIdempotent)
{
    OnlineLinearScan ols;
    feed(ols, makeStep(0, {"fusion"}));
    ols.finish();
    ols.finish();
    EXPECT_EQ(ols.phases().size(), 1u);
}

/** Property sweep over thresholds: spans partition the steps. */
class OlsPartitionProperty
    : public ::testing::TestWithParam<double>
{
};

TEST_P(OlsPartitionProperty, SpansCoverAllStepsExactlyOnce)
{
    const auto steps = threePhaseRun();
    OnlineLinearScan ols(OlsOptions{GetParam()});
    for (const auto &step : steps)
        feed(ols, step);
    ols.finish();
    std::size_t covered = 0;
    StepId previous_last = 0;
    bool first = true;
    for (const auto &span : ols.spans()) {
        EXPECT_LE(span.first_step, span.last_step);
        if (!first) {
            EXPECT_EQ(span.first_step, previous_last + 1);
        }
        previous_last = span.last_step;
        first = false;
        covered += span.steps;
    }
    EXPECT_EQ(covered, steps.size());
    // Group steps also account for every step.
    std::size_t grouped = 0;
    for (const auto &group : ols.phases())
        grouped += group.steps;
    EXPECT_EQ(grouped, steps.size());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, OlsPartitionProperty,
                         ::testing::Values(0.0, 0.3, 0.5, 0.7,
                                           0.9, 1.0));

} // namespace
} // namespace tpupoint
