/** @file Feature extraction: dimensions, normalization, PCA cap. */

#include <gtest/gtest.h>

#include "analyzer/features.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::makeRecord;
using testutil::makeStep;

TEST(FeaturesTest, TwoDimensionsPerOp)
{
    auto record = makeRecord({makeStep(0, {"fusion", "MatMul"}),
                              makeStep(1, {"fusion"})});
    const StepTable table = StepTable::fromRecords({record});
    const FeatureMatrix features = FeatureMatrix::build(table);
    // 2 distinct ops x (count, duration) = 4 dims.
    EXPECT_EQ(features.dimensions(), 4u);
    EXPECT_EQ(features.matrix().rows(), 2u);
    EXPECT_FALSE(features.pcaApplied());
    EXPECT_EQ(features.rawDimensions().size(), 2u);
}

TEST(FeaturesTest, CountsOnlyOption)
{
    auto record = makeRecord({makeStep(0, {"fusion", "MatMul"})});
    const StepTable table = StepTable::fromRecords({record});
    FeatureOptions options;
    options.include_durations = false;
    const FeatureMatrix features =
        FeatureMatrix::build(table, options);
    EXPECT_EQ(features.dimensions(), 2u);
}

TEST(FeaturesTest, MissingOpsAreZero)
{
    auto record = makeRecord({makeStep(0, {"fusion", "MatMul"}),
                              makeStep(1, {"fusion"})});
    const StepTable table = StepTable::fromRecords({record});
    FeatureOptions options;
    options.normalize = false;
    const FeatureMatrix features =
        FeatureMatrix::build(table, options);
    // Step 1 lacks MatMul: some dimension must be exactly zero.
    const Matrix &data = features.matrix();
    bool has_zero = false;
    for (std::size_t c = 0; c < data.cols(); ++c)
        has_zero |= data.at(1, c) == 0.0;
    EXPECT_TRUE(has_zero);
}

TEST(FeaturesTest, NormalizationBoundsDimensions)
{
    auto record = makeRecord({makeStep(0, {"fusion"}),
                              makeStep(1, {"fusion"})});
    const StepTable table = StepTable::fromRecords({record});
    const FeatureMatrix features = FeatureMatrix::build(table);
    const Matrix &data = features.matrix();
    for (std::size_t r = 0; r < data.rows(); ++r)
        for (std::size_t c = 0; c < data.cols(); ++c) {
            EXPECT_GE(data.at(r, c), -1.0);
            EXPECT_LE(data.at(r, c), 1.0);
        }
}

TEST(FeaturesTest, PcaCapsDimensions)
{
    // Manufacture steps with many distinct op labels.
    std::vector<testutil::SyntheticStep> steps;
    for (StepId s = 0; s < 20; ++s) {
        std::vector<std::string> ops;
        for (int i = 0; i < 40; ++i)
            ops.push_back("op_" + std::to_string(i) + "_" +
                          std::to_string(s % 4));
        steps.push_back(makeStep(s, ops));
    }
    const StepTable table =
        StepTable::fromRecords({makeRecord(steps)});
    FeatureOptions options;
    options.max_dimensions = 10;
    const FeatureMatrix features =
        FeatureMatrix::build(table, options);
    EXPECT_TRUE(features.pcaApplied());
    EXPECT_LE(features.dimensions(), 10u);
    EXPECT_EQ(features.matrix().rows(), 20u);
}

TEST(FeaturesTest, PaperDefaultCapIsOneHundred)
{
    EXPECT_EQ(FeatureOptions{}.max_dimensions, 100u);
}

TEST(FeaturesTest, EmptyTable)
{
    const StepTable table = StepTable::fromRecords({});
    const FeatureMatrix features = FeatureMatrix::build(table);
    EXPECT_EQ(features.matrix().rows(), 0u);
    EXPECT_EQ(features.dimensions(), 0u);
}

} // namespace
} // namespace tpupoint
