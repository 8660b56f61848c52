/** @file DBSCAN clustering and the min-samples sweep. */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "analyzer/dbscan.hh"
#include "core/rng.hh"

namespace tpupoint {
namespace {

/** Two dense blobs plus a few stragglers. */
Matrix
blobsWithNoise()
{
    Rng rng(1);
    std::vector<FeatureVector> points;
    for (int i = 0; i < 50; ++i)
        points.push_back({rng.gaussian(0, 0.5),
                          rng.gaussian(0, 0.5)});
    for (int i = 0; i < 50; ++i)
        points.push_back({rng.gaussian(20, 0.5),
                          rng.gaussian(20, 0.5)});
    // Stragglers far from both blobs.
    points.push_back({100, -100});
    points.push_back({-100, 100});
    points.push_back({60, 60});
    return Matrix::fromRows(points);
}

TEST(DbscanTest, FindsBlobsAndMarksNoise)
{
    const auto points = blobsWithNoise();
    const DbscanResult result = dbscanCluster(points, 3.0, 5);
    EXPECT_EQ(result.clusters, 2);
    EXPECT_EQ(result.noise_points, 3u);
    EXPECT_NEAR(result.noise_ratio, 3.0 / 103.0, 1e-9);
    // Both blobs are internally consistent.
    std::set<int> first_blob, second_blob;
    for (int i = 0; i < 50; ++i) {
        first_blob.insert(result.labels[
            static_cast<std::size_t>(i)]);
        second_blob.insert(result.labels[
            static_cast<std::size_t>(50 + i)]);
    }
    EXPECT_EQ(first_blob.size(), 1u);
    EXPECT_EQ(second_blob.size(), 1u);
    EXPECT_NE(*first_blob.begin(), *second_blob.begin());
    // Stragglers carry the noise label.
    EXPECT_EQ(result.labels[100], kDbscanNoise);
}

TEST(DbscanTest, HighMinSamplesTurnsEverythingToNoise)
{
    const auto points = blobsWithNoise();
    const DbscanResult result = dbscanCluster(points, 3.0, 80);
    EXPECT_EQ(result.clusters, 0);
    EXPECT_EQ(result.noise_points, points.rows());
    EXPECT_DOUBLE_EQ(result.noise_ratio, 1.0);
}

TEST(DbscanTest, HugeEpsMakesOneCluster)
{
    const auto points = blobsWithNoise();
    const DbscanResult result = dbscanCluster(points, 1e6, 5);
    EXPECT_EQ(result.clusters, 1);
    EXPECT_EQ(result.noise_points, 0u);
}

TEST(DbscanTest, ParameterValidation)
{
    const Matrix points = Matrix::fromRows({{0}});
    EXPECT_THROW(dbscanCluster(points, 0.0, 5),
                 std::runtime_error);
    EXPECT_THROW(dbscanCluster(points, 1.0, 0),
                 std::runtime_error);
}

TEST(DbscanTest, SuggestEpsCoversClusterScale)
{
    const auto points = blobsWithNoise();
    const double eps = suggestEps(points);
    // Big enough to knit a dense blob, far smaller than the
    // blob separation.
    EXPECT_GT(eps, 0.1);
    EXPECT_LT(eps, 20.0);
}

TEST(DbscanSweepTest, NoiseGrowsWithMinSamples)
{
    const auto points = blobsWithNoise();
    const DbscanSweep sweep = dbscanSweep(points, 3.0, 5, 105, 25);
    ASSERT_EQ(sweep.min_samples_values.size(), 5u);
    // Noise ratio is monotonically non-decreasing in min_samples.
    for (std::size_t i = 1; i < sweep.noise_curve.size(); ++i)
        EXPECT_GE(sweep.noise_curve[i] + 1e-12,
                  sweep.noise_curve[i - 1]);
    // Paper sweep convention: 5..180 step 25.
    EXPECT_EQ(sweep.min_samples_values[0], 5u);
    EXPECT_EQ(sweep.min_samples_values[1], 30u);
    EXPECT_GT(sweep.elbow_min_samples, 0u);
}

TEST(DbscanSweepTest, ZeroStrideRejected)
{
    const Matrix points = Matrix::fromRows({{0}, {1}});
    EXPECT_THROW(dbscanSweep(points, 1.0, 5, 50, 0),
                 std::runtime_error);
}

TEST(DbscanTest, BorderPointsJoinCluster)
{
    // A line of points each within eps of the next: core points
    // chain, endpoints become border members.
    Matrix points(10, 2);
    for (std::size_t i = 0; i < 10; ++i)
        points.at(i, 0) = static_cast<double>(i);
    const DbscanResult result = dbscanCluster(points, 1.5, 3);
    EXPECT_EQ(result.clusters, 1);
    EXPECT_EQ(result.noise_points, 0u);
}

} // namespace
} // namespace tpupoint
