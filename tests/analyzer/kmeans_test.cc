/** @file k-means clustering and the k-sweep. */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "analyzer/kmeans.hh"

namespace tpupoint {
namespace {

/** Three well-separated blobs in 2-D. */
Matrix
threeBlobs(int per_blob = 40)
{
    Rng rng(1);
    const double centers[3][2] = {{0, 0}, {50, 0}, {0, 50}};
    std::vector<FeatureVector> points;
    for (const auto &center : centers) {
        for (int i = 0; i < per_blob; ++i) {
            points.push_back({center[0] + rng.gaussian(0, 1),
                              center[1] + rng.gaussian(0, 1)});
        }
    }
    return Matrix::fromRows(points);
}

TEST(KMeansTest, SeparatesObviousBlobs)
{
    const auto points = threeBlobs();
    Rng rng(2);
    const KMeansResult result = kMeansCluster(points, 3, rng);
    EXPECT_EQ(result.k, 3);
    // Each blob maps to exactly one label.
    for (int blob = 0; blob < 3; ++blob) {
        std::set<int> labels;
        for (int i = 0; i < 40; ++i)
            labels.insert(result.labels[
                static_cast<std::size_t>(blob * 40 + i)]);
        EXPECT_EQ(labels.size(), 1u);
    }
    // SSD is tiny compared to the blob separation.
    EXPECT_LT(result.ssd, 120 * 10.0);
}

TEST(KMeansTest, KOneCentroidIsTheMean)
{
    const Matrix points = Matrix::fromRows({{0, 0}, {2, 2}, {4, 4}});
    Rng rng(3);
    const KMeansResult result = kMeansCluster(points, 1, rng);
    ASSERT_EQ(result.centroids.size(), 1u);
    EXPECT_NEAR(result.centroids[0][0], 2.0, 1e-9);
    EXPECT_NEAR(result.centroids[0][1], 2.0, 1e-9);
}

TEST(KMeansTest, KClampedToPointCount)
{
    const Matrix points = Matrix::fromRows({{1}, {2}});
    Rng rng(4);
    const KMeansResult result = kMeansCluster(points, 10, rng);
    EXPECT_EQ(result.k, 2);
}

TEST(KMeansTest, EmptyDataRejected)
{
    Rng rng(5);
    EXPECT_THROW(kMeansCluster(Matrix{}, 2, rng), std::runtime_error);
}

TEST(KMeansTest, DeterministicGivenSeed)
{
    const auto points = threeBlobs();
    Rng a(6), b(6);
    const KMeansResult ra = kMeansCluster(points, 4, a);
    const KMeansResult rb = kMeansCluster(points, 4, b);
    EXPECT_EQ(ra.labels, rb.labels);
    EXPECT_EQ(ra.ssd, rb.ssd);
}

TEST(KMeansSweepTest, SsdDecreasesAndElbowFindsBlobCount)
{
    const auto points = threeBlobs();
    const KMeansSweep sweep = kMeansSweep(points, 1, 10);
    ASSERT_EQ(sweep.ssd_curve.size(), 10u);
    // SSD is (weakly) decreasing in k for well-separated data.
    EXPECT_GT(sweep.ssd_curve[0], sweep.ssd_curve[2]);
    EXPECT_GT(sweep.ssd_curve[2], sweep.ssd_curve[9] - 1e-9);
    // The elbow lands on the true cluster count.
    EXPECT_EQ(sweep.elbow_k, 3);
    EXPECT_EQ(sweep.best.k, 3);
}

TEST(KMeansSweepTest, InvalidRangeRejected)
{
    const auto points = threeBlobs(5);
    EXPECT_THROW(kMeansSweep(points, 0, 5), std::runtime_error);
    EXPECT_THROW(kMeansSweep(points, 5, 2), std::runtime_error);
}

TEST(KMeansTest, IdenticalPointsDegenerate)
{
    const Matrix points = Matrix::fromRows(
        std::vector<FeatureVector>(20, FeatureVector{3, 3}));
    Rng rng(7);
    const KMeansResult result = kMeansCluster(points, 3, rng);
    EXPECT_EQ(result.ssd, 0.0);
}

} // namespace
} // namespace tpupoint
