/** @file PCA via power iteration. */

#include <gtest/gtest.h>

#include <cmath>

#include "analyzer/pca.hh"

namespace tpupoint {
namespace {

TEST(PcaTest, RecoversDominantDirection)
{
    // Points spread along (1, 1)/sqrt(2) with tiny noise.
    Rng rng(1);
    std::vector<FeatureVector> points;
    for (int i = 0; i < 500; ++i) {
        const double t = rng.gaussian(0, 10);
        const double n = rng.gaussian(0, 0.1);
        points.push_back({t + n, t - n});
    }
    Rng pca_rng(2);
    const PcaModel model =
        fitPca(Matrix::fromRows(points), 1, pca_rng);
    ASSERT_EQ(model.components.size(), 1u);
    const FeatureVector &c = model.components[0];
    // Direction (up to sign) is (1, 1)/sqrt(2).
    EXPECT_NEAR(std::abs(c[0]), std::sqrt(0.5), 0.02);
    EXPECT_NEAR(std::abs(c[1]), std::sqrt(0.5), 0.02);
    EXPECT_GT(model.eigenvalues[0], 50.0);
}

TEST(PcaTest, ComponentsAreOrthonormal)
{
    Rng rng(3);
    std::vector<FeatureVector> points;
    for (int i = 0; i < 300; ++i) {
        points.push_back({rng.gaussian(0, 5), rng.gaussian(0, 2),
                          rng.gaussian(0, 1)});
    }
    Rng pca_rng(4);
    const PcaModel model =
        fitPca(Matrix::fromRows(points), 3, pca_rng);
    ASSERT_EQ(model.components.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(l2Norm(model.components[i]), 1.0, 1e-6);
        for (std::size_t j = i + 1; j < 3; ++j) {
            EXPECT_NEAR(dot(model.components[i],
                            model.components[j]),
                        0.0, 1e-3);
        }
    }
    // Eigenvalues descend.
    EXPECT_GE(model.eigenvalues[0], model.eigenvalues[1]);
    EXPECT_GE(model.eigenvalues[1], model.eigenvalues[2]);
}

TEST(PcaTest, ProjectionReducesDimension)
{
    Rng rng(5);
    std::vector<FeatureVector> points;
    for (int i = 0; i < 100; ++i) {
        FeatureVector p(10);
        for (auto &x : p)
            x = rng.nextDouble();
        points.push_back(std::move(p));
    }
    Rng pca_rng(6);
    const Matrix data = Matrix::fromRows(points);
    const PcaModel model = fitPca(data, 4, pca_rng);
    const Matrix projected = model.projectAll(data);
    ASSERT_EQ(projected.rows(), data.rows());
    ASSERT_EQ(projected.cols(), model.components.size());
    // Each cell is the centered row's dot with one component.
    FeatureVector centered = points[7];
    for (std::size_t i = 0; i < centered.size(); ++i)
        centered[i] -= model.mean[i];
    for (std::size_t c = 0; c < model.components.size(); ++c)
        EXPECT_DOUBLE_EQ(projected.at(7, c),
                         dot(model.components[c], centered));
}

TEST(PcaTest, RequestedComponentsCappedByDimension)
{
    std::vector<FeatureVector> points{{1, 2}, {3, 4}, {5, 7}};
    Rng rng(7);
    const PcaModel model =
        fitPca(Matrix::fromRows(points), 10, rng);
    EXPECT_LE(model.components.size(), 2u);
}

TEST(PcaTest, DegenerateDataStopsEarly)
{
    // All identical points: zero variance everywhere.
    std::vector<FeatureVector> points(10, FeatureVector{1, 2, 3});
    Rng rng(8);
    const PcaModel model =
        fitPca(Matrix::fromRows(points), 3, rng);
    EXPECT_TRUE(model.components.empty());
}

TEST(PcaTest, EmptyDataRejected)
{
    Rng rng(9);
    EXPECT_THROW(fitPca(Matrix{}, 2, rng), std::runtime_error);
}

} // namespace
} // namespace tpupoint
