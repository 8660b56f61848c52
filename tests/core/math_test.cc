/** @file Vector and matrix primitives used by clustering/PCA. */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/math.hh"

namespace tpupoint {
namespace {

TEST(VectorMathTest, DotAndNorm)
{
    const FeatureVector a{1, 2, 3};
    const FeatureVector b{4, 5, 6};
    EXPECT_EQ(dot(a, b), 32.0);
    EXPECT_DOUBLE_EQ(l2Norm({3, 4}), 5.0);
}

TEST(VectorMathTest, DotDimensionMismatchPanics)
{
    EXPECT_THROW(dot({1, 2}, {1, 2, 3}), std::logic_error);
}

TEST(VectorMathTest, Distances)
{
    const double origin[] = {0, 0};
    const double p[] = {3, 4};
    EXPECT_EQ(squaredDistanceN(origin, p, 2), 25.0);
    EXPECT_EQ(squaredDistanceN(p, p, 2), 0.0);
    // Past the unrolled block: 5 dimensions, one tail element.
    const double a[] = {1, 2, 3, 4, 5};
    const double b[] = {0, 0, 0, 0, 0};
    EXPECT_EQ(squaredDistanceN(a, b, 5), 55.0);
}

TEST(VectorMathTest, DistancesToRowBlockMatchPairwise)
{
    // Three 5-dimensional rows, so the unrolled block and the tail
    // both run; each output equals the single-pair kernel exactly.
    const double a[] = {0.1, -2.5, 3.25, 7.0, 1e-3};
    const double rows[] = {1, 2, 3, 4, 5,
                           -0.1, 2.5, -3.25, -7.0, -1e-3,
                           0.1, -2.5, 3.25, 7.0, 1e-3};
    double out[3];
    squaredDistancesN(a, rows, 3, 5, out);
    for (std::size_t j = 0; j < 3; ++j)
        EXPECT_EQ(out[j], squaredDistanceN(a, rows + j * 5, 5));
    EXPECT_EQ(out[2], 0.0);
}

TEST(VectorMathTest, AddAndScaleInPlace)
{
    FeatureVector a{1, 2};
    const double b[] = {3, 4};
    addN(a.data(), b, a.size());
    EXPECT_EQ(a[0], 4.0);
    EXPECT_EQ(a[1], 6.0);
    scaleInPlace(a, 0.5);
    EXPECT_EQ(a[0], 2.0);
    EXPECT_EQ(a[1], 3.0);
}

TEST(VectorMathTest, NormalizeHandlesZeroVector)
{
    FeatureVector z{0, 0, 0};
    normalizeInPlace(z);
    EXPECT_EQ(z[0], 0.0);
    FeatureVector v{0, 3, 4};
    normalizeInPlace(v);
    EXPECT_NEAR(l2Norm(v), 1.0, 1e-12);
}

TEST(MatrixTest, MultiplyAndTranspose)
{
    Matrix m(2, 3);
    // [1 2 3; 4 5 6]
    int value = 1;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            m.at(r, c) = value++;
    const FeatureVector result = m.multiply({1, 1, 1});
    ASSERT_EQ(result.size(), 2u);
    EXPECT_EQ(result[0], 6.0);
    EXPECT_EQ(result[1], 15.0);

    const Matrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_EQ(t.at(2, 1), 6.0);
}

TEST(MatrixTest, OutOfRangeAccessPanics)
{
    Matrix m(2, 2);
    EXPECT_THROW(m.at(2, 0), std::logic_error);
    EXPECT_THROW(m.multiply({1, 2, 3}), std::logic_error);
}

TEST(MatrixTest, CovarianceOfKnownData)
{
    // Two perfectly correlated dimensions.
    const std::vector<FeatureVector> data{
        {1, 2}, {2, 4}, {3, 6}};
    const Matrix cov = Matrix::covariance(Matrix::fromRows(data));
    // var(x) = 2/3, var(y) = 8/3, cov = 4/3.
    EXPECT_NEAR(cov.at(0, 0), 2.0 / 3.0, 1e-12);
    EXPECT_NEAR(cov.at(1, 1), 8.0 / 3.0, 1e-12);
    EXPECT_NEAR(cov.at(0, 1), 4.0 / 3.0, 1e-12);
    EXPECT_NEAR(cov.at(1, 0), cov.at(0, 1), 1e-12);
}

TEST(MatrixTest, CovarianceRejectsBadInput)
{
    EXPECT_THROW(Matrix::covariance(Matrix{}), std::runtime_error);
    // Ragged rows never reach covariance: packing them is a
    // programming error.
    EXPECT_THROW(Matrix::fromRows({{1, 2}, {1}}), std::logic_error);
}

} // namespace
} // namespace tpupoint
