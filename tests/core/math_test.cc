/** @file Vector and matrix primitives used by clustering/PCA. */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/math.hh"
#include "core/rng.hh"

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
    // Every row count 0..9 and dimension 0..9, so the four-row
    // sweeps, the row tail and the element tail all run; each output
    // equals the single-pair kernel bit for bit, and nothing past
    // out[count) is written.
    Rng rng(17);
    // Gaussian values across forty binary orders of magnitude, so
    // the sums round differently in different orders.
    auto draw = [&rng] {
        const int scale = static_cast<int>(rng.nextBounded(40)) - 20;
        return rng.gaussian(0, 1) * std::ldexp(1.0, scale);
    };
    for (std::size_t count = 0; count <= 9; ++count) {
        for (std::size_t dim = 0; dim <= 9; ++dim) {
            SCOPED_TRACE("count " + std::to_string(count) + " dim " +
                         std::to_string(dim));
            std::vector<double> rows(count * dim), a(dim);
            for (double &x : rows)
                x = draw();
            for (double &x : a)
                x = draw();
            std::vector<double> out(count + 1, -1.0);
            squaredDistancesN(a.data(), rows.data(), count, dim,
                              out.data());
            for (std::size_t j = 0; j < count; ++j)
                EXPECT_EQ(out[j], squaredDistanceN(
                                      a.data(), rows.data() + j * dim,
                                      dim));
            EXPECT_EQ(out[count], -1.0);

            // The point inside the block, as the eps-graph pass calls
            // it: row p against rows p.. of the same block.
            for (std::size_t p = 0; p < count; ++p) {
                const double *point = rows.data() + p * dim;
                squaredDistancesN(point, point, count - p, dim,
                                  out.data());
                for (std::size_t j = p; j < count; ++j)
                    EXPECT_EQ(out[j - p],
                              squaredDistanceN(
                                  rows.data() + j * dim, point, dim));
                EXPECT_EQ(out[0], 0.0);
            }
        }
    }
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
