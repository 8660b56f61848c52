/** @file k-means clustering and the k-sweep. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "analyzer/elbow.hh"
#include "analyzer/kmeans.hh"
#include "core/thread_pool.hh"

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

// ---------------------------------------------------------------
// Differential oracle: plain Lloyd's algorithm with k-means++
// seeding, every point scanning every centroid on every iteration,
// kept verbatim as the reference the bounded implementation must
// match bit for bit.
// ---------------------------------------------------------------
namespace oracle {

std::vector<FeatureVector>
seedCentroids(const Matrix &points, int k, Rng &rng)
{
    const std::size_t rows = points.rows();
    const std::size_t dim = points.cols();
    std::vector<FeatureVector> centroids;
    centroids.reserve(static_cast<std::size_t>(k));
    centroids.push_back(points.row(rng.nextBounded(rows)));

    std::vector<double> dist2(rows,
                              std::numeric_limits<double>::max());
    while (centroids.size() < static_cast<std::size_t>(k)) {
        double total = 0.0;
        for (std::size_t i = 0; i < rows; ++i) {
            dist2[i] = std::min(
                dist2[i],
                squaredDistanceN(points.rowPtr(i),
                                 centroids.back().data(), dim));
            total += dist2[i];
        }
        if (total == 0.0) {
            centroids.push_back(points.row(rng.nextBounded(rows)));
            continue;
        }
        double target = rng.nextDouble() * total;
        std::size_t chosen = rows - 1;
        for (std::size_t i = 0; i < rows; ++i) {
            target -= dist2[i];
            if (target <= 0) {
                chosen = i;
                break;
            }
        }
        centroids.push_back(points.row(chosen));
    }
    return centroids;
}

KMeansResult
cluster(const Matrix &points, int k, Rng &rng, int max_iterations = 100)
{
    const std::size_t rows = points.rows();
    k = std::max(1, std::min<int>(k, static_cast<int>(rows)));
    KMeansResult result;
    result.k = k;
    result.centroids = seedCentroids(points, k, rng);
    result.labels.assign(rows, 0);

    const std::size_t dim = points.cols();
    for (int iter = 0; iter < max_iterations; ++iter) {
        bool changed = false;
        for (std::size_t i = 0; i < rows; ++i) {
            const double *point = points.rowPtr(i);
            int best = 0;
            double best_d = squaredDistanceN(
                point, result.centroids[0].data(), dim);
            for (int c = 1; c < k; ++c) {
                const double d = squaredDistanceN(
                    point,
                    result.centroids[static_cast<std::size_t>(c)]
                        .data(),
                    dim);
                if (d < best_d) {
                    best_d = d;
                    best = c;
                }
            }
            if (result.labels[i] != best) {
                result.labels[i] = best;
                changed = true;
            }
        }
        result.iterations = iter + 1;
        if (!changed && iter > 0)
            break;

        std::vector<FeatureVector> sums(
            static_cast<std::size_t>(k), FeatureVector(dim, 0.0));
        std::vector<std::size_t> counts(
            static_cast<std::size_t>(k), 0);
        for (std::size_t i = 0; i < rows; ++i) {
            const auto label =
                static_cast<std::size_t>(result.labels[i]);
            addN(sums[label].data(), points.rowPtr(i), dim);
            ++counts[label];
        }
        for (int c = 0; c < k; ++c) {
            const auto uc = static_cast<std::size_t>(c);
            if (counts[uc] == 0)
                continue;
            scaleInPlace(sums[uc],
                         1.0 / static_cast<double>(counts[uc]));
            result.centroids[uc] = std::move(sums[uc]);
        }
    }

    result.ssd = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
        result.ssd += squaredDistanceN(
            points.rowPtr(i),
            result.centroids[static_cast<std::size_t>(
                result.labels[i])].data(),
            dim);
    }
    return result;
}

} // namespace oracle

/** The bit pattern of @p v, so NaN results compare too. */
std::uint64_t
bits(double v)
{
    std::uint64_t out = 0;
    std::memcpy(&out, &v, sizeof(out));
    return out;
}

void
expectSameClustering(const KMeansResult &got, const KMeansResult &want)
{
    EXPECT_EQ(got.k, want.k);
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(bits(got.ssd), bits(want.ssd));
    EXPECT_EQ(got.iterations, want.iterations);
    ASSERT_EQ(got.centroids.size(), want.centroids.size());
    for (std::size_t c = 0; c < want.centroids.size(); ++c) {
        ASSERT_EQ(got.centroids[c].size(), want.centroids[c].size());
        for (std::size_t d = 0; d < want.centroids[c].size(); ++d)
            EXPECT_EQ(bits(got.centroids[c][d]),
                      bits(want.centroids[c][d]))
                << "centroid " << c << " dim " << d;
    }
}

/** kMeansCluster against the oracle for every k in [1, k_max]. */
void
expectClustersMatchOracle(const Matrix &points, int k_max,
                          int max_iterations = 100)
{
    for (int k = 1; k <= k_max; ++k) {
        SCOPED_TRACE("k " + std::to_string(k) + " max_iterations " +
                     std::to_string(max_iterations));
        Rng a(900 + static_cast<std::uint64_t>(k));
        Rng b(900 + static_cast<std::uint64_t>(k));
        expectSameClustering(
            kMeansCluster(points, k, a, max_iterations),
            oracle::cluster(points, k, b, max_iterations));
        // Both consumed the same seeding draws.
        EXPECT_EQ(a.nextU64(), b.nextU64());
    }
}

/** kMeansSweep, serial and on pools of 1, 2, 3 and 8 workers,
 *  against per-k oracle runs and the elbow rule. */
void
expectSweepMatchesOracle(const Matrix &points, int k_min, int k_max)
{
    const std::uint64_t seed = 0x5eedULL;
    std::vector<KMeansResult> want;
    std::vector<double> ks, ssd;
    for (int k = k_min; k <= k_max; ++k) {
        Rng rng(seed + static_cast<std::uint64_t>(k));
        want.push_back(oracle::cluster(points, k, rng));
        ks.push_back(static_cast<double>(k));
        ssd.push_back(want.back().ssd);
    }
    const std::size_t elbow = elbowIndex(ks, ssd);

    std::vector<std::unique_ptr<ThreadPool>> pools;
    pools.push_back(nullptr);
    for (const unsigned workers : {1u, 2u, 3u, 8u})
        pools.push_back(std::make_unique<ThreadPool>(workers));
    for (const auto &pool : pools) {
        SCOPED_TRACE(pool ? std::to_string(pool->workers()) +
                                " workers"
                          : std::string("serial"));
        const KMeansSweep sweep =
            kMeansSweep(points, k_min, k_max, seed, pool.get());
        ASSERT_EQ(sweep.ssd_curve.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(sweep.k_values[i], k_min + static_cast<int>(i));
            EXPECT_EQ(bits(sweep.ssd_curve[i]), bits(want[i].ssd));
        }
        EXPECT_EQ(sweep.elbow_k, k_min + static_cast<int>(elbow));
        expectSameClustering(sweep.best, want[elbow]);
    }
}

/** Seeded gaussian blobs plus uniform stragglers; ~10% of the rows
 *  repeat an earlier row exactly. */
Matrix
randomSet(std::uint64_t seed, std::size_t rows, std::size_t dims)
{
    Rng rng(seed);
    const std::size_t blobs = 1 + rng.nextBounded(6);
    std::vector<FeatureVector> centers;
    for (std::size_t b = 0; b < blobs; ++b) {
        FeatureVector c(dims);
        for (double &x : c)
            x = rng.uniform(-10, 10);
        centers.push_back(c);
    }
    std::vector<FeatureVector> points;
    for (std::size_t i = 0; i < rows; ++i) {
        if (i > 0 && rng.bernoulli(0.1)) {
            points.push_back(points[rng.nextBounded(i)]);
            continue;
        }
        FeatureVector p(dims);
        if (rng.bernoulli(0.1)) {
            for (double &x : p)
                x = rng.uniform(-30, 30);
        } else {
            const FeatureVector &c = centers[rng.nextBounded(blobs)];
            const double spread = rng.uniform(0.2, 4.0);
            for (std::size_t d = 0; d < dims; ++d)
                p[d] = rng.gaussian(c[d], spread);
        }
        points.push_back(p);
    }
    return Matrix::fromRows(points);
}

/** Points on an integer lattice: many points sit at exactly equal
 *  squared distance from two seeds or means. */
Matrix
integerGrid(int width, int height)
{
    std::vector<FeatureVector> points;
    for (int x = 0; x < width; ++x)
        for (int y = 0; y < height; ++y)
            points.push_back({static_cast<double>(x * 2),
                              static_cast<double>(y * 2)});
    return Matrix::fromRows(points);
}

TEST(KMeansDifferentialTest, RandomSetsMatchLloydOracle)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
        const std::size_t rows = 20 + (seed * 53) % 280;
        const std::size_t dims = 1 + (seed * 5) % 13;
        SCOPED_TRACE("seed " + std::to_string(seed) + " rows " +
                     std::to_string(rows) + " dims " +
                     std::to_string(dims));
        const Matrix points = randomSet(seed, rows, dims);
        expectClustersMatchOracle(points, 15);
        expectSweepMatchesOracle(points, 1, 15);
    }
}

TEST(KMeansDifferentialTest, EdgeCasesMatchLloydOracle)
{
    {
        SCOPED_TRACE("all rows duplicate");
        const Matrix same = Matrix::fromRows(
            std::vector<FeatureVector>(25, FeatureVector{1, -2, 3}));
        expectClustersMatchOracle(same, 6);
        expectSweepMatchesOracle(same, 1, 6);
    }
    {
        SCOPED_TRACE("three distinct rows, more clusters: duplicate "
                     "centroids tie every point and empty out");
        std::vector<FeatureVector> rows;
        for (int i = 0; i < 30; ++i)
            rows.push_back({static_cast<double>(i % 3) * 5.0, 1.0});
        const Matrix few = Matrix::fromRows(rows);
        expectClustersMatchOracle(few, 8);
        expectSweepMatchesOracle(few, 1, 8);
        Rng rng(7);
        const KMeansResult r = kMeansCluster(few, 6, rng);
        const std::set<int> used(r.labels.begin(), r.labels.end());
        EXPECT_LT(used.size(), 6u) << "no cluster emptied out";
    }
    {
        SCOPED_TRACE("integer lattices: exact distance ties");
        for (const auto &[w, h] :
             {std::pair{7, 5}, std::pair{4, 4}, std::pair{9, 1}})
            expectClustersMatchOracle(integerGrid(w, h), 12);
        expectSweepMatchesOracle(integerGrid(6, 6), 1, 15);
    }
    {
        SCOPED_TRACE("a NaN row");
        Matrix points = randomSet(21, 60, 3);
        points.at(17, 1) = std::numeric_limits<double>::quiet_NaN();
        expectClustersMatchOracle(points, 8);
        expectSweepMatchesOracle(points, 1, 8);
    }
    {
        SCOPED_TRACE("coordinates near 1e154: some squared distances "
                     "overflow to infinity");
        Matrix points = randomSet(25, 80, 3);
        for (std::size_t i = 0; i < points.rows(); ++i)
            scaleN(points.rowPtr(i), 0x1p511, points.cols());
        expectClustersMatchOracle(points, 10);
    }
    {
        SCOPED_TRACE("k == rows and beyond");
        const Matrix points = randomSet(22, 12, 4);
        expectClustersMatchOracle(points, 14);
    }
    {
        SCOPED_TRACE("a single column");
        const Matrix line = randomSet(23, 150, 1);
        expectClustersMatchOracle(line, 15);
        expectSweepMatchesOracle(line, 1, 15);
    }
    {
        SCOPED_TRACE("one row");
        expectClustersMatchOracle(Matrix::fromRows({{4.0, 2.0}}), 3);
    }
    {
        SCOPED_TRACE("iteration caps");
        const Matrix points = randomSet(24, 200, 6);
        for (const int cap : {0, 1, 2, 3})
            expectClustersMatchOracle(points, 15, cap);
    }
}

} // namespace
} // namespace tpupoint
