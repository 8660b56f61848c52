/** @file DBSCAN clustering and the min-samples sweep. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>

#include "analyzer/dbscan.hh"
#include "analyzer/elbow.hh"
#include "core/rng.hh"
#include "core/thread_pool.hh"

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

// ---------------------------------------------------------------
// Differential oracle: the classic region-query DBSCAN and the
// sqrt-every-distance eps suggestion, kept verbatim as the
// reference the graph-based implementation must match bit for bit.
// ---------------------------------------------------------------
namespace oracle {

std::vector<std::size_t>
regionQuery(const Matrix &points, std::size_t center, double eps2)
{
    const double *c = points.rowPtr(center);
    const std::size_t dim = points.cols();
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < points.rows(); ++i) {
        if (squaredDistanceN(c, points.rowPtr(i), dim) <= eps2)
            out.push_back(i);
    }
    return out;
}

DbscanResult
cluster(const Matrix &points, double eps, std::size_t min_samples)
{
    const std::size_t rows = points.rows();
    DbscanResult result;
    result.eps = eps;
    result.min_samples = min_samples;
    const double eps2 = eps * eps;
    constexpr int kUnvisited = -2;
    result.labels.assign(rows, kUnvisited);
    int next_cluster = 0;
    for (std::size_t i = 0; i < rows; ++i) {
        if (result.labels[i] != kUnvisited)
            continue;
        std::vector<std::size_t> neighbours =
            regionQuery(points, i, eps2);
        if (neighbours.size() < min_samples) {
            result.labels[i] = kDbscanNoise;
            continue;
        }
        const int c = next_cluster++;
        result.labels[i] = c;
        std::deque<std::size_t> frontier(neighbours.begin(),
                                         neighbours.end());
        while (!frontier.empty()) {
            const std::size_t p = frontier.front();
            frontier.pop_front();
            if (result.labels[p] == kDbscanNoise)
                result.labels[p] = c;
            if (result.labels[p] != kUnvisited)
                continue;
            result.labels[p] = c;
            std::vector<std::size_t> p_neighbours =
                regionQuery(points, p, eps2);
            if (p_neighbours.size() >= min_samples) {
                frontier.insert(frontier.end(),
                                p_neighbours.begin(),
                                p_neighbours.end());
            }
        }
    }
    result.clusters = next_cluster;
    for (const int label : result.labels)
        if (label == kDbscanNoise)
            ++result.noise_points;
    result.noise_ratio = rows == 0 ? 0.0
        : static_cast<double>(result.noise_points) /
            static_cast<double>(rows);
    return result;
}

double
suggestEps(const Matrix &points)
{
    const std::size_t rows = points.rows();
    if (rows < 2)
        return 1.0;
    const std::size_t dim = points.cols();
    constexpr std::size_t kth = 24;
    std::vector<double> kth_distances;
    std::vector<double> dists;
    for (std::size_t i = 0; i < rows; ++i) {
        dists.clear();
        const double *pi = points.rowPtr(i);
        for (std::size_t j = 0; j < rows; ++j) {
            if (j != i) {
                dists.push_back(std::sqrt(squaredDistanceN(
                    pi, points.rowPtr(j), dim)));
            }
        }
        const std::size_t k = std::min(kth, dists.size()) - 1;
        std::nth_element(dists.begin(), dists.begin() +
                         static_cast<std::ptrdiff_t>(k),
                         dists.end());
        kth_distances.push_back(dists[k]);
    }
    std::sort(kth_distances.begin(), kth_distances.end());
    const std::size_t p90 = (kth_distances.size() * 9) / 10;
    const double eps = 1.5 *
        kth_distances[std::min(p90, kth_distances.size() - 1)];
    return eps > 0 ? eps : 1.0;
}

} // namespace oracle

/** Seeded gaussian blobs plus uniform stragglers; ~10% of the rows
 *  repeat an earlier row exactly. */
Matrix
randomSet(std::uint64_t seed, std::size_t rows, std::size_t dims)
{
    Rng rng(seed);
    const std::size_t blobs = 1 + rng.nextBounded(4);
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
            const double spread = rng.uniform(0.2, 2.0);
            for (std::size_t d = 0; d < dims; ++d)
                p[d] = rng.gaussian(c[d], spread);
        }
        points.push_back(p);
    }
    return Matrix::fromRows(points);
}

/** Seeded uniform 2-D scatter at about three points per unit
 *  square: at eps 1 and small min-samples it splits into many small
 *  clusters that share border points, so the lowest-cluster-id
 *  rule is exercised. */
Matrix
randomScatter(std::uint64_t seed, std::size_t rows)
{
    Rng rng(seed);
    const double side = std::sqrt(static_cast<double>(rows) / 3.0);
    Matrix points(rows, 2);
    for (std::size_t i = 0; i < rows; ++i) {
        points.at(i, 0) = rng.uniform(0, side);
        points.at(i, 1) = rng.uniform(0, side);
    }
    return points;
}

/** Points on an integer grid (with repeats): many pairs sit at
 *  exactly an integer eps, so d^2 == eps^2 decides membership. */
Matrix
integerGrid()
{
    std::vector<FeatureVector> points;
    for (int x = 0; x < 7; ++x)
        for (int y = 0; y < 5; ++y)
            if ((x * 3 + y) % 4 != 0)
                points.push_back({static_cast<double>(x * 3),
                                  static_cast<double>(y * 4)});
    points.push_back({0, 0});
    points.push_back({3, 4});
    points.push_back({3, 4});
    points.push_back({40, 40});
    return Matrix::fromRows(points);
}

void
expectSameClustering(const DbscanResult &got, const DbscanResult &want)
{
    EXPECT_EQ(got.labels, want.labels);
    EXPECT_EQ(got.clusters, want.clusters);
    EXPECT_EQ(got.noise_points, want.noise_points);
    EXPECT_EQ(got.noise_ratio, want.noise_ratio);
    EXPECT_EQ(got.eps, want.eps);
    EXPECT_EQ(got.min_samples, want.min_samples);
}

/** Every setting of [lo, hi] / stride plus the sweep itself, serial
 *  and pooled, against the oracle. */
void
expectMatchesOracle(const Matrix &points, double eps, std::size_t lo,
                    std::size_t hi, std::size_t stride,
                    ThreadPool &pool)
{
    std::vector<double> xs, noise;
    std::vector<DbscanResult> want;
    for (std::size_t m = lo; m <= hi; m += stride) {
        SCOPED_TRACE("min_samples " + std::to_string(m));
        want.push_back(oracle::cluster(points, eps, m));
        expectSameClustering(dbscanCluster(points, eps, m),
                             want.back());
        expectSameClustering(dbscanCluster(points, eps, m, &pool),
                             want.back());
        xs.push_back(static_cast<double>(m));
        noise.push_back(want.back().noise_ratio);
    }
    const std::size_t elbow = elbowIndex(xs, noise);
    std::size_t edges = 0;
    for (std::size_t i = 0; i < points.rows(); ++i)
        edges += oracle::regionQuery(points, i, eps * eps).size();

    for (ThreadPool *p : {static_cast<ThreadPool *>(nullptr), &pool}) {
        SCOPED_TRACE(p ? "pooled sweep" : "serial sweep");
        const DbscanSweep sweep =
            dbscanSweep(points, eps, lo, hi, stride, p);
        ASSERT_EQ(sweep.noise_curve.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(sweep.min_samples_values[i],
                      want[i].min_samples);
            EXPECT_EQ(sweep.noise_curve[i], want[i].noise_ratio);
            EXPECT_EQ(sweep.cluster_counts[i], want[i].clusters);
        }
        EXPECT_EQ(sweep.elbow_min_samples, want[elbow].min_samples);
        expectSameClustering(sweep.best, want[elbow]);
        EXPECT_EQ(sweep.graph_edges, edges);
    }
}

TEST(DbscanDifferentialTest, RandomSetsMatchRegionQueryOracle)
{
    ThreadPool pool(4u);
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u}) {
        const std::size_t rows = 20 + (seed * 37) % 200;
        const std::size_t dims = 1 + (seed * 5) % 9;
        SCOPED_TRACE("seed " + std::to_string(seed));
        const Matrix points = randomSet(seed, rows, dims);
        const double eps = oracle::suggestEps(points);
        EXPECT_EQ(suggestEps(points), eps);
        EXPECT_EQ(suggestEps(points, &pool), eps);
        EXPECT_EQ(dbscanSweep(points, 0.0, 5, 180, 25, &pool)
                      .best.eps,
                  eps);
        for (const double scale : {0.5, 1.0, 2.0})
            expectMatchesOracle(points, eps * scale, 1, rows + 10,
                                1 + rows / 12, pool);
        expectMatchesOracle(points, eps, 5, 180, 25, pool);
        expectMatchesOracle(randomScatter(seed, rows), 1.0, 1, 8, 1,
                            pool);
    }
}

TEST(DbscanDifferentialTest, EdgeCasesMatchRegionQueryOracle)
{
    ThreadPool pool(4u);
    {
        SCOPED_TRACE("integer grid, pairs at exactly eps");
        const Matrix grid = integerGrid();
        EXPECT_EQ(suggestEps(grid, &pool), oracle::suggestEps(grid));
        for (const double eps : {3.0, 4.0, 5.0, 8.0})
            expectMatchesOracle(grid, eps, 1, 12, 1, pool);
    }
    {
        SCOPED_TRACE("one point");
        const Matrix one = Matrix::fromRows({{0.5, -0.5}});
        EXPECT_EQ(suggestEps(one, &pool), oracle::suggestEps(one));
        expectMatchesOracle(one, 1.0, 1, 3, 1, pool);
    }
    {
        SCOPED_TRACE("fewer rows than the 24-NN rank");
        const Matrix small = randomSet(11, 10, 3);
        EXPECT_EQ(suggestEps(small, &pool),
                  oracle::suggestEps(small));
        const Matrix pair = Matrix::fromRows({{0.0}, {2.0}});
        EXPECT_EQ(suggestEps(pair, &pool), oracle::suggestEps(pair));
        // min_samples runs past the row count.
        expectMatchesOracle(small, oracle::suggestEps(small), 1, 30,
                            2, pool);
    }
    {
        SCOPED_TRACE("all duplicates");
        const Matrix same =
            Matrix::fromRows(std::vector<FeatureVector>(30, {1, 2}));
        EXPECT_EQ(suggestEps(same, &pool), oracle::suggestEps(same));
        expectMatchesOracle(same, 0.25, 1, 40, 3, pool);
    }
    {
        SCOPED_TRACE("huge eps");
        const Matrix points = randomSet(12, 60, 4);
        expectMatchesOracle(points, 1e6, 1, 70, 7, pool);
        // eps^2 overflows to infinity: every pair is in range.
        expectMatchesOracle(points, 1e200, 1, 70, 7, pool);
    }
    {
        SCOPED_TRACE("a NaN row is never in range, not even of "
                     "itself");
        Matrix points = randomSet(13, 40, 2);
        points.at(7, 1) = std::numeric_limits<double>::quiet_NaN();
        expectMatchesOracle(points, 2.0, 1, 20, 1, pool);
    }
}

TEST(DbscanDifferentialTest, SuggestEpsMatchesOracleOnEveryPool)
{
    std::vector<std::unique_ptr<ThreadPool>> pools;
    for (const unsigned workers : {1u, 2u, 3u, 8u})
        pools.push_back(std::make_unique<ThreadPool>(workers));
    auto expect_oracle_eps = [&](const Matrix &points) {
        const double want = oracle::suggestEps(points);
        EXPECT_EQ(suggestEps(points), want) << "serial";
        for (const auto &pool : pools)
            EXPECT_EQ(suggestEps(points, pool.get()), want)
                << pool->workers() << " workers";
    };
    // Fewer rows than row ranges or rounds, odd counts, and fewer
    // rows than the 24-NN rank.
    for (std::size_t rows = 2; rows <= 20; ++rows) {
        SCOPED_TRACE("rows " + std::to_string(rows));
        expect_oracle_eps(randomSet(100 + rows, rows, 1 + rows % 5));
        expect_oracle_eps(Matrix::fromRows(
            std::vector<FeatureVector>(rows, {1, 2})));
    }
    // Row counts that do not split evenly into the ranges, each
    // row repeated: many zero distances and exact ties.
    for (const std::size_t rows : {25u, 31u, 97u, 203u, 411u}) {
        SCOPED_TRACE("rows " + std::to_string(rows));
        const Matrix points = randomSet(rows, rows, 1 + rows % 7);
        expect_oracle_eps(points);
        std::vector<FeatureVector> doubled;
        for (std::size_t i = 0; i < rows; ++i)
            doubled.push_back(points.row(i / 2));
        expect_oracle_eps(Matrix::fromRows(doubled));
    }
    expect_oracle_eps(integerGrid());
}

TEST(DbscanSweepTest, InvalidRangeRejected)
{
    const Matrix points = Matrix::fromRows({{0}, {1}});
    EXPECT_THROW(dbscanSweep(points, 0.5, 200, 180, 25),
                 std::runtime_error);
    EXPECT_THROW(dbscanSweep(points, 0.5, 0, 180, 25),
                 std::runtime_error);
    // A one-setting range is valid: lo == hi.
    const DbscanSweep one = dbscanSweep(points, 0.5, 2, 2, 25);
    ASSERT_EQ(one.min_samples_values.size(), 1u);
    EXPECT_EQ(one.elbow_min_samples, 2u);
}

} // namespace
} // namespace tpupoint
