#include "analyzer/kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analyzer/elbow.hh"
#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "runtime/pool_map.hh"

namespace tpupoint {

namespace {

/**
 * k-means++ initial centroid selection over row-major data, as one
 * row-major k x cols block.
 */
std::vector<double>
seedCentroids(const Matrix &points, std::size_t k, Rng &rng)
{
    const std::size_t rows = points.rows();
    const std::size_t dim = points.cols();
    const double *base = points.rowPtr(0);
    std::vector<double> centroids(k * dim);
    auto take = [&](std::size_t c, std::size_t row) {
        std::copy(base + row * dim, base + (row + 1) * dim,
                  centroids.begin() +
                      static_cast<std::ptrdiff_t>(c * dim));
    };
    take(0, rng.nextBounded(rows));

    std::vector<double> dist2(rows,
                              std::numeric_limits<double>::max());
    std::vector<double> latest(rows);
    for (std::size_t c = 1; c < k; ++c) {
        // Distances to the newest centroid; d(c, p) == d(p, c) bit
        // for bit.
        squaredDistancesN(centroids.data() + (c - 1) * dim, base, rows,
                          dim, latest.data());
        double total = 0.0;
        for (std::size_t i = 0; i < rows; ++i) {
            dist2[i] = std::min(dist2[i], latest[i]);
            total += dist2[i];
        }
        if (total == 0.0) {
            // All remaining points coincide with centroids.
            take(c, rng.nextBounded(rows));
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
        take(c, chosen);
    }
    return centroids;
}

/**
 * Conservative Euclidean distance bounds from computed squared
 * distances (see DESIGN.md §11). A squared distance over dim terms
 * is within (dim + 2) ulps (relative) of the exact value, plus an
 * absolute error far below 2^-1000 from subnormal terms; `rel` and
 * `kAbs` cover that, the square root, the bound arithmetic and the
 * comparison margin with room to spare.
 */
struct DistanceBounds
{
    static constexpr double kAbs = 0x1p-500;
    double rel;

    explicit DistanceBounds(std::size_t dim)
        : rel(4.0 * static_cast<double>(dim + 4) *
              std::numeric_limits<double>::epsilon())
    {
    }

    /** At least the exact distance, plus the comparison margin. */
    double
    upper(double squared) const
    {
        return std::sqrt(squared) * (1.0 + rel) + 2.0 * kAbs;
    }

    /** At most the exact distance. */
    double
    lower(double squared) const
    {
        return std::sqrt(squared) * (1.0 - rel) - kAbs;
    }

    /** An upper bound moved away by @p drift, rounded up. */
    double
    grow(double bound, double drift) const
    {
        return (bound + drift) * (1.0 + rel);
    }

    /** A lower bound moved closer by @p drift, rounded down. */
    double
    shrink(double bound, double drift) const
    {
        return (bound - drift) * (1.0 - rel);
    }
};

} // namespace

KMeansResult
kMeansCluster(const Matrix &points, int k, Rng &rng,
              int max_iterations)
{
    const std::size_t rows = points.rows();
    if (rows == 0)
        fatal("kMeansCluster: empty data set");
    k = std::max(1,
                 std::min<int>(k, static_cast<int>(rows)));
    const auto kk = static_cast<std::size_t>(k);
    const std::size_t dim = points.cols();
    const double *base = points.rowPtr(0);

    KMeansResult result;
    result.k = k;
    result.labels.assign(rows, 0);
    // Centroids live in one contiguous k x dim block, so a point's
    // distances to all of them are one squaredDistancesN call.
    std::vector<double> centroids = seedCentroids(points, kk, rng);

    // Hamerly's bounds, per point: `upper` is at least the distance
    // to its own centroid, `lower` at most the distance to any
    // other. A point whose upper bound is below both its lower
    // bound and half the gap from its centroid to the nearest
    // other keeps its label without a scan: that centroid is then
    // strictly nearest in the computed squared distances too, so
    // Lloyd's scan (lowest index wins a tie) would pick it as well.
    // Ties, NaN and overflow never pass the test and get the full
    // scan.
    const DistanceBounds bounds(dim);
    std::vector<double> upper(rows), lower(rows);
    std::vector<double> dists(kk), half_gap(kk), drift(kk);
    std::vector<double> sums(kk * dim);
    std::vector<std::size_t> counts(kk);
    // Whether the last update step left every drift finite, so the
    // bounds still hold for the moved centroids.
    bool drift_finite = false;

    for (int iter = 0; iter < max_iterations; ++iter) {
        bool bounded = iter > 0 && kk > 1 && drift_finite;
        for (std::size_t c = 0; bounded && c < kk; ++c) {
            squaredDistancesN(centroids.data() + c * dim,
                              centroids.data(), kk, dim,
                              dists.data());
            double nearest = std::numeric_limits<double>::infinity();
            for (std::size_t j = 0; j < kk; ++j) {
                if (j == c)
                    continue;
                bounded = bounded && std::isfinite(dists[j]);
                nearest = std::min(nearest, dists[j]);
            }
            half_gap[c] = 0.5 * bounds.lower(nearest);
        }

        // Assignment step.
        bool changed = false;
        for (std::size_t i = 0; i < rows; ++i) {
            const double *point = base + i * dim;
            const auto own = static_cast<std::size_t>(result.labels[i]);
            if (bounded) {
                const double bar = std::max(half_gap[own], lower[i]);
                if (upper[i] < bar)
                    continue;
                // Tighten to the current distance and test again.
                upper[i] = bounds.upper(squaredDistanceN(
                    point, centroids.data() + own * dim, dim));
                if (upper[i] < bar)
                    continue;
            }
            squaredDistancesN(point, centroids.data(), kk, dim,
                              dists.data());
            int best = 0;
            double best_d = dists[0];
            for (int c = 1; c < k; ++c) {
                const double d = dists[static_cast<std::size_t>(c)];
                if (d < best_d) {
                    best_d = d;
                    best = c;
                }
            }
            double second = std::numeric_limits<double>::infinity();
            for (std::size_t c = 0; c < kk; ++c)
                if (c != static_cast<std::size_t>(best))
                    second = std::min(second, dists[c]);
            upper[i] = bounds.upper(best_d);
            // An overflowed distance gives no finite lower bound.
            lower[i] = std::isfinite(second) ? bounds.lower(second)
                                             : 0.0;
            if (result.labels[i] != best) {
                result.labels[i] = best;
                changed = true;
            }
        }
        result.iterations = iter + 1;
        if (!changed && iter > 0)
            break;

        // Update step: sums in row order, empty clusters keep their
        // stale centroid.
        std::fill(sums.begin(), sums.end(), 0.0);
        std::fill(counts.begin(), counts.end(), 0);
        for (std::size_t i = 0; i < rows; ++i) {
            const auto label =
                static_cast<std::size_t>(result.labels[i]);
            addN(sums.data() + label * dim, base + i * dim, dim);
            ++counts[label];
        }
        drift_finite = true;
        for (std::size_t c = 0; c < kk; ++c) {
            drift[c] = 0.0;
            if (counts[c] == 0)
                continue;
            double *sum = sums.data() + c * dim;
            double *centroid = centroids.data() + c * dim;
            scaleN(sum, 1.0 / static_cast<double>(counts[c]), dim);
            drift[c] =
                bounds.upper(squaredDistanceN(centroid, sum, dim));
            drift_finite = drift_finite && std::isfinite(drift[c]);
            std::copy(sum, sum + dim, centroid);
        }
        // Every other centroid moved at most the largest drift, or
        // the second largest for the point whose own centroid moved
        // the most.
        std::size_t top = 0;
        for (std::size_t c = 1; c < kk; ++c)
            if (drift[c] > drift[top])
                top = c;
        double runner_up = 0.0;
        for (std::size_t c = 0; c < kk; ++c)
            if (c != top)
                runner_up = std::max(runner_up, drift[c]);
        for (std::size_t i = 0; i < rows; ++i) {
            const auto own = static_cast<std::size_t>(result.labels[i]);
            upper[i] = bounds.grow(upper[i], drift[own]);
            lower[i] = bounds.shrink(
                lower[i], own == top ? runner_up : drift[top]);
        }
    }

    result.centroids.resize(kk);
    for (std::size_t c = 0; c < kk; ++c)
        result.centroids[c].assign(
            centroids.begin() + static_cast<std::ptrdiff_t>(c * dim),
            centroids.begin() +
                static_cast<std::ptrdiff_t>((c + 1) * dim));
    result.ssd = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
        result.ssd += squaredDistanceN(
            base + i * dim,
            centroids.data() +
                static_cast<std::size_t>(result.labels[i]) * dim,
            dim);
    }
    return result;
}

KMeansSweep
kMeansSweep(const Matrix &points, int k_min, int k_max,
            std::uint64_t seed, ThreadPool *pool)
{
    if (k_min < 1 || k_max < k_min)
        fatal("kMeansSweep: invalid k range");
    const std::size_t count =
        static_cast<std::size_t>(k_max - k_min + 1);
    KMeansSweep sweep;
    sweep.k_values.resize(count);
    sweep.ssd_curve.resize(count);
    std::vector<KMeansResult> all(count);
    std::vector<double> ks(count);

    // Each k is fully independent: its own Rng(seed + k) stream and
    // a preassigned slot keyed by k, so scheduling order cannot
    // change the result — parallel and serial sweeps are
    // bit-identical.
    auto run_k = [&](int k) {
        const std::size_t slot =
            static_cast<std::size_t>(k - k_min);
        Rng rng(seed + static_cast<std::uint64_t>(k));
        all[slot] = kMeansCluster(points, k, rng);
        sweep.k_values[slot] = k;
        sweep.ssd_curve[slot] = all[slot].ssd;
        ks[slot] = static_cast<double>(k);
    };
    // Largest k first: Lloyd iterations at k = k_max dominate the
    // sweep, so scheduling them first shortens the makespan when
    // the pool fans out (slots are preassigned, so the visit order
    // never shows in the result).
    runtime::poolMap(
        pool, count,
        [&](std::size_t i) { run_k(k_max - static_cast<int>(i)); },
        "analyze.kmeans.k");

    const std::size_t idx = elbowIndex(ks, sweep.ssd_curve);
    sweep.elbow_k = sweep.k_values[idx];
    sweep.best = all[idx];
    return sweep;
}

} // namespace tpupoint
