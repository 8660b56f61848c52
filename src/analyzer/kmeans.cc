#include "analyzer/kmeans.hh"

#include <algorithm>
#include <limits>

#include "analyzer/elbow.hh"
#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "runtime/pool_map.hh"

namespace tpupoint {

namespace {

/** k-means++ initial centroid selection over row-major data. */
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
            // All remaining points coincide with centroids.
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

    KMeansResult result;
    result.k = k;
    result.centroids = seedCentroids(points, k, rng);
    result.labels.assign(rows, 0);

    const std::size_t dim = points.cols();
    for (int iter = 0; iter < max_iterations; ++iter) {
        bool changed = false;
        // Assignment step.
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

        // Update step.
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
                continue; // keep the stale centroid
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
