#include "analyzer/dbscan.hh"

#include <algorithm>
#include <cmath>
#include <deque>

#include "analyzer/elbow.hh"
#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "runtime/pool_map.hh"

namespace tpupoint {

namespace {

/** Indices of all points within eps of @p center (inclusive). */
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

} // namespace

double
suggestEps(const Matrix &points)
{
    const std::size_t rows = points.rows();
    if (rows < 2)
        return 1.0;
    const std::size_t dim = points.cols();
    // Use a 24-NN radius: wide enough that steady-state training
    // steps (which dominate every run) form a dense core across
    // the whole min-samples sweep, as in the paper's Figure 5.
    constexpr std::size_t kth = 24;
    std::vector<double> kth_distances;
    kth_distances.reserve(rows);
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

DbscanResult
dbscanCluster(const Matrix &points, double eps,
              std::size_t min_samples)
{
    if (eps <= 0)
        fatal("dbscanCluster: eps must be positive");
    if (min_samples == 0)
        fatal("dbscanCluster: min_samples must be positive");

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
        // Grow a new cluster from this core point.
        const int cluster = next_cluster++;
        result.labels[i] = cluster;
        std::deque<std::size_t> frontier(neighbours.begin(),
                                         neighbours.end());
        while (!frontier.empty()) {
            const std::size_t p = frontier.front();
            frontier.pop_front();
            if (result.labels[p] == kDbscanNoise)
                result.labels[p] = cluster; // border point
            if (result.labels[p] != kUnvisited)
                continue;
            result.labels[p] = cluster;
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

DbscanSweep
dbscanSweep(const Matrix &points, double eps, std::size_t lo,
            std::size_t hi, std::size_t stride, ThreadPool *pool)
{
    if (stride == 0)
        fatal("dbscanSweep: stride must be positive");
    // Resolve eps once, before any fan-out, so every setting
    // clusters against the same neighbourhood radius.
    if (eps <= 0)
        eps = suggestEps(points);

    std::vector<std::size_t> settings;
    for (std::size_t m = lo; m <= hi; m += stride)
        settings.push_back(m);

    DbscanSweep sweep;
    sweep.min_samples_values.resize(settings.size());
    sweep.noise_curve.resize(settings.size());
    sweep.cluster_counts.resize(settings.size());
    std::vector<DbscanResult> all(settings.size());
    std::vector<double> xs(settings.size());

    // Settings are independent and write preassigned slots, so the
    // parallel sweep is bit-identical to the serial one.
    auto run_m = [&](std::size_t i) {
        all[i] = dbscanCluster(points, eps, settings[i]);
        sweep.min_samples_values[i] = settings[i];
        sweep.noise_curve[i] = all[i].noise_ratio;
        sweep.cluster_counts[i] = all[i].clusters;
        xs[i] = static_cast<double>(settings[i]);
    };
    runtime::poolMap(pool, settings.size(), run_m,
                     "analyze.dbscan.min_samples");

    const std::size_t idx = elbowIndex(xs, sweep.noise_curve);
    sweep.elbow_min_samples = sweep.min_samples_values[idx];
    sweep.best = all[idx];
    return sweep;
}

} // namespace tpupoint
