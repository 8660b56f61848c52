/**
 * @file
 * DBSCAN (Ester et al., 1996) as TPUPoint-Analyzer's second phase
 * detector: sweep the minimum-samples requirement from 5 to 200,
 * measure the ratio of noise (unclustered) points, and pick the
 * elbow that minimizes noise while maximizing the requirement
 * (Section IV-A).
 */

#ifndef TPUPOINT_ANALYZER_DBSCAN_HH
#define TPUPOINT_ANALYZER_DBSCAN_HH

#include <cstddef>
#include <vector>

#include "core/math.hh"

namespace tpupoint {

class ThreadPool;

/** Label assigned to noise points. */
inline constexpr int kDbscanNoise = -1;

/** One DBSCAN clustering. */
struct DbscanResult
{
    std::vector<int> labels;   ///< Cluster id or kDbscanNoise.
    int clusters = 0;          ///< Clusters formed.
    std::size_t noise_points = 0;
    double noise_ratio = 0.0;  ///< noise / total.
    double eps = 0.0;
    std::size_t min_samples = 0;
};

/**
 * Classic DBSCAN with Euclidean eps-neighbourhoods over the rows of
 * @p points.
 *
 * The labels are a pure function of the eps-neighbourhood graph
 * (each row adjacent to every row within eps of it, itself
 * included) and @p min_samples: a point is core when its degree is at least
 * min_samples; clusters are the connected components of core
 * points, numbered in order of each component's lowest core index;
 * a border point takes the lowest cluster id among its core
 * neighbours; every other point is noise. This is exactly what the
 * classic visit-order expansion computes.
 */
DbscanResult dbscanCluster(const Matrix &points, double eps,
                           std::size_t min_samples);

/**
 * Suggest an eps from the data: 1.5x the 90th percentile of each
 * point's 24th-nearest-neighbour distance — dense step clusters
 * sit well inside it, stragglers outside. When @p pool is given,
 * blocks of rows fan out across its workers; every row writes its
 * own slot, so the result is bit-identical to the serial path.
 */
double suggestEps(const Matrix &points, ThreadPool *pool = nullptr);

/** The min-samples sweep plus elbow choice (Figure 5). */
struct DbscanSweep
{
    std::vector<std::size_t> min_samples_values;
    std::vector<double> noise_curve;  ///< Noise ratio per setting.
    std::vector<int> cluster_counts;
    std::size_t elbow_min_samples = 0;
    DbscanResult best; ///< Clustering at the elbow.
    /**
     * Neighbour-list entries of the sweep's eps-graph (one per
     * ordered pair within eps, each point's own entry included).
     * The graph held (rows + 1 + graph_edges) 32-bit ids.
     */
    std::size_t graph_edges = 0;
};

/**
 * Sweep min_samples over [lo, hi] in the given stride (the paper
 * uses 5..180 step 25) at a fixed eps (0 = suggestEps()). lo must
 * be positive and no larger than hi.
 *
 * eps is resolved once, the eps-neighbourhood graph is built once,
 * and every min-samples setting is labelled from that one graph
 * into a preassigned slot. When @p pool is given, the eps and
 * graph passes fan out over blocks of rows and the settings over
 * its workers, with output bit-identical to the serial path.
 */
DbscanSweep dbscanSweep(const Matrix &points, double eps = 0.0,
                        std::size_t lo = 5, std::size_t hi = 180,
                        std::size_t stride = 25,
                        ThreadPool *pool = nullptr);

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_DBSCAN_HH
