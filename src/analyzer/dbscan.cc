#include "analyzer/dbscan.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "analyzer/elbow.hh"
#include "core/logging.hh"
#include "core/thread_pool.hh"
#include "runtime/pool_map.hh"

namespace tpupoint {

namespace {

/**
 * Row blocks per distance pass: enough to balance a few dozen
 * workers, few enough that each block's scratch is amortized.
 */
constexpr std::size_t kRowBlocks = 32;

/**
 * Split [0, rows) into at most kRowBlocks non-empty ranges
 * [bounds[b], bounds[b + 1]) of roughly equal work, where row i
 * costs @p cost(i) distance evaluations.
 */
template <typename Cost>
std::vector<std::size_t>
rowBlocks(std::size_t rows, Cost &&cost)
{
    const std::size_t blocks = std::min(rows, kRowBlocks);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < rows; ++i)
        total += cost(i);
    std::vector<std::size_t> bounds{0};
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < rows; ++i) {
        done += cost(i);
        // The last row always closes a block: done == total there,
        // and at most blocks - 1 bounds were cut before it.
        if (done * blocks >= total * bounds.size())
            bounds.push_back(i + 1);
    }
    return bounds;
}

/**
 * The eps-neighbourhood graph in CSR form: row i's neighbours are
 * ids[offsets[i] .. offsets[i + 1]), ascending, i itself included.
 */
struct EpsGraph
{
    std::vector<std::uint32_t> offsets;
    std::vector<std::uint32_t> ids;

    std::size_t
    degree(std::size_t i) const
    {
        return offsets[i + 1] - offsets[i];
    }
};

/**
 * Build the graph of pairs within squared distance @p eps2. Only
 * the upper triangle (j >= i) is measured — d(i, j) and d(j, i) are
 * equal bit for bit, since (a - b)^2 == (b - a)^2 and each pair is
 * summed in index order — and mirrored in the scatter. Measuring
 * the diagonal keeps a point whose distance to itself is not
 * within eps (a NaN row) out of its own list, as a direct region
 * query over all rows would.
 */
EpsGraph
buildEpsGraph(const Matrix &points, double eps2, ThreadPool *pool)
{
    const std::size_t rows = points.rows();
    const std::size_t dim = points.cols();
    EpsGraph graph;
    graph.offsets.assign(rows + 1, 0);
    if (rows == 0)
        return graph;

    // Pass 1: each block records, per row, its neighbours j >= i.
    struct Block
    {
        std::vector<std::uint32_t> counts; ///< Per row of the block.
        std::vector<std::uint32_t> ids;    ///< Concatenated lists.
    };
    const std::vector<std::size_t> bounds = rowBlocks(
        rows, [rows](std::size_t i) { return rows - i; });
    std::vector<Block> blocks(bounds.size() - 1);
    const double *base = points.rowPtr(0);
    runtime::poolMap(
        pool, blocks.size(),
        [&](std::size_t b) {
            Block &block = blocks[b];
            std::vector<double> dists(rows);
            for (std::size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
                const std::size_t count = rows - i;
                squaredDistancesN(base + i * dim, base + i * dim,
                                  count, dim, dists.data());
                std::uint32_t found = 0;
                for (std::size_t k = 0; k < count; ++k) {
                    if (dists[k] <= eps2) {
                        block.ids.push_back(
                            static_cast<std::uint32_t>(i + k));
                        ++found;
                    }
                }
                block.counts.push_back(found);
            }
        },
        "analyze.dbscan.graph");

    // Every measured pair (i, j >= i), in ascending row order.
    auto for_each_pair = [&](auto &&fn) {
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            const std::uint32_t *j = blocks[b].ids.data();
            for (std::size_t r = 0; r < blocks[b].counts.size(); ++r)
                for (std::uint32_t k = 0; k < blocks[b].counts[r]; ++k)
                    fn(static_cast<std::uint32_t>(bounds[b] + r), *j++);
        }
    };

    // Pass 2: degrees (a pair counts at both ends), then offsets by
    // prefix sum.
    std::vector<std::uint64_t> degree(rows, 0);
    for_each_pair([&](std::uint32_t i, std::uint32_t j) {
        ++degree[i];
        if (j != i)
            ++degree[j];
    });
    std::uint64_t edges = 0;
    for (std::size_t i = 0; i < rows; ++i) {
        edges += degree[i];
        if (edges > std::numeric_limits<std::uint32_t>::max())
            fatal("dbscan: eps-graph exceeds 2^32 neighbour entries");
        graph.offsets[i + 1] = static_cast<std::uint32_t>(edges);
    }

    // Pass 3: scatter into one exactly-sized array. Rows go in
    // ascending order, so every list comes out ascending: lower
    // neighbours land first (mirrored from earlier rows), then the
    // row's own upper list.
    graph.ids.resize(edges);
    std::vector<std::uint32_t> cursor(graph.offsets.begin(),
                                      graph.offsets.end() - 1);
    for_each_pair([&](std::uint32_t i, std::uint32_t j) {
        graph.ids[cursor[i]++] = j;
        if (j != i)
            graph.ids[cursor[j]++] = i;
    });
    return graph;
}

/**
 * DBSCAN labels for @p min_samples from the eps-graph: one
 * flat-FIFO breadth-first pass per component of core points,
 * O(rows + edges), each core point enqueued once.
 */
DbscanResult
labelGraph(const EpsGraph &graph, double eps, std::size_t min_samples)
{
    const std::size_t rows = graph.offsets.size() - 1;
    DbscanResult result;
    result.eps = eps;
    result.min_samples = min_samples;
    // Noise doubles as "unassigned": clusters claim points from it.
    result.labels.assign(rows, kDbscanNoise);
    std::vector<std::uint32_t> fifo(rows);
    int next_cluster = 0;

    for (std::size_t seed = 0; seed < rows; ++seed) {
        if (result.labels[seed] != kDbscanNoise ||
            graph.degree(seed) < min_samples)
            continue;
        // The lowest unassigned core point opens the next cluster;
        // lower clusters finished first, so a border point keeps
        // the lowest cluster id that reaches it.
        const int cluster = next_cluster++;
        result.labels[seed] = cluster;
        std::size_t head = 0, tail = 0;
        fifo[tail++] = static_cast<std::uint32_t>(seed);
        while (head < tail) {
            const std::uint32_t p = fifo[head++];
            for (std::uint32_t e = graph.offsets[p];
                 e < graph.offsets[p + 1]; ++e) {
                const std::uint32_t q = graph.ids[e];
                if (result.labels[q] != kDbscanNoise)
                    continue;
                result.labels[q] = cluster;
                if (graph.degree(q) >= min_samples)
                    fifo[tail++] = q;
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

} // namespace

double
suggestEps(const Matrix &points, ThreadPool *pool)
{
    const std::size_t rows = points.rows();
    if (rows < 2)
        return 1.0;
    const std::size_t dim = points.cols();
    // Use a 24-NN radius: wide enough that steady-state training
    // steps (which dominate every run) form a dense core across
    // the whole min-samples sweep, as in the paper's Figure 5.
    constexpr std::size_t kth = 24;
    const std::size_t k = std::min(kth, rows - 1) - 1;
    // Squared distances throughout: sqrt is monotone, so the k-th
    // smallest and the 90th percentile select the same entries,
    // and only the chosen one is rooted.
    std::vector<double> kth_squared(rows);
    const std::vector<std::size_t> bounds =
        rowBlocks(rows, [rows](std::size_t) { return rows - 1; });
    const double *base = points.rowPtr(0);
    runtime::poolMap(
        pool, bounds.size() - 1,
        [&](std::size_t b) {
            std::vector<double> dists(rows - 1);
            for (std::size_t i = bounds[b]; i < bounds[b + 1]; ++i) {
                const double *pi = base + i * dim;
                squaredDistancesN(pi, base, i, dim, dists.data());
                squaredDistancesN(pi, base + (i + 1) * dim,
                                  rows - 1 - i, dim,
                                  dists.data() + i);
                std::nth_element(dists.begin(), dists.begin() +
                                 static_cast<std::ptrdiff_t>(k),
                                 dists.end());
                kth_squared[i] = dists[k];
            }
        },
        "analyze.dbscan.eps");
    const std::size_t p90 = std::min((rows * 9) / 10, rows - 1);
    std::nth_element(kth_squared.begin(),
                     kth_squared.begin() +
                         static_cast<std::ptrdiff_t>(p90),
                     kth_squared.end());
    const double eps = 1.5 * std::sqrt(kth_squared[p90]);
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
    return labelGraph(buildEpsGraph(points, eps * eps, nullptr), eps,
                      min_samples);
}

DbscanSweep
dbscanSweep(const Matrix &points, double eps, std::size_t lo,
            std::size_t hi, std::size_t stride, ThreadPool *pool)
{
    if (stride == 0)
        fatal("dbscanSweep: stride must be positive");
    if (lo == 0 || lo > hi)
        fatal("dbscanSweep: need 0 < lo <= hi");
    // Resolve eps and build the neighbourhood graph once, before
    // any fan-out: every setting labels from the same graph.
    if (eps <= 0)
        eps = suggestEps(points, pool);
    const EpsGraph graph = buildEpsGraph(points, eps * eps, pool);

    // Counted, not stepped, so m += stride cannot wrap near hi.
    const std::size_t count = (hi - lo) / stride + 1;
    DbscanSweep sweep;
    sweep.graph_edges = graph.ids.size();
    sweep.min_samples_values.resize(count);
    sweep.noise_curve.resize(count);
    sweep.cluster_counts.resize(count);
    std::vector<DbscanResult> all(count);
    std::vector<double> xs(count);

    // Settings are independent and write preassigned slots, so the
    // parallel sweep is bit-identical to the serial one.
    auto run_m = [&](std::size_t i) {
        const std::size_t m = lo + i * stride;
        all[i] = labelGraph(graph, eps, m);
        sweep.min_samples_values[i] = m;
        sweep.noise_curve[i] = all[i].noise_ratio;
        sweep.cluster_counts[i] = all[i].clusters;
        xs[i] = static_cast<double>(m);
    };
    runtime::poolMap(pool, count, run_m,
                     "analyze.dbscan.min_samples");

    const std::size_t idx = elbowIndex(xs, sweep.noise_curve);
    sweep.elbow_min_samples = sweep.min_samples_values[idx];
    sweep.best = std::move(all[idx]);
    return sweep;
}

} // namespace tpupoint
