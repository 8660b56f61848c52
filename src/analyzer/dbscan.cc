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
 * Row blocks of the eps-graph pass: enough to balance a few dozen
 * workers, few enough that each block's scratch is amortized.
 */
constexpr std::size_t kRowBlocks = 32;

/**
 * Split [0, rows) into at most kRowBlocks non-empty ranges
 * [bounds[b], bounds[b + 1]) of roughly equal work, where row i
 * costs rows - i distance evaluations (the upper triangle).
 */
std::vector<std::size_t>
rowBlocks(std::size_t rows)
{
    const std::size_t blocks = std::min(rows, kRowBlocks);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < rows; ++i)
        total += rows - i;
    std::vector<std::size_t> bounds{0};
    std::uint64_t done = 0;
    for (std::size_t i = 0; i < rows; ++i) {
        done += rows - i;
        // The last row always closes a block: done == total there,
        // and at most blocks - 1 bounds were cut before it.
        if (done * blocks >= total * bounds.size())
            bounds.push_back(i + 1);
    }
    return bounds;
}

/**
 * Row ranges of the suggestEps pass. Its pair tiles run in rounds
 * of kEpsRanges / 2 disjoint tiles, which keeps a few workers busy.
 */
constexpr std::size_t kEpsRanges = 8;

/**
 * Max-heap steps over raw doubles. Only indices below @p size are
 * touched, whatever the values, NaN included.
 *
 * pushHeap: append @p value to the heap of @p size values (room for
 * one more) and sift it up.
 */
void
pushHeap(double *heap, std::size_t size, double value)
{
    std::size_t i = size;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!(heap[parent] < value))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = value;
}

/** Replace the top of the heap of @p size values and sift down. */
void
replaceHeapTop(double *heap, std::size_t size, double value)
{
    std::size_t i = 0;
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= size)
            break;
        if (child + 1 < size && heap[child] < heap[child + 1])
            ++child;
        if (!(value < heap[child]))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = value;
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
    const std::vector<std::size_t> bounds = rowBlocks(rows);
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
    // Squared distances throughout: sqrt is monotone, so the k-th
    // smallest and the 90th percentile select the same entries,
    // and only the chosen one is rooted.
    constexpr std::size_t kth = 24;
    const std::size_t cap = std::min(kth, rows - 1);
    std::vector<double> heaps(rows * cap);
    std::vector<std::size_t> filled(rows, 0);
    // Row i's max-heap of the cap smallest distances offered so
    // far: once all rows - 1 arrived, its top is the cap-th
    // smallest, whatever order they came in.
    auto offer = [&](std::size_t row, double d) {
        double *heap = heaps.data() + row * cap;
        if (filled[row] < cap)
            pushHeap(heap, filled[row]++, d);
        else if (d < heap[0])
            replaceHeapTop(heap, cap, d);
    };

    // Each unordered pair is measured once, inside one tile of two
    // row ranges (or of a range with itself), and offered to both
    // rows' heaps: d(i, j) == d(j, i) bit for bit.
    std::vector<std::size_t> bounds(kEpsRanges + 1);
    for (std::size_t b = 0; b <= kEpsRanges; ++b)
        bounds[b] = rows * b / kEpsRanges;
    const double *base = points.rowPtr(0);
    auto tile = [&](std::size_t a, std::size_t b) {
        std::vector<double> dists(bounds[b + 1] - bounds[b]);
        for (std::size_t i = bounds[a]; i < bounds[a + 1]; ++i) {
            const std::size_t first = a == b ? i + 1 : bounds[b];
            const std::size_t count = bounds[b + 1] - first;
            squaredDistancesN(base + i * dim, base + first * dim,
                              count, dim, dists.data());
            for (std::size_t t = 0; t < count; ++t) {
                offer(i, dists[t]);
                offer(first + t, dists[t]);
            }
        }
    };
    // Round 0 measures each range against itself; rounds 1..7 are
    // the circle method's, with the last range fixed and the others
    // rotating, so every round pairs each range with exactly one
    // other and the seven cover all 28 pairs once. No row belongs
    // to two tiles of a round, so no heap is written by two tasks
    // at once.
    constexpr std::size_t rotating = kEpsRanges - 1;
    for (std::size_t round = 0; round <= rotating; ++round) {
        const std::size_t tiles =
            round == 0 ? kEpsRanges : kEpsRanges / 2;
        runtime::poolMap(
            pool, tiles,
            [&](std::size_t t) {
                if (round == 0) {
                    tile(t, t);
                    return;
                }
                const std::size_t r = round - 1;
                if (t == 0)
                    tile(r, rotating);
                else
                    tile((r + t) % rotating,
                         (r + rotating - t) % rotating);
            },
            "analyze.dbscan.eps");
    }

    std::vector<double> kth_squared(rows);
    for (std::size_t row = 0; row < rows; ++row)
        kth_squared[row] = heaps[row * cap];
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
              std::size_t min_samples, ThreadPool *pool)
{
    if (eps <= 0)
        fatal("dbscanCluster: eps must be positive");
    if (min_samples == 0)
        fatal("dbscanCluster: min_samples must be positive");
    return labelGraph(buildEpsGraph(points, eps * eps, pool), eps,
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
