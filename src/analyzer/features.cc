#include "analyzer/features.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string_view>
#include <unordered_map>

#include "analyzer/pca.hh"
#include "core/interner.hh"
#include "core/rng.hh"

namespace tpupoint {

namespace {

/**
 * Column lookup key for one (side, interned op id) pair: host ops
 * use even keys, TPU ops odd. Dimension ORDER still comes from the
 * sorted label universe; the key only avoids per-step string
 * concatenation and hashing in the fill loop.
 */
constexpr std::uint64_t
opKey(std::uint32_t id, std::uint64_t side)
{
    return (static_cast<std::uint64_t>(id) << 1) | side;
}

} // namespace

FeatureMatrix
FeatureMatrix::build(const StepTable &table,
                     const FeatureOptions &options)
{
    FeatureMatrix out;
    const std::vector<std::string> universe = table.opUniverse();
    out.labels = universe;

    const std::size_t dims_per_op =
        (options.include_counts ? 1u : 0u) +
        (options.include_durations ? 1u : 0u);
    const std::size_t raw_dims =
        std::max<std::size_t>(universe.size() * dims_per_op, 1);

    // Invert the sorted label universe into (side, id) -> universe
    // position once; every universe name is interned (the labels
    // were materialized through the interner).
    const StringInterner &interner = StringInterner::global();
    std::unordered_map<std::uint64_t, std::size_t> column_of;
    column_of.reserve(universe.size());
    for (std::size_t u = 0; u < universe.size(); ++u) {
        std::string_view label = universe[u];
        std::uint64_t side = 0;
        if (label.substr(0, 5) == "host:") {
            label.remove_prefix(5);
        } else {
            label.remove_prefix(4); // "tpu:"
            side = 1;
        }
        std::uint32_t id = 0;
        if (interner.lookup(label, id))
            column_of.emplace(opKey(id, side), u);
    }

    out.data.resize(table.size(), raw_dims);
    for (std::size_t r = 0; r < table.size(); ++r) {
        double *row = out.data.rowPtr(r);
        auto fill = [&](OpStatsSpan ops, std::uint64_t side) {
            for (const ColumnarOpStats &entry : ops) {
                const auto it =
                    column_of.find(opKey(entry.op, side));
                if (it == column_of.end())
                    continue;
                std::size_t d = it->second * dims_per_op;
                if (options.include_counts) {
                    row[d] = static_cast<double>(entry.count);
                    ++d;
                }
                if (options.include_durations) {
                    row[d] = static_cast<double>(
                        entry.total_duration);
                }
            }
        };
        fill(table.hostOps(r), 0);
        fill(table.tpuOps(r), 1);
    }

    if (options.normalize && out.data.rows() > 0) {
        // Per-dimension max scaling keeps counts and durations
        // commensurable.
        FeatureVector maxima(raw_dims, 0.0);
        for (std::size_t r = 0; r < out.data.rows(); ++r) {
            const double *row = out.data.rowPtr(r);
            for (std::size_t d = 0; d < raw_dims; ++d)
                maxima[d] = std::max(maxima[d], std::abs(row[d]));
        }
        for (std::size_t r = 0; r < out.data.rows(); ++r) {
            double *row = out.data.rowPtr(r);
            for (std::size_t d = 0; d < raw_dims; ++d)
                if (maxima[d] > 0)
                    row[d] /= maxima[d];
        }
    }

    if (raw_dims > options.max_dimensions &&
        out.data.rows() > 1) {
        Rng rng(options.pca_seed);
        const PcaModel pca =
            fitPca(out.data, options.max_dimensions, rng);
        out.data = pca.projectAll(out.data);
        out.reduced = true;
    }
    return out;
}

} // namespace tpupoint
