/**
 * @file
 * Step feature extraction (Section IV-A, stage 1): "for each step,
 * we define dimensions in terms of TensorFlow operations, the
 * accumulated number of invocations, and total durations", with PCA
 * capping the representation at 100 dimensions.
 *
 * Features are stored as one flat row-major Matrix (one row per
 * step) rather than a vector of per-step vectors: the clustering
 * inner loops stride contiguous memory, and the fill pass maps
 * interned op ids straight to column indices without touching op
 * name strings.
 */

#ifndef TPUPOINT_ANALYZER_FEATURES_HH
#define TPUPOINT_ANALYZER_FEATURES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analyzer/step_table.hh"
#include "core/math.hh"

namespace tpupoint {

/** Feature-extraction options. */
struct FeatureOptions
{
    bool include_counts = true;     ///< Invocation-count dims.
    bool include_durations = true;  ///< Total-duration dims.
    bool normalize = true;          ///< Scale each dim to [0, 1].
    std::size_t max_dimensions = 100; ///< PCA cap (the paper's 100).
    std::uint64_t pca_seed = 0x50434121; // "PCA!"
};

/**
 * The per-step feature matrix the clustering algorithms consume.
 */
class FeatureMatrix
{
  public:
    /** Extract features for every step of @p table. */
    static FeatureMatrix build(const StepTable &table,
                               const FeatureOptions &options = {});

    /** Flat row-major storage: one row per step, table order. */
    const Matrix &matrix() const { return data; }

    /** Dimension labels before any PCA reduction. */
    const std::vector<std::string> &rawDimensions() const
    {
        return labels;
    }

    /** True when PCA reduced the raw dimensions. */
    bool pcaApplied() const { return reduced; }

    /** Final dimensionality. */
    std::size_t dimensions() const
    {
        return data.rows() == 0 ? 0 : data.cols();
    }

  private:
    Matrix data;
    std::vector<std::string> labels;
    bool reduced = false;
};

} // namespace tpupoint

#endif // TPUPOINT_ANALYZER_FEATURES_HH
