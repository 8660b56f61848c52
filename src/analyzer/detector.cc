#include "analyzer/detector.hh"

#include <mutex>
#include <utility>

#include "core/logging.hh"
#include "core/rng.hh"

namespace tpupoint {

namespace {

/** Section IV-A stages 2-3: k-means over features + elbow. */
class KMeansDetector final : public PhaseDetector
{
  public:
    PhaseAlgorithm algorithm() const override
    {
        return PhaseAlgorithm::KMeans;
    }

    const char *name() const override
    {
        return phaseAlgorithmName(PhaseAlgorithm::KMeans);
    }

    bool needsFeatures() const override { return true; }

    DetectorResult
    detect(const StepTable &table, const FeatureMatrix *features,
           const AnalyzerOptions &options,
           ThreadPool *pool) const override
    {
        if (features == nullptr)
            panic("k-means detector invoked without features");
        DetectorResult out;
        out.algorithm = PhaseAlgorithm::KMeans;
        if (options.kmeans_fixed_k > 0) {
            Rng rng(options.seed);
            out.kmeans.best = kMeansCluster(
                features->matrix(), options.kmeans_fixed_k, rng);
            out.kmeans.elbow_k = options.kmeans_fixed_k;
            out.kmeans.k_values = {options.kmeans_fixed_k};
            out.kmeans.ssd_curve = {out.kmeans.best.ssd};
        } else {
            out.kmeans = kMeansSweep(
                features->matrix(), options.kmeans_k_min,
                options.kmeans_k_max, options.seed, pool);
        }
        out.phases =
            phasesFromLabels(table, out.kmeans.best.labels);
        out.top3_coverage = topPhaseCoverage(out.phases, 3);
        return out;
    }
};

/** DBSCAN with the min-samples sweep (Figure 5). */
class DbscanDetector final : public PhaseDetector
{
  public:
    PhaseAlgorithm algorithm() const override
    {
        return PhaseAlgorithm::Dbscan;
    }

    const char *name() const override
    {
        return phaseAlgorithmName(PhaseAlgorithm::Dbscan);
    }

    bool needsFeatures() const override { return true; }

    DetectorResult
    detect(const StepTable &table, const FeatureMatrix *features,
           const AnalyzerOptions &options,
           ThreadPool *pool) const override
    {
        if (features == nullptr)
            panic("DBSCAN detector invoked without features");
        DetectorResult out;
        out.algorithm = PhaseAlgorithm::Dbscan;
        if (options.dbscan_fixed_min_samples > 0) {
            const double eps = options.dbscan_eps > 0
                ? options.dbscan_eps
                : suggestEps(features->matrix(), pool);
            out.dbscan.best = dbscanCluster(
                features->matrix(), eps,
                options.dbscan_fixed_min_samples);
            out.dbscan.elbow_min_samples =
                options.dbscan_fixed_min_samples;
            out.dbscan.min_samples_values = {
                options.dbscan_fixed_min_samples};
            out.dbscan.noise_curve = {
                out.dbscan.best.noise_ratio};
            out.dbscan.cluster_counts = {
                out.dbscan.best.clusters};
        } else {
            out.dbscan = dbscanSweep(
                features->matrix(), options.dbscan_eps, 5, 180, 25,
                pool);
        }
        out.phases =
            phasesFromLabels(table, out.dbscan.best.labels);
        out.top3_coverage = topPhaseCoverage(out.phases, 3);
        return out;
    }
};

/** Online linear scan over the step stream (Equation 1). */
class OlsDetector final : public PhaseDetector
{
  public:
    PhaseAlgorithm algorithm() const override
    {
        return PhaseAlgorithm::OnlineLinearScan;
    }

    const char *name() const override
    {
        return phaseAlgorithmName(
            PhaseAlgorithm::OnlineLinearScan);
    }

    bool needsFeatures() const override { return false; }

    DetectorResult
    detect(const StepTable &table, const FeatureMatrix *,
           const AnalyzerOptions &options,
           ThreadPool *) const override
    {
        DetectorResult out;
        out.algorithm = PhaseAlgorithm::OnlineLinearScan;
        // OLS is inherently sequential: each step folds into the
        // running span, so there is nothing to fan out. Steps are
        // fed as interned operator-key sets straight off the
        // columnar table — no name maps are materialized.
        OnlineLinearScan ols(OlsOptions{options.ols_threshold});
        for (std::size_t i = 0; i < table.size(); ++i) {
            ols.addStep(table.stepId(i), table.span(i),
                        OnlineLinearScan::opKeys(
                            table.hostOps(i), table.tpuOps(i)));
        }
        ols.finish();
        out.ols_spans = ols.spans();
        out.ols_groups = ols.phases();
        out.phases = phasesFromGroups(table, out.ols_groups);
        out.top3_coverage = topPhaseCoverage(out.phases, 3);
        return out;
    }
};

struct DetectorRegistry
{
    std::mutex guard;
    std::vector<std::unique_ptr<PhaseDetector>> detectors;
};

DetectorRegistry &
registry()
{
    // Function-local static: thread-safe one-time construction
    // with the builtins pre-registered; leaked deliberately so
    // detectors outlive any static destructor ordering.
    static DetectorRegistry *instance = [] {
        auto *reg = new DetectorRegistry;
        reg->detectors.push_back(
            std::make_unique<KMeansDetector>());
        reg->detectors.push_back(
            std::make_unique<DbscanDetector>());
        reg->detectors.push_back(std::make_unique<OlsDetector>());
        return reg;
    }();
    return *instance;
}

} // namespace

const PhaseDetector &
detectorFor(PhaseAlgorithm algorithm)
{
    DetectorRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.guard);
    for (const auto &detector : reg.detectors) {
        if (detector->algorithm() == algorithm)
            return *detector;
    }
    fatal("no registered phase detector for ",
          phaseAlgorithmName(algorithm));
}

std::vector<const PhaseDetector *>
registeredDetectors()
{
    DetectorRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.guard);
    std::vector<const PhaseDetector *> out;
    out.reserve(reg.detectors.size());
    for (const auto &detector : reg.detectors)
        out.push_back(detector.get());
    return out;
}

std::unique_ptr<PhaseDetector>
makeBuiltinDetector(PhaseAlgorithm algorithm)
{
    switch (algorithm) {
      case PhaseAlgorithm::KMeans:
        return std::make_unique<KMeansDetector>();
      case PhaseAlgorithm::Dbscan:
        return std::make_unique<DbscanDetector>();
      case PhaseAlgorithm::OnlineLinearScan:
        return std::make_unique<OlsDetector>();
    }
    panic("makeBuiltinDetector: unknown algorithm");
}

void
registerPhaseDetector(std::unique_ptr<PhaseDetector> detector)
{
    if (!detector)
        panic("registerPhaseDetector: null detector");
    DetectorRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.guard);
    for (auto &existing : reg.detectors) {
        if (existing->algorithm() == detector->algorithm()) {
            existing = std::move(detector);
            return;
        }
    }
    reg.detectors.push_back(std::move(detector));
}

} // namespace tpupoint
