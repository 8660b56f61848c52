/**
 * @file
 * Ablation: analysis-algorithm cost. Section VI-B notes that
 * k-means and DBSCAN "reach memory limitations for larger
 * workloads such as RetinaNet and ResNet", while OLS competes with
 * SimPoint-style clustering at a fraction of the cost. This bench
 * measures wall time of the three algorithms against growing step
 * counts and reports the resident working set each needs (every
 * step's feature vector for k-means, plus the eps-neighbourhood
 * graph for DBSCAN, versus three step records for OLS).
 *
 * Each timing is the median of repeated runs (at least three, and
 * until 50 ms of runs have accumulated).
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analyzer/dbscan.hh"
#include "analyzer/features.hh"
#include "analyzer/kmeans.hh"
#include "analyzer/ols.hh"
#include "analyzer/step_table.hh"
#include "bench/common.hh"
#include "core/strings.hh"

using namespace tpupoint;

namespace {

/** A step table of the first @p steps steps of @p full. */
StepTable
truncatedTable(const StepTable &full, std::size_t steps)
{
    // Pack the leading rows into one synthetic record.
    ColumnarRecord record;
    for (std::size_t i = 0; i < full.size() && i < steps; ++i)
        record.appendStep(full.stepId(i), full.beginTime(i),
                          full.endTime(i), full.tpuBusy(i),
                          full.tpuIdle(i), full.mxuActive(i),
                          full.hostOps(i), full.tpuOps(i));
    return StepTable::fromRecords({record});
}

/** Median wall milliseconds of @p run over repeated calls. */
template <typename Fn>
double
medianMs(Fn &&run)
{
    using Clock = std::chrono::steady_clock;
    std::vector<double> samples;
    double total = 0;
    while (samples.size() < 3 || total < 50.0) {
        const auto begin = Clock::now();
        run();
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      begin)
                .count();
        samples.push_back(ms);
        total += ms;
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::BenchReport report("ablation_algorithms", argc, argv);
    benchutil::banner("Ablation: analysis-algorithm cost vs. steps",
                      "Section VI-B (k-means/DBSCAN memory limits, "
                      "OLS overhead)");

    const RuntimeWorkload w =
        benchutil::buildScaled(WorkloadId::DcganCifar10);
    const StepTable full = StepTable::fromRecords(
        benchutil::profiledRun(w, TpuGeneration::V2).records);

    const std::vector<int> widths{6, 12, 12, 10, 16, 14, 10};
    benchutil::row({"steps", "k-means ms", "DBSCAN ms", "OLS ms",
                    "features bytes", "DBSCAN bytes", "OLS steps"},
                   widths);
    std::size_t sink = 0;
    for (const std::size_t steps : {64u, 128u, 256u, 512u}) {
        const StepTable table = truncatedTable(full, steps);
        const FeatureMatrix features = FeatureMatrix::build(table);
        const Matrix &points = features.matrix();

        const double kmeans_ms = medianMs([&] {
            sink += kMeansSweep(points, 1, 15).k_values.size();
        });
        std::size_t graph_edges = 0;
        const double dbscan_ms = medianMs([&] {
            const DbscanSweep sweep = dbscanSweep(points);
            graph_edges = sweep.graph_edges;
            sink += sweep.min_samples_values.size();
        });
        std::size_t ols_peak = 0;
        const double ols_ms = medianMs([&] {
            OnlineLinearScan ols;
            for (std::size_t i = 0; i < table.size(); ++i)
                ols.addStep(table.stepId(i), table.span(i),
                            OnlineLinearScan::opKeys(
                                table.hostOps(i), table.tpuOps(i)));
            ols.finish();
            ols_peak = ols.peakStepsHeld();
            sink += ols.phases().size();
        });
        // k-means and DBSCAN hold every step's feature vector, and
        // DBSCAN its CSR eps-graph (offsets plus neighbour ids); OLS
        // holds three step records regardless of run length.
        const double working_set_bytes = static_cast<double>(
            points.rows() * features.dimensions() * sizeof(double));
        const double dbscan_bytes = working_set_bytes +
            static_cast<double>((points.rows() + 1 + graph_edges) *
                                sizeof(std::uint32_t));

        benchutil::row({std::to_string(steps),
                        formatDouble(kmeans_ms, 3),
                        formatDouble(dbscan_ms, 3),
                        formatDouble(ols_ms, 3),
                        formatDouble(working_set_bytes, 0),
                        formatDouble(dbscan_bytes, 0),
                        std::to_string(ols_peak)},
                       widths);
        const std::string n = std::to_string(steps);
        report.figure("kmeans_sweep_ms_" + n, kmeans_ms);
        report.figure("dbscan_sweep_ms_" + n, dbscan_ms);
        report.figure("ols_ms_" + n, ols_ms);
        report.figure("kmeans_working_set_bytes_" + n,
                      working_set_bytes);
        report.figure("dbscan_working_set_bytes_" + n, dbscan_bytes);
        report.figure("ols_working_set_steps_" + n,
                      static_cast<double>(ols_peak));
    }
    std::printf("(result checksum %zu)\n", sink);
    return report.write() ? 0 : 1;
}
