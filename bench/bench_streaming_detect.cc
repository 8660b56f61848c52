/**
 * @file
 * Streaming phase detection: the incremental analysis path serve
 * answers live `--query phases` from, measured against the batch
 * finalize it replaced. For each Table I workload the bench feeds
 * the profiled record stream through a streaming AnalysisSession,
 * taking a phase snapshot after every record — exactly serve's
 * per-poll pattern — and reports ingest+snapshot steps/sec, whether
 * the streaming OLS boundaries match the batch scan exactly (they
 * must), and how far the reservoir-sampled mini-batch k-means
 * coverage estimate lands from the batch answer.
 *
 * The bounded-cost claim is measured, not asserted: the same
 * pipeline runs over a 1x and a 10x replica of one workload's
 * stream, and the per-step cost ratio is reported. A streaming
 * layer that secretly re-scanned history (the old capped
 * whole-trace re-finalize) would show the ratio growing with trace
 * length; the incremental detectors hold it near 1.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analyzer/analyzer.hh"
#include "bench/common.hh"

using namespace tpupoint;

namespace {

/** "BERT-MRPC" -> "bert_mrpc" for JSON figure keys. */
std::string
slug(const char *name)
{
    std::string out;
    for (const char *p = name; *p != '\0'; ++p) {
        const unsigned char c = static_cast<unsigned char>(*p);
        out.push_back(std::isalnum(c) != 0
                          ? static_cast<char>(std::tolower(c))
                          : '_');
    }
    return out;
}

/** @p copies back-to-back replicas, step ids and times shifted. */
std::vector<ColumnarRecord>
replicateStream(const std::vector<ColumnarRecord> &records,
                unsigned copies)
{
    StepId step_stride = 0;
    SimTime time_stride = 0;
    for (const ColumnarRecord &record : records) {
        time_stride = std::max(time_stride, record.window_end);
        for (const StepId step : record.step)
            step_stride = std::max(step_stride, step);
    }
    ++step_stride;
    time_stride += kMsec;

    std::vector<ColumnarRecord> out;
    out.reserve(records.size() * copies);
    for (unsigned copy = 0; copy < copies; ++copy) {
        const StepId step_base = step_stride *
            static_cast<StepId>(copy);
        const SimTime time_base = time_stride *
            static_cast<SimTime>(copy);
        for (const ColumnarRecord &record : records) {
            ColumnarRecord shifted = record;
            shifted.sequence = out.size();
            shifted.window_begin += time_base;
            shifted.window_end += time_base;
            for (std::size_t i = 0; i < shifted.stepCount(); ++i) {
                shifted.step[i] += step_base;
                shifted.begin[i] += time_base;
                shifted.end[i] += time_base;
            }
            out.push_back(std::move(shifted));
        }
    }
    return out;
}

struct StreamCost
{
    double seconds = 0.0;        ///< Best-of-N ingest+snapshot.
    std::uint64_t steps = 0;     ///< Rows aggregated.
    AnalysisSession session{AnalyzerOptions{}}; ///< Last run's.
};

/**
 * Serve's per-poll pattern: ingest one record, take a phase
 * snapshot. Best-of-@p iterations wall time; the session of the
 * final iteration survives for finalize-agreement checks.
 */
StreamCost
streamingPass(const std::vector<ColumnarRecord> &records,
              const AnalyzerOptions &opts, int iterations)
{
    StreamCost cost;
    cost.seconds = 1e300;
    for (int iter = 0; iter < iterations; ++iter) {
        AnalysisSession session(opts);
        const auto start = std::chrono::steady_clock::now();
        for (const ColumnarRecord &record : records) {
            session.ingest(record);
            (void)session.partialResult();
        }
        cost.seconds = std::min(
            cost.seconds,
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count());
        cost.steps = session.partialResult().steps_aggregated;
        cost.session = std::move(session);
    }
    return cost;
}

/** The streaming OLS answer equals the batch scan, span for span. */
bool
olsBoundariesExact(const StreamingSnapshot &snapshot,
                   const AnalysisResult &batch)
{
    if (snapshot.phases.size() != batch.ols_groups.size())
        return false;
    for (std::size_t i = 0; i < snapshot.phases.size(); ++i) {
        if (snapshot.phases[i].steps !=
                batch.ols_groups[i].steps ||
            snapshot.phases[i].duration !=
                batch.ols_groups[i].duration)
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::BenchReport report("streaming_detect", argc, argv);
    benchutil::banner(
        "Streaming phase detection: per-poll incremental updates "
        "vs the batch finalize",
        "serve live phases (incremental OLS + reservoir k-means)");

    const std::vector<WorkloadId> ids = {
        WorkloadId::BertMrpc,      WorkloadId::DcganMnist,
        WorkloadId::QanetSquad,    WorkloadId::RetinanetCoco,
        WorkloadId::ResnetImagenet};
    const auto runs =
        benchutil::profiledSweep(ids, TpuGeneration::V3);

    constexpr int kIterations = 3;
    AnalyzerOptions ols_opts;
    ols_opts.algorithm = PhaseAlgorithm::OnlineLinearScan;
    ols_opts.streaming = true;
    AnalyzerOptions kmeans_opts;
    kmeans_opts.algorithm = PhaseAlgorithm::KMeans;
    kmeans_opts.streaming = true;

    std::printf("%-18s %8s %14s %10s %10s %10s %8s\n", "Workload",
                "steps", "steps/sec", "batch_cov", "stream_cov",
                "delta", "ols");
    bool all_exact = true;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto &records = runs[i].records;
        const std::string key = slug(workloadName(ids[i]));

        // The batch answer the streaming path is held against.
        AnalyzerOptions batch_opts;
        batch_opts.algorithm = PhaseAlgorithm::OnlineLinearScan;
        batch_opts.extra_algorithms = {PhaseAlgorithm::KMeans};
        const AnalysisResult batch =
            TpuPointAnalyzer(batch_opts).analyze(
                records, runs[i].checkpoints);
        const double batch_coverage =
            batch.detections[1].top3_coverage;

        // Serve's hot loop: incremental OLS, snapshot per record.
        StreamCost cost =
            streamingPass(records, ols_opts, kIterations);
        const double steps_per_sec =
            static_cast<double>(cost.steps) / cost.seconds;
        cost.session.finalize(runs[i].checkpoints);
        const PartialResult fin = cost.session.partialResult();
        const bool exact =
            !fin.snapshots.empty() &&
            olsBoundariesExact(fin.snapshots[0], batch);
        all_exact = all_exact && exact;

        // The sampled estimator's accuracy: mini-batch k-means
        // coverage over the reservoir vs the batch sweep.
        AnalysisSession kmeans_session(kmeans_opts);
        for (const ColumnarRecord &record : records)
            kmeans_session.ingest(record);
        const PartialResult sampled =
            kmeans_session.partialResult();
        const double stream_coverage =
            sampled.snapshots.empty()
                ? 0.0
                : sampled.snapshots[0].top3_coverage;
        const double delta =
            std::abs(stream_coverage - batch_coverage);

        std::printf("%-18s %8llu %14.0f %10.3f %10.3f %10.3f "
                    "%8s\n",
                    workloadName(ids[i]),
                    static_cast<unsigned long long>(cost.steps),
                    steps_per_sec, batch_coverage,
                    stream_coverage, delta,
                    exact ? "exact" : "DIVERGED");
        report.figure(key + "_steps_per_sec", steps_per_sec);
        report.figure(key + "_ols_exact", exact ? 1.0 : 0.0);
        report.figure(key + "_kmeans_coverage_delta", delta);
    }

    // Bounded per-step cost: the same pipeline over a 10x longer
    // stream must not get more expensive per step.
    const auto &base = runs[1].records; // DCGAN-MNIST
    const std::vector<ColumnarRecord> ten_x =
        replicateStream(base, 10);
    const StreamCost one =
        streamingPass(base, ols_opts, kIterations);
    const StreamCost ten =
        streamingPass(ten_x, ols_opts, kIterations);
    const double us_per_step_1x = 1e6 * one.seconds /
        static_cast<double>(one.steps);
    const double us_per_step_10x = 1e6 * ten.seconds /
        static_cast<double>(ten.steps);
    const double ratio = us_per_step_10x / us_per_step_1x;
    std::printf("\nper-step cost, DCGAN-MNIST stream: %.2f us at "
                "1x (%llu steps), %.2f us at 10x (%llu steps), "
                "ratio %.2fx (bounded: stays near 1)\n",
                us_per_step_1x,
                static_cast<unsigned long long>(one.steps),
                us_per_step_10x,
                static_cast<unsigned long long>(ten.steps), ratio);
    if (!all_exact)
        std::printf("\nWARNING: a streaming OLS answer diverged "
                    "from the batch scan\n");

    report.figure("per_step_us_1x", us_per_step_1x);
    report.figure("per_step_us_10x", us_per_step_10x);
    report.figure("per_step_cost_ratio_10x", ratio);
    report.figure("all_ols_exact", all_exact ? 1.0 : 0.0);
    return report.write() ? 0 : 1;
}
