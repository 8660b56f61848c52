/**
 * @file
 * Golden byte-identity suite for the analyzer outputs. The columnar
 * refactor of the analyzer core (interned step tables, flat feature
 * matrix, zero-copy reads) must not change a single output byte:
 * every artifact here — analyze CSV/JSON, the analyzer's and the
 * exporter's trace-event JSON, the comparison report, the salvage
 * path and the DBSCAN sweeps — is compared verbatim
 * against goldens generated from the pre-refactor row-oriented
 * implementation, for --threads 1, 2 and 8.
 *
 * Regenerate (only when an output format intentionally changes):
 *   TPUPOINT_UPDATE_GOLDENS=1 ./integration_test \
 *       --gtest_filter='GoldenOutput*'
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analyzer/compare.hh"
#include "analyzer/dbscan.hh"
#include "analyzer/features.hh"
#include "analyzer/visualization.hh"
#include "core/thread_pool.hh"
#include "obs/trace_export.hh"
#include "profiler/profiler.hh"
#include "proto/serialize.hh"
#include "trace/checksum.hh"
#include "workloads/catalog.hh"

#ifndef TPUPOINT_GOLDEN_DIR
#error "TPUPOINT_GOLDEN_DIR must be defined by the build"
#endif

namespace tpupoint {
namespace {

/** The Table I workloads the paper characterizes. */
constexpr WorkloadId kTableOne[] = {
    WorkloadId::BertMrpc,      WorkloadId::DcganMnist,
    WorkloadId::QanetSquad,    WorkloadId::RetinanetCoco,
    WorkloadId::ResnetImagenet};

struct ProfiledRun
{
    std::vector<ColumnarRecord> records;
    std::vector<CheckpointInfo> checkpoints;
};

/** Deterministic profiled run (same recipe as end_to_end_test). */
ProfiledRun
profileWorkload(WorkloadId id, TpuGeneration gen)
{
    WorkloadOptions options;
    options.step_scale = 0.02;
    options.max_train_steps = 300;
    const RuntimeWorkload w = makeWorkload(id, options);

    Simulator sim;
    SessionConfig config;
    config.device = TpuDeviceSpec::forGeneration(gen);
    TrainingSession session(sim, config, w);
    TpuPointProfiler profiler(sim, session);
    profiler.start(true);
    session.start(nullptr);
    sim.run();
    profiler.stop();

    ProfiledRun run;
    run.records = profiler.records();
    run.checkpoints = session.checkpoints().checkpoints();
    return run;
}

/** Serialize a run to the binary container format. */
std::string
encodeProfile(const std::vector<ColumnarRecord> &records)
{
    std::ostringstream out(std::ios::binary);
    ProfileWriter writer(out);
    for (const auto &record : records)
        writer.write(record);
    writer.finish();
    return out.str();
}

bool
updateGoldens()
{
    const char *env = std::getenv("TPUPOINT_UPDATE_GOLDENS");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** Compare @p produced against the named golden file byte-wise. */
void
expectGolden(const std::string &name, const std::string &produced)
{
    const std::string path =
        std::string(TPUPOINT_GOLDEN_DIR) + "/" + name;
    if (updateGoldens()) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out) << "cannot write golden " << path;
        out << produced;
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << "missing golden " << path
                    << " (run with TPUPOINT_UPDATE_GOLDENS=1)";
    std::ostringstream expected;
    expected << in.rdbuf();
    if (expected.str() != produced) {
        // Locate the first divergent byte for a usable failure.
        const std::string &a = expected.str();
        std::size_t i = 0;
        while (i < a.size() && i < produced.size() &&
               a[i] == produced[i])
            ++i;
        FAIL() << name << " differs from golden at byte " << i
               << " (golden " << a.size() << " bytes, produced "
               << produced.size() << " bytes)\n  golden  ...\""
               << a.substr(i > 30 ? i - 30 : 0, 60)
               << "\"\n  produced...\""
               << produced.substr(i > 30 ? i - 30 : 0, 60) << "\"";
    }
}

/** One full analysis with all three detectors at @p threads. */
AnalysisResult
analyzeAll(const std::vector<ColumnarRecord> &records,
           const std::vector<CheckpointInfo> &checkpoints,
           unsigned threads, std::size_t max_dimensions = 100)
{
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::OnlineLinearScan;
    options.extra_algorithms = {PhaseAlgorithm::KMeans,
                                PhaseAlgorithm::Dbscan};
    options.threads = threads;
    options.features.max_dimensions = max_dimensions;
    return TpuPointAnalyzer(options).analyze(records, checkpoints);
}

std::string
phaseCsv(const AnalysisResult &analysis)
{
    std::ostringstream out;
    writePhaseCsv(analysis, out);
    return out.str();
}

std::string
analysisJson(const AnalysisResult &analysis)
{
    std::ostringstream out;
    writeAnalysisJson(analysis, out, /*pretty=*/true);
    return out.str();
}

const ProfiledRun &
runV2()
{
    static const ProfiledRun run =
        profileWorkload(WorkloadId::DcganCifar10,
                        TpuGeneration::V2);
    return run;
}

const ProfiledRun &
runV3()
{
    static const ProfiledRun run =
        profileWorkload(WorkloadId::DcganCifar10,
                        TpuGeneration::V3);
    return run;
}

TEST(GoldenOutput, AnalyzeCsvAndJsonAcrossThreadCounts)
{
    const ProfiledRun &run = runV2();
    ASSERT_FALSE(run.records.empty());

    const AnalysisResult serial =
        analyzeAll(run.records, run.checkpoints, 1);
    const std::string csv = phaseCsv(serial);
    const std::string json = analysisJson(serial);
    expectGolden("analyze_phases.csv", csv);
    expectGolden("analyze.json", json);

    for (const unsigned threads : {2u, 8u}) {
        const AnalysisResult parallel =
            analyzeAll(run.records, run.checkpoints, threads);
        EXPECT_EQ(phaseCsv(parallel), csv)
            << "CSV diverges at --threads " << threads;
        EXPECT_EQ(analysisJson(parallel), json)
            << "JSON diverges at --threads " << threads;
    }
}

TEST(GoldenOutput, PcaReducedAnalysis)
{
    // max_dimensions 8 forces the PCA reduction path (the DCGAN op
    // universe is wider than 8 raw dimensions). k-means is the
    // primary algorithm so the projected features' numerics reach
    // the serialized phases.
    const ProfiledRun &run = runV2();
    AnalyzerOptions options;
    options.algorithm = PhaseAlgorithm::KMeans;
    options.extra_algorithms = {PhaseAlgorithm::Dbscan};
    options.features.max_dimensions = 8;
    std::string json;
    for (const unsigned threads : {1u, 8u}) {
        options.threads = threads;
        const AnalysisResult analysis =
            TpuPointAnalyzer(options).analyze(run.records,
                                              run.checkpoints);
        EXPECT_TRUE(analysis.detections.size() == 2);
        const std::string produced = analysisJson(analysis);
        if (threads == 1) {
            json = produced;
            expectGolden("analyze_pca.json", json);
        } else {
            EXPECT_EQ(produced, json);
        }
    }
}

TEST(GoldenOutput, CompareReport)
{
    const AnalysisResult a =
        analyzeAll(runV2().records, runV2().checkpoints, 2);
    const AnalysisResult b =
        analyzeAll(runV3().records, runV3().checkpoints, 2);
    const AnalysisComparison comparison =
        compareAnalyses(a, b, "TPUv2", "TPUv3");
    std::ostringstream out;
    writeComparison(comparison, out);
    expectGolden("compare.txt", out.str());
}

TEST(GoldenOutput, ExportTrace)
{
    const ProfiledRun &run = runV2();
    const std::string profile = encodeProfile(run.records);

    // Stream through the reader exactly as tpupoint-export does.
    std::istringstream in(profile, std::ios::binary);
    ProfileReader reader(in);
    std::ostringstream out;
    obs::ProfileTraceOptions options;
    obs::ProfileTraceWriter writer(out, options);
    ColumnarRecord record;
    while (reader.read(record))
        writer.add(record);
    writer.finish();
    expectGolden("export_trace.json", out.str());
}

TEST(GoldenOutput, AnalyzeTrace)
{
    // The analyzer's chrome://tracing document exactly as
    // tpupoint-analyze writes it: default (OLS) analysis, with the
    // Profile Breakdown track drawn from every non-boundary record.
    const ProfiledRun &run = runV2();
    const AnalysisResult analysis =
        TpuPointAnalyzer(AnalyzerOptions{})
            .analyze(run.records, run.checkpoints);
    std::vector<ProfileWindowInfo> windows;
    for (const auto &record : run.records) {
        if (!record.attempt_boundary)
            windows.emplace_back(record);
    }
    ASSERT_FALSE(windows.empty());
    std::ostringstream out;
    writeChromeTrace(analysis, windows, out);
    expectGolden("analyze_trace.json", out.str());
}

// Streaming-vs-batch agreement across the Table I workloads the
// paper characterizes. Three claims, each at --threads 1, 2 and 8:
// a streaming-mode session's finalize() output is byte-identical
// to the batch path (so turning live phases on can never change
// an archived analysis); the streaming OLS phase boundaries equal
// the batch OLS groups exactly (the snapshot is the same fold,
// finished once); and the mini-batch k-means reservoir estimate
// of top-3 coverage lands within a pinned tolerance of the batch
// answer.
TEST(GoldenOutput, StreamingAgreementAcrossTableIWorkloads)
{
    for (const WorkloadId id : kTableOne) {
        SCOPED_TRACE(workloadName(id));
        const ProfiledRun run =
            profileWorkload(id, TpuGeneration::V3);
        ASSERT_FALSE(run.records.empty());

        AnalyzerOptions batch_opts;
        batch_opts.algorithm = PhaseAlgorithm::OnlineLinearScan;
        batch_opts.extra_algorithms = {PhaseAlgorithm::KMeans};
        const AnalysisResult batch =
            TpuPointAnalyzer(batch_opts).analyze(run.records,
                                                 run.checkpoints);
        const std::string batch_json = analysisJson(batch);
        ASSERT_EQ(batch.detections.size(), 2u);
        const double batch_coverage =
            batch.detections[1].top3_coverage;

        for (const unsigned threads : {1u, 2u, 8u}) {
            AnalyzerOptions opts = batch_opts;
            opts.threads = threads;
            opts.streaming = true;
            AnalysisSession session(opts);
            for (const auto &record : run.records)
                session.ingest(record);
            const PartialResult mid = session.partialResult();
            ASSERT_EQ(mid.snapshots.size(), 2u);
            EXPECT_TRUE(mid.snapshots[0].exact);
            EXPECT_TRUE(mid.snapshots[1].sampled);

            const AnalysisResult streamed =
                session.finalize(run.checkpoints);
            EXPECT_EQ(analysisJson(streamed), batch_json)
                << "streaming output diverges at --threads "
                << threads;

            const PartialResult fin = session.partialResult();
            EXPECT_EQ(fin.steps_behind, 0u);
            const StreamingSnapshot &ols = fin.snapshots[0];
            ASSERT_EQ(ols.phases.size(), batch.ols_groups.size());
            for (std::size_t i = 0; i < ols.phases.size(); ++i) {
                EXPECT_EQ(ols.phases[i].steps,
                          batch.ols_groups[i].steps)
                    << "OLS phase " << i;
                EXPECT_EQ(ols.phases[i].duration,
                          batch.ols_groups[i].duration)
                    << "OLS phase " << i;
            }
            const StreamingSnapshot &kmeans = fin.snapshots[1];
            EXPECT_NEAR(kmeans.top3_coverage, batch_coverage,
                        0.15)
                << "k-means reservoir estimate drifted at "
                   "--threads "
                << threads;
        }
    }
}

// The profiler's encoded output, pinned: size and CRC-32 of the
// whole profile container per Table I workload. Any change to how
// the collector summarizes events, how records are encoded, or how
// the container frames them shows up here.
TEST(GoldenOutput, ProfileContainerDigests)
{
    std::ostringstream digests;
    for (const WorkloadId id : kTableOne) {
        const ProfiledRun run =
            profileWorkload(id, TpuGeneration::V2);
        ASSERT_FALSE(run.records.empty());
        const std::string profile = encodeProfile(run.records);
        char crc[16];
        std::snprintf(crc, sizeof(crc), "%08x", crc32(profile));
        digests << workloadName(id) << " " << profile.size() << " "
                << crc << "\n";
    }
    expectGolden("profile_digests.txt", digests.str());
}

/** @p v as a C99 hex float: exact, so any bit change shows. */
std::string
hexDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** CRC-32 of @p labels written as comma-joined decimals. */
std::string
labelsCrc(const std::vector<int> &labels)
{
    std::string text;
    for (const int label : labels)
        text += std::to_string(label) + ",";
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc32(text));
    return buf;
}

// DBSCAN pinned per Table I workload: the suggested eps, the whole
// min-samples sweep (noise ratio and cluster count per setting),
// the elbow and its labels, plus single clusterings at a tighter
// radius. The goldens above serialize only the primary detector,
// so without this nothing pins the DBSCAN numerics. Serial and
// 8-worker runs must both produce the golden text.
TEST(GoldenOutput, ClusterSweeps)
{
    std::vector<FeatureMatrix> features;
    for (const WorkloadId id : kTableOne) {
        const ProfiledRun run =
            profileWorkload(id, TpuGeneration::V2);
        ASSERT_FALSE(run.records.empty());
        features.push_back(FeatureMatrix::build(
            StepTable::fromRecords(run.records)));
    }

    std::string golden;
    for (const unsigned threads : {1u, 8u}) {
        std::unique_ptr<ThreadPool> pool;
        if (threads > 1)
            pool = std::make_unique<ThreadPool>(threads);
        std::ostringstream out;
        for (std::size_t w = 0; w < features.size(); ++w) {
            const Matrix &points = features[w].matrix();
            const double eps = suggestEps(points, pool.get());
            const DbscanSweep sweep =
                dbscanSweep(points, 0.0, 5, 180, 25, pool.get());
            out << workloadName(kTableOne[w]) << " rows "
                << points.rows() << " dims " << points.cols()
                << "\n  suggest_eps " << hexDouble(eps)
                << " sweep_eps " << hexDouble(sweep.best.eps)
                << "\n";
            for (std::size_t i = 0;
                 i < sweep.min_samples_values.size(); ++i) {
                out << "  min_samples "
                    << sweep.min_samples_values[i] << " noise "
                    << hexDouble(sweep.noise_curve[i])
                    << " clusters " << sweep.cluster_counts[i]
                    << "\n";
            }
            out << "  elbow " << sweep.elbow_min_samples
                << " labels_crc " << labelsCrc(sweep.best.labels)
                << "\n";
            for (const std::size_t m : {1u, 7u, 60u}) {
                const DbscanResult r =
                    dbscanCluster(points, 0.7 * eps, m);
                out << "  eps*0.7 min_samples " << m << " noise "
                    << hexDouble(r.noise_ratio) << " clusters "
                    << r.clusters << " labels_crc "
                    << labelsCrc(r.labels) << "\n";
            }
        }
        if (threads == 1) {
            golden = out.str();
            expectGolden("cluster_sweeps.txt", golden);
        } else {
            EXPECT_EQ(out.str(), golden)
                << "DBSCAN sweep diverges at " << threads
                << " workers";
        }
    }
}

TEST(GoldenOutput, SalvagedAnalysis)
{
    const ProfiledRun &run = runV2();
    std::string profile = encodeProfile(run.records);
    ASSERT_GT(profile.size(), 1024u);

    // Deterministic damage: corrupt one byte mid-stream (inside
    // some chunk payload) and truncate the end marker.
    profile[profile.size() / 2] ^= 0x5a;
    profile.resize(profile.size() - 4);

    std::string json;
    for (const unsigned threads : {1u, 2u, 8u}) {
        std::istringstream in(profile, std::ios::binary);
        ProfileReader reader(in, /*salvage=*/true);
        AnalyzerOptions options;
        options.algorithm = PhaseAlgorithm::OnlineLinearScan;
        options.extra_algorithms = {PhaseAlgorithm::KMeans,
                                    PhaseAlgorithm::Dbscan};
        options.threads = threads;
        AnalysisSession session(options);
        ColumnarRecord record;
        while (reader.read(record))
            session.ingest(record);
        EXPECT_TRUE(reader.sawDamage());
        const AnalysisResult analysis =
            session.finalize(run.checkpoints);
        const std::string produced = analysisJson(analysis);
        if (threads == 1) {
            json = produced;
            expectGolden("salvage.json", json);
        } else {
            EXPECT_EQ(produced, json)
                << "salvage output diverges at --threads "
                << threads;
        }
    }
}

} // namespace
} // namespace tpupoint
