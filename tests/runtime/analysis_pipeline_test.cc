/**
 * @file
 * AnalysisPipeline error contract and ingest-metric labeling. The
 * batch tools' behavior is pinned exactly — a zero-record profile
 * is Empty with the historical message, never the streaming
 * layer's Pending — and chargeIngestMetrics routes concurrent
 * sessions to per-session gauges instead of one shared,
 * last-write-wins name.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#ifdef __unix__
#include <unistd.h>
#endif

#include "obs/metrics.hh"
#include "proto/serialize.hh"
#include "runtime/analysis_pipeline.hh"
#include "tests/analyzer/synthetic.hh"
#include "trace/record_stream.hh"

namespace tpupoint {
namespace runtime {
namespace {

std::string
tempPath(const std::string &name)
{
#ifdef __unix__
    return testing::TempDir() + std::to_string(getpid()) + "." +
        name;
#else
    return testing::TempDir() + name;
#endif
}

void
writeStream(const std::string &path, std::size_t records)
{
    std::ofstream out(path, std::ios::binary);
    RecordStreamWriter writer(out);
    const auto steps = testutil::threePhaseRun();
    for (std::size_t i = 0; i < records; ++i)
        writer.append(encodeProfileRecord(testutil::makeRecord(
            {steps[i % steps.size()]}, i)));
    writer.finish();
}

TEST(AnalysisPipelineTest, ErrorNamesAreStable)
{
    EXPECT_STREQ(pipelineErrorName(PipelineError::None), "none");
    EXPECT_STREQ(pipelineErrorName(PipelineError::OpenFailed),
                 "open-failed");
    EXPECT_STREQ(pipelineErrorName(PipelineError::Unreadable),
                 "unreadable");
    EXPECT_STREQ(pipelineErrorName(PipelineError::Empty), "empty");
    EXPECT_STREQ(pipelineErrorName(PipelineError::Pending),
                 "pending");
}

// The batch contract: a sealed zero-record profile is Empty, with
// the exact historical message. Pending exists only for the
// streaming layer, where "no records yet" is not a verdict.
TEST(AnalysisPipelineTest, BatchZeroRecordProfileIsEmptyNotPending)
{
    const std::string path = tempPath("pipeline_empty.tpp");
    writeStream(path, 0);

    AnalysisPipeline pipeline;
    const PipelineReport report =
        pipeline.streamProfile(path, [](const ColumnarRecord &) {});
    EXPECT_EQ(report.error, PipelineError::Empty);
    EXPECT_EQ(report.message,
              "profile '" + path + "' contains no records");
    EXPECT_EQ(report.records, 0u);
    std::remove(path.c_str());
}

TEST(AnalysisPipelineTest, MissingProfileIsOpenFailed)
{
    const std::string path = tempPath("pipeline_missing.tpp");
    std::remove(path.c_str());
    AnalysisPipeline pipeline;
    AnalysisResult result;
    const PipelineReport report =
        pipeline.analyzeProfile(path, &result);
    EXPECT_EQ(report.error, PipelineError::OpenFailed);
    EXPECT_FALSE(report.message.empty());
}

TEST(AnalysisPipelineTest, AnalyzeChargesUnlabeledGaugeForBatch)
{
    auto &registry = obs::MetricsRegistry::global();
    registry.reset();
    const std::string path = tempPath("pipeline_batch.tpp");
    writeStream(path, 24);

    AnalysisPipeline pipeline;
    AnalysisResult result;
    const PipelineReport report =
        pipeline.analyzeProfile(path, &result);
    ASSERT_TRUE(report.ok()) << report.message;
    EXPECT_EQ(report.records, 24u);

    const obs::MetricsSnapshot snapshot = registry.snapshot();
    // Batch passes keep the historical unlabeled gauge name.
    EXPECT_NE(snapshot.gauges.find("analyzer.ingest_bytes_per_sec"),
              snapshot.gauges.end());
    const auto histogram = snapshot.histograms.find(
        "analyzer.ingest_bytes_per_sec");
    ASSERT_NE(histogram, snapshot.histograms.end());
    EXPECT_GE(histogram->second.count, 1u);
    std::remove(path.c_str());
}

TEST(AnalysisPipelineTest, ConcurrentSessionLabelsDoNotClobber)
{
    auto &registry = obs::MetricsRegistry::global();
    registry.reset();
    // Two interleaved sessions reporting very different rates:
    // with one shared gauge the first write would be lost.
    chargeIngestMetrics("fast", 1000, 8 * 1024 * 1024, 1.0);
    chargeIngestMetrics("slow", 10, 4 * 1024, 1.0);

    const obs::MetricsSnapshot snapshot = registry.snapshot();
    const auto fast = snapshot.gauges.find(
        "analyzer.ingest_bytes_per_sec{session=fast}");
    const auto slow = snapshot.gauges.find(
        "analyzer.ingest_bytes_per_sec{session=slow}");
    ASSERT_NE(fast, snapshot.gauges.end());
    ASSERT_NE(slow, snapshot.gauges.end());
    EXPECT_EQ(fast->second, 8 * 1024 * 1024);
    EXPECT_EQ(slow->second, 4 * 1024);
    // Neither session touched the unlabeled batch gauge...
    EXPECT_EQ(snapshot.gauges.find("analyzer.ingest_bytes_per_sec"),
              snapshot.gauges.end());
    // ...but both passes landed in the aggregate histogram.
    const auto histogram = snapshot.histograms.find(
        "analyzer.ingest_bytes_per_sec");
    ASSERT_NE(histogram, snapshot.histograms.end());
    EXPECT_EQ(histogram->second.count, 2u);
}

} // namespace
} // namespace runtime
} // namespace tpupoint
