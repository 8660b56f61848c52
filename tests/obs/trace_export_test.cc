/** @file Trace-event JSON export: golden format and filters. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/json.hh"
#include "obs/trace_export.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace obs {
namespace {

/** A hand-built window whose timings print as clean integers. */
ColumnarRecord
tinyWindow()
{
    ColumnarRecord record;
    record.sequence = 0;
    record.window_begin = 0;
    record.window_end = 10000;
    record.event_count = 3;
    record.tpu_idle_fraction = 0.5;
    record.mxu_utilization = 0.25;
    // Step 3 spans 1000..5000 ns (1..5 us in the trace).
    record.appendStep(3, 1000, 5000, 0, 0, 0,
                      testutil::opRun({{"Recv", {0, 1, 1000}}}),
                      testutil::opRun({{"MatMul", {0, 2, 3000}}}));
    return record;
}

ColumnarRecord
boundaryMarker()
{
    ColumnarRecord record;
    record.attempt_boundary = true;
    record.attempt = 2;
    record.window_begin = 10000;
    record.preempted_at_step = 7;
    record.resume_step = 4;
    return record;
}

/**
 * The golden test: pins the exported trace-event JSON byte for
 * byte. chrome://tracing and Perfetto both parse this document —
 * any change to the format must update this expectation
 * deliberately.
 */
TEST(TraceExportTest, GoldenProfileTrace)
{
    std::ostringstream out;
    ProfileTraceWriter writer(out);
    writer.add(tinyWindow());
    writer.add(boundaryMarker());
    writer.finish();

    const std::string expected =
        "{\"traceEvents\":["
        // Track names (one metadata event per tid).
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":1,\"args\":{\"name\":\"Steps\"}},"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":2,\"args\":{\"name\":\"TPU ops\"}},"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":3,\"args\":{\"name\":\"Host ops\"}},"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
        "\"tid\":4,\"args\":{\"name\":\"Profile windows\"}},"
        // The profile window itself.
        "{\"name\":\"profile 0\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":4,\"ts\":0,\"dur\":10,\"args\":{\"count\":3}},"
        // Device counters sampled with the window.
        "{\"name\":\"tpu_idle_fraction\",\"ph\":\"C\",\"pid\":1,"
        "\"ts\":0,\"args\":{\"value\":0.5}},"
        "{\"name\":\"mxu_utilization\",\"ph\":\"C\",\"pid\":1,"
        "\"ts\":0,\"args\":{\"value\":0.25}},"
        // One X event per step, then per per-step op row.
        "{\"name\":\"step 3\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        "\"ts\":1,\"dur\":4},"
        "{\"name\":\"MatMul\",\"ph\":\"X\",\"pid\":1,\"tid\":2,"
        "\"ts\":1,\"dur\":3,\"args\":{\"count\":2}},"
        "{\"name\":\"Recv\",\"ph\":\"X\",\"pid\":1,\"tid\":3,"
        "\"ts\":1,\"dur\":1,\"args\":{\"count\":1}},"
        // Instant event at the attempt boundary.
        "{\"name\":\"preempted (attempt 2)\",\"ph\":\"i\","
        "\"pid\":1,\"tid\":1,\"ts\":10,\"s\":\"g\","
        "\"args\":{\"preempted_at_step\":7,\"resume_step\":4,"
        "\"attempt\":2}}"
        "],\"displayTimeUnit\":\"ms\"}";
    EXPECT_EQ(out.str(), expected);

    std::string error;
    EXPECT_TRUE(validateJson(out.str(), &error)) << error;
}

TEST(TraceExportTest, EventWriterClosesOnceAndDropsLateEvents)
{
    std::ostringstream out;
    {
        TraceEventWriter events(out);
        events.threadName(3, 9, "Track");
        events.counter("depth", 3, 2500, 4);
        events.instant("mark", 3, 9, 1000);
        events.finish();
        events.finish();
        events.duration("late", 3, 9, 0, 1);
        EXPECT_TRUE(events.finished());
    } // The destructor must not close the document again.
    EXPECT_EQ(out.str(),
              "{\"traceEvents\":["
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,"
              "\"tid\":9,\"args\":{\"name\":\"Track\"}},"
              "{\"name\":\"depth\",\"ph\":\"C\",\"pid\":3,"
              "\"ts\":2.5,\"args\":{\"value\":4}},"
              "{\"name\":\"mark\",\"ph\":\"i\",\"pid\":3,"
              "\"tid\":9,\"ts\":1,\"s\":\"g\"}"
              "],\"displayTimeUnit\":\"ms\"}");

    // Destruction alone closes an unfinished document.
    std::ostringstream closed;
    {
        TraceEventWriter events(closed);
    }
    EXPECT_EQ(closed.str(),
              "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(TraceExportTest, WindowSliceNamesTruncationAndClampsSpan)
{
    const WindowSlice whole = profileWindowSlice(4, 100, 300, false);
    EXPECT_EQ(whole.name, "profile 4");
    EXPECT_EQ(whole.start, 100);
    EXPECT_EQ(whole.duration, 200);

    // A truncated window is labelled; an inverted one has no width.
    const WindowSlice cut = profileWindowSlice(5, 300, 100, true);
    EXPECT_EQ(cut.name, "profile 5 (truncated)");
    EXPECT_EQ(cut.start, 300);
    EXPECT_EQ(cut.duration, 0);
}

TEST(TraceExportTest, EveryOpBecomesOneDurationEvent)
{
    const auto steps = testutil::threePhaseRun(10, 2);
    const ColumnarRecord record = testutil::makeRecord(steps);

    std::uint64_t op_rows = 0;
    for (const auto &s : steps)
        op_rows += s.tpu_ops.size() + s.host_ops.size();

    std::ostringstream out;
    ProfileTraceWriter writer(out);
    writer.add(record);
    writer.finish();
    // window + one per step + one per op row.
    EXPECT_EQ(writer.durationEvents(),
              1 + record.stepCount() + op_rows);
    EXPECT_EQ(writer.instantEvents(), 0u);

    std::string error;
    EXPECT_TRUE(validateJson(out.str(), &error)) << error;
}

TEST(TraceExportTest, StepRangeFilterCountsWhatItSkips)
{
    const ColumnarRecord record =
        testutil::makeRecord(testutil::threePhaseRun(10, 2));
    ProfileTraceOptions options;
    options.first_step = 2;
    options.last_step = 4;

    std::ostringstream out;
    ProfileTraceWriter writer(out, options);
    writer.add(record);
    writer.finish();
    EXPECT_EQ(writer.stepsFiltered(), record.stepCount() - 3);
    EXPECT_NE(out.str().find("\"step 3\""), std::string::npos);
    EXPECT_EQ(out.str().find("\"step 7\""), std::string::npos);
}

TEST(TraceExportTest, OpAndCounterTracksCanBeSuppressed)
{
    ProfileTraceOptions options;
    options.include_ops = false;
    options.include_counters = false;

    std::ostringstream out;
    ProfileTraceWriter writer(out, options);
    writer.add(tinyWindow());
    writer.finish();
    EXPECT_EQ(out.str().find("MatMul"), std::string::npos);
    EXPECT_EQ(out.str().find("tpu_idle_fraction"),
              std::string::npos);
    EXPECT_NE(out.str().find("\"step 3\""), std::string::npos);
}

TEST(TraceExportTest, SpanTraceNormalizesToZeroOrigin)
{
    SpanRecord a;
    a.name = "analyze.ingest";
    a.thread_id = 1;
    a.begin_ns = 5'000'000;
    a.end_ns = 7'000'000;
    SpanRecord b;
    b.name = "analyze.kmeans";
    b.thread_id = 2;
    b.begin_ns = 6'000'000;
    b.end_ns = 6'500'000;
    b.args.emplace_back("steps", "97");

    std::ostringstream out;
    writeSpanTrace({a, b}, out);
    const std::string text = out.str();
    std::string error;
    EXPECT_TRUE(validateJson(text, &error)) << error;

    // Byte-exact: one pid-2 track per thread, the earliest span at
    // ts 0 and the later one at +1000 us, string args verbatim.
    const std::string expected =
        "{\"traceEvents\":["
        "{\"name\":\"analyze.ingest\",\"ph\":\"X\",\"pid\":2,"
        "\"tid\":1,\"ts\":0,\"dur\":2000},"
        "{\"name\":\"analyze.kmeans\",\"ph\":\"X\",\"pid\":2,"
        "\"tid\":2,\"ts\":1000,\"dur\":500,"
        "\"args\":{\"steps\":\"97\"}}"
        "],\"displayTimeUnit\":\"ms\"}";
    EXPECT_EQ(text, expected);
}

} // namespace
} // namespace obs
} // namespace tpupoint
