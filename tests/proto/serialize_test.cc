/** @file Profile binary serialization round trip. */

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "proto/serialize.hh"
#include "tests/analyzer/synthetic.hh"

namespace tpupoint {
namespace {

using testutil::opRun;

/** Build a deterministic pseudo-random record. */
ColumnarRecord
randomRecord(Rng &rng, std::uint64_t sequence)
{
    ColumnarRecord record;
    record.sequence = sequence;
    record.window_begin =
        static_cast<SimTime>(rng.nextBounded(1u << 30));
    record.window_end = record.window_begin +
        static_cast<SimTime>(rng.nextBounded(1u << 30));
    record.event_count = rng.nextBounded(100000);
    record.truncated = rng.bernoulli(0.3);
    record.events_dropped =
        record.truncated ? 1 + rng.nextBounded(5000) : 0;
    record.tpu_idle_fraction = rng.nextDouble();
    record.mxu_utilization = rng.nextDouble();
    record.retries = rng.nextBounded(100);
    record.retry_time =
        static_cast<SimTime>(rng.nextBounded(1u << 30));

    const std::size_t steps = 1 + rng.nextBounded(5);
    for (std::size_t i = 0; i < steps; ++i) {
        const StepId step = sequence * 100 + i;
        const auto begin = static_cast<SimTime>(rng.nextBounded(1000));
        const SimTime end =
            begin + static_cast<SimTime>(rng.nextBounded(10000));
        const auto busy = static_cast<SimTime>(rng.nextBounded(5000));
        const auto idle = static_cast<SimTime>(rng.nextBounded(5000));
        const auto mxu = static_cast<SimTime>(rng.nextBounded(2000));
        const char *tpu_names[] = {"fusion", "MatMul", "Reshape"};
        const char *host_names[] = {"OutfeedDequeueTuple",
                                    "RunGraph"};
        std::vector<std::pair<std::string, ColumnarOpStats>> tpu,
            host;
        for (const char *name : tpu_names)
            tpu.push_back(
                {name,
                 {0, 1 + rng.nextBounded(50),
                  static_cast<SimTime>(rng.nextBounded(100000))}});
        for (const char *name : host_names)
            host.push_back(
                {name,
                 {0, 1 + rng.nextBounded(10),
                  static_cast<SimTime>(rng.nextBounded(100000))}});
        record.appendStep(step, begin, end, busy, idle, mxu,
                          opRun(host), opRun(tpu));
    }
    return record;
}

void
expectSameOps(OpStatsSpan x, OpStatsSpan y)
{
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t k = 0; k < x.size(); ++k) {
        EXPECT_EQ(x[k].op, y[k].op);
        EXPECT_EQ(x[k].count, y[k].count);
        EXPECT_EQ(x[k].total_duration, y[k].total_duration);
    }
}

void
expectEqualRecords(const ColumnarRecord &a, const ColumnarRecord &b)
{
    EXPECT_EQ(a.sequence, b.sequence);
    EXPECT_EQ(a.window_begin, b.window_begin);
    EXPECT_EQ(a.window_end, b.window_end);
    EXPECT_EQ(a.event_count, b.event_count);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_DOUBLE_EQ(a.tpu_idle_fraction, b.tpu_idle_fraction);
    EXPECT_DOUBLE_EQ(a.mxu_utilization, b.mxu_utilization);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.retry_time, b.retry_time);
    EXPECT_EQ(a.attempt, b.attempt);
    EXPECT_EQ(a.attempt_boundary, b.attempt_boundary);
    EXPECT_EQ(a.preempted_at_step, b.preempted_at_step);
    EXPECT_EQ(a.resume_step, b.resume_step);
    EXPECT_EQ(a.events_dropped, b.events_dropped);
    ASSERT_EQ(a.stepCount(), b.stepCount());
    EXPECT_EQ(a.step, b.step);
    EXPECT_EQ(a.begin, b.begin);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.tpu_busy, b.tpu_busy);
    EXPECT_EQ(a.tpu_idle, b.tpu_idle);
    EXPECT_EQ(a.mxu_active, b.mxu_active);
    for (std::size_t i = 0; i < a.stepCount(); ++i) {
        expectSameOps(a.tpuOps(i), b.tpuOps(i));
        expectSameOps(a.hostOps(i), b.hostOps(i));
    }
}

/** Decode @p payload with the global interner. */
bool
decode(const std::string &payload, ColumnarRecord &record)
{
    return decodeProfileRecordColumnar(payload, record,
                                       StringInterner::global());
}

TEST(SerializeTest, RoundTripSingleRecord)
{
    Rng rng(1);
    const ColumnarRecord original = randomRecord(rng, 0);
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    writer.write(original);
    writer.finish();
    EXPECT_EQ(writer.written(), 1u);

    ProfileReader reader(buffer);
    ColumnarRecord decoded;
    ASSERT_TRUE(reader.read(decoded));
    expectEqualRecords(original, decoded);
    ASSERT_FALSE(reader.read(decoded)); // clean EOF
}

TEST(SerializeTest, RoundTripManyRecordsFuzz)
{
    Rng rng(99);
    std::vector<ColumnarRecord> originals;
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    for (std::uint64_t i = 0; i < 25; ++i) {
        originals.push_back(randomRecord(rng, i));
        writer.write(originals.back());
    }
    writer.finish();
    ProfileReader reader(buffer);
    const std::vector<ColumnarRecord> decoded = reader.readAll();
    ASSERT_EQ(decoded.size(), originals.size());
    for (std::size_t i = 0; i < decoded.size(); ++i)
        expectEqualRecords(originals[i], decoded[i]);
}

TEST(SerializeTest, StreamedReadMatchesReadAll)
{
    Rng rng(7);
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    for (std::uint64_t i = 0; i < 40; ++i)
        writer.write(randomRecord(rng, i));
    writer.finish();
    const std::string bytes = buffer.str();

    std::istringstream streamed_in(bytes);
    ProfileReader streamed(streamed_in);
    std::vector<ColumnarRecord> one_at_a_time;
    ColumnarRecord record;
    while (streamed.read(record))
        one_at_a_time.push_back(record);

    std::istringstream bulk_in(bytes);
    ProfileReader bulk(bulk_in);
    const std::vector<ColumnarRecord> all = bulk.readAll();

    ASSERT_EQ(one_at_a_time.size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        expectEqualRecords(one_at_a_time[i], all[i]);
        // Byte-identical, not just field-equal.
        EXPECT_EQ(encodeProfileRecord(one_at_a_time[i]),
                  encodeProfileRecord(all[i]));
    }
}

TEST(SerializeTest, EmptyProfileReadsZeroRecords)
{
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    writer.finish();
    ProfileReader reader(buffer);
    ColumnarRecord record;
    EXPECT_FALSE(reader.read(record));
    EXPECT_EQ(reader.recordsRead(), 0u);
}

TEST(SerializeTest, BadMagicIsRejected)
{
    std::stringstream buffer;
    buffer << "NOPExxxxxxxxxxxxxxxx";
    EXPECT_THROW(ProfileReader reader(buffer),
                 std::runtime_error);
}

TEST(SerializeTest, TruncatedStreamIsRejected)
{
    Rng rng(2);
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    writer.write(randomRecord(rng, 0));
    writer.finish();
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream truncated(bytes);
    ProfileReader reader(truncated);
    ColumnarRecord record;
    EXPECT_THROW(reader.read(record), std::runtime_error);
}

TEST(SerializeTest, V4RoundTripCarriesAttemptFields)
{
    Rng rng(11);
    ColumnarRecord original = randomRecord(rng, 4);
    original.attempt = 3;
    original.attempt_boundary = true;
    original.preempted_at_step = 480;
    original.resume_step = 450;

    ColumnarRecord decoded;
    ASSERT_TRUE(
        decode(encodeProfileRecord(original),
                            decoded));
    expectEqualRecords(original, decoded);
    EXPECT_EQ(decoded.attempt, 3u);
    EXPECT_TRUE(decoded.attempt_boundary);
    EXPECT_EQ(decoded.preempted_at_step, 480u);
    EXPECT_EQ(decoded.resume_step, 450u);
}

/** The 24-byte v4 attempt tail: u32 + u32 + u64 + u64. */
constexpr std::size_t kAttemptTailBytes = 24;

/** The 8-byte v5 drop-count tail: one u64. */
constexpr std::size_t kDropTailBytes = 8;

TEST(SerializeTest, V3PayloadWithoutAttemptTailStillDecodes)
{
    Rng rng(12);
    ColumnarRecord original = randomRecord(rng, 9);
    original.retries = 17;
    original.retry_time = 123 * kMsec;

    // Strip the fixed-width v4 + v5 tails: exactly what a v3
    // writer emitted. The v3 retry fields must survive unchanged
    // and the newer fields take their defaults.
    original.events_dropped = 0; // not representable in v3
    std::string payload = encodeProfileRecord(original);
    ASSERT_GT(payload.size(),
              kAttemptTailBytes + kDropTailBytes);
    payload.resize(payload.size() - kAttemptTailBytes -
                   kDropTailBytes);

    ColumnarRecord decoded;
    ASSERT_TRUE(decode(payload, decoded));
    expectEqualRecords(original, decoded);
    EXPECT_EQ(decoded.retries, 17u);
    EXPECT_EQ(decoded.retry_time, 123 * kMsec);
    EXPECT_EQ(decoded.attempt, 0u);
    EXPECT_FALSE(decoded.attempt_boundary);
    EXPECT_EQ(decoded.preempted_at_step, 0u);
    EXPECT_EQ(decoded.resume_step, 0u);
}

TEST(SerializeTest, V4PayloadWithoutDropTailStillDecodes)
{
    Rng rng(21);
    ColumnarRecord original = randomRecord(rng, 3);
    original.attempt = 2;
    original.attempt_boundary = true;
    original.preempted_at_step = 800;
    original.resume_step = 750;

    // Strip only the v5 drop-count tail: exactly what a v4 writer
    // emitted. The attempt fields must survive and the drop count
    // must default to zero.
    original.events_dropped = 0; // not representable in v4
    std::string payload = encodeProfileRecord(original);
    ASSERT_GT(payload.size(), kDropTailBytes);
    payload.resize(payload.size() - kDropTailBytes);

    ColumnarRecord decoded;
    ASSERT_TRUE(decode(payload, decoded));
    expectEqualRecords(original, decoded);
    EXPECT_EQ(decoded.attempt, 2u);
    EXPECT_TRUE(decoded.attempt_boundary);
    EXPECT_EQ(decoded.events_dropped, 0u);
}

TEST(SerializeTest, PartialAttemptTailIsRejected)
{
    Rng rng(13);
    std::string payload =
        encodeProfileRecord(randomRecord(rng, 0));
    // A tail that is present but cut short is damage, not a v3
    // payload.
    payload.resize(payload.size() - kAttemptTailBytes / 2);
    ColumnarRecord decoded;
    EXPECT_FALSE(decode(payload, decoded));
}

} // namespace
} // namespace tpupoint
