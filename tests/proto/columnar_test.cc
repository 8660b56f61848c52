/**
 * @file
 * Columnar record codec: decode fidelity, name-order encoding,
 * malformed-payload rejection, buffer reuse, and the steady-state
 * zero-allocation guarantee of the analyzer's read loop.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hh"
#include "proto/serialize.hh"
#include "tests/analyzer/synthetic.hh"

// Binary-wide allocation counter: every operator new in this test
// binary bumps it, so a test can assert that a code region
// performed no heap allocation at all.
namespace {
std::atomic<std::uint64_t> allocation_count{0};
}

void *
operator new(std::size_t size)
{
    allocation_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace tpupoint {
namespace {

using testutil::opRun;

/** A record over a small fixed op vocabulary. */
ColumnarRecord
vocabRecord(Rng &rng, std::uint64_t sequence)
{
    ColumnarRecord record;
    record.sequence = sequence;
    record.window_begin =
        static_cast<SimTime>(sequence * 1000);
    record.window_end = record.window_begin + 1000;
    record.event_count = 10 + rng.nextBounded(100);
    record.tpu_idle_fraction = rng.nextDouble();
    record.mxu_utilization = rng.nextDouble();
    const char *tpu_names[] = {"fusion", "MatMul", "Reshape",
                               "CrossReplicaSum"};
    const char *host_names[] = {"InfeedEnqueueTuple", "RunGraph"};
    for (std::size_t i = 0; i < 3; ++i) {
        std::vector<std::pair<std::string, ColumnarOpStats>> tpu,
            host;
        for (const char *name : tpu_names)
            tpu.push_back(
                {name,
                 {0, 1 + rng.nextBounded(20),
                  static_cast<SimTime>(rng.nextBounded(10000))}});
        for (const char *name : host_names)
            host.push_back(
                {name,
                 {0, 1 + rng.nextBounded(5),
                  static_cast<SimTime>(rng.nextBounded(10000))}});
        const StepId step = sequence * 3 + i;
        const auto begin = static_cast<SimTime>(step * 100);
        record.appendStep(step, begin, begin + 100, 60, 40, 30,
                          opRun(host), opRun(tpu));
    }
    return record;
}

void
expectSameOps(OpStatsSpan expected, OpStatsSpan got)
{
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t k = 0; k < expected.size(); ++k) {
        EXPECT_EQ(expected[k].op, got[k].op);
        EXPECT_EQ(expected[k].count, got[k].count);
        EXPECT_EQ(expected[k].total_duration,
                  got[k].total_duration);
    }
}

TEST(ColumnarTest, DecodeReproducesWrittenRecords)
{
    Rng rng(11);
    std::vector<ColumnarRecord> written;
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    for (std::uint64_t i = 0; i < 8; ++i) {
        written.push_back(vocabRecord(rng, i));
        writer.write(written.back());
    }
    writer.finish();

    ProfileReader reader(buffer);
    ColumnarRecord col;
    for (const ColumnarRecord &want : written) {
        ASSERT_TRUE(reader.read(col));
        EXPECT_EQ(want.sequence, col.sequence);
        EXPECT_EQ(want.window_begin, col.window_begin);
        EXPECT_EQ(want.window_end, col.window_end);
        EXPECT_EQ(want.event_count, col.event_count);
        EXPECT_EQ(want.truncated, col.truncated);
        EXPECT_DOUBLE_EQ(want.tpu_idle_fraction,
                         col.tpu_idle_fraction);
        EXPECT_DOUBLE_EQ(want.mxu_utilization,
                         col.mxu_utilization);
        ASSERT_EQ(want.stepCount(), col.stepCount());
        EXPECT_EQ(want.step, col.step);
        EXPECT_EQ(want.begin, col.begin);
        EXPECT_EQ(want.end, col.end);
        EXPECT_EQ(want.tpu_busy, col.tpu_busy);
        EXPECT_EQ(want.tpu_idle, col.tpu_idle);
        EXPECT_EQ(want.mxu_active, col.mxu_active);
        for (std::size_t i = 0; i < col.stepCount(); ++i) {
            expectSameOps(want.hostOps(i), col.hostOps(i));
            expectSameOps(want.tpuOps(i), col.tpuOps(i));
        }
    }
    ASSERT_FALSE(reader.read(col));
}

TEST(ColumnarTest, OpsByNameSortsByNameNotId)
{
    // Intern in reverse name order so id order and name order
    // disagree.
    StringInterner interner;
    const std::uint32_t zeta = interner.intern("zeta");
    const std::uint32_t beta = interner.intern("beta");
    const std::uint32_t alpha = interner.intern("alpha");
    const std::vector<ColumnarOpStats> ops{
        {zeta, 1, 10}, {beta, 2, 20}, {alpha, 3, 30}};
    std::vector<NamedOpStats> named;
    opsByName(ops, interner, named);
    ASSERT_EQ(named.size(), 3u);
    EXPECT_EQ(named[0].name, "alpha");
    EXPECT_EQ(named[0].count, 3u);
    EXPECT_EQ(named[1].name, "beta");
    EXPECT_EQ(named[2].name, "zeta");
    EXPECT_EQ(named[2].total_duration, 10);
}

TEST(ColumnarTest, DuplicateOpNameInStepIsRejected)
{
    // Two distinct names of one length; renaming the second to the
    // first leaves a payload that lists one op twice in a step.
    ColumnarRecord record;
    record.appendStep(1, 0, 10, 10, 0, 0, {},
                      opRun({{"MatMul", {0, 1, 4}},
                             {"MatMuX", {0, 2, 6}}}));
    std::string payload = encodeProfileRecord(record);
    const std::size_t at = payload.find("MatMuX");
    ASSERT_NE(at, std::string::npos);
    payload.replace(at, 6, "MatMul");

    ColumnarRecord decoded;
    EXPECT_FALSE(decodeProfileRecordColumnar(
        payload, decoded, StringInterner::global()));

    auto frame = [&payload]() {
        std::ostringstream out(std::ios::binary);
        RecordStreamWriter writer(out);
        writer.append(payload);
        writer.finish();
        return out.str();
    };
    // A strict reader refuses the record; salvage drops and counts
    // it.
    std::istringstream strict_in(frame(), std::ios::binary);
    ProfileReader strict(strict_in);
    EXPECT_THROW(strict.read(decoded), std::runtime_error);
    std::istringstream salvage_in(frame(), std::ios::binary);
    ProfileReader salvage(salvage_in, /*salvage=*/true);
    EXPECT_FALSE(salvage.read(decoded));
    EXPECT_EQ(salvage.recordsDropped(), 1u);
}

TEST(ColumnarTest, ZeroStepRecordsShareOneShape)
{
    // Default-constructed, cleared, collector-style built and
    // decoded records all hold offsets {0} on zero steps, so each
    // encodes identically.
    const std::vector<std::uint32_t> zero{0};
    ColumnarRecord fresh;
    EXPECT_EQ(fresh.host_offsets, zero);
    EXPECT_EQ(fresh.tpu_offsets, zero);

    ColumnarRecord cleared;
    cleared.appendStep(1, 0, 1, 0, 0, 0, {}, {});
    cleared.clear();
    EXPECT_EQ(cleared.host_offsets, zero);
    EXPECT_EQ(cleared.tpu_offsets, zero);

    const std::string bytes = encodeProfileRecord(fresh);
    EXPECT_EQ(encodeProfileRecord(cleared), bytes);
    ColumnarRecord decoded;
    ASSERT_TRUE(decodeProfileRecordColumnar(
        bytes, decoded, StringInterner::global()));
    EXPECT_EQ(decoded.host_offsets, zero);
    EXPECT_EQ(decoded.tpu_offsets, zero);
    EXPECT_EQ(encodeProfileRecord(decoded), bytes);
}

TEST(ColumnarTest, ReencodeIsByteIdentical)
{
    // encode(decode(bytes)) == bytes for the two odd record shapes:
    // a zero-step attempt-boundary marker and a truncated window.
    ColumnarRecord boundary;
    boundary.sequence = 9;
    boundary.window_begin = boundary.window_end = 4 * kSec;
    boundary.attempt = 2;
    boundary.attempt_boundary = true;
    boundary.preempted_at_step = 130;
    boundary.resume_step = 100;

    Rng rng(14);
    ColumnarRecord truncated = vocabRecord(rng, 3);
    truncated.truncated = true;
    truncated.events_dropped = 1234;
    truncated.retries = 2;
    truncated.retry_time = 77;

    for (const ColumnarRecord *record : {&boundary, &truncated}) {
        const std::string bytes = encodeProfileRecord(*record);
        ColumnarRecord decoded;
        ASSERT_TRUE(decodeProfileRecordColumnar(
            bytes, decoded, StringInterner::global()));
        EXPECT_EQ(decoded.attempt_boundary,
                  record->attempt_boundary);
        EXPECT_EQ(decoded.truncated, record->truncated);
        EXPECT_EQ(encodeProfileRecord(decoded), bytes);
    }
}

TEST(ColumnarTest, EntriesAreIdSortedWithinStep)
{
    Rng rng(12);
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    writer.write(vocabRecord(rng, 0));
    writer.finish();
    ProfileReader reader(buffer);
    ColumnarRecord record;
    ASSERT_TRUE(reader.read(record));
    for (std::size_t i = 0; i < record.stepCount(); ++i) {
        for (OpStatsSpan ops :
             {record.hostOps(i), record.tpuOps(i)}) {
            for (std::size_t k = 1; k < ops.size(); ++k)
                EXPECT_LT(ops[k - 1].op, ops[k].op);
        }
    }
}

TEST(ColumnarTest, ClearRetainsCapacity)
{
    ColumnarRecord record;
    record.step.assign(100, 0);
    record.tpu_ops.assign(400, {});
    const std::size_t step_cap = record.step.capacity();
    const std::size_t ops_cap = record.tpu_ops.capacity();
    record.clear();
    EXPECT_EQ(record.stepCount(), 0u);
    EXPECT_TRUE(record.tpu_ops.empty());
    EXPECT_EQ(record.step.capacity(), step_cap);
    EXPECT_EQ(record.tpu_ops.capacity(), ops_cap);
}

TEST(ColumnarTest, SteadyStateReadLoopDoesNotAllocate)
{
    // A long stream over a fixed op vocabulary: after a warm-up
    // prefix has sized the chunk buffer, the reused record and the
    // interner, the remaining reads must perform zero heap
    // allocations (the tentpole guarantee of the columnar path).
    Rng rng(13);
    std::stringstream buffer;
    ProfileWriter writer(buffer);
    constexpr std::uint64_t kRecords = 200;
    for (std::uint64_t i = 0; i < kRecords; ++i)
        writer.write(vocabRecord(rng, i));
    writer.finish();

    ProfileReader reader(buffer);
    ColumnarRecord record;
    std::uint64_t produced = 0;
    for (; produced < kRecords / 2; ++produced)
        ASSERT_TRUE(reader.read(record));

    const std::uint64_t growths_before = reader.bufferGrowths();
    const std::uint64_t allocations_before =
        allocation_count.load(std::memory_order_relaxed);
    while (reader.read(record))
        ++produced;
    const std::uint64_t allocations_after =
        allocation_count.load(std::memory_order_relaxed);

    EXPECT_EQ(produced, kRecords);
    EXPECT_EQ(allocations_after - allocations_before, 0u);
    EXPECT_EQ(reader.bufferGrowths(), growths_before);
}

} // namespace
} // namespace tpupoint
