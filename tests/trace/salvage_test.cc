/**
 * @file Salvage-mode reading of damaged record streams. The CRC
 * per chunk bounds the blast radius of any corruption to the chunk
 * it hits: salvage mode must recover every intact chunk, report
 * exactly what was dropped, and never report Corrupt/Truncated.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "proto/serialize.hh"
#include "trace/record_stream.hh"

namespace tpupoint {
namespace {

/** Build a finished stream of @p count payloads, 2 per chunk. */
std::string
makeStream(int count)
{
    std::ostringstream out;
    RecordStreamOptions options;
    options.chunk_records = 2;
    RecordStreamWriter writer(out, options);
    for (int i = 0; i < count; ++i)
        writer.append("record-" + std::to_string(i));
    writer.finish();
    return out.str();
}

/** Byte offset of the @p nth (0-based) "CHNK" marker. */
std::size_t
chunkOffset(const std::string &bytes, int nth)
{
    std::size_t pos = 0;
    for (int i = 0; i <= nth; ++i) {
        pos = bytes.find("CHNK", pos ? pos + 1 : 0);
        EXPECT_NE(pos, std::string::npos);
    }
    return pos;
}

/** Flip one payload byte of the @p nth chunk (breaks its CRC). */
void
corruptChunkPayload(std::string &bytes, int nth)
{
    const std::size_t payload = chunkOffset(bytes, nth) + 16;
    ASSERT_LT(payload, bytes.size());
    bytes[payload] = static_cast<char>(bytes[payload] ^ 0x5a);
}

std::vector<std::string>
salvageAll(RecordStreamReader &reader)
{
    std::vector<std::string> records;
    std::string_view payload;
    while (reader.next(payload) == StreamStatus::Ok)
        records.emplace_back(payload);
    return records;
}

TEST(SalvageTest, IntactStreamSalvagesWithoutDamageReported)
{
    const std::string bytes = makeStream(6);
    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    EXPECT_TRUE(reader.salvaging());
    const auto records = salvageAll(reader);
    EXPECT_EQ(records.size(), 6u);
    EXPECT_FALSE(reader.sawDamage());
    EXPECT_EQ(reader.chunksDropped(), 0u);
    EXPECT_EQ(reader.recordsDropped(), 0u);
    EXPECT_FALSE(reader.truncatedTail());
}

TEST(SalvageTest, MidStreamCorruptionDropsExactlyOneChunk)
{
    std::string bytes = makeStream(8); // chunks of records 0..7
    corruptChunkPayload(bytes, 1);     // records 2 and 3

    // The plain reader refuses the stream...
    {
        std::istringstream in(bytes);
        RecordStreamReader reader(in);
        std::string_view payload;
        StreamStatus status;
        while ((status = reader.next(payload)) == StreamStatus::Ok)
            ;
        EXPECT_EQ(status, StreamStatus::Corrupt);
    }

    // ...salvage recovers everything the CRCs vouch for.
    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    ASSERT_EQ(records.size(), 6u);
    EXPECT_EQ(records[0], "record-0");
    EXPECT_EQ(records[1], "record-1");
    EXPECT_EQ(records[2], "record-4"); // resynced past the damage
    EXPECT_EQ(records.back(), "record-7");
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_EQ(reader.recordsDropped(), 2u); // via the end marker
    EXPECT_FALSE(reader.truncatedTail());
    EXPECT_TRUE(reader.sawDamage());
}

TEST(SalvageTest, FirstChunkCorruptionStillRecoversTheRest)
{
    std::string bytes = makeStream(6);
    corruptChunkPayload(bytes, 0);

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0], "record-2");
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_EQ(reader.recordsDropped(), 2u);
}

TEST(SalvageTest, BackToBackCorruptChunksBothDrop)
{
    std::string bytes = makeStream(10);
    corruptChunkPayload(bytes, 1);
    corruptChunkPayload(bytes, 2);

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    ASSERT_EQ(records.size(), 6u);
    EXPECT_EQ(records[0], "record-0");
    EXPECT_EQ(records[2], "record-6");
    EXPECT_EQ(reader.chunksDropped(), 2u);
    EXPECT_EQ(reader.recordsDropped(), 4u);
}

TEST(SalvageTest, ClobberedChunkMarkerResynchronizesByScanning)
{
    std::string bytes = makeStream(8);
    const std::size_t marker = chunkOffset(bytes, 2);
    bytes[marker] = 'X'; // "XHNK": the marker itself is gone

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    ASSERT_EQ(records.size(), 6u);
    EXPECT_EQ(records[3], "record-3");
    EXPECT_EQ(records[4], "record-6");
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_GT(reader.bytesSkipped(), 0u);
}

TEST(SalvageTest, TruncatedTailEndsTheStreamEarly)
{
    std::string bytes = makeStream(6);
    bytes.resize(bytes.size() - 20); // into the last chunk

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    EXPECT_LT(records.size(), 6u);
    EXPECT_TRUE(reader.truncatedTail());
    EXPECT_TRUE(reader.sawDamage());
    // Terminal state is sticky and never Corrupt/Truncated.
    std::string_view payload;
    EXPECT_EQ(reader.next(payload), StreamStatus::End);
}

TEST(SalvageTest, DamagedHeaderScansToTheFirstChunk)
{
    std::string bytes = makeStream(4);
    bytes[0] = 'Z'; // break the TPPF magic

    std::istringstream in(bytes);
    RecordStreamReader reader(in, /*salvage=*/true);
    const auto records = salvageAll(reader);
    EXPECT_EQ(records.size(), 4u);
    EXPECT_GT(reader.bytesSkipped(), 0u);
    EXPECT_TRUE(reader.sawDamage());
}

/**
 * Build a version-3 profile container: records without the v4
 * attempt tail (fixed-width u32+u32+u64+u64 = 24 bytes) or the v5
 * drop-count tail (u64 = 8 bytes), framed with the header version
 * patched back to 3.
 */
std::string
makeV3Profile(int count)
{
    std::ostringstream out;
    {
        RecordStreamOptions options;
        options.chunk_records = 1;
        RecordStreamWriter framing(out, options);
        for (int i = 0; i < count; ++i) {
            ColumnarRecord record;
            record.sequence = static_cast<std::uint64_t>(i);
            record.window_begin = i * kSec;
            record.window_end = (i + 1) * kSec;
            record.retries = 40 + static_cast<std::uint64_t>(i);
            record.retry_time = (i + 1) * kMsec;
            std::string payload = encodeProfileRecord(record);
            payload.resize(payload.size() - 24 - 8);
            framing.append(payload);
        }
        framing.finish();
    }
    std::string bytes = out.str();
    bytes[4] = 3; // Version field follows the 4-byte magic.
    return bytes;
}

TEST(SalvageTest, V3RetryFieldsRoundTripThroughBothReaders)
{
    const std::string bytes = makeV3Profile(4);

    // The plain reader accepts the older container outright...
    {
        std::istringstream in(bytes);
        ProfileReader reader(in);
        const auto records = reader.readAll();
        ASSERT_EQ(records.size(), 4u);
        for (std::size_t i = 0; i < records.size(); ++i) {
            EXPECT_EQ(records[i].retries, 40 + i);
            EXPECT_EQ(records[i].retry_time,
                      static_cast<SimTime>(i + 1) * kMsec);
            EXPECT_EQ(records[i].attempt, 0u);
            EXPECT_FALSE(records[i].attempt_boundary);
        }
    }

    // ...and so does the salvage reader, with nothing reported
    // lost.
    std::istringstream in(bytes);
    ProfileReader reader(in, /*salvage=*/true);
    const auto records = reader.readAll();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[2].retries, 42u);
    EXPECT_FALSE(reader.sawDamage());
}

TEST(SalvageTest, DamagedV3ProfileSalvagesRetryFields)
{
    std::string bytes = makeV3Profile(5);
    corruptChunkPayload(bytes, 1);

    std::istringstream in(bytes);
    ProfileReader reader(in, /*salvage=*/true);
    const auto records = reader.readAll();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].retries, 40u);
    EXPECT_EQ(records[1].sequence, 2u); // resynced past the damage
    EXPECT_EQ(records[1].retries, 42u);
    EXPECT_EQ(records[1].retry_time, 3 * kMsec);
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_EQ(reader.recordsDropped(), 1u);
    EXPECT_TRUE(reader.sawDamage());
}

TEST(SalvageTest, ProfileReaderSalvagesDamagedProfiles)
{
    // A real profile record stream: 1 record per chunk so one
    // corrupted chunk costs exactly one record.
    std::ostringstream out;
    {
        RecordStreamOptions options;
        options.chunk_records = 1;
        RecordStreamWriter framing(out, options);
        for (int i = 0; i < 5; ++i) {
            ColumnarRecord record;
            record.sequence = static_cast<std::uint64_t>(i);
            record.window_begin = i * kSec;
            record.window_end = (i + 1) * kSec;
            framing.append(encodeProfileRecord(record));
        }
        framing.finish();
    }
    std::string bytes = out.str();
    corruptChunkPayload(bytes, 2);

    {
        std::istringstream in(bytes);
        ProfileReader reader(in);
        ColumnarRecord record;
        EXPECT_THROW(
            {
                while (reader.read(record))
                    ;
            },
            std::runtime_error);
    }

    std::istringstream in(bytes);
    ProfileReader reader(in, /*salvage=*/true);
    const auto records = reader.readAll();
    ASSERT_EQ(records.size(), 4u);
    EXPECT_EQ(records[0].sequence, 0u);
    EXPECT_EQ(records[2].sequence, 3u);
    EXPECT_EQ(reader.chunksDropped(), 1u);
    EXPECT_EQ(reader.recordsDropped(), 1u);
    EXPECT_TRUE(reader.sawDamage());
}

} // namespace
} // namespace tpupoint
