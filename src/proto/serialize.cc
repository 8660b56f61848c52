#include "proto/serialize.hh"

#include "core/logging.hh"

namespace tpupoint {

ProfileWriter::ProfileWriter(std::ostream &out) : framing(out)
{
}

void
ProfileWriter::write(const ColumnarRecord &record)
{
    framing.append(encodeProfileRecord(record));
}

ProfileReader::ProfileReader(std::istream &in, bool salvage)
    : framing(in, salvage)
{
    if (!salvage && framing.status() != StreamStatus::Ok)
        fatal("ProfileReader: ", framing.error());
}

bool
ProfileReader::read(ColumnarRecord &record,
                    StringInterner &interner)
{
    std::string_view payload;
    for (;;) {
        switch (framing.next(payload)) {
          case StreamStatus::Ok:
            if (!decodeProfileRecordColumnar(payload, record,
                                             interner)) {
                if (framing.salvaging()) {
                    // The chunk CRC passed but this payload does
                    // not decode (written damaged, or a version
                    // skew): drop the record, keep the stream.
                    ++undecodable;
                    continue;
                }
                fatal("ProfileReader: malformed record payload");
            }
            return true;
          case StreamStatus::End:
            return false;
          case StreamStatus::Truncated:
          case StreamStatus::Corrupt:
            fatal("ProfileReader: ", framing.error());
        }
        panic("ProfileReader: unreachable stream status");
    }
}

std::vector<ColumnarRecord>
ProfileReader::readAll()
{
    std::vector<ColumnarRecord> records;
    ColumnarRecord record;
    while (read(record))
        records.push_back(std::move(record));
    return records;
}

} // namespace tpupoint
