#include "wal/log_record.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.h"

namespace redo::wal {
namespace {

TEST(PayloadTest, WriterReaderRoundTrip) {
  PayloadWriter w;
  w.U8(7).U16(300).U32(70000).U64(1ULL << 40).I64(-5);
  const uint8_t blob[] = {1, 2, 3};
  w.Bytes(blob, 3);
  const std::vector<uint8_t> bytes = w.Take();

  PayloadReader r(bytes);
  EXPECT_EQ(r.U8().value(), 7);
  EXPECT_EQ(r.U16().value(), 300);
  EXPECT_EQ(r.U32().value(), 70000u);
  EXPECT_EQ(r.U64().value(), 1ULL << 40);
  EXPECT_EQ(r.I64().value(), -5);
  EXPECT_EQ(r.Bytes(3).value(), std::vector<uint8_t>({1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(PayloadTest, UnderrunReturnsCorruption) {
  const std::vector<uint8_t> bytes = {1, 2};
  PayloadReader r(bytes);
  EXPECT_EQ(r.U64().status().code(), StatusCode::kCorruption);
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord record;
  record.lsn = 42;
  record.type = RecordType::kPageSplit;
  record.payload = {9, 8, 7, 6};
  const std::vector<uint8_t> encoded = EncodeRecord(record);
  size_t offset = 0;
  Result<LogRecord> decoded = DecodeRecord(encoded, &offset);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), record);
  EXPECT_EQ(offset, encoded.size());
}

TEST(LogRecordTest, EmptyPayloadRoundTrip) {
  LogRecord record;
  record.lsn = 1;
  record.type = RecordType::kCheckpoint;
  const std::vector<uint8_t> encoded = EncodeRecord(record);
  size_t offset = 0;
  EXPECT_TRUE(DecodeRecord(encoded, &offset).ok());
}

TEST(LogRecordTest, MultipleRecordsDecodeSequentially) {
  LogRecord a{1, RecordType::kSlotWrite, {1}};
  LogRecord b{2, RecordType::kPageImage, {2, 2}};
  std::vector<uint8_t> bytes = EncodeRecord(a);
  const std::vector<uint8_t> second = EncodeRecord(b);
  bytes.insert(bytes.end(), second.begin(), second.end());

  size_t offset = 0;
  EXPECT_EQ(DecodeRecord(bytes, &offset).value(), a);
  EXPECT_EQ(DecodeRecord(bytes, &offset).value(), b);
  EXPECT_EQ(offset, bytes.size());
}

TEST(LogRecordTest, TruncatedRecordDetected) {
  LogRecord record{1, RecordType::kSlotWrite, {1, 2, 3}};
  std::vector<uint8_t> encoded = EncodeRecord(record);
  encoded.resize(encoded.size() - 4);  // torn tail
  size_t offset = 0;
  EXPECT_EQ(DecodeRecord(encoded, &offset).status().code(),
            StatusCode::kCorruption);
}

TEST(LogRecordTest, TruncationAtEveryByteOffsetDetected) {
  // A torn force can cut the final record at ANY byte. Wherever the cut
  // lands — inside the length prefix, the header, the payload, or the
  // trailing checksum — decoding must fail cleanly (kCorruption) and
  // must not advance the offset past valid data.
  LogRecord intact{7, RecordType::kPageSplit, {10, 20, 30, 40, 50}};
  std::vector<uint8_t> prefix = EncodeRecord(LogRecord{
      6, RecordType::kSlotWrite, {1, 2}});
  const size_t prefix_size = prefix.size();
  const std::vector<uint8_t> tail = EncodeRecord(intact);
  for (size_t cut = 0; cut < tail.size(); ++cut) {
    std::vector<uint8_t> bytes = prefix;
    bytes.insert(bytes.end(), tail.begin(),
                 tail.begin() + static_cast<ptrdiff_t>(cut));
    size_t offset = 0;
    ASSERT_TRUE(DecodeRecord(bytes, &offset).ok()) << "cut=" << cut;
    ASSERT_EQ(offset, prefix_size) << "cut=" << cut;
    const Result<LogRecord> torn = DecodeRecord(bytes, &offset);
    EXPECT_EQ(torn.status().code(), StatusCode::kCorruption) << "cut=" << cut;
    EXPECT_EQ(offset, prefix_size)
        << "failed decode must not advance the offset (cut=" << cut << ")";
  }
  // And the un-cut record still decodes (the loop's sanity complement).
  std::vector<uint8_t> whole = prefix;
  whole.insert(whole.end(), tail.begin(), tail.end());
  size_t offset = prefix_size;
  EXPECT_EQ(DecodeRecord(whole, &offset).value(), intact);
}

TEST(LogRecordTest, ImplausibleLengthPrefixRejected) {
  // A tear can leave garbage where the next record's length prefix
  // would be; a huge value must not trigger a huge read-ahead.
  std::vector<uint8_t> bytes(64, 0xFF);
  size_t offset = 0;
  EXPECT_EQ(DecodeRecord(bytes, &offset).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(offset, 0u);
}

TEST(LogRecordTest, BitFlipDetectedByChecksum) {
  LogRecord record{1, RecordType::kSlotWrite, {1, 2, 3}};
  std::vector<uint8_t> encoded = EncodeRecord(record);
  encoded[encoded.size() / 2] ^= 0x40;
  size_t offset = 0;
  EXPECT_EQ(DecodeRecord(encoded, &offset).status().code(),
            StatusCode::kCorruption);
}

// ---- Decoders that refuse garbage ----

// Every single-byte flip (mask 0xff and one random nonzero mask per
// byte, as the engine decoders' sweep) and every proper prefix of an
// encoded record is refused as a diagnosed Corruption that leaves the
// offset alone: the length prefix and the CRC32C over header and
// payload leave no byte whose damage decodes to a different record.
TEST(LogRecordTest, EveryFlipAndPrefixOfARecordIsRefused) {
  Rng rng(30);
  std::vector<uint8_t> image(4096);  // a page image's worth of payload
  for (uint8_t& byte : image) byte = static_cast<uint8_t>(rng.Next());
  const LogRecord records[] = {
      {1, RecordType::kCheckpoint, {}},
      {42, RecordType::kSlotWrite, {1, 2, 3, 4, 5, 6, 7}},
      {uint64_t{1} << 40, RecordType::kPageImage, image},
  };
  for (const LogRecord& record : records) {
    const std::vector<uint8_t> encoded = EncodeRecord(record);
    auto expect_refused = [](const std::vector<uint8_t>& bytes,
                             const std::string& what) {
      size_t offset = 0;
      const Result<LogRecord> decoded = DecodeRecord(bytes, &offset);
      EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption) << what;
      EXPECT_FALSE(decoded.status().message().empty()) << what;
      EXPECT_EQ(offset, 0u) << what;
    };
    const std::string name =
        "payload of " + std::to_string(record.payload.size()) + " bytes, ";
    std::vector<uint8_t> mutant = encoded;
    for (size_t i = 0; i < encoded.size(); ++i) {
      for (const uint8_t mask :
           {uint8_t{0xff}, static_cast<uint8_t>(1 + rng.Below(255))}) {
        mutant[i] ^= mask;
        expect_refused(mutant, name + "flip at " + std::to_string(i));
        mutant[i] = encoded[i];
      }
    }
    for (size_t size = 0; size < encoded.size(); ++size) {
      expect_refused(std::vector<uint8_t>(encoded.begin(),
                                          encoded.begin() +
                                              static_cast<ptrdiff_t>(size)),
                     name + "prefix of " + std::to_string(size));
    }
    size_t offset = 0;
    EXPECT_EQ(DecodeRecord(encoded, &offset).value(), record);
  }
}

}  // namespace
}  // namespace redo::wal
