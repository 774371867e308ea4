#include "wal/log_record.h"

#include "util/crc32c.h"

namespace redo::wal {

namespace {

constexpr size_t kRecordHeader = 4 + 2 + 8;   // payload_size | type | lsn
constexpr size_t kRecordTrailer = 4;          // crc32c

void AppendLittleEndian(std::vector<uint8_t>* out, uint64_t v, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint64_t ReadLittleEndian(const uint8_t* data, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(data[i]) << (8 * i);
  }
  return v;
}

}  // namespace

PayloadWriter& PayloadWriter::U8(uint8_t v) {
  bytes_.push_back(v);
  return *this;
}
PayloadWriter& PayloadWriter::U16(uint16_t v) {
  AppendLittleEndian(&bytes_, v, 2);
  return *this;
}
PayloadWriter& PayloadWriter::U32(uint32_t v) {
  AppendLittleEndian(&bytes_, v, 4);
  return *this;
}
PayloadWriter& PayloadWriter::U64(uint64_t v) {
  AppendLittleEndian(&bytes_, v, 8);
  return *this;
}
PayloadWriter& PayloadWriter::Bytes(const uint8_t* data, size_t size) {
  bytes_.insert(bytes_.end(), data, data + size);
  return *this;
}

Result<uint8_t> PayloadReader::U8() {
  if (remaining() < 1) return Status::Corruption("payload underrun");
  return bytes_[offset_++];
}
Result<uint16_t> PayloadReader::U16() {
  if (remaining() < 2) return Status::Corruption("payload underrun");
  const uint16_t v =
      static_cast<uint16_t>(ReadLittleEndian(bytes_.data() + offset_, 2));
  offset_ += 2;
  return v;
}
Result<uint32_t> PayloadReader::U32() {
  if (remaining() < 4) return Status::Corruption("payload underrun");
  const uint32_t v =
      static_cast<uint32_t>(ReadLittleEndian(bytes_.data() + offset_, 4));
  offset_ += 4;
  return v;
}
Result<uint64_t> PayloadReader::U64() {
  if (remaining() < 8) return Status::Corruption("payload underrun");
  const uint64_t v = ReadLittleEndian(bytes_.data() + offset_, 8);
  offset_ += 8;
  return v;
}
Result<int64_t> PayloadReader::I64() {
  Result<uint64_t> v = U64();
  if (!v.ok()) return v.status();
  return static_cast<int64_t>(v.value());
}
Result<std::vector<uint8_t>> PayloadReader::Bytes(size_t size) {
  Result<std::span<const uint8_t>> view = View(size);
  if (!view.ok()) return view.status();
  return std::vector<uint8_t>(view.value().begin(), view.value().end());
}
Result<std::span<const uint8_t>> PayloadReader::View(size_t size) {
  if (remaining() < size) return Status::Corruption("payload underrun");
  const std::span<const uint8_t> out(bytes_.data() + offset_, size);
  offset_ += size;
  return out;
}

std::vector<uint8_t> EncodeRecord(const LogRecord& record) {
  REDO_CHECK_LE(record.payload.size(), kMaxRecordPayload);
  std::vector<uint8_t> out;
  out.reserve(EncodedRecordSize(record));
  AppendLittleEndian(&out, record.payload.size(), 4);
  AppendLittleEndian(&out, static_cast<uint16_t>(record.type), 2);
  AppendLittleEndian(&out, record.lsn, 8);
  out.insert(out.end(), record.payload.begin(), record.payload.end());
  AppendLittleEndian(&out, Crc32c(out.data(), out.size()), 4);
  return out;
}

size_t EncodedRecordSize(const LogRecord& record) {
  return kRecordHeader + record.payload.size() + kRecordTrailer;
}

Result<LogRecord> DecodeRecord(const std::vector<uint8_t>& bytes,
                               size_t* offset) {
  if (bytes.size() - *offset < kRecordHeader) {
    return Status::Corruption("log record header truncated");
  }
  const uint8_t* p = bytes.data() + *offset;
  const uint32_t payload_size = static_cast<uint32_t>(ReadLittleEndian(p, 4));
  if (payload_size > kMaxRecordPayload) {
    return Status::Corruption("log record length prefix implausible");
  }
  LogRecord record;
  record.type = static_cast<RecordType>(ReadLittleEndian(p + 4, 2));
  record.lsn = ReadLittleEndian(p + 6, 8);
  if (bytes.size() - *offset < kRecordHeader + payload_size + kRecordTrailer) {
    return Status::Corruption("log record body truncated");
  }
  record.payload.assign(p + kRecordHeader, p + kRecordHeader + payload_size);
  const uint32_t stored = static_cast<uint32_t>(
      ReadLittleEndian(p + kRecordHeader + payload_size, 4));
  if (stored != Crc32c(p, kRecordHeader + payload_size)) {
    return Status::Corruption("log record checksum mismatch");
  }
  *offset += kRecordHeader + payload_size + kRecordTrailer;
  return record;
}

}  // namespace redo::wal
