// Log records.
//
// The log manager stores typed, length-prefixed, checksummed records.
// Record semantics (what a "slot write" or "page split" means) belong to
// the engine and the recovery methods; the WAL layer only guarantees
// durable, ordered, corruption-evident storage.

#ifndef REDO_WAL_LOG_RECORD_H_
#define REDO_WAL_LOG_RECORD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace redo::wal {

/// Engine-level record types. The WAL layer treats these as opaque tags;
/// they are defined here so every layer shares one vocabulary.
enum class RecordType : uint16_t {
  kSlotWrite = 1,     ///< physiological: read-modify-write one page slot
  kPageImage = 2,     ///< physical: a page's whole after-image (engine/ops.h)
  kLogicalOp = 3,     ///< logical: operation description, replayed by function
  kPageSplit = 4,     ///< generalized: read one page, write another (§6.4)
  kPageRewrite = 5,   ///< generalized: rewrite a page in place (§6.4's Q)
  kCheckpoint = 6,    ///< checkpoint metadata
  kBtreeInsert = 7,   ///< B-tree logical insert (single page)
  kBtreeRemove = 8,   ///< B-tree logical remove (single page)
  kBtreeInit = 9,     ///< B-tree node format (single page, blind)
  // Transaction records (ARIES-style three-pass recovery). The metadata
  // records (begin/commit/end/update) carry no redo work; kClr is a
  // first-class redo record replayed by every method.
  kTxnBegin = 10,     ///< transaction started (payload: txn id)
  kTxnCommit = 11,    ///< commit point: stable record = winner
  kTxnEnd = 12,       ///< transaction fully committed or fully rolled back
  kTxnUpdate = 13,    ///< undo information for one logged operation
  kClr = 14,          ///< compensation log record (redoable undo step)
};

/// True for the transaction-metadata record types that carry no redo
/// work (kTxnBegin/kTxnCommit/kTxnEnd/kTxnUpdate) — every redo scan
/// skips them, like kCheckpoint. kClr is NOT one of these: compensation
/// records redo their restores.
inline bool IsTxnMetaRecord(RecordType type) {
  return type == RecordType::kTxnBegin || type == RecordType::kTxnCommit ||
         type == RecordType::kTxnEnd || type == RecordType::kTxnUpdate;
}

/// One log record. `lsn` is assigned by the LogManager at append time.
struct LogRecord {
  core::Lsn lsn = core::kNullLsn;
  RecordType type = RecordType::kSlotWrite;
  std::vector<uint8_t> payload;

  friend bool operator==(const LogRecord&, const LogRecord&) = default;
};

/// Little-endian append/read helpers for record payloads.
class PayloadWriter {
 public:
  PayloadWriter& U8(uint8_t v);
  PayloadWriter& U16(uint16_t v);
  PayloadWriter& U32(uint32_t v);
  PayloadWriter& U64(uint64_t v);
  PayloadWriter& I64(int64_t v) { return U64(static_cast<uint64_t>(v)); }
  PayloadWriter& Bytes(const uint8_t* data, size_t size);

  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Cursor over a payload. Out-of-bounds reads return kCorruption.
class PayloadReader {
 public:
  explicit PayloadReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  Result<uint8_t> U8();
  Result<uint16_t> U16();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  Result<int64_t> I64();
  Result<std::vector<uint8_t>> Bytes(size_t size);
  /// The next `size` bytes, borrowed in place: valid while the payload
  /// lives.
  Result<std::span<const uint8_t>> View(size_t size);

  size_t remaining() const { return bytes_.size() - offset_; }
  bool AtEnd() const { return offset_ == bytes_.size(); }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t offset_ = 0;
};

/// Serializes a record to the on-"disk" wire format:
///   u32 payload_size | u16 type | u64 lsn | payload | u32 crc32c,
/// where the CRC32C covers the header and the payload. The length
/// prefix plus trailing checksum is what lets a stable-log scan decide,
/// for any byte position, whether a complete undamaged record starts
/// there — the basis of torn-tail truncation.
std::vector<uint8_t> EncodeRecord(const LogRecord& record);

/// Number of bytes EncodeRecord produces for `record`.
size_t EncodedRecordSize(const LogRecord& record);

/// Upper bound on an encodable payload; a length prefix above it is
/// treated as corruption rather than chased off the end of the image.
inline constexpr size_t kMaxRecordPayload = size_t{1} << 24;

/// Decodes one record starting at `offset` within `bytes`, advancing
/// `offset` past it only on success. Returns kCorruption for truncated
/// or checksum-mismatched data (a torn log tail); `offset` is left
/// unchanged so the caller knows where the valid prefix ends.
Result<LogRecord> DecodeRecord(const std::vector<uint8_t>& bytes,
                               size_t* offset);

}  // namespace redo::wal

#endif  // REDO_WAL_LOG_RECORD_H_
