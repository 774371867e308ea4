// Fixed-size pages: the unit of stable storage and caching.
//
// Every page carries a header with the LSN of the last logged operation
// that updated it (§6.3: "each page of the system state is tagged with
// the LSN of the last operation that updated it"). The payload is raw
// bytes; higher layers (the slot engine, the B-tree) impose structure.

#ifndef REDO_STORAGE_PAGE_H_
#define REDO_STORAGE_PAGE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>

#include "core/types.h"
#include "util/hash.h"
#include "util/logging.h"

namespace redo::storage {

/// Identifies a page of the database. Dense: a database with N pages
/// uses ids 0 .. N-1 (the checker maps PageId -> core::VarId directly).
using PageId = uint32_t;

/// A fixed-size page: an 8-byte LSN header followed by payload bytes.
class Page {
 public:
  static constexpr size_t kSize = 4096;
  static constexpr size_t kHeaderSize = sizeof(uint64_t);
  static constexpr size_t kPayloadSize = kSize - kHeaderSize;

  /// A zeroed page (LSN 0 = never written by a logged operation).
  Page() { bytes_.fill(0); }

  /// The LSN of the last logged operation that updated this page.
  core::Lsn lsn() const {
    uint64_t v;
    std::memcpy(&v, bytes_.data(), sizeof(v));
    return v;
  }

  /// Tags the page with an operation's LSN.
  void set_lsn(core::Lsn lsn) { std::memcpy(bytes_.data(), &lsn, sizeof(lsn)); }

  /// Mutable / immutable payload (everything after the header).
  std::span<uint8_t> payload() {
    return std::span<uint8_t>(bytes_.data() + kHeaderSize, kPayloadSize);
  }
  std::span<const uint8_t> payload() const {
    return std::span<const uint8_t>(bytes_.data() + kHeaderSize, kPayloadSize);
  }

  /// The whole page including the header.
  std::span<const uint8_t> bytes() const {
    return std::span<const uint8_t>(bytes_.data(), kSize);
  }
  std::span<uint8_t> bytes() {
    return std::span<uint8_t>(bytes_.data(), kSize);
  }

  /// Reads / writes an int64 slot within the payload.
  int64_t ReadSlot(size_t slot) const {
    REDO_CHECK_LT(slot, kPayloadSize / sizeof(int64_t));
    int64_t v;
    std::memcpy(&v, bytes_.data() + kHeaderSize + slot * sizeof(int64_t),
                sizeof(v));
    return v;
  }
  void WriteSlot(size_t slot, int64_t value) {
    REDO_CHECK_LT(slot, kPayloadSize / sizeof(int64_t));
    std::memcpy(bytes_.data() + kHeaderSize + slot * sizeof(int64_t), &value,
                sizeof(value));
  }

  /// True for the zero page the disk starts with: LSN 0 and every
  /// payload byte zero. A tagged page fails at its first byte.
  bool IsZero() const {
    return std::all_of(bytes_.begin(), bytes_.end(),
                       [](uint8_t b) { return b == 0; });
  }

  /// Number of int64 slots in the payload.
  static constexpr size_t NumSlots() { return kPayloadSize / sizeof(int64_t); }

  /// Deterministic hash of the full page contents (header + payload).
  /// The checker identifies page *versions* by this hash.
  uint64_t ContentHash() const { return HashBytes(bytes()); }

  friend bool operator==(const Page& a, const Page& b) {
    return a.bytes_ == b.bytes_;
  }

 private:
  std::array<uint8_t, kSize> bytes_;
};

}  // namespace redo::storage

#endif  // REDO_STORAGE_PAGE_H_
