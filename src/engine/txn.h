// Transactions: undo information, compensation records, and the live
// transaction registry.
//
// The paper's redo theory replays every logged write; a crash mid
// transaction therefore durably exposes half a session's writes. This
// module supplies the classic ARIES-style complement: each transactional
// operation logs a kTxnUpdate record carrying its *inverse* (a slot
// before-value or a page before-image) BEFORE the operation's own redo
// record, chained per transaction through prev_lsn. Rollback — at
// runtime (Session::Abort) or during recovery's undo pass — walks the
// chain in reverse, emitting kClr compensation records whose undo_next
// back-chain makes rollback itself restartable: a crash mid-undo
// resumes at the first not-yet-compensated record, never undoing the
// same update twice.
//
// Ordering argument: the undo record is appended before the operation
// record, so any force that makes the operation durable (the WAL rule
// fires on page flush) has already made its undo information durable.
// The converse torn pair — undo record stable, operation record lost —
// is safe because inverses are absolute (restore-to-old-value /
// restore-image): undoing an operation that never applied rewrites the
// bytes it would have changed with the values they still hold.

#ifndef REDO_ENGINE_TXN_H_
#define REDO_ENGINE_TXN_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"
#include "util/status.h"
#include "wal/log_record.h"

namespace redo::engine {

/// A whole-page before-image, held out of line so that an action which
/// restores one slot carries no page. Reads as a zeroed page until it
/// is set or written.
class BeforeImage {
 public:
  BeforeImage() = default;
  BeforeImage(const BeforeImage& other) { *this = other; }
  BeforeImage& operator=(const BeforeImage& other);
  BeforeImage(BeforeImage&&) noexcept = default;
  BeforeImage& operator=(BeforeImage&&) noexcept = default;
  BeforeImage& operator=(const storage::Page& page) {
    mutable_page() = page;
    return *this;
  }

  const storage::Page& page() const;
  storage::Page& mutable_page();

  int64_t ReadSlot(size_t slot) const { return page().ReadSlot(slot); }
  void WriteSlot(size_t slot, int64_t value) {
    mutable_page().WriteSlot(slot, value);
  }

 private:
  std::unique_ptr<storage::Page> page_;
};

/// One inverse step of a logged operation. Absolute (state, not delta):
/// applying it is idempotent and safe even if the forward operation
/// never reached the page.
struct UndoAction {
  enum class Kind : uint8_t {
    kSlotRestore = 1,  ///< page[slot] <- old value (slot writes)
    kPageRestore = 2,  ///< whole-page payload before-image (blind
                       ///  formats, B-tree ops, both halves of a split)
  };
  Kind kind = Kind::kSlotRestore;
  storage::PageId page = 0;
  uint32_t slot = 0;       ///< kSlotRestore
  int64_t old_value = 0;   ///< kSlotRestore
  BeforeImage image;       ///< kPageRestore (payload is what restores)
};
// Every transactional write captures one and every restart's analysis
// decodes one per kTxnUpdate: no page may live inline.
static_assert(sizeof(UndoAction) <= 64);

/// Payload of a kTxnUpdate record: the undo information for one logged
/// operation, chained per transaction through prev_lsn (0 = first).
struct TxnUpdate {
  uint64_t txn_id = 0;
  core::Lsn prev_lsn = 0;
  std::vector<UndoAction> actions;
};

/// Payload of a kClr record: one compensated undo step. CLRs are REDO
/// records — every method replays their restores — and are never undone
/// themselves: undo encountering a CLR jumps straight to undo_next.
struct Clr {
  uint64_t txn_id = 0;
  core::Lsn undo_next = 0;  ///< next record of the chain still to undo
  std::vector<UndoAction> actions;
};

std::vector<uint8_t> EncodeTxnUpdate(const TxnUpdate& update);
Result<TxnUpdate> DecodeTxnUpdate(const std::vector<uint8_t>& payload);

std::vector<uint8_t> EncodeClr(const Clr& clr);
Result<Clr> DecodeClr(const std::vector<uint8_t>& payload);

/// kTxnBegin / kTxnCommit / kTxnEnd carry just the transaction id.
std::vector<uint8_t> EncodeTxnMeta(uint64_t txn_id);
Result<uint64_t> DecodeTxnMeta(const std::vector<uint8_t>& payload);

/// Applies every action of a CLR (or a runtime rollback step) to the
/// cached pages and tags them with `lsn` — the one definition of what a
/// compensation record *does*, shared by the serial redo scans, the
/// parallel scheduler, the instant-restart driver, and the undo pass.
Status ApplyUndoActions(storage::BufferPool* pool,
                        const std::vector<UndoAction>& actions, core::Lsn lsn);

/// One action of the above — for redo scans that run the per-page LSN
/// test action by action (a CLR's actions may span pages with different
/// installation states).
Status ApplyOneUndoAction(storage::BufferPool* pool, const UndoAction& action,
                          core::Lsn lsn);

/// What one action does to its page's bytes, for a caller that already
/// holds the page and tags it itself.
Status RestoreUndoAction(const UndoAction& action, storage::Page* page);

/// One live transaction's registry entry.
struct TxnTableEntry {
  uint64_t txn_id = 0;
  core::Lsn last_lsn = 0;  ///< latest kTxnUpdate/kClr of the chain (0 = none)
};

/// The live-transaction table. Sessions register Begin/update/End under
/// the engine's op gate (shared), so a checkpoint's exclusive barrier
/// observes a snapshot exactly consistent with the log; the snapshot is
/// embedded in every checkpoint record and re-anchors recovery's
/// analysis pass. Volatile: cleared by Crash(), re-derived by analysis.
class TxnRegistry {
 public:
  /// Allocates the next transaction id (monotone, starting at 1).
  uint64_t AllocateId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  void NoteBegin(uint64_t txn_id) {
    std::lock_guard<std::mutex> lock(mu_);
    live_[txn_id] = 0;
  }

  /// Records a kTxnUpdate/kClr append for `txn_id`.
  void NoteRecord(uint64_t txn_id, core::Lsn lsn) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = live_.find(txn_id);
    if (it != live_.end()) it->second = lsn;
  }

  /// Removes a transaction whose fate the log now decides (commit record
  /// appended, or rollback complete).
  void NoteEnd(uint64_t txn_id) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.erase(txn_id);
  }

  std::vector<TxnTableEntry> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<TxnTableEntry> entries;
    entries.reserve(live_.size());
    for (const auto& [id, lsn] : live_) entries.push_back({id, lsn});
    return entries;
  }

  size_t live_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return live_.size();
  }

  uint64_t next_id() const { return next_id_.load(std::memory_order_relaxed); }

  /// Ensures future ids exceed every id recovery saw on the log.
  void SeedNextId(uint64_t max_seen_id) {
    uint64_t current = next_id_.load(std::memory_order_relaxed);
    while (current <= max_seen_id &&
           !next_id_.compare_exchange_weak(current, max_seen_id + 1,
                                           std::memory_order_relaxed)) {
    }
  }

  /// The crash: live transactions die with the process (analysis
  /// re-derives the survivors' fate from the log).
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    live_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, core::Lsn> live_;
  std::atomic<uint64_t> next_id_{1};
};

/// Counters of the recovery undo pass (registered as "recovery.undo").
/// Accumulate across runs, like the redo scan stats.
struct TxnUndoMetrics {
  std::atomic<uint64_t> passes{0};           ///< undo passes that had losers
  std::atomic<uint64_t> losers{0};           ///< transactions rolled back
  std::atomic<uint64_t> records_walked{0};   ///< chain records visited
  std::atomic<uint64_t> clrs_emitted{0};     ///< kClr records appended
  std::atomic<uint64_t> clrs_skipped{0};     ///< CLRs hopped via undo_next
  std::atomic<uint64_t> actions_applied{0};  ///< individual restores
  std::atomic<uint64_t> injected_crashes{0};  ///< test-hook aborts mid-undo

  void EmitMetrics(obs::MetricEmitter& emit) const;
  void Reset();
};

// ---- Checkpoint payload ----

/// What a checkpoint carries between its redo start and its transaction
/// table: how the §6 method that wrote it takes operations out of
/// redo_set.
enum class CheckpointBody : uint8_t {
  kNone,         ///< the redo start alone
  kDirtyPages,   ///< the dirty-page table analysis rebuilds from (§4.3)
  kStagedPages,  ///< the pages the logical pointer swing staged (§6.1)
};

/// A checkpoint record's payload, the one layout every checkpoint
/// writer and reader shares: u64 redo_start, at most one body, then the
/// transaction table when the writer had a registry.
///   DPT body:     u32 count, count x {u32 page, u64 rec_lsn}
///   staged body:  u32 count, count x u32 page
///   txn table:    {u64 txn_id, u64 last_lsn}*, u64 max_txn_id, u32 count,
///                 u32 magic
/// The table is a self-identifying suffix found from the back. The body
/// is told by its length, so no reader needs to know which method wrote
/// the record; a zero count fits both bodies and reads as an empty DPT.
struct CheckpointPayload {
  core::Lsn redo_start = 1;  ///< the first record redo must consider
  CheckpointBody body = CheckpointBody::kNone;
  std::map<storage::PageId, core::Lsn> dpt{};  ///< page -> rec_lsn
  std::vector<storage::PageId> staged_pages{};
  bool has_txn_table = false;  ///< false: written without a registry
  std::vector<TxnTableEntry> txns{};  ///< live at the checkpoint
  uint64_t max_txn_id = 0;  ///< highest id allocated before the checkpoint
};

std::vector<uint8_t> EncodeCheckpoint(const CheckpointPayload& checkpoint);
/// Refuses, with kCorruption, a payload that holds no redo start, a
/// table that runs into the redo start, or a body whose length fits
/// neither layout.
Result<CheckpointPayload> DecodeCheckpoint(const std::vector<uint8_t>& payload);

}  // namespace redo::engine

#endif  // REDO_ENGINE_TXN_H_
