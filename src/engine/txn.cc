#include "engine/txn.h"

#include <cstring>

#include "engine/ops.h"

namespace redo::engine {

namespace {

// Self-identifying suffix marker of a checkpoint's transaction table
// ("TNXT" little-endian). Body counts (DPT entries, staged pages) are
// bounded by the page count, so no front-to-back reader can confuse a
// body field with it.
constexpr uint32_t kTxnTailMagic = 0x54584E54u;

// The smallest encoded action: a kind byte and the image of an all-zero
// page. A count the remaining bytes cannot hold is refused before any
// action is reserved.
constexpr size_t kMinActionBytes = 1 + kPageImageHeaderBytes;

void EncodeActions(wal::PayloadWriter& w,
                   const std::vector<UndoAction>& actions) {
  w.U32(static_cast<uint32_t>(actions.size()));
  for (const UndoAction& action : actions) {
    w.U8(static_cast<uint8_t>(action.kind));
    switch (action.kind) {
      case UndoAction::Kind::kSlotRestore:
        w.U32(action.page);
        w.U32(action.slot);
        w.I64(action.old_value);
        break;
      case UndoAction::Kind::kPageRestore:
        AppendPageImage(w, action.page, action.image.page());
        break;
    }
  }
}

Result<std::vector<UndoAction>> DecodeActions(wal::PayloadReader& r) {
  Result<uint32_t> count = r.U32();
  if (!count.ok()) return count.status();
  if (count.value() > r.remaining() / kMinActionBytes) {
    return Status::Corruption("undo actions: count exceeds the payload");
  }
  std::vector<UndoAction> actions;
  actions.reserve(count.value());
  for (uint32_t i = 0; i < count.value(); ++i) {
    UndoAction action;
    Result<uint8_t> kind = r.U8();
    if (!kind.ok()) return kind.status();
    switch (kind.value()) {
      case static_cast<uint8_t>(UndoAction::Kind::kSlotRestore): {
        action.kind = UndoAction::Kind::kSlotRestore;
        Result<uint32_t> page = r.U32();
        if (!page.ok()) return page.status();
        Result<uint32_t> slot = r.U32();
        if (!slot.ok()) return slot.status();
        Result<int64_t> old_value = r.I64();
        if (!old_value.ok()) return old_value.status();
        action.page = page.value();
        action.slot = slot.value();
        action.old_value = old_value.value();
        break;
      }
      case static_cast<uint8_t>(UndoAction::Kind::kPageRestore): {
        action.kind = UndoAction::Kind::kPageRestore;
        Result<PageImageView> image = ReadPageImage(r);
        if (!image.ok()) return image.status();
        action.page = image.value().page;
        image.value().InstallInto(&action.image.mutable_page());
        break;
      }
      default:
        return Status::Corruption("undo action: unknown kind");
    }
    actions.push_back(std::move(action));
  }
  return actions;
}

}  // namespace

std::vector<uint8_t> EncodeTxnUpdate(const TxnUpdate& update) {
  wal::PayloadWriter w;
  w.U64(update.txn_id);
  w.U64(update.prev_lsn);
  EncodeActions(w, update.actions);
  return w.Take();
}

Result<TxnUpdate> DecodeTxnUpdate(const std::vector<uint8_t>& payload) {
  wal::PayloadReader r(payload);
  TxnUpdate update;
  Result<uint64_t> txn = r.U64();
  if (!txn.ok()) return txn.status();
  Result<uint64_t> prev = r.U64();
  if (!prev.ok()) return prev.status();
  update.txn_id = txn.value();
  update.prev_lsn = prev.value();
  Result<std::vector<UndoAction>> actions = DecodeActions(r);
  if (!actions.ok()) return actions.status();
  if (!r.AtEnd()) {
    return Status::Corruption("txn update: bytes past the actions");
  }
  update.actions = std::move(actions.value());
  return update;
}

std::vector<uint8_t> EncodeClr(const Clr& clr) {
  wal::PayloadWriter w;
  w.U64(clr.txn_id);
  w.U64(clr.undo_next);
  EncodeActions(w, clr.actions);
  return w.Take();
}

Result<Clr> DecodeClr(const std::vector<uint8_t>& payload) {
  wal::PayloadReader r(payload);
  Clr clr;
  Result<uint64_t> txn = r.U64();
  if (!txn.ok()) return txn.status();
  Result<uint64_t> undo_next = r.U64();
  if (!undo_next.ok()) return undo_next.status();
  clr.txn_id = txn.value();
  clr.undo_next = undo_next.value();
  Result<std::vector<UndoAction>> actions = DecodeActions(r);
  if (!actions.ok()) return actions.status();
  if (!r.AtEnd()) return Status::Corruption("clr: bytes past the actions");
  clr.actions = std::move(actions.value());
  return clr;
}

std::vector<uint8_t> EncodeTxnMeta(uint64_t txn_id) {
  wal::PayloadWriter w;
  w.U64(txn_id);
  return w.Take();
}

Result<uint64_t> DecodeTxnMeta(const std::vector<uint8_t>& payload) {
  wal::PayloadReader r(payload);
  Result<uint64_t> txn = r.U64();
  if (txn.ok() && !r.AtEnd()) {
    return Status::Corruption("txn record: bytes past the transaction id");
  }
  return txn;
}

BeforeImage& BeforeImage::operator=(const BeforeImage& other) {
  if (this != &other) {
    page_ = other.page_ == nullptr
                ? nullptr
                : std::make_unique<storage::Page>(*other.page_);
  }
  return *this;
}

const storage::Page& BeforeImage::page() const {
  static const storage::Page kZeroed;
  return page_ == nullptr ? kZeroed : *page_;
}

storage::Page& BeforeImage::mutable_page() {
  if (page_ == nullptr) page_ = std::make_unique<storage::Page>();
  return *page_;
}

Status RestoreUndoAction(const UndoAction& action, storage::Page* page) {
  switch (action.kind) {
    case UndoAction::Kind::kSlotRestore:
      if (action.slot >= storage::Page::NumSlots()) {
        return Status::Corruption("undo action: slot out of range");
      }
      page->WriteSlot(action.slot, action.old_value);
      return Status::Ok();
    case UndoAction::Kind::kPageRestore:
      // Restore the payload only; the caller re-tags the LSN header so
      // the LSN-test methods see the restore as the page's newest write.
      std::memcpy(page->payload().data(), action.image.page().payload().data(),
                  storage::Page::kPayloadSize);
      return Status::Ok();
  }
  return Status::Corruption("undo action: unknown kind");
}

Status ApplyOneUndoAction(storage::BufferPool* pool, const UndoAction& action,
                          core::Lsn lsn) {
  Result<storage::Page*> page = pool->Fetch(action.page);
  if (!page.ok()) return page.status();
  REDO_RETURN_IF_ERROR(RestoreUndoAction(action, page.value()));
  return pool->MarkDirty(action.page, lsn);
}

Status ApplyUndoActions(storage::BufferPool* pool,
                        const std::vector<UndoAction>& actions,
                        core::Lsn lsn) {
  for (const UndoAction& action : actions) {
    REDO_RETURN_IF_ERROR(ApplyOneUndoAction(pool, action, lsn));
  }
  return Status::Ok();
}

void TxnUndoMetrics::EmitMetrics(obs::MetricEmitter& emit) const {
  emit.Counter("passes", passes.load(std::memory_order_relaxed));
  emit.Counter("losers", losers.load(std::memory_order_relaxed));
  emit.Counter("records_walked", records_walked.load(std::memory_order_relaxed));
  emit.Counter("clrs_emitted", clrs_emitted.load(std::memory_order_relaxed));
  emit.Counter("clrs_skipped", clrs_skipped.load(std::memory_order_relaxed));
  emit.Counter("actions_applied",
               actions_applied.load(std::memory_order_relaxed));
  emit.Counter("injected_crashes",
               injected_crashes.load(std::memory_order_relaxed));
}

void TxnUndoMetrics::Reset() {
  passes.store(0, std::memory_order_relaxed);
  losers.store(0, std::memory_order_relaxed);
  records_walked.store(0, std::memory_order_relaxed);
  clrs_emitted.store(0, std::memory_order_relaxed);
  clrs_skipped.store(0, std::memory_order_relaxed);
  actions_applied.store(0, std::memory_order_relaxed);
  injected_crashes.store(0, std::memory_order_relaxed);
}

void AppendTxnTableTail(wal::PayloadWriter& w,
                        const std::vector<TxnTableEntry>& entries,
                        uint64_t next_txn_id) {
  for (const TxnTableEntry& entry : entries) {
    w.U64(entry.txn_id);
    w.U64(entry.last_lsn);
  }
  w.U64(next_txn_id == 0 ? 0 : next_txn_id - 1);  // high water mark
  w.U32(static_cast<uint32_t>(entries.size()));
  w.U32(kTxnTailMagic);
}

CheckpointTxnTable ReadTxnTableTail(const std::vector<uint8_t>& payload) {
  CheckpointTxnTable table;
  auto read_u32 = [&payload](size_t offset) {
    uint32_t v;
    std::memcpy(&v, payload.data() + offset, sizeof(v));
    return v;
  };
  auto read_u64 = [&payload](size_t offset) {
    uint64_t v;
    std::memcpy(&v, payload.data() + offset, sizeof(v));
    return v;
  };
  // Fixed trailer: u64 max_txn_id, u32 count, u32 magic = 16 bytes.
  if (payload.size() < 16) return table;
  if (read_u32(payload.size() - 4) != kTxnTailMagic) return table;
  const uint32_t count = read_u32(payload.size() - 8);
  const size_t tail_bytes = 16 + size_t{count} * 16;
  if (payload.size() < tail_bytes) return table;
  table.present = true;
  table.bytes = tail_bytes;
  table.max_txn_id = read_u64(payload.size() - 16);
  size_t offset = payload.size() - tail_bytes;
  for (uint32_t i = 0; i < count; ++i) {
    TxnTableEntry entry;
    entry.txn_id = read_u64(offset);
    entry.last_lsn = read_u64(offset + 8);
    table.entries.push_back(entry);
    offset += 16;
  }
  return table;
}

}  // namespace redo::engine
