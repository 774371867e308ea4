#include "engine/txn.h"

#include <cstring>

#include "engine/ops.h"

namespace redo::engine {

namespace {

// Self-identifying suffix marker of a checkpoint's transaction table
// ("TNXT" little-endian). A body ends in a page id or the high half of
// a rec_lsn, neither of which reaches this value.
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

std::vector<uint8_t> EncodeCheckpoint(const CheckpointPayload& checkpoint) {
  wal::PayloadWriter w;
  w.U64(checkpoint.redo_start);
  switch (checkpoint.body) {
    case CheckpointBody::kNone:
      break;
    case CheckpointBody::kDirtyPages:
      w.U32(static_cast<uint32_t>(checkpoint.dpt.size()));
      for (const auto& [page, rec_lsn] : checkpoint.dpt) {
        w.U32(page);
        w.U64(rec_lsn);
      }
      break;
    case CheckpointBody::kStagedPages:
      w.U32(static_cast<uint32_t>(checkpoint.staged_pages.size()));
      for (storage::PageId page : checkpoint.staged_pages) w.U32(page);
      break;
  }
  if (checkpoint.has_txn_table) {
    for (const TxnTableEntry& entry : checkpoint.txns) {
      w.U64(entry.txn_id);
      w.U64(entry.last_lsn);
    }
    w.U64(checkpoint.max_txn_id);
    w.U32(static_cast<uint32_t>(checkpoint.txns.size()));
    w.U32(kTxnTailMagic);
  }
  return w.Take();
}

Result<CheckpointPayload> DecodeCheckpoint(
    const std::vector<uint8_t>& payload) {
  // The table is found from the back: its 16-byte trailer (u64
  // max_txn_id, u32 count, u32 magic) follows `count` 16-byte entries,
  // and the 8-byte redo start must still fit in front of it.
  uint64_t table_bytes = 0;
  if (payload.size() >= 8 + 16) {
    uint32_t count_and_magic[2] = {};
    std::memcpy(count_and_magic, payload.data() + payload.size() - 8,
                sizeof(count_and_magic));
    if (count_and_magic[1] == kTxnTailMagic) {
      table_bytes = 16 + 16 * uint64_t{count_and_magic[0]};
      if (table_bytes > payload.size() - 8) {
        return Status::Corruption(
            "checkpoint: transaction table runs into the redo start");
      }
    }
  }
  CheckpointPayload checkpoint;
  wal::PayloadReader r(payload);
  Result<uint64_t> redo_start = r.U64();
  if (!redo_start.ok()) return redo_start.status();
  checkpoint.redo_start = redo_start.value();

  // The body is told by its length: none, a DPT or a staged-page list.
  const uint64_t body_bytes = r.remaining() - table_bytes;
  if (body_bytes > 0) {
    if (body_bytes < 4) {
      return Status::Corruption("checkpoint: body shorter than its count");
    }
    const uint64_t count = r.U32().value();
    const uint64_t entry_bytes = body_bytes - 4;
    if (entry_bytes == 12 * count) {
      checkpoint.body = CheckpointBody::kDirtyPages;
      for (uint64_t i = 0; i < count; ++i) {
        const storage::PageId page = r.U32().value();
        checkpoint.dpt.emplace(page, r.U64().value());
      }
    } else if (entry_bytes == 4 * count) {
      checkpoint.body = CheckpointBody::kStagedPages;
      for (uint64_t i = 0; i < count; ++i) {
        checkpoint.staged_pages.push_back(r.U32().value());
      }
    } else {
      return Status::Corruption(
          "checkpoint: body length fits neither a dirty-page table nor a "
          "staged-page list");
    }
  }

  if (table_bytes > 0) {
    checkpoint.has_txn_table = true;
    for (uint64_t i = 0; i < (table_bytes - 16) / 16; ++i) {
      TxnTableEntry entry;
      entry.txn_id = r.U64().value();
      entry.last_lsn = r.U64().value();
      checkpoint.txns.push_back(entry);
    }
    checkpoint.max_txn_id = r.U64().value();
  }
  return checkpoint;
}

}  // namespace redo::engine
