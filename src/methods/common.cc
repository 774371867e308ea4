#include "methods/common.h"

#include <algorithm>

namespace redo::methods {

Result<core::Lsn> RecoveryMethod::RedoScanStart(const EngineContext& ctx) const {
  return internal_methods::ReadRedoScanStart(ctx);
}

Result<core::Lsn> RecoveryMethod::FuzzyCheckpoint(EngineContext& ctx) {
  (void)ctx;
  return Status::FailedPrecondition(std::string(name()) +
                                    " cannot checkpoint fuzzily");
}

namespace internal_methods {

namespace {

// Every engine checkpoint payload is the redo start, the method's body
// (a DPT, a staged-page list, or nothing) and the transaction-table
// tail, which ReadTxnTableTail finds from the back. A body reader stops
// where the tail starts and refuses a body that runs past it or stops
// short of it.
Status BodyEndsAtTxnTail(const wal::PayloadReader& r, size_t tail_bytes) {
  if (r.remaining() == tail_bytes) return Status::Ok();
  return Status::Corruption(
      "checkpoint body does not end at its transaction tail");
}

}  // namespace

Result<core::Lsn> AppendCheckpointRecord(EngineContext& ctx,
                                         core::Lsn redo_start) {
  // The checkpoint record consumes the next LSN itself; "nothing needs
  // redo" must therefore point one past the record, not at it. The
  // payload is encoded under the log mutex so the comparison against the
  // record's own LSN holds even with concurrent appenders.
  return ctx.log->AppendWithLsn(
      wal::RecordType::kCheckpoint, [&](core::Lsn record_lsn) {
        wal::PayloadWriter w;
        w.U64(redo_start >= record_lsn ? record_lsn + 1 : redo_start);
        AppendCheckpointTxnTail(ctx, w);
        return w.Take();
      });
}

void AppendCheckpointTxnTail(EngineContext& ctx, wal::PayloadWriter& w) {
  if (ctx.txns == nullptr) return;
  // The caller's barrier (or quiesced writers) keeps the registry
  // consistent with the record about to be appended: commit-record
  // appends and their registry removals are atomic under the shared op
  // gate, which the checkpoint barrier excludes.
  engine::AppendTxnTableTail(w, ctx.txns->Snapshot(), ctx.txns->next_id());
}

Status WriteCheckpointRecord(EngineContext& ctx, core::Lsn redo_start) {
  Result<core::Lsn> appended = AppendCheckpointRecord(ctx, redo_start);
  if (!appended.ok()) return appended.status();
  return ctx.log->ForceAll();
}

Result<core::Lsn> ReadRedoScanStart(const EngineContext& ctx) {
  Result<std::optional<wal::LogRecord>> checkpoint =
      ctx.log->LatestStableCheckpoint();
  if (!checkpoint.ok()) return checkpoint.status();
  if (!checkpoint.value().has_value()) return core::Lsn{1};
  wal::PayloadReader r(checkpoint.value()->payload);
  Result<uint64_t> redo_start = r.U64();
  if (!redo_start.ok()) return redo_start.status();
  return core::Lsn{redo_start.value()};
}

Status TraceCheckpointChosen(EngineContext& ctx, core::Lsn scan_start) {
  if (ctx.tracer == nullptr) return Status::Ok();
  Result<std::optional<wal::LogRecord>> checkpoint =
      ctx.log->LatestStableCheckpoint();
  if (!checkpoint.ok()) return checkpoint.status();
  const core::Lsn checkpoint_lsn =
      checkpoint.value().has_value() ? checkpoint.value()->lsn : 0;
  ctx.tracer->CheckpointChosen(checkpoint_lsn, scan_start);
  return Status::Ok();
}

core::Lsn FuzzyRedoPoint(const EngineContext& ctx) {
  core::Lsn redo_point = ctx.log->last_lsn() + 1;
  for (const storage::DirtyPageEntry& entry : ctx.pool->DirtyPages()) {
    redo_point = std::min(redo_point, entry.rec_lsn);
  }
  return redo_point;
}

Status RedoSinglePageOp(EngineContext& ctx, const engine::SinglePageOp& op,
                        core::Lsn lsn) {
  Result<storage::Page*> page = ctx.pool->Fetch(op.page);
  if (!page.ok()) return page.status();
  REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(op, page.value()));
  return ctx.pool->MarkDirty(op.page, lsn);
}

Status ApplyWholeSplit(EngineContext& ctx, const engine::SplitOp& op,
                       core::Lsn lsn) {
  Result<storage::Page*> src = ctx.pool->Fetch(op.src);
  if (!src.ok()) return src.status();
  const storage::Page src_copy = *src.value();
  Result<storage::Page*> dst = ctx.pool->Fetch(op.dst);
  if (!dst.ok()) return dst.status();
  engine::ApplySplitToDst(op, src_copy, dst.value());
  REDO_RETURN_IF_ERROR(ctx.pool->MarkDirty(op.dst, lsn));
  return RedoSinglePageOp(ctx, engine::MakeRewriteForSplit(op), lsn);
}

Status TraceLoggedOp(EngineContext& ctx, core::Lsn lsn, std::string name,
                     std::vector<storage::PageId> reads,
                     const std::vector<storage::PageId>& writes) {
  if (ctx.trace == nullptr) return Status::Ok();
  std::vector<std::pair<storage::PageId, uint64_t>> writes_with_hash;
  for (storage::PageId page : writes) {
    Result<storage::Page*> cached = ctx.pool->Fetch(page);
    if (!cached.ok()) return cached.status();
    writes_with_hash.emplace_back(page, cached.value()->ContentHash());
  }
  ctx.trace->OnLoggedOp(lsn, std::move(name), std::move(reads),
                        writes_with_hash);
  return Status::Ok();
}

Result<core::Lsn> AppendCheckpointRecordWithDpt(EngineContext& ctx,
                                                core::Lsn redo_start) {
  // Snapshot the DPT before taking the log mutex (DirtyPages locks the
  // pool); the caller's barrier keeps it consistent with redo_start.
  const std::vector<storage::DirtyPageEntry> dirty = ctx.pool->DirtyPages();
  return ctx.log->AppendWithLsn(
      wal::RecordType::kCheckpoint, [&](core::Lsn record_lsn) {
        wal::PayloadWriter w;
        w.U64(redo_start >= record_lsn ? record_lsn + 1 : redo_start);
        w.U32(static_cast<uint32_t>(dirty.size()));
        for (const storage::DirtyPageEntry& entry : dirty) {
          w.U32(entry.page);
          w.U64(entry.rec_lsn);
        }
        AppendCheckpointTxnTail(ctx, w);
        return w.Take();
      });
}

Status WriteCheckpointRecordWithDpt(EngineContext& ctx, core::Lsn redo_start) {
  Result<core::Lsn> appended = AppendCheckpointRecordWithDpt(ctx, redo_start);
  if (!appended.ok()) return appended.status();
  return ctx.log->ForceAll();
}

Result<core::Lsn> WriteCheckpointRecordWithStagedPages(
    EngineContext& ctx, core::Lsn redo_start,
    const std::vector<storage::PageId>& pages) {
  Result<core::Lsn> appended = ctx.log->AppendWithLsn(
      wal::RecordType::kCheckpoint, [&](core::Lsn record_lsn) {
        wal::PayloadWriter w;
        w.U64(redo_start >= record_lsn ? record_lsn + 1 : redo_start);
        w.U32(static_cast<uint32_t>(pages.size()));
        for (storage::PageId page : pages) w.U32(page);
        AppendCheckpointTxnTail(ctx, w);
        return w.Take();
      });
  if (!appended.ok()) return appended.status();
  REDO_RETURN_IF_ERROR(ctx.log->ForceAll());
  return appended.value();
}

Result<StagedCheckpoint> ReadCheckpointStagedPages(const EngineContext& ctx) {
  StagedCheckpoint staged;
  Result<std::optional<wal::LogRecord>> checkpoint =
      ctx.log->LatestStableCheckpoint();
  if (!checkpoint.ok()) return checkpoint.status();
  if (!checkpoint.value().has_value()) return staged;
  const std::vector<uint8_t>& payload = checkpoint.value()->payload;
  wal::PayloadReader r(payload);
  Result<uint64_t> redo_start = r.U64();
  if (!redo_start.ok()) return redo_start.status();
  const size_t tail_bytes = engine::ReadTxnTableTail(payload).bytes;
  if (r.remaining() == tail_bytes) return staged;  // no staged list
  Result<uint32_t> count = r.U32();
  if (!count.ok()) return count.status();
  for (uint32_t i = 0; i < count.value(); ++i) {
    Result<uint32_t> page = r.U32();
    if (!page.ok()) return page.status();
    staged.pages.push_back(page.value());
  }
  REDO_RETURN_IF_ERROR(BodyEndsAtTxnTail(r, tail_bytes));
  staged.record_lsn = checkpoint.value()->lsn;
  return staged;
}

Result<std::map<storage::PageId, core::Lsn>> ReadCheckpointDpt(
    const EngineContext& ctx) {
  std::map<storage::PageId, core::Lsn> dpt;
  Result<std::optional<wal::LogRecord>> checkpoint =
      ctx.log->LatestStableCheckpoint();
  if (!checkpoint.ok()) return checkpoint.status();
  if (!checkpoint.value().has_value()) return dpt;
  const std::vector<uint8_t>& payload = checkpoint.value()->payload;
  wal::PayloadReader r(payload);
  Result<uint64_t> redo_start = r.U64();
  if (!redo_start.ok()) return redo_start.status();
  const size_t tail_bytes = engine::ReadTxnTableTail(payload).bytes;
  if (r.remaining() == tail_bytes) return dpt;  // a checkpoint without a DPT
  Result<uint32_t> count = r.U32();
  if (!count.ok()) return count.status();
  for (uint32_t i = 0; i < count.value(); ++i) {
    Result<uint32_t> page = r.U32();
    if (!page.ok()) return page.status();
    Result<uint64_t> rec_lsn = r.U64();
    if (!rec_lsn.ok()) return rec_lsn.status();
    dpt.emplace(page.value(), rec_lsn.value());
  }
  REDO_RETURN_IF_ERROR(BodyEndsAtTxnTail(r, tail_bytes));
  return dpt;
}

}  // namespace internal_methods
}  // namespace redo::methods
