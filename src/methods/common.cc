#include "methods/common.h"

#include <algorithm>

namespace redo::methods {

Result<StableCheckpoint> ReadStableCheckpoint(const wal::LogManager& log) {
  Result<std::optional<wal::LogRecord>> record = log.LatestStableCheckpoint();
  if (!record.ok()) return record.status();
  StableCheckpoint checkpoint;
  if (!record.value().has_value()) return checkpoint;
  Result<engine::CheckpointPayload> payload =
      engine::DecodeCheckpoint(record.value()->payload);
  if (!payload.ok()) return payload.status();
  checkpoint.lsn = record.value()->lsn;
  checkpoint.payload = std::move(payload).value();
  return checkpoint;
}

Result<core::Lsn> RecoveryMethod::RedoScanStart(const EngineContext& ctx) const {
  Result<StableCheckpoint> checkpoint = ReadStableCheckpoint(*ctx.log);
  if (!checkpoint.ok()) return checkpoint.status();
  return checkpoint.value().payload.redo_start;
}

Result<core::Lsn> RecoveryMethod::FuzzyCheckpoint(EngineContext& ctx) {
  (void)ctx;
  return Status::FailedPrecondition(std::string(name()) +
                                    " cannot checkpoint fuzzily");
}

namespace internal_methods {

Result<core::Lsn> AppendCheckpoint(EngineContext& ctx,
                                   engine::CheckpointPayload checkpoint) {
  return ctx.log->AppendWithLsn(
      wal::RecordType::kCheckpoint, [&](core::Lsn record_lsn) {
        // The record consumes the next LSN itself: "nothing needs redo"
        // points one past it, not at it. Encoding under the log mutex
        // keeps that true with concurrent appenders.
        if (checkpoint.redo_start >= record_lsn) {
          checkpoint.redo_start = record_lsn + 1;
        }
        if (ctx.txns != nullptr) {
          // The caller's barrier (or quiesced writers) keeps the registry
          // consistent with this record: commit-record appends and their
          // registry removals are atomic under the shared op gate, which
          // the checkpoint barrier excludes.
          checkpoint.has_txn_table = true;
          checkpoint.txns = ctx.txns->Snapshot();
          checkpoint.max_txn_id = ctx.txns->next_id() - 1;
        }
        return engine::EncodeCheckpoint(checkpoint);
      });
}

Result<core::Lsn> WriteCheckpoint(EngineContext& ctx,
                                  engine::CheckpointPayload checkpoint) {
  Result<core::Lsn> appended = AppendCheckpoint(ctx, std::move(checkpoint));
  if (!appended.ok()) return appended.status();
  REDO_RETURN_IF_ERROR(ctx.log->ForceAll());
  return appended;
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

}  // namespace internal_methods
}  // namespace redo::methods
