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
  if (!supports_fuzzy_checkpoint()) {
    return Status::FailedPrecondition(std::string(name()) +
                                      " cannot checkpoint fuzzily");
  }
  return internal_methods::AppendCheckpoint(
      ctx, internal_methods::FuzzyCheckpointPayload(
               ctx, redo_planning().analysis_dpt));
}

namespace internal_methods {
namespace {

// Traces a logged op on one page, named `prefix` + page id. The name is
// built only when a recorder is attached.
Status TraceOnePageOp(EngineContext& ctx, core::Lsn lsn, const char* prefix,
                      storage::PageId page, bool reads) {
  if (ctx.trace == nullptr) return Status::Ok();
  std::vector<storage::PageId> read_set;
  if (reads) read_set.push_back(page);
  return TraceLoggedOp(ctx, lsn, prefix + std::to_string(page),
                       std::move(read_set), {page});
}

}  // namespace

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

Status FlushAndCheckpoint(EngineContext& ctx) {
  REDO_RETURN_IF_ERROR(ctx.log->ForceAll());
  REDO_RETURN_IF_ERROR(ctx.pool->FlushAll());
  return WriteCheckpoint(ctx, {.redo_start = ctx.log->last_lsn() + 1})
      .status();
}

engine::CheckpointPayload FuzzyCheckpointPayload(const EngineContext& ctx,
                                                 bool dpt) {
  engine::CheckpointPayload checkpoint{.redo_start = ctx.log->last_lsn() + 1};
  if (dpt) checkpoint.body = engine::CheckpointBody::kDirtyPages;
  for (const storage::DirtyPageEntry& entry : ctx.pool->DirtyPages()) {
    checkpoint.redo_start = std::min(checkpoint.redo_start, entry.rec_lsn);
    if (dpt) checkpoint.dpt.emplace(entry.page, entry.rec_lsn);
  }
  return checkpoint;
}

Result<core::Lsn> LogPageImage(EngineContext& ctx, storage::PageId page,
                               const char* prefix) {
  Result<storage::Page*> cached = ctx.pool->Fetch(page);
  if (!cached.ok()) return cached.status();
  const core::Lsn lsn = ctx.log->AppendWithLsn(
      wal::RecordType::kPageImage, [&](core::Lsn assigned) {
        cached.value()->set_lsn(assigned);
        return engine::EncodePageImage(page, *cached.value());
      });
  REDO_RETURN_IF_ERROR(ctx.pool->MarkDirty(page, lsn));
  REDO_RETURN_IF_ERROR(TraceOnePageOp(ctx, lsn, prefix, page, /*reads=*/false));
  return lsn;
}

Result<core::Lsn> LogAndRedoOp(EngineContext& ctx, wal::RecordType type,
                               OpPayloadEncoder encode, engine::SinglePageOp op,
                               const char* prefix, bool mark_birth) {
  Result<storage::Page*> page = ctx.pool->Fetch(op.page);
  if (!page.ok()) return page.status();
  op.born = mark_birth && page.value()->IsZero();
  const core::Lsn lsn = ctx.log->Append(type, encode(op));
  REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(op, page.value()));
  REDO_RETURN_IF_ERROR(ctx.pool->MarkDirty(op.page, lsn));
  REDO_RETURN_IF_ERROR(TraceOnePageOp(ctx, lsn, prefix, op.page, !op.blind));
  return lsn;
}

Status ApplySplitInCache(EngineContext& ctx, const engine::SplitOp& op) {
  Result<storage::Page*> src = ctx.pool->Fetch(op.src);
  if (!src.ok()) return src.status();
  // Copy src out: fetching dst may evict it under a tiny cache capacity.
  const storage::Page src_copy = *src.value();
  Result<storage::Page*> dst = ctx.pool->Fetch(op.dst);
  if (!dst.ok()) return dst.status();
  engine::ApplySplitToDst(op, src_copy, dst.value());
  return Status::Ok();
}

Result<RecoveryMethod::SplitLsns> LogSplitAsImages(EngineContext& ctx,
                                                   const engine::SplitOp& op,
                                                   const char* prefix) {
  REDO_RETURN_IF_ERROR(ApplySplitInCache(ctx, op));
  Result<core::Lsn> split_lsn = LogPageImage(ctx, op.dst, prefix);
  if (!split_lsn.ok()) return split_lsn.status();
  Result<storage::Page*> src = ctx.pool->Fetch(op.src);
  if (!src.ok()) return src.status();
  REDO_RETURN_IF_ERROR(
      engine::ApplySinglePageOp(engine::MakeRewriteForSplit(op), src.value()));
  Result<core::Lsn> rewrite_lsn = LogPageImage(ctx, op.src, prefix);
  if (!rewrite_lsn.ok()) return rewrite_lsn.status();
  return RecoveryMethod::SplitLsns{split_lsn.value(), rewrite_lsn.value()};
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
  REDO_RETURN_IF_ERROR(ApplySplitInCache(ctx, op));
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
