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

Status RedoPageImage(EngineContext& ctx, storage::PageId page,
                     const storage::Page& image, core::Lsn lsn) {
  Result<storage::Page*> cached = ctx.pool->Fetch(page);
  if (!cached.ok()) return cached.status();
  *cached.value() = image;
  return ctx.pool->MarkDirty(page, lsn);
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

namespace {

// Serial LSN-test apply over the already-read stable records. Counts
// into `s` in place; LsnRedoScan folds `s` into the caller's stats so
// partial work is still reported after a mid-scan failure.
Status SerialLsnApply(EngineContext& ctx,
                      const std::vector<wal::LogRecord>& records,
                      bool add_split_constraints,
                      const std::map<storage::PageId, core::Lsn>* dpt,
                      RecoveryMethod::RedoScanStats& s) {
  obs::RecoveryTracer* tracer = ctx.tracer;
  // Skip test from the analysis-produced dirty page table: a record on a
  // page outside the table, or older than the page's rec_lsn, is
  // installed — decided without any page I/O (§4.3: the operation is
  // provably not exposed, so the scan never even reads the page).
  auto analysis_says_installed = [dpt, &s, tracer](storage::PageId page,
                                                   core::Lsn lsn) {
    if (dpt == nullptr) return false;
    const auto it = dpt->find(page);
    if (it == dpt->end() || lsn < it->second) {
      ++s.skipped_without_fetch;
      if (tracer != nullptr) {
        tracer->Verdict(lsn, page, obs::RedoVerdict::kNotExposed,
                        "analysis-dpt");
      }
      return true;
    }
    return false;
  };
  // The two page-LSN redo-test outcomes, in timeline form.
  auto installed = [tracer](core::Lsn lsn, storage::PageId page) {
    if (tracer != nullptr) {
      tracer->Verdict(lsn, page, obs::RedoVerdict::kSkippedInstalled,
                      "page-lsn-current");
    }
  };
  auto applied = [tracer](core::Lsn lsn, storage::PageId page) {
    if (tracer != nullptr) {
      tracer->Verdict(lsn, page, obs::RedoVerdict::kApplied,
                      "page-lsn-older");
    }
  };
  auto fetch = [&ctx, &s](storage::PageId page) {
    ++s.page_fetches;
    return ctx.pool->Fetch(page);
  };

  for (const wal::LogRecord& record : records) {
    if (record.type != wal::RecordType::kCheckpoint &&
        !wal::IsTxnMetaRecord(record.type)) {
      ++s.scanned;
    }
    switch (record.type) {
      case wal::RecordType::kCheckpoint:
      // Transaction metadata carries no redo work (kClr does, and falls
      // through to its own case below).
      case wal::RecordType::kTxnBegin:
      case wal::RecordType::kTxnCommit:
      case wal::RecordType::kTxnEnd:
      case wal::RecordType::kTxnUpdate:
        break;
      case wal::RecordType::kClr: {
        Result<engine::Clr> clr = engine::DecodeClr(record.payload);
        if (!clr.ok()) return clr.status();
        bool any_applied = false;
        for (const engine::UndoAction& action : clr.value().actions) {
          if (analysis_says_installed(action.page, record.lsn)) continue;
          Result<storage::Page*> cached = fetch(action.page);
          if (!cached.ok()) return cached.status();
          if (cached.value()->lsn() >= record.lsn) {  // installed
            installed(record.lsn, action.page);
            continue;
          }
          REDO_RETURN_IF_ERROR(
              engine::ApplyOneUndoAction(ctx.pool, action, record.lsn));
          any_applied = true;
          applied(record.lsn, action.page);
        }
        if (any_applied) ++s.replayed;
        break;
      }
      case wal::RecordType::kPageImage: {
        Result<std::pair<storage::PageId, storage::Page>> decoded =
            engine::DecodePageImage(record.payload);
        if (!decoded.ok()) return decoded.status();
        const auto& [page, image] = decoded.value();
        if (analysis_says_installed(page, record.lsn)) break;
        Result<storage::Page*> cached = fetch(page);
        if (!cached.ok()) return cached.status();
        if (cached.value()->lsn() >= record.lsn) {  // installed
          installed(record.lsn, page);
          break;
        }
        REDO_RETURN_IF_ERROR(RedoPageImage(ctx, page, image, record.lsn));
        ++s.replayed;
        applied(record.lsn, page);
        break;
      }
      case wal::RecordType::kPageSplit: {
        Result<engine::SplitOp> split = engine::DecodeSplitOp(record.payload);
        if (!split.ok()) return split.status();
        if (analysis_says_installed(split.value().dst, record.lsn)) break;
        Result<storage::Page*> dst = fetch(split.value().dst);
        if (!dst.ok()) return dst.status();
        if (dst.value()->lsn() >= record.lsn) {  // installed
          installed(record.lsn, split.value().dst);
          break;
        }
        Result<storage::Page*> src = fetch(split.value().src);
        if (!src.ok()) return src.status();
        // Copy src out: fetching one page may evict the other under a
        // tiny cache capacity, invalidating the first pointer.
        const storage::Page src_copy = *src.value();
        dst = fetch(split.value().dst);
        if (!dst.ok()) return dst.status();
        // Re-run the redo test on the refetched dst: the test above and
        // this apply are separated by a fetch that can change what the
        // cache holds, and an already-current dst must never absorb the
        // split twice (a kSlotTransfer double-apply corrupts the slot).
        if (dst.value()->lsn() >= record.lsn) {  // installed
          installed(record.lsn, split.value().dst);
          break;
        }
        engine::ApplySplitToDst(split.value(), src_copy, dst.value());
        REDO_RETURN_IF_ERROR(
            ctx.pool->MarkDirty(split.value().dst, record.lsn));
        ++s.replayed;
        applied(record.lsn, split.value().dst);
        if (add_split_constraints) {
          // Same acyclicity rule as during normal operation.
          if (ctx.pool->HasPendingOrderPath(split.value().src,
                                            split.value().dst)) {
            REDO_RETURN_IF_ERROR(
                ctx.pool->FlushPageCascading(split.value().dst));
          } else {
            ctx.pool->AddWriteOrderConstraint(split.value().dst, record.lsn,
                                              split.value().src);
          }
        }
        break;
      }
      default: {  // single-page ops
        Result<engine::SinglePageOp> op =
            engine::DecodeSinglePageOp(record.type, record.payload);
        if (!op.ok()) return op.status();
        if (analysis_says_installed(op.value().page, record.lsn)) break;
        Result<storage::Page*> cached = fetch(op.value().page);
        if (!cached.ok()) return cached.status();
        if (cached.value()->lsn() >= record.lsn) {  // installed
          installed(record.lsn, op.value().page);
          break;
        }
        REDO_RETURN_IF_ERROR(RedoSinglePageOp(ctx, op.value(), record.lsn));
        ++s.replayed;
        applied(record.lsn, op.value().page);
        break;
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status LsnRedoScan(EngineContext& ctx, bool add_split_constraints,
                   const std::map<storage::PageId, core::Lsn>* dpt,
                   RecoveryMethod::RedoScanStats* stats) {
  obs::PhaseScope phase(ctx.tracer, "redo-scan");
  Result<core::Lsn> redo_start = ReadRedoScanStart(ctx);
  if (!redo_start.ok()) return redo_start.status();
  REDO_RETURN_IF_ERROR(TraceCheckpointChosen(ctx, redo_start.value()));
  Result<std::vector<wal::LogRecord>> records =
      ctx.log->StableRecords(redo_start.value());
  if (!records.ok()) return records.status();

  // Count into a local struct and *add* to the caller's at the end:
  // callers that recover repeatedly (the degradation ladder's reruns)
  // keep earlier rungs' counts — per-rung work comes from deltas,
  // totals from the sum — instead of having rung 0 zeroed away.
  RecoveryMethod::RedoScanStats local;
  const Status status = SerialLsnApply(ctx, records.value(),
                                       add_split_constraints, dpt, local);
  if (stats != nullptr) {
    stats->scanned += local.scanned;
    stats->replayed += local.replayed;
    stats->skipped_without_fetch += local.skipped_without_fetch;
    stats->page_fetches += local.page_fetches;
  }
  return status;
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
  wal::PayloadReader r(checkpoint.value()->payload);
  Result<uint64_t> redo_start = r.U64();
  if (!redo_start.ok()) return redo_start.status();
  if (r.AtEnd()) return staged;  // a checkpoint without a staged list
  Result<uint32_t> count = r.U32();
  if (!count.ok()) return count.status();
  for (uint32_t i = 0; i < count.value(); ++i) {
    Result<uint32_t> page = r.U32();
    if (!page.ok()) return page.status();
    staged.pages.push_back(page.value());
  }
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
  wal::PayloadReader r(checkpoint.value()->payload);
  Result<uint64_t> redo_start = r.U64();
  if (!redo_start.ok()) return redo_start.status();
  if (r.AtEnd()) return dpt;  // a checkpoint without a DPT
  Result<uint32_t> count = r.U32();
  if (!count.ok()) return count.status();
  for (uint32_t i = 0; i < count.value(); ++i) {
    Result<uint32_t> page = r.U32();
    if (!page.ok()) return page.status();
    Result<uint64_t> rec_lsn = r.U64();
    if (!rec_lsn.ok()) return rec_lsn.status();
    dpt.emplace(page.value(), rec_lsn.value());
  }
  return dpt;
}

}  // namespace internal_methods
}  // namespace redo::methods
