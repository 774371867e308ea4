#include "methods/analysis.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "methods/common.h"

namespace redo::methods {
namespace {

// Rolls the transaction table forward over one record.
Status NoteTxnRecord(const wal::LogRecord& record, TxnAnalysis& analysis) {
  switch (record.type) {
    case wal::RecordType::kTxnBegin: {
      Result<uint64_t> txn = engine::DecodeTxnMeta(record.payload);
      if (!txn.ok()) return txn.status();
      analysis.losers.emplace(txn.value(), 0);
      analysis.max_txn_id = std::max(analysis.max_txn_id, txn.value());
      ++analysis.records_seen;
      break;
    }
    case wal::RecordType::kTxnCommit: {
      Result<uint64_t> txn = engine::DecodeTxnMeta(record.payload);
      if (!txn.ok()) return txn.status();
      analysis.winners.insert(txn.value());
      analysis.losers.erase(txn.value());
      analysis.max_txn_id = std::max(analysis.max_txn_id, txn.value());
      ++analysis.records_seen;
      break;
    }
    case wal::RecordType::kTxnEnd: {
      // Fully rolled back before the crash (a commit ends at its
      // kTxnCommit): nothing remains to undo.
      Result<uint64_t> txn = engine::DecodeTxnMeta(record.payload);
      if (!txn.ok()) return txn.status();
      analysis.losers.erase(txn.value());
      analysis.max_txn_id = std::max(analysis.max_txn_id, txn.value());
      ++analysis.records_seen;
      break;
    }
    case wal::RecordType::kTxnUpdate: {
      Result<engine::TxnUpdate> update =
          engine::DecodeTxnUpdate(record.payload);
      if (!update.ok()) return update.status();
      analysis.losers[update.value().txn_id] = record.lsn;
      analysis.max_txn_id =
          std::max(analysis.max_txn_id, update.value().txn_id);
      ++analysis.records_seen;
      break;
    }
    case wal::RecordType::kClr: {
      // A CLR on the log means a previous rollback (runtime abort or a
      // crashed undo pass) got this far; resuming from it hops the
      // already-compensated prefix via undo_next.
      Result<engine::Clr> clr = engine::DecodeClr(record.payload);
      if (!clr.ok()) return clr.status();
      analysis.losers[clr.value().txn_id] = record.lsn;
      analysis.max_txn_id = std::max(analysis.max_txn_id, clr.value().txn_id);
      ++analysis.records_seen;
      break;
    }
    default:
      break;
  }
  return Status::Ok();
}

// The method's redo rule: redo-all or the page-LSN test, plus §6.4
// constraint re-arming. The analysis DPT is the caller's to add.
par::InstantRedoOptions RedoRule(const RecoveryMethod& method) {
  par::InstantRedoOptions rule;
  rule.mode = method.redo_test_kind() ==
                      RecoveryMethod::RedoTestKind::kRedoAllSinceCheckpoint
                  ? par::InstantRedoOptions::Mode::kRedoAll
                  : par::InstantRedoOptions::Mode::kLsnTest;
  rule.add_split_constraints = method.redo_planning().add_split_constraints;
  return rule;
}

// Extends the DPT with the pages `task` writes; emplace keeps each
// page's earliest rec_lsn.
void NoteDirtyPages(const par::RedoTask& task,
                    std::map<storage::PageId, core::Lsn>& dpt) {
  for (storage::PageId page : task.Writes()) dpt.emplace(page, task.lsn);
}

// The serial restart's DPT pass (§4.3): the checkpoint's DPT, extended
// by every record after the checkpoint.
Result<std::map<storage::PageId, core::Lsn>> RebuildDpt(
    EngineContext& ctx, bool whole_splits) {
  Result<std::map<storage::PageId, core::Lsn>> dpt =
      internal_methods::ReadCheckpointDpt(ctx);
  if (!dpt.ok()) return dpt.status();
  Result<std::optional<wal::LogRecord>> checkpoint =
      ctx.log->LatestStableCheckpoint();
  if (!checkpoint.ok()) return checkpoint.status();
  const core::Lsn from =
      checkpoint.value().has_value() ? checkpoint.value()->lsn + 1 : 1;
  // Visit the suffix in place: only each record's written pages matter.
  const Result<wal::ScanExtent> visited = ctx.log->VisitStable(
      from, [&](const wal::LogRecord& record) -> Status {
        Result<std::optional<par::RedoTask>> task =
            par::DecodeRedoTask(record, whole_splits);
        if (!task.ok()) return task.status();
        if (task.value().has_value()) {
          NoteDirtyPages(*task.value(), dpt.value());
        }
        return Status::Ok();
      });
  if (!visited.ok()) return visited.status();
  return dpt;
}

// The visit. Without a method it builds the transaction table alone.
Result<RestartAnalysis> Visit(EngineContext& ctx,
                              const RecoveryMethod* method) {
  RestartAnalysis out;
  Result<std::optional<wal::LogRecord>> checkpoint =
      ctx.log->LatestStableCheckpoint();
  if (!checkpoint.ok()) return checkpoint.status();
  // The checkpoint's transaction tail is the table as of its record, so
  // the table rolls forward from that record on; the DPT it carries
  // grows with the records after it.
  core::Lsn txn_from = 1;
  core::Lsn dpt_from = 1;
  if (checkpoint.value().has_value()) {
    txn_from = checkpoint.value()->lsn;
    dpt_from = txn_from + 1;
    const engine::CheckpointTxnTable table =
        engine::ReadTxnTableTail(checkpoint.value()->payload);
    if (table.present) {
      out.txns.max_txn_id = table.max_txn_id;
      for (const engine::TxnTableEntry& entry : table.entries) {
        out.txns.losers[entry.txn_id] = entry.last_lsn;
      }
    }
  }

  core::Lsn from = txn_from;
  core::Lsn redo_start = 0;
  RecoveryMethod::RedoPlanning planning;
  std::optional<par::RedoPlanBuilder> builder;
  if (method != nullptr) {
    planning = method->redo_planning();
    Result<core::Lsn> start = internal_methods::ReadRedoScanStart(ctx);
    if (!start.ok()) return start.status();
    redo_start = start.value();
    REDO_RETURN_IF_ERROR(
        internal_methods::TraceCheckpointChosen(ctx, redo_start));
    from = std::min(from, redo_start);
    out.redo = RedoRule(*method);
    if (planning.analysis_dpt) {
      Result<std::map<storage::PageId, core::Lsn>> dpt =
          internal_methods::ReadCheckpointDpt(ctx);
      if (!dpt.ok()) return dpt.status();
      out.redo.use_dpt = true;
      out.redo.dpt = std::move(dpt).value();
    }
    builder.emplace(/*supersede_images=*/out.redo.mode ==
                    par::InstantRedoOptions::Mode::kRedoAll);
  }

  const Result<wal::ScanExtent> visited = ctx.log->VisitStable(
      from, [&](const wal::LogRecord& record) -> Status {
        if (record.lsn >= txn_from) {
          REDO_RETURN_IF_ERROR(NoteTxnRecord(record, out.txns));
        }
        if (!builder.has_value() || record.lsn < redo_start) {
          return Status::Ok();
        }
        REDO_RETURN_IF_ERROR(method->ClassifyRecord(record.type));
        Result<std::optional<par::RedoTask>> task =
            par::DecodeRedoTask(record, planning.whole_splits);
        if (!task.ok()) return task.status();
        if (!task.value().has_value()) return Status::Ok();
        // The redo start never passes the record after the checkpoint,
        // so every record that extends the DPT is planned here too.
        if (out.redo.use_dpt && record.lsn >= dpt_from) {
          NoteDirtyPages(*task.value(), out.redo.dpt);
        }
        builder->Add(std::move(*task.value()));
        return Status::Ok();
      });
  if (!visited.ok()) return visited.status();
  if (builder.has_value()) {
    Result<par::RedoPlan> plan = std::move(*builder).Finish(*ctx.log);
    if (!plan.ok()) return plan.status();
    out.plan = std::move(plan).value();
  }
  return out;
}

}  // namespace

Result<RestartAnalysis> AnalyzeForRestart(RecoveryMethod& method,
                                          EngineContext& ctx) {
  REDO_RETURN_IF_ERROR(method.PrepareStableState(ctx));
  return Visit(ctx, &method);
}

Result<TxnAnalysis> AnalyzeTransactions(EngineContext& ctx) {
  Result<RestartAnalysis> visited = Visit(ctx, nullptr);
  if (!visited.ok()) return visited.status();
  return std::move(visited.value().txns);
}

Status ReplayInLogOrder(const RecoveryMethod& method, EngineContext& ctx,
                        std::span<const wal::LogRecord> records,
                        const par::InstantRedoOptions& rule,
                        RedoScanStats* stats) {
  using obs::RedoVerdict;
  const bool redo_all = rule.mode == par::InstantRedoOptions::Mode::kRedoAll;
  const bool whole_splits = method.redo_planning().whole_splits;
  storage::BufferPool* pool = ctx.pool;
  RedoScanStats ignored;
  RedoScanStats& s = stats != nullptr ? *stats : ignored;

  auto emit = [&ctx, redo_all](core::Lsn lsn, storage::PageId page,
                               RedoVerdict verdict) {
    if (ctx.tracer == nullptr) return;
    const char* reason = verdict == RedoVerdict::kNotExposed ? "analysis-dpt"
                         : verdict == RedoVerdict::kSkippedInstalled
                             ? "page-lsn-current"
                         : redo_all ? "redo-all"
                                    : "page-lsn-older";
    ctx.tracer->Verdict(lsn, page, verdict, reason);
  };
  auto fetch = [pool, &s](storage::PageId page) {
    ++s.page_fetches;
    return pool->Fetch(page);
  };
  // The redo test for one page of one record. Redo-all replays it. The
  // page-LSN test skips a page the DPT rules out without any I/O (§4.3:
  // the operation is provably not exposed), and otherwise fetches the
  // page and replays only onto an older LSN; the apply fetches again.
  auto must_apply = [&](storage::PageId page, core::Lsn lsn) -> Result<bool> {
    if (redo_all) return true;
    if (rule.use_dpt) {
      const auto it = rule.dpt.find(page);
      if (it == rule.dpt.end() || lsn < it->second) {
        ++s.skipped_without_fetch;
        emit(lsn, page, RedoVerdict::kNotExposed);
        return false;
      }
    }
    Result<storage::Page*> cached = fetch(page);
    if (!cached.ok()) return cached.status();
    if (cached.value()->lsn() < lsn) return true;
    emit(lsn, page, RedoVerdict::kSkippedInstalled);
    return false;
  };
  auto applied = [&](core::Lsn lsn, storage::PageId page) {
    ++s.replayed;
    emit(lsn, page, RedoVerdict::kApplied);
  };

  for (const wal::LogRecord& record : records) {
    REDO_RETURN_IF_ERROR(method.ClassifyRecord(record.type));
    Result<std::optional<par::RedoTask>> decoded =
        par::DecodeRedoTask(record, whole_splits);
    if (!decoded.ok()) return decoded.status();
    if (!decoded.value().has_value()) continue;  // carries no redo work
    const par::RedoTask& task = *decoded.value();
    const core::Lsn lsn = task.lsn;
    ++s.scanned;
    switch (task.kind) {
      case par::RedoTaskKind::kSinglePage: {
        Result<bool> apply = must_apply(task.op.page, lsn);
        if (!apply.ok()) return apply.status();
        if (!apply.value()) break;
        REDO_RETURN_IF_ERROR(
            internal_methods::RedoSinglePageOp(ctx, task.op, lsn));
        applied(lsn, task.op.page);
        break;
      }
      case par::RedoTaskKind::kPageImage: {
        Result<bool> apply = must_apply(task.image_page, lsn);
        if (!apply.ok()) return apply.status();
        if (!apply.value()) break;
        Result<engine::PageImageView> image =
            engine::ParsePageImage(record.payload);
        if (!image.ok()) return image.status();
        Result<storage::Page*> cached = pool->Fetch(task.image_page);
        if (!cached.ok()) return cached.status();
        // The image carries its own LSN.
        image.value().InstallInto(cached.value());
        REDO_RETURN_IF_ERROR(pool->MarkDirty(task.image_page, lsn));
        applied(lsn, task.image_page);
        break;
      }
      case par::RedoTaskKind::kSplitDst: {
        const engine::SplitOp& split = task.split;
        Result<bool> apply = must_apply(split.dst, lsn);
        if (!apply.ok()) return apply.status();
        if (!apply.value()) break;
        Result<storage::Page*> src = fetch(split.src);
        if (!src.ok()) return src.status();
        // Copy src out: fetching one page may evict the other under a
        // tiny cache capacity, invalidating the first pointer.
        const storage::Page src_copy = *src.value();
        Result<storage::Page*> dst = fetch(split.dst);
        if (!dst.ok()) return dst.status();
        // Re-run the LSN test on the refetched dst: the fetches between
        // can change what the cache holds, and an already-current dst
        // must never absorb the split twice (a kSlotTransfer
        // double-apply corrupts the slot).
        if (!redo_all && dst.value()->lsn() >= lsn) {
          emit(lsn, split.dst, RedoVerdict::kSkippedInstalled);
          break;
        }
        engine::ApplySplitToDst(split, src_copy, dst.value());
        REDO_RETURN_IF_ERROR(pool->MarkDirty(split.dst, lsn));
        applied(lsn, split.dst);
        if (rule.add_split_constraints) {
          // Same acyclicity rule as during normal operation.
          if (pool->HasPendingOrderPath(split.src, split.dst)) {
            REDO_RETURN_IF_ERROR(pool->FlushPageCascading(split.dst));
          } else {
            pool->AddWriteOrderConstraint(split.dst, lsn, split.src);
          }
        }
        break;
      }
      case par::RedoTaskKind::kWholeSplit:
        // The logical method's whole split, under its redo-all test.
        REDO_RETURN_IF_ERROR(
            internal_methods::ApplyWholeSplit(ctx, task.split, lsn));
        applied(lsn, task.split.dst);
        break;
      case par::RedoTaskKind::kClrRestore: {
        // A CLR from an earlier rollback: restore each action's page
        // (absolute), testing each page on its own.
        bool any = false;
        for (const engine::UndoAction& action : task.clr_actions) {
          Result<bool> apply = must_apply(action.page, lsn);
          if (!apply.ok()) return apply.status();
          if (!apply.value()) continue;
          REDO_RETURN_IF_ERROR(engine::ApplyOneUndoAction(pool, action, lsn));
          any = true;
          emit(lsn, action.page, RedoVerdict::kApplied);
        }
        if (any) ++s.replayed;
        break;
      }
    }
  }
  return Status::Ok();
}

Status RedoInLogOrder(RecoveryMethod& method, EngineContext& ctx,
                      RedoScanStats* stats) {
  const RecoveryMethod::RedoPlanning planning = method.redo_planning();
  par::InstantRedoOptions rule = RedoRule(method);
  if (planning.analysis_dpt) {
    obs::PhaseScope phase(ctx.tracer, "analysis");
    Result<std::map<storage::PageId, core::Lsn>> dpt =
        RebuildDpt(ctx, planning.whole_splits);
    if (!dpt.ok()) return dpt.status();
    rule.use_dpt = true;
    rule.dpt = std::move(dpt).value();
  }
  obs::PhaseScope phase(ctx.tracer, "redo-scan");
  REDO_RETURN_IF_ERROR(method.PrepareStableState(ctx));
  Result<core::Lsn> redo_start = internal_methods::ReadRedoScanStart(ctx);
  if (!redo_start.ok()) return redo_start.status();
  REDO_RETURN_IF_ERROR(
      internal_methods::TraceCheckpointChosen(ctx, redo_start.value()));
  Result<std::vector<wal::LogRecord>> records =
      ctx.log->StableRecords(redo_start.value());
  if (!records.ok()) return records.status();
  return ReplayInLogOrder(method, ctx, records.value(), rule, stats);
}

}  // namespace redo::methods
