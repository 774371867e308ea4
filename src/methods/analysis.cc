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

// The visit. Without a method it builds the transaction table alone;
// with one it also seeds the DPT at the checkpoint's (when the method
// rebuilds one) and extends it by every later record; with `plan` it
// also plans every record from the redo start.
Result<RestartAnalysis> Visit(EngineContext& ctx,
                              const StableCheckpoint& checkpoint,
                              const RecoveryMethod* method, bool plan) {
  RestartAnalysis out;
  // The checkpoint's transaction table is the table as of its record,
  // so the table rolls forward from that record on; the DPT it carries
  // grows with the records after it.
  const core::Lsn txn_from = checkpoint.lsn == 0 ? 1 : checkpoint.lsn;
  const core::Lsn dpt_from = checkpoint.lsn + 1;
  out.txns.max_txn_id = checkpoint.payload.max_txn_id;
  for (const engine::TxnTableEntry& entry : checkpoint.payload.txns) {
    out.txns.losers[entry.txn_id] = entry.last_lsn;
  }

  const core::Lsn redo_start = checkpoint.payload.redo_start;
  core::Lsn from = txn_from;
  RecoveryMethod::RedoPlanning planning;
  std::optional<par::RedoPlanBuilder> builder;
  if (method != nullptr) {
    planning = method->redo_planning();
    out.redo = RedoRule(*method);
    if (planning.analysis_dpt) {
      out.redo.use_dpt = true;
      out.redo.dpt = checkpoint.payload.dpt;
    }
    if (plan) {
      from = std::min(from, redo_start);
      builder.emplace(/*supersede_images=*/out.redo.mode ==
                      par::InstantRedoOptions::Mode::kRedoAll);
    }
  }

  const Result<wal::ScanExtent> visited = ctx.log->VisitStable(
      from, [&](const wal::LogRecord& record) -> Status {
        if (record.lsn >= txn_from) {
          REDO_RETURN_IF_ERROR(NoteTxnRecord(record, out.txns));
        }
        const bool planned = builder.has_value() && record.lsn >= redo_start;
        const bool extends_dpt = out.redo.use_dpt && record.lsn >= dpt_from;
        if (!planned && !extends_dpt) return Status::Ok();
        if (planned) REDO_RETURN_IF_ERROR(method->ClassifyRecord(record.type));
        Result<std::optional<par::RedoTask>> task =
            par::DecodeRedoTask(record, planning.whole_splits);
        if (!task.ok()) return task.status();
        if (!task.value().has_value()) return Status::Ok();
        // emplace keeps each page's earliest rec_lsn.
        if (extends_dpt) {
          for (storage::PageId page : task.value()->Writes()) {
            out.redo.dpt.emplace(page, record.lsn);
          }
        }
        if (planned) builder->Add(std::move(*task.value()));
        return Status::Ok();
      });
  if (!visited.ok()) return visited.status();
  if (builder.has_value()) {
    Result<par::RedoPlan> planned = std::move(*builder).Finish(*ctx.log);
    if (!planned.ok()) return planned.status();
    out.plan = std::move(planned).value();
  }
  return out;
}

}  // namespace

Result<RestartAnalysis> AnalyzeForRestart(RecoveryMethod& method,
                                          EngineContext& ctx) {
  Result<StableCheckpoint> checkpoint = ReadStableCheckpoint(*ctx.log);
  if (!checkpoint.ok()) return checkpoint.status();
  REDO_RETURN_IF_ERROR(method.PrepareStableState(ctx, checkpoint.value()));
  if (ctx.tracer != nullptr) {
    ctx.tracer->CheckpointChosen(checkpoint.value().lsn,
                                 checkpoint.value().payload.redo_start);
  }
  return Visit(ctx, checkpoint.value(), &method, /*plan=*/true);
}

Result<TxnAnalysis> AnalyzeTransactions(EngineContext& ctx) {
  Result<StableCheckpoint> checkpoint = ReadStableCheckpoint(*ctx.log);
  if (!checkpoint.ok()) return checkpoint.status();
  Result<RestartAnalysis> visited =
      Visit(ctx, checkpoint.value(), /*method=*/nullptr, /*plan=*/false);
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
    ctx.tracer->Verdict(lsn, page, verdict,
                        obs::RedoVerdictReason(verdict, redo_all));
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

Result<TxnAnalysis> RestartInLogOrder(RecoveryMethod& method,
                                      EngineContext& ctx,
                                      RedoScanStats* stats) {
  Result<StableCheckpoint> checkpoint = ReadStableCheckpoint(*ctx.log);
  if (!checkpoint.ok()) return checkpoint.status();
  Result<RestartAnalysis> visited = [&] {
    // Only the method that rebuilds a DPT shows the visit as a phase.
    obs::PhaseScope phase(
        method.redo_planning().analysis_dpt ? ctx.tracer : nullptr,
        "analysis");
    return Visit(ctx, checkpoint.value(), &method, /*plan=*/false);
  }();
  if (!visited.ok()) return visited.status();
  obs::PhaseScope phase(ctx.tracer, "redo-scan");
  REDO_RETURN_IF_ERROR(method.PrepareStableState(ctx, checkpoint.value()));
  if (ctx.tracer != nullptr) {
    ctx.tracer->CheckpointChosen(checkpoint.value().lsn,
                                 checkpoint.value().payload.redo_start);
  }
  Result<std::vector<wal::LogRecord>> records =
      ctx.log->StableRecords(checkpoint.value().payload.redo_start);
  if (!records.ok()) return records.status();
  REDO_RETURN_IF_ERROR(ReplayInLogOrder(method, ctx, records.value(),
                                        visited.value().redo, stats));
  return std::move(visited.value().txns);
}

}  // namespace redo::methods
