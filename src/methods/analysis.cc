#include "methods/analysis.h"

#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "methods/common.h"

namespace redo::methods {
namespace {

// Rolls the transaction table forward over one record.
Status NoteTxnRecord(const wal::LogRecord& record, TxnAnalysis& analysis) {
  uint64_t txn = 0;
  switch (record.type) {
    case wal::RecordType::kTxnBegin:
    case wal::RecordType::kTxnCommit:
    case wal::RecordType::kTxnEnd: {
      Result<uint64_t> meta = engine::DecodeTxnMeta(record.payload);
      if (!meta.ok()) return meta.status();
      txn = meta.value();
      if (record.type == wal::RecordType::kTxnBegin) {
        analysis.losers.emplace(txn, 0);
        break;
      }
      // A commit wins; a kTxnEnd closes a rollback finished before the
      // crash (a commit ends at its kTxnCommit). Neither leaves undo.
      if (record.type == wal::RecordType::kTxnCommit) {
        analysis.winners.insert(txn);
      }
      analysis.losers.erase(txn);
      break;
    }
    case wal::RecordType::kTxnUpdate: {
      Result<engine::TxnUpdate> update =
          engine::DecodeTxnUpdate(record.payload);
      if (!update.ok()) return update.status();
      txn = update.value().txn_id;
      analysis.losers[txn] = record.lsn;
      break;
    }
    case wal::RecordType::kClr: {
      // A CLR on the log means a previous rollback (runtime abort or a
      // crashed undo pass) got this far; resuming from it hops the
      // already-compensated prefix via undo_next.
      Result<engine::Clr> clr = engine::DecodeClr(record.payload);
      if (!clr.ok()) return clr.status();
      txn = clr.value().txn_id;
      analysis.losers[txn] = record.lsn;
      break;
    }
    default:
      return Status::Ok();
  }
  analysis.max_txn_id = std::max(analysis.max_txn_id, txn);
  ++analysis.records_seen;
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

// The Figure 6 loop body (see RestartInLogOrder), one decoded record
// at a time. `rule` is read as it stands at each record: the serial visit
// grows its DPT while replaying. Null `stats` counts nothing.
struct LogOrderReplayer {
  EngineContext& ctx;
  const par::InstantRedoOptions& rule;
  RedoScanStats* stats;
  const bool redo_all = rule.mode == par::InstantRedoOptions::Mode::kRedoAll;
  RedoScanStats ignored{};
  RedoScanStats& s = stats != nullptr ? *stats : ignored;

  Status Replay(const wal::LogRecord& record, const par::RedoTask& task) {
    storage::BufferPool* pool = ctx.pool;
    const core::Lsn lsn = task.lsn;
    ++s.scanned;
    switch (task.kind) {
      case par::RedoTaskKind::kSinglePage: {
        Result<bool> apply = MustApply(task, task.op.page);
        if (!apply.ok()) return apply.status();
        if (!apply.value()) break;
        Result<storage::Page*> cached = FetchToApply(task, task.op.page);
        if (!cached.ok()) return cached.status();
        REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(task.op, cached.value()));
        REDO_RETURN_IF_ERROR(pool->MarkDirty(task.op.page, lsn));
        Applied(lsn, task.op.page);
        break;
      }
      case par::RedoTaskKind::kPageImage: {
        Result<bool> apply = MustApply(task, task.image_page);
        if (!apply.ok()) return apply.status();
        if (!apply.value()) break;
        Result<engine::PageImageView> image =
            engine::ParsePageImage(record.payload);
        if (!image.ok()) return image.status();
        Result<storage::Page*> cached = FetchToApply(task, task.image_page);
        if (!cached.ok()) return cached.status();
        // The image carries its own LSN.
        image.value().InstallInto(cached.value());
        REDO_RETURN_IF_ERROR(pool->MarkDirty(task.image_page, lsn));
        Applied(lsn, task.image_page);
        break;
      }
      case par::RedoTaskKind::kSplitDst: {
        const engine::SplitOp& split = task.split;
        Result<bool> apply = MustApply(task, split.dst);
        if (!apply.ok()) return apply.status();
        if (!apply.value()) break;
        Result<storage::Page*> src = Fetch(split.src);
        if (!src.ok()) return src.status();
        // Copy src out: fetching one page may evict the other under a
        // tiny cache capacity, invalidating the first pointer.
        const storage::Page src_copy = *src.value();
        Result<storage::Page*> dst = Fetch(split.dst);
        if (!dst.ok()) return dst.status();
        // Re-run the LSN test on the refetched dst: the fetches between
        // can change what the cache holds, and an already-current dst
        // must never absorb the split twice (a kSlotTransfer
        // double-apply corrupts the slot).
        if (!redo_all && dst.value()->lsn() >= lsn) {
          Emit(lsn, split.dst, obs::RedoVerdict::kSkippedInstalled);
          break;
        }
        engine::ApplySplitToDst(split, src_copy, dst.value());
        REDO_RETURN_IF_ERROR(pool->MarkDirty(split.dst, lsn));
        Applied(lsn, split.dst);
        if (rule.add_split_constraints) {
          // The same write-order rule as during normal operation.
          REDO_RETURN_IF_ERROR(pool->OrderWrites(split.dst, lsn, split.src));
        }
        break;
      }
      case par::RedoTaskKind::kWholeSplit: {
        // The logical method's whole split, under its redo-all test:
        // dst := P(src), then the src rewrite Q.
        const engine::SplitOp& split = task.split;
        Result<storage::Page*> src = FetchToApply(task, split.src);
        if (!src.ok()) return src.status();
        const storage::Page src_copy = *src.value();
        Result<storage::Page*> dst = FetchToApply(task, split.dst);
        if (!dst.ok()) return dst.status();
        engine::ApplySplitToDst(split, src_copy, dst.value());
        REDO_RETURN_IF_ERROR(pool->MarkDirty(split.dst, lsn));
        REDO_RETURN_IF_ERROR(internal_methods::RedoSinglePageOp(
            ctx, engine::MakeRewriteForSplit(split), lsn));
        Applied(lsn, split.dst);
        break;
      }
      case par::RedoTaskKind::kClrRestore: {
        // A CLR from an earlier rollback: restore each action's page
        // (absolute), testing each page on its own.
        bool any = false;
        for (const engine::UndoAction& action : task.clr_actions) {
          Result<bool> apply = MustApply(task, action.page);
          if (!apply.ok()) return apply.status();
          if (!apply.value()) continue;
          Result<storage::Page*> cached = FetchToApply(task, action.page);
          if (!cached.ok()) return cached.status();
          REDO_RETURN_IF_ERROR(
              engine::RestoreUndoAction(action, cached.value()));
          REDO_RETURN_IF_ERROR(pool->MarkDirty(action.page, lsn));
          any = true;
          Emit(lsn, action.page, obs::RedoVerdict::kApplied);
        }
        if (any) ++s.replayed;
        break;
      }
    }
    return Status::Ok();
  }

  void Emit(core::Lsn lsn, storage::PageId page, obs::RedoVerdict verdict) {
    if (ctx.tracer == nullptr) return;
    ctx.tracer->Verdict(lsn, page, verdict,
                        obs::RedoVerdictReason(verdict, redo_all));
  }

  // Pages this restart has fetched. The drains keep every page they
  // fetch cached until they finish, so the first-touch rule applies at a
  // page's first fetch only: a page a bounded pool evicted since is read
  // back, and no verdict depends on what the pool kept.
  std::unordered_set<storage::PageId> touched;

  Result<storage::Page*> Fetch(storage::PageId page) {
    ++s.page_fetches;
    touched.insert(page);
    return ctx.pool->Fetch(page);
  }

  // The page `task` replays onto, by the first-touch rule
  // (par::BlindFirstTouch): at its first fetch, a page whose prior bytes
  // the task does not read starts from the zero page instead of being
  // read.
  Result<storage::Page*> FetchToApply(const par::RedoTask& task,
                                      storage::PageId page) {
    const bool first = touched.insert(page).second;
    return first && par::BlindFirstTouch(task, page)
               ? ctx.pool->FetchBlind(page)
               : ctx.pool->Fetch(page);
  }

  // The redo test for one page of one record. Redo-all replays it. The
  // page-LSN test skips a page the DPT rules out without any I/O (§4.3:
  // the operation is provably not exposed), and otherwise fetches the
  // page by the first-touch rule and replays only onto an older LSN;
  // the apply fetches again.
  Result<bool> MustApply(const par::RedoTask& task, storage::PageId page) {
    if (redo_all) return true;
    if (rule.use_dpt) {
      const auto it = rule.dpt.find(page);
      if (it == rule.dpt.end() || task.lsn < it->second) {
        ++s.skipped_without_fetch;
        Emit(task.lsn, page, obs::RedoVerdict::kNotExposed);
        return false;
      }
    }
    ++s.page_fetches;
    Result<storage::Page*> cached = FetchToApply(task, page);
    if (!cached.ok()) return cached.status();
    if (cached.value()->lsn() < task.lsn) return true;
    Emit(task.lsn, page, obs::RedoVerdict::kSkippedInstalled);
    return false;
  }

  void Applied(core::Lsn lsn, storage::PageId page) {
    ++s.replayed;
    Emit(lsn, page, obs::RedoVerdict::kApplied);
  }
};

// What one visit does besides rolling the transaction table forward:
// nothing, or grow the DPT and plan or replay each redo record.
enum class VisitMode { kTxnsOnly, kPlan, kReplay };

// The visit. Without a method it rolls the transaction table forward
// alone; with one it also grows the DPT and classifies and decodes each
// record from the redo start once, then plans or replays it. It reads
// no record at or below `installed_through`.
Result<RestartAnalysis> Visit(EngineContext& ctx,
                              const StableCheckpoint& checkpoint,
                              core::Lsn installed_through,
                              const RecoveryMethod* method, VisitMode mode,
                              RedoScanStats* stats = nullptr) {
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
  std::optional<LogOrderReplayer> replayer;
  if (mode != VisitMode::kTxnsOnly) {
    planning = method->redo_planning();
    out.redo = RedoRule(*method);
    if (planning.analysis_dpt) {
      out.redo.use_dpt = true;
      out.redo.dpt = checkpoint.payload.dpt;
    }
    from = std::max(ScanStart(checkpoint), installed_through + 1);
    if (mode == VisitMode::kPlan) {
      builder.emplace(/*supersede_images=*/out.redo.mode ==
                      par::InstantRedoOptions::Mode::kRedoAll);
    } else {
      replayer.emplace(ctx, out.redo, stats);
    }
  }

  const Result<wal::ScanExtent> visited = ctx.log->VisitStable(
      from, [&](const wal::LogRecord& record) -> Status {
        if (record.lsn >= txn_from) {
          REDO_RETURN_IF_ERROR(NoteTxnRecord(record, out.txns));
        }
        const bool redone =
            mode != VisitMode::kTxnsOnly && record.lsn >= redo_start;
        const bool extends_dpt = out.redo.use_dpt && record.lsn >= dpt_from;
        if (!redone && !extends_dpt) return Status::Ok();
        if (redone) REDO_RETURN_IF_ERROR(method->ClassifyRecord(record.type));
        Result<std::optional<par::RedoTask>> task =
            par::DecodeRedoTask(record, planning.whole_splits);
        if (!task.ok()) return task.status();
        if (!task.value().has_value()) return Status::Ok();
        // The DPT grows before the record replays (emplace keeps each
        // page's earliest rec_lsn), so every verdict equals one against
        // the complete DPT. After the checkpoint a page enters only at
        // its first touch: a record's page holds the checkpoint's entry
        // or one no later than the record, as in the complete DPT.
        // Before the checkpoint only its own entries exist; a page
        // first dirtied after it has a rec_lsn above every such record,
        // so both DPTs read not-exposed. Grown after the replay, a
        // page's first touch after the checkpoint would read
        // not-exposed.
        if (extends_dpt) {
          for (storage::PageId page : task.value()->Writes()) {
            out.redo.dpt.emplace(page, record.lsn);
          }
        }
        if (!redone) return Status::Ok();
        if (replayer.has_value()) {
          return replayer->Replay(record, *task.value());
        }
        builder->Add(std::move(*task.value()));
        return Status::Ok();
      });
  if (!visited.ok()) return visited.status();
  // The visit stopped at damage the live log's hole check cannot see (a
  // hole in the archive prefix below it): the records past it are lost
  // to this restart, so it must refuse, never replay a truncated prefix.
  if (visited.value().torn) {
    return Status::Corruption(
        "stable log unreadable: first unreadable LSN " +
        std::to_string(visited.value().last_valid_lsn + 1) +
        "; refusing to recover past a gap");
  }
  if (builder.has_value()) {
    Result<par::RedoPlan> planned = std::move(*builder).Finish(*ctx.log);
    if (!planned.ok()) return planned.status();
    out.plan = std::move(planned).value();
  }
  return out;
}

// Every restart's preamble: its checkpoint (the latest stable one is
// read once), the method's stable-state repair and the
// checkpoint-chosen event.
Result<StableCheckpoint> OpenRestart(RecoveryMethod& method,
                                     EngineContext& ctx,
                                     const RestartPoint& start) {
  Result<StableCheckpoint> checkpoint =
      start.checkpoint.has_value() ? *start.checkpoint
                                   : ReadStableCheckpoint(*ctx.log);
  if (!checkpoint.ok()) return checkpoint.status();
  REDO_RETURN_IF_ERROR(method.PrepareStableState(ctx, checkpoint.value()));
  if (ctx.tracer != nullptr) {
    ctx.tracer->CheckpointChosen(checkpoint.value().lsn,
                                 checkpoint.value().payload.redo_start);
  }
  return checkpoint;
}

}  // namespace

core::Lsn ScanStart(const StableCheckpoint& checkpoint) {
  return std::min(std::max<core::Lsn>(checkpoint.lsn, 1),
                  checkpoint.payload.redo_start);
}

Result<RestartAnalysis> AnalyzeForRestart(RecoveryMethod& method,
                                          EngineContext& ctx,
                                          const RestartPoint& start) {
  Result<StableCheckpoint> checkpoint = OpenRestart(method, ctx, start);
  if (!checkpoint.ok()) return checkpoint.status();
  return Visit(ctx, checkpoint.value(), start.installed_through, &method,
               VisitMode::kPlan);
}

Result<TxnAnalysis> AnalyzeTransactions(EngineContext& ctx) {
  Result<StableCheckpoint> checkpoint = ReadStableCheckpoint(*ctx.log);
  if (!checkpoint.ok()) return checkpoint.status();
  Result<RestartAnalysis> visited =
      Visit(ctx, checkpoint.value(), /*installed_through=*/0,
            /*method=*/nullptr, VisitMode::kTxnsOnly);
  if (!visited.ok()) return visited.status();
  return std::move(visited.value().txns);
}

Result<TxnAnalysis> RestartInLogOrder(RecoveryMethod& method,
                                      EngineContext& ctx,
                                      RedoScanStats* stats,
                                      const RestartPoint& start) {
  obs::PhaseScope phase(ctx.tracer, "redo-scan");
  Result<StableCheckpoint> checkpoint = OpenRestart(method, ctx, start);
  if (!checkpoint.ok()) return checkpoint.status();
  Result<RestartAnalysis> visited =
      Visit(ctx, checkpoint.value(), start.installed_through, &method,
            VisitMode::kReplay, stats);
  if (!visited.ok()) return visited.status();
  return std::move(visited.value().txns);
}

}  // namespace redo::methods
