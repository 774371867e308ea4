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
      // Fully committed or fully rolled back before the crash; either
      // way nothing remains to undo.
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
    const bool redo_all = method->redo_test_kind() ==
                          RecoveryMethod::RedoTestKind::kRedoAllSinceCheckpoint;
    out.redo.mode = redo_all ? par::InstantRedoOptions::Mode::kRedoAll
                             : par::InstantRedoOptions::Mode::kLsnTest;
    out.redo.add_split_constraints = planning.add_split_constraints;
    if (planning.analysis_dpt) {
      Result<std::map<storage::PageId, core::Lsn>> dpt =
          internal_methods::ReadCheckpointDpt(ctx);
      if (!dpt.ok()) return dpt.status();
      out.redo.use_dpt = true;
      out.redo.dpt = std::move(dpt).value();
    }
    builder.emplace(/*supersede_images=*/redo_all);
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
          for (storage::PageId page : task.value()->Writes()) {
            out.redo.dpt.emplace(page, record.lsn);  // earliest rec_lsn
          }
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

}  // namespace redo::methods
