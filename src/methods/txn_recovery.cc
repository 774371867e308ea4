#include "methods/txn_recovery.h"

#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace redo::methods {

Status UndoLosers(EngineContext& ctx, const TxnAnalysis& analysis,
                  const std::function<Status(storage::PageId)>& before_touch) {
  if (analysis.losers.empty()) return Status::Ok();
  obs::RecoveryTracer* tracer = ctx.tracer;
  obs::PhaseScope phase(tracer, "undo");
  engine::TxnUndoMetrics* metrics = ctx.undo_metrics;
  if (metrics != nullptr) {
    metrics->passes.fetch_add(1, std::memory_order_relaxed);
    metrics->losers.fetch_add(analysis.losers.size(),
                              std::memory_order_relaxed);
  }

  auto end_txn = [&ctx, tracer](uint64_t txn) {
    const core::Lsn end_lsn =
        ctx.log->Append(wal::RecordType::kTxnEnd, engine::EncodeTxnMeta(txn));
    if (tracer != nullptr) tracer->UndoVerdict(end_lsn, txn, "end", 0);
  };

  // One merged reverse pass: always compensate the highest outstanding
  // LSN across all losers, so CLR order on the log is the exact reverse
  // of update order — the classic single-cursor ARIES undo.
  std::priority_queue<std::pair<core::Lsn, uint64_t>> cursors;
  for (const auto& [txn, last_lsn] : analysis.losers) {
    if (last_lsn == 0) {
      end_txn(txn);  // began but logged nothing
    } else {
      cursors.emplace(last_lsn, txn);
    }
  }

  size_t emitted_this_pass = 0;
  while (!cursors.empty()) {
    const auto [lsn, txn] = cursors.top();
    cursors.pop();
    // Each chain record is a point lookup: the chain may reach back past
    // any checkpoint, even into the archive (its records are all stable —
    // each was appended before its operation record, and analysis only
    // saw stable state), but undo reads only the records it walks.
    Result<wal::LogRecord> found = ctx.log->StableRecordAt(lsn);
    if (!found.ok()) {
      return Status::Corruption("undo: chain LSN " + std::to_string(lsn) +
                                " unreadable: " + found.status().message());
    }
    const wal::LogRecord& record = found.value();
    if (metrics != nullptr) {
      metrics->records_walked.fetch_add(1, std::memory_order_relaxed);
    }
    core::Lsn next = 0;
    if (record.type == wal::RecordType::kTxnUpdate) {
      Result<engine::TxnUpdate> update =
          engine::DecodeTxnUpdate(record.payload);
      if (!update.ok()) return update.status();
      engine::Clr clr;
      clr.txn_id = txn;
      clr.undo_next = update.value().prev_lsn;
      clr.actions = std::move(update.value().actions);
      // CLR first, restore second: once the CLR is on the (volatile)
      // log, any force that lets a restored page reach disk has logged
      // why — and a lost CLR just means this step is redone next time.
      const core::Lsn clr_lsn =
          ctx.log->Append(wal::RecordType::kClr, engine::EncodeClr(clr));
      if (before_touch != nullptr) {
        for (const engine::UndoAction& action : clr.actions) {
          REDO_RETURN_IF_ERROR(before_touch(action.page));
        }
      }
      REDO_RETURN_IF_ERROR(
          engine::ApplyUndoActions(ctx.pool, clr.actions, clr_lsn));
      if (metrics != nullptr) {
        metrics->clrs_emitted.fetch_add(1, std::memory_order_relaxed);
        metrics->actions_applied.fetch_add(clr.actions.size(),
                                           std::memory_order_relaxed);
      }
      if (tracer != nullptr) {
        tracer->UndoVerdict(record.lsn, txn, "clr", clr.undo_next);
      }
      next = clr.undo_next;
      ++emitted_this_pass;
      if (ctx.options.undo_crash_after_clrs != 0 &&
          emitted_this_pass >= ctx.options.undo_crash_after_clrs) {
        if (metrics != nullptr) {
          metrics->injected_crashes.fetch_add(1, std::memory_order_relaxed);
        }
        REDO_RETURN_IF_ERROR(ctx.log->ForceAll());
        return Status::Unavailable("injected crash during undo");
      }
    } else if (record.type == wal::RecordType::kClr) {
      Result<engine::Clr> clr = engine::DecodeClr(record.payload);
      if (!clr.ok()) return clr.status();
      if (metrics != nullptr) {
        metrics->clrs_skipped.fetch_add(1, std::memory_order_relaxed);
      }
      if (tracer != nullptr) {
        tracer->UndoVerdict(record.lsn, txn, "clr-skip",
                            clr.value().undo_next);
      }
      next = clr.value().undo_next;
    } else {
      return Status::Corruption("undo: chain LSN is not an update or CLR");
    }
    if (next == 0) {
      end_txn(txn);
    } else {
      cursors.emplace(next, txn);
    }
  }
  return ctx.log->ForceAll();
}

}  // namespace redo::methods
