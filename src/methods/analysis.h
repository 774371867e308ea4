// The restart analysis visit: one in-place pass over the stable log.
//
// Before a restart touches a page it must know three things: which
// transactions won and which lost (the transaction table), which pages
// may hold uninstalled work (the dirty-page table, for the method that
// rebuilds one, §4.3), and what redo must replay (the plan, §5). One
// VisitStable pass from min(redo start, latest checkpoint) answers all
// three, as ARIES' single analysis pass does. The records are read in
// place; only the page images the plan keeps are copied, once each,
// after the visit. Each method supplies only how it classifies records
// (RecoveryMethod::redo_planning, ClassifyRecord, PrepareStableState).
//
// Instant restart and the parallel quiescing restart (Recover with
// parallel_workers > 1) run the whole visit, and both replay its plan
// through one executor, par::InstantRedoDriver (redo/instant.h). The
// serial restart runs the visit without a plan (AnalyzeTransactions)
// ahead of the method's own serial redo loop, the exact-log-order
// reference the golden timelines pin.

#ifndef REDO_METHODS_ANALYSIS_H_
#define REDO_METHODS_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <set>

#include "methods/method.h"
#include "redo/instant.h"
#include "redo/plan.h"

namespace redo::methods {

/// The winners/losers verdict over the stable log.
struct TxnAnalysis {
  /// Losers: live at the crash, to be rolled back. txn id -> last LSN of
  /// its undo chain (kTxnUpdate or kClr; 0 = began but logged nothing).
  std::map<uint64_t, core::Lsn> losers;
  /// Winners: stable kTxnCommit found (their kTxnEnd may be missing).
  std::set<uint64_t> winners;
  /// Highest transaction id observed (checkpoint tail or records); the
  /// id allocator is re-seeded past it after recovery.
  uint64_t max_txn_id = 0;
  /// Transaction records examined by the forward scan.
  size_t records_seen = 0;
};

/// What one restart analysis visit returns.
struct RestartAnalysis {
  TxnAnalysis txns;
  par::RedoPlan plan;
  /// How the plan replays: the method's redo test, the rebuilt DPT
  /// (when the method asks for one) and §6.4 constraint re-arming.
  par::InstantRedoOptions redo;
};

/// Runs `method`'s stable-state repair, then the one visit: the
/// transaction table is seeded at the latest stable checkpoint's
/// transaction tail and rolled forward from that record; the DPT starts
/// from the checkpoint's and grows with every later record; the plan
/// covers every record from the redo start. Emits the checkpoint-chosen
/// timeline event; the caller owns the tracer phase.
Result<RestartAnalysis> AnalyzeForRestart(RecoveryMethod& method,
                                          EngineContext& ctx);

/// The visit run without a plan: the transaction table alone. Safe (and
/// cheap) on logs with no transaction records: returns an empty table.
Result<TxnAnalysis> AnalyzeTransactions(EngineContext& ctx);

}  // namespace redo::methods

#endif  // REDO_METHODS_ANALYSIS_H_
