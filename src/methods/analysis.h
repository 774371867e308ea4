// The restart analysis visit and the log-order replayer.
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
// Every restart reads the latest stable checkpoint once
// (ReadStableCheckpoint) and hands it to the method's PrepareStableState,
// the checkpoint-chosen event and the visit, and every restart reads
// the log once. Instant restart and the parallel quiescing restart
// (Recover with parallel_workers > 1) plan in the visit, and both
// replay the plan through one executor, par::InstantRedoDriver
// (redo/instant.h). The serial restart (RestartInLogOrder) replays in
// the visit: each record from the redo start goes through the paper's
// Figure 6 loop body (the method's redo test, replay or skip) as soon
// as it has rolled the tables forward. That loop is the exact-log-order
// reference the golden timelines pin and every multi-worker restart is
// compared against.
//
// A restart starts from any explained stable state (Theorem 3): the
// crash restart from the latest stable checkpoint, media recovery from
// a backup (RestartPoint). Nothing else differs between them.

#ifndef REDO_METHODS_ANALYSIS_H_
#define REDO_METHODS_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <optional>
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
  /// Winners: stable kTxnCommit found (a commit logs no kTxnEnd).
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

/// Where a restart starts. The default is the crash restart's: the
/// latest stable checkpoint, read from the log, and a visit from
/// min(its LSN, its redo start). Media recovery passes the checkpoint
/// its backup kept and the backup LSN: the restored pages install every
/// record at or below that LSN, so the visit reads none of them.
struct RestartPoint {
  std::optional<StableCheckpoint> checkpoint;  ///< nullopt: the latest
  core::Lsn installed_through = 0;  ///< the visit reads no record <= it
};

/// The first LSN the crash restart anchored at `checkpoint` reads:
/// min(its LSN, its redo start); 1 when the log holds no checkpoint.
core::Lsn ScanStart(const StableCheckpoint& checkpoint);

/// Reads the restart's checkpoint, runs `method`'s stable-state
/// repair, emits the checkpoint-chosen timeline event, then the one
/// visit: the transaction table is seeded at the checkpoint's table and
/// rolled forward from that record; the DPT starts from the
/// checkpoint's and grows with every later record; the plan covers
/// every record from the redo start. The caller owns the tracer phase.
Result<RestartAnalysis> AnalyzeForRestart(RecoveryMethod& method,
                                          EngineContext& ctx,
                                          const RestartPoint& start = {});

/// The visit run without a method: the transaction table alone. Safe
/// (and cheap) on logs with no transaction records: returns an empty
/// table.
Result<TxnAnalysis> AnalyzeTransactions(EngineContext& ctx);

/// Work of the log-order replayer. MiniDb accumulates it across every
/// serial Recover() (MiniDb::redo_scan_stats); accumulation, never
/// zeroing, lets degradation-ladder reruns report per-rung work (the
/// deltas) and total work (the sum) instead of clobbering earlier rungs.
struct RedoScanStats {
  size_t scanned = 0;                ///< records carrying redo work
  size_t replayed = 0;               ///< records redone
  size_t skipped_without_fetch = 0;  ///< skipped by the DPT, no page I/O
  size_t page_fetches = 0;           ///< fetches for LSN tests and splits
};

/// The serial restart, in a "redo-scan" phase: AnalyzeForRestart's
/// preamble and visit, which replays each record from the redo start
/// instead of planning it. For each record the method's ClassifyRecord
/// runs, par::DecodeRedoTask decodes it in the method's split shape and
/// the method's redo rule applies: redo-all replays it; the page-LSN
/// test first skips a page the DPT rules out, without I/O, then fetches
/// the page and replays only onto an older page LSN. Every page it
/// applies to is fetched and every image installed (no blind first
/// touch, no supersession). Verdicts go to ctx.tracer and counts to
/// `stats`, either may be null; a failure keeps the counts of the
/// records before it. Returns the transaction table for the undo pass.
Result<TxnAnalysis> RestartInLogOrder(RecoveryMethod& method,
                                      EngineContext& ctx,
                                      RedoScanStats* stats,
                                      const RestartPoint& start = {});

}  // namespace redo::methods

#endif  // REDO_METHODS_ANALYSIS_H_
