// Loser undo — the pass that follows every method's redo.
//
// Analysis (methods/analysis.h) re-anchors the live-transaction table
// from the latest stable checkpoint's txn tail (when present) and rolls
// it forward over the stable suffix: a transaction with a stable
// kTxnCommit is a winner; one with a stable kTxnEnd (a finished
// rollback) needs nothing; everything else live at the crash is a
// loser. Undo then walks each loser's update chain in reverse-LSN order
// (one merged reverse pass across all losers), emitting a kClr per
// compensated kTxnUpdate whose undo_next back-chain makes the pass
// restartable: resuming at a CLR jumps straight to the first
// not-yet-compensated record, so a crash mid-undo never undoes the same
// update twice, and arbitrarily many re-crashes converge to the same
// committed-only state.
//
// Both passes are method-agnostic: they read the same salvaged log and
// use only the buffer pool, so MiniDb runs them around whichever
// method's redo is configured. With no losers both are silent — no
// tracer phases, no CLRs, no metrics — keeping loser-free golden
// timelines byte-identical.

#ifndef REDO_METHODS_TXN_RECOVERY_H_
#define REDO_METHODS_TXN_RECOVERY_H_

#include <functional>

#include "methods/analysis.h"
#include "methods/method.h"

namespace redo::methods {

/// Rolls back every loser in one merged reverse-LSN walk, emitting CLRs
/// and a final kTxnEnd per loser, then forces the log. `before_touch`,
/// when set, is invoked with each page an undo action is about to
/// restore BEFORE the restore — instant restart uses it to drain the
/// page's pending redo chain first (the restore must land on fully
/// redone content, and tags the page with a high LSN that would
/// otherwise make the driver's lazy redo skip the loser's chain).
///
/// Honors ctx.options.undo_crash_after_clrs: after emitting that many
/// CLRs the pass forces what it has and returns Unavailable, modelling
/// a re-crash mid-undo (the next recovery resumes via the CLRs'
/// undo_next chains).
Status UndoLosers(
    EngineContext& ctx, const TxnAnalysis& analysis,
    const std::function<Status(storage::PageId)>& before_touch = nullptr);

}  // namespace redo::methods

#endif  // REDO_METHODS_TXN_RECOVERY_H_
