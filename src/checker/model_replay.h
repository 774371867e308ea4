// The model-replay oracle the crash sims share: a journal of the pure
// page updates a run's operations logged, keyed by the LSN the engine
// assigned each record, and the LSN-ordered replay of that journal onto
// an all-zero initial state. The replay is the redo-recovery
// correctness criterion itself — after recovery, the database must
// equal the state produced by applying exactly the operations whose
// log records survived, in log order. Each sim keeps its own comparison
// against the engine (full pages on disk, or payload hashes of the
// cache-else-disk state).

#ifndef REDO_CHECKER_MODEL_REPLAY_H_
#define REDO_CHECKER_MODEL_REPLAY_H_

#include <cstdint>
#include <vector>

#include "engine/command.h"
#include "engine/ops.h"
#include "storage/page.h"

namespace redo::checker {

/// One journaled page update. A split journals two entries — the
/// destination write at the split record's LSN and the source rewrite
/// (an ordinary single-page op) at the rewrite record's LSN — matching
/// what the log actually holds, so a crash between the two replays
/// correctly.
struct JournalEntry {
  core::Lsn lsn = 0;
  bool is_split_dst = false;
  engine::SinglePageOp op;  ///< the update, unless is_split_dst
  engine::SplitOp split;    ///< the split, when is_split_dst
  /// The owning transaction (0 = none). Txn-mode oracles replay an
  /// entry only if its transaction is a winner.
  uint64_t txn_id = 0;
};

/// Runs `command` through Dispatch and, when it is a successful apply or
/// split, appends the journal entries for the records it logged, tagged
/// with `txn_id`. Returns the reply either way.
engine::Reply DispatchJournaled(engine::MiniDb::Session& session,
                                const engine::Command& command,
                                uint64_t txn_id,
                                std::vector<JournalEntry>* journal);

/// Drops the entries above `stable_lsn`: their records died with the
/// crash, and the log reuses lost LSNs, so later records would collide
/// with them.
void DropUnstable(std::vector<JournalEntry>* journal, core::Lsn stable_lsn);

/// Replays `journal` in LSN order onto `num_pages` all-zero pages,
/// tagging each written page with its entry's LSN. The sort is stable:
/// a logical split journals its destination write and source rewrite at
/// one LSN, in that order.
Result<std::vector<storage::Page>> ReplayJournal(
    std::vector<JournalEntry> journal, size_t num_pages);

}  // namespace redo::checker

#endif  // REDO_CHECKER_MODEL_REPLAY_H_
