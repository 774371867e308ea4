// The model-replay oracle of the crash sim: a journal of the pure page
// updates a run's operations logged, keyed by the LSN the engine
// assigned each record, and the LSN-ordered replay of that journal onto
// an all-zero initial state. The replay is the redo-recovery
// correctness criterion itself — after recovery, the database must
// equal the state produced by applying exactly the operations whose
// log records survived, in log order.
//
// Over TCP some requests are *in doubt*: the crash cut the connection
// before their replies arrived, so the client never learned whether
// they executed, let alone their LSNs. One connection's strand executes
// in order with ascending LSNs and salvage keeps an LSN prefix, so the
// survivors among a client's in-doubt requests are a prefix of them.
// Clients own disjoint page partitions, and operations on disjoint
// pages commute, so each partition is judged on its own: it must equal
// the replay extended by SOME prefix of its owner's in-doubt requests.

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

/// Appends the journal entries `command` logged when `reply` is a
/// successful apply or split, tagged with `txn_id` and the reply's
/// LSNs. Every transport journals through this one path; an in-doubt
/// request passes a default Reply (ok, LSNs unknown = 0).
void JournalReply(const engine::Command& command, const engine::Reply& reply,
                  uint64_t txn_id, std::vector<JournalEntry>* journal);

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

/// One client's requests that were in flight when a crash cut its
/// connection, expanded into journal entries in send order (LSNs
/// unknown). The client owns pages [first_page, first_page + num_pages).
struct InDoubt {
  storage::PageId first_page = 0;
  size_t num_pages = 0;
  /// The stable LSN that crash's salvage kept. Surviving requests sit
  /// after every journal entry at or below it and before every entry
  /// above it (which later rounds logged).
  core::Lsn boundary = 0;
  std::vector<JournalEntry> entries;
};

/// A read-back over the wire reads the first kReadBackRun slots of each
/// page half. The closed-loop op mix writes and transfers only these, and
/// a kSlotHalf split moves the upper run onto the lower one: no op copies
/// an unread slot into a read one.
inline constexpr size_t kReadBackRun = 8;
inline constexpr size_t kReadBackBases[] = {0, storage::Page::NumSlots() / 2};

/// What MatchRecovered holds equal on a page. Only the serial engine
/// reproduces page LSNs exactly (undo's CLRs retag pages).
enum class PageCompare : uint8_t { kReadBackSlots, kPayload, kPayloadAndLsn };

/// The model-replay comparison. Pages no InDoubt owns must equal the
/// replay of `journal`; each owned partition must equal the replay
/// extended by some prefix of each of its owner's InDoubt groups (a
/// double crash leaves two). Returns the matching prefix length per
/// InDoubt, or Corruption naming the first page nothing explains.
Result<std::vector<size_t>> MatchRecovered(
    const std::vector<JournalEntry>& journal,
    const std::vector<InDoubt>& in_doubt,
    const std::vector<storage::Page>& recovered, PageCompare compare);

/// Moves the first `prefix[g]` entries of each `(*in_doubt)[g]` — the
/// survivors MatchRecovered chose — into `journal` at the group's
/// boundary LSN, where its replay placed them, and clears `in_doubt`.
void KeepSurvivors(const std::vector<size_t>& prefix,
                   std::vector<InDoubt>* in_doubt,
                   std::vector<JournalEntry>* journal);

}  // namespace redo::checker

#endif  // REDO_CHECKER_MODEL_REPLAY_H_
