// Instant restart (on-demand redo): serve new traffic while redo drains.
//
// The paper's §5 write graph decomposes redo into per-page chains,
// bridged by the multi-page records; any linear extension is a correct
// redo order. Offline recovery picks one extension up front and makes
// everyone wait for it. Instant restart exploits the same freedom the
// other way around: after analysis builds the plan, the engine opens
// for business, and each chain is drained *when someone needs its page*
// — a session touching page P first replays P's pending chain (redo
// tests and all), recursively pulling in just enough of the chains its
// multi-page records bridge to. Background workers drain the remaining
// chains in global LSN order until nothing is pending. Either path
// executes a linear extension of the write graph, so the final state is
// the offline-recovery state (Theorem 3) — restart becomes a throughput
// dip instead of a pause.
//
// Threading contract: DrainPage mutates page bytes and may re-arm §6.4
// write-order constraints (including the FlushPageCascading cycle
// case), so every caller must hold the engine's op gate EXCLUSIVE —
// exactly the barrier the buffer pool's flush paths already require.
// The driver's own mutex guards only its chain bookkeeping, making the
// cheap observers (HasPendingWork, Done) safe from any thread.

#ifndef REDO_REDO_INSTANT_H_
#define REDO_REDO_INSTANT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "redo/metrics.h"
#include "redo/plan.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace redo::par {

/// How the driver decides whether a planned task still needs redo —
/// the per-method redo test (§4/§5), mirroring ParallelRedoOptions.
struct InstantRedoOptions {
  enum class Mode : uint8_t {
    kRedoAll,   ///< replay unconditionally (logical/physical families)
    kLsnTest,   ///< skip if the page LSN says installed (physiological)
  };
  Mode mode = Mode::kRedoAll;

  /// Re-arm §6.4 careful-write-order constraints after each replayed
  /// kSplitDst (the generalized method) — eagerly, so flushes issued
  /// mid-serving already respect them.
  bool add_split_constraints = false;

  /// Analysis-produced dirty page table (§4.3): a record on a page
  /// outside the table, or older than its rec_lsn, is skipped without
  /// any page I/O. Owned by the options (analysis has returned by the
  /// time drains run).
  bool use_dpt = false;
  std::map<storage::PageId, core::Lsn> dpt;
};

/// Tracks which planned tasks are still pending, per page chain, and
/// drains chains on demand. Construct once per instant restart from the
/// analysis plan; destroy (or just drop) after the last drain.
class InstantRedoDriver {
 public:
  InstantRedoDriver(storage::BufferPool* pool, RedoPlan plan,
                    InstantRedoOptions options, InstantRedoMetrics* metrics);

  /// True if `page`'s chain still holds pending tasks. Cheap; safe from
  /// any thread. A false result is stable: chains only ever shrink.
  bool HasPendingWork(storage::PageId page);

  /// Replays everything still pending on `page`'s chain (recursively
  /// bridging the other chains its multi-page tasks touch, up to each
  /// task's LSN). Caller must hold the engine's op gate exclusive.
  /// `on_demand` selects which metric counts the drain. Once any drain
  /// fails, every subsequent call returns that first error.
  Status DrainPage(storage::PageId page, bool on_demand);

  /// Picks the pending chain whose head has the lowest LSN — the
  /// background workers' work queue, yielding a global-LSN-order linear
  /// extension. False if nothing is pending (or the driver aborted).
  bool NextPendingPage(storage::PageId* out);

  /// True once every planned task has been applied or skipped.
  bool Done() const;

  size_t tasks_remaining() const;

  /// The first drain failure, or Ok. Sticky.
  Status first_error() const;

  /// Stops the background workers: NextPendingPage returns false and
  /// DrainPage refuses. Used by Crash() to tear serving down.
  void Abort();

 private:
  /// Drains `page`'s chain strictly below `bound` LSN. Terminates: a
  /// recursive re-entry into a page stops at its chain head's LSN, and
  /// every recursion strictly lowers the bound.
  Status DrainChainLocked(storage::PageId page, core::Lsn bound);

  /// Applies (or redo-test-skips) one planned task. Mirrors the serial
  /// scan's per-kind machinery, including the kSplitDst refetch +
  /// re-test double-apply guard; a page the task overwrites whole is
  /// installed without a read (BlindFirstTouch), as in the scheduler.
  Status ApplyTaskLocked(const RedoTask& task);

  storage::BufferPool* pool_;
  const RedoPlan plan_;
  const InstantRedoOptions options_;
  InstantRedoMetrics* metrics_;

  mutable std::mutex mu_;
  /// page -> pending task indices, ascending LSN. A task appears in the
  /// chain of EVERY page it touches (writes and reads): a reader of
  /// split-src must not see src past the split record that reads it.
  std::map<storage::PageId, std::deque<size_t>> chains_;
  std::vector<char> applied_;
  size_t remaining_ = 0;
  Status first_error_;
  bool aborted_ = false;
};

}  // namespace redo::par

#endif  // REDO_REDO_INSTANT_H_
