// The redo executor: drains the analysis plan chain by chain, for
// instant restart (serve new traffic while redo drains) and for the
// quiescing parallel restart alike.
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
// chains in head-LSN order until nothing is pending. Either path
// executes a linear extension of the write graph, so the final state is
// the offline-recovery state (Theorem 3) — restart becomes a throughput
// dip instead of a pause. A chain whose first task does not read its
// page's prior bytes (a page image, or an op logged onto the zero page)
// starts the page from zeros instead of reading it (BlindFirstTouch,
// plan.h). A quiescing Recover() with parallel_workers
// > 1 runs the same background workers with the doors closed, then
// emits the kept verdicts in LSN order (KeepVerdicts, EmitVerdicts).
//
// Threading contract. A *single-page chain* is one whose tasks each
// touch only that chain's page; a *bridged chain* is one a multi-page
// task (a split, or a CLR restoring several pages) links to another
// page's chain. The two kinds never share a task, so they drain on two
// separate paths:
//  - A single-page chain drains under the engine's op gate SHARED plus
//    its page's latch. A per-page atomic state (pending -> draining ->
//    done) records the drain; since every drain of the page holds its
//    latch or the exclusive gate, at most one thread is ever past the
//    pending -> draining step, and a second session touching the page
//    waits on that latch alone. The drain may read its page from the device while holding
//    the latch: no session can use the page before it is done.
//  - A bridged chain drains under the op gate EXCLUSIVE and the
//    driver's mutex: replaying a generalized split re-arms a §6.4
//    write-order constraint, whose cycle case cascades a flush onto
//    pages no latch covers.
// Either path may also run under the exclusive gate alone (a session
// split or rollback drains its pages in place), and before the engine
// opens for traffic with no lock at all. The observers (HasPendingWork,
// IsBridged, Done, NextPendingPage) are lock-free and safe from any
// thread.

#ifndef REDO_REDO_INSTANT_H_
#define REDO_REDO_INSTANT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "redo/metrics.h"
#include "redo/plan.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace redo::obs {
class RecoveryTracer;
}  // namespace redo::obs

namespace redo::par {

/// How the driver decides whether a planned task still needs redo —
/// the per-method redo test (§4/§5).
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
/// drains chains on demand. Construct once per restart from the
/// analysis plan; destroy (or just drop) after the last drain.
class InstantRedoDriver {
 public:
  /// `num_pages` is the disk's page count. A plan task on a page beyond
  /// it fails the driver up front, as its drain would have. `metrics`
  /// may be null (a quiescing restart counts into redo.parallel).
  InstantRedoDriver(storage::BufferPool* pool, size_t num_pages, RedoPlan plan,
                    InstantRedoOptions options, InstantRedoMetrics* metrics);

  /// Keeps every drained task's redo-test verdicts for EmitVerdicts:
  /// one per task, one per action for a CLR. Call before the first
  /// drain.
  void KeepVerdicts();

  /// Replays the kept verdicts into `tracer` (if non-null) in plan
  /// order, which is ascending LSN — the sequence a serial scan emits.
  /// Tasks no drain reached emit nothing. Call once every drain has
  /// returned.
  void EmitVerdicts(obs::RecoveryTracer* tracer) const;

  /// True if `page`'s chain still holds pending tasks. One atomic load;
  /// safe from any thread. A false result is stable (chains only ever
  /// shrink), and it happens-after every write the chain's drain made.
  bool HasPendingWork(storage::PageId page) const {
    return page < pages_.size() &&
           pages_[page].state.load(std::memory_order_acquire) != kDone;
  }

  /// True if `page`'s chain is bridged: a multi-page task links it to
  /// another page's chain. Fixed at construction.
  bool IsBridged(storage::PageId page) const {
    return page < pages_.size() && pages_[page].bridged;
  }

  /// Replays everything still pending on `page`'s chain (for a bridged
  /// chain, recursively bridging the other chains its multi-page tasks
  /// touch, up to each task's LSN). The caller holds the engine's op
  /// gate exclusive, or — for a single-page chain — the gate shared
  /// and `page`'s latch (see the threading contract above).
  /// `on_demand` selects which metric counts the drain. Once any drain
  /// fails, every subsequent call returns that first error.
  Status DrainPage(storage::PageId page, bool on_demand);

  /// The background workers' work queue: claims the next chain, in the
  /// head-LSN order fixed at construction, that is still pending. Each
  /// chain is handed out at most once, so a claimed chain must be
  /// drained (or found done) by its claimer. False once the order is
  /// exhausted, or the driver failed or aborted.
  bool NextPendingPage(storage::PageId* out);

  /// True once every planned task has been applied or skipped.
  bool Done() const { return tasks_remaining() == 0; }

  size_t tasks_remaining() const {
    return remaining_.load(std::memory_order_acquire);
  }

  /// The first drain failure, or Ok. Sticky.
  Status first_error() const;

  /// Stops the background workers: NextPendingPage returns false and
  /// DrainPage refuses. Used by Crash() to tear serving down.
  void Abort() { aborted_.store(true, std::memory_order_release); }

 private:
  enum ChainState : uint8_t { kDone = 0, kPending = 1, kDraining = 2 };

  /// One page's chain: the plan's tasks that touch the page, in LSN
  /// order. A task appears in the chain of EVERY page it touches
  /// (writes and reads): a reader of split-src must not see src past
  /// the split record that reads it. Only `state` and, for a bridged
  /// chain, `head` change after construction.
  struct PageChain {
    std::vector<size_t> tasks;
    bool bridged = false;
    std::atomic<uint8_t> state{kDone};
    /// Bridged chains: index of the first unapplied task (under mu_).
    size_t head = 0;
  };

  /// The error a stopped driver answers with (Ok while running).
  Status StoppedStatus() const;
  /// Records the first failure and stops the driver; returns the first
  /// failure.
  Status Fail(const Status& status);
  Status FailLocked(const Status& status);

  /// The single-page path: claims the chain pending -> draining and
  /// applies it whole.
  Status DrainSinglePage(storage::PageId page, bool on_demand);

  /// The bridged path, under mu_.
  Status DrainBridged(storage::PageId page, bool on_demand);

  /// Drains `page`'s bridged chain strictly below `bound` LSN, adding
  /// the tasks it replays to `*drained`. Terminates: a recursive
  /// re-entry into a page stops at its chain head's LSN, and every
  /// recursion strictly lowers the bound.
  Status DrainChainLocked(storage::PageId page, core::Lsn bound,
                          size_t* drained);

  /// Advances `page`'s bridged chain past its applied tasks; a chain
  /// with none left turns done.
  void RetireAppliedHeadsLocked(storage::PageId page);

  /// A single-page chain's page during its drain: fetched once, and
  /// tagged once at the end with the first and last applied LSNs.
  /// Per-task fetches and tags would each take the pool mutex, which
  /// every concurrent drain and session shares.
  struct ChainFrame {
    storage::Page* page = nullptr;
    core::Lsn first_applied = core::kNullLsn;
    core::Lsn last_applied = core::kNullLsn;
  };

  /// Applies (or redo-test-skips) plan task `index`. Mirrors the serial
  /// scan's per-kind machinery, including the kSplitDst refetch +
  /// re-test double-apply guard and the first-touch rule: a page whose
  /// prior bytes the task does not read starts from the zero page on a
  /// miss (BlindFirstTouch), under either redo test.
  /// `chain` is the single-page path's frame (null on the bridged path,
  /// which fetches and tags per task).
  Status ApplyTask(size_t index, ChainFrame* chain = nullptr);

  /// Traces and counts one drain that replayed `tasks` tasks.
  void RecordDrain(storage::PageId page, bool on_demand, size_t tasks,
                   uint64_t begin_tick);

  storage::BufferPool* pool_;
  const RedoPlan plan_;
  const InstantRedoOptions options_;
  InstantRedoMetrics* metrics_;

  /// Indexed by page id, one entry per disk page.
  std::vector<PageChain> pages_;
  /// Every page with a chain, ascending head LSN: the background order.
  std::vector<storage::PageId> order_;
  std::atomic<size_t> cursor_{0};
  std::atomic<size_t> remaining_{0};
  std::atomic<bool> aborted_{false};
  std::atomic<bool> failed_{false};

  /// Guards the bridged chains' heads, applied_ and first_error_.
  mutable std::mutex mu_;
  std::vector<char> applied_;  ///< per task: replayed by a bridged drain
  Status first_error_;

  /// Kept verdicts (KeepVerdicts; empty otherwise): task i owns slots
  /// [verdict_begin_[i], verdict_begin_[i + 1]), one per page it tests,
  /// each 0 (not reached) or 1 + its obs::RedoVerdict. Only the task's
  /// drainer writes its slots, so no lock guards them.
  std::vector<size_t> verdict_begin_;
  std::vector<uint8_t> verdicts_;
};

}  // namespace redo::par

#endif  // REDO_REDO_INSTANT_H_
