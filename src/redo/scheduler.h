// The parallel redo scheduler.
//
// Execution model: pages are hashed to workers (shared-nothing — no
// page is ever touched by two threads, so the redo hot path takes no
// latches). Each worker receives the subsequence of plan tasks whose
// lead page it owns, plus *assist* items for multi-page tasks whose
// other page it owns, and processes its items in global LSN order.
// Cross-worker splits move page snapshots through bounded SPSC queues;
// because both sides visit the task at its LSN position, the queues
// act as topological barriers realizing exactly the write-graph edges
// BuildTaskDag records — nothing is applied before its graph
// predecessors on the same pages.
//
// Deadlock-freedom: consider the blocked worker whose next item has
// the smallest LSN. Its pop counterpart (an earlier-or-equal item in
// the counterpart's list) has either already pushed or is itself
// runnable; its push counterpart can lag by at most the queue capacity
// before popping. So some worker always makes progress.
//
// Determinism: workers race only on disjoint pages; the join sorts
// verdicts by LSN (one per task, LSNs unique) and merges pool
// partitions in page-id order, so the merged result is byte-identical
// to the serial scan regardless of thread interleaving.

#ifndef REDO_REDO_SCHEDULER_H_
#define REDO_REDO_SCHEDULER_H_

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "obs/recovery_trace.h"
#include "redo/metrics.h"
#include "redo/plan.h"
#include "storage/buffer_pool.h"
#include "util/status.h"

namespace redo::par {

struct ParallelRedoOptions {
  /// Worker threads; 1 runs the same code inline (no threads spawned).
  size_t workers = 2;

  /// The method's redo test: redo-all replays every task
  /// unconditionally (§6.1/§6.2 checkpoint contract); the LSN test
  /// skips tasks the target page's LSN proves installed (§6.3/§6.4).
  enum class Mode { kRedoAll, kLsnTest };
  Mode mode = Mode::kRedoAll;

  /// Analysis-produced dirty page table (kLsnTest only): a task on a
  /// page outside the table, or older than its rec_lsn, is provably
  /// not exposed and skips without any page I/O.
  const std::map<storage::PageId, core::Lsn>* dpt = nullptr;

  /// Test seam: overrides the page -> worker hash (result is taken
  /// modulo `workers`).
  std::function<size_t(storage::PageId)> owner_override;
};

/// One redo-test verdict, tracer-shaped; the caller replays these into
/// its RecoveryTracer in LSN order.
struct TaskVerdict {
  core::Lsn lsn = core::kNullLsn;
  storage::PageId page = 0;
  obs::RedoVerdict verdict = obs::RedoVerdict::kApplied;
  const char* reason = "";
};

struct ParallelRedoReport {
  Status status = Status::Ok();
  /// LSN of the earliest-failing task when !status.ok().
  core::Lsn failed_lsn = core::kNullLsn;

  // RedoScanStats-shaped counters, summed across workers.
  size_t scanned = 0;
  size_t replayed = 0;
  size_t skipped_without_fetch = 0;
  size_t page_fetches = 0;

  /// One verdict per executed task, sorted by LSN at the join — the
  /// same sequence a serial scan emits.
  std::vector<TaskVerdict> verdicts;

  /// Indices into plan.tasks (ascending, hence ascending LSN) of split
  /// tasks that were actually replayed. The caller re-arms §6.4
  /// write-order constraints from these, single-threaded, after the
  /// partitions merge back.
  std::vector<size_t> replayed_splits;

  size_t workers_used = 0;
  size_t handoffs = 0;        ///< cross-worker page snapshot transfers
  size_t cross_edges = 0;     ///< split tasks whose pages hash to two workers
  size_t blind_installs = 0;  ///< disk reads elided by BlindFirstTouch
  size_t images_superseded = 0;  ///< superseded images, installed as nothing
  /// Pages installed by async read-prefetch batches (0 at queue depth
  /// 0 — every read is a partition miss).
  size_t prefetched_pages = 0;

  /// Per-worker thread-CPU time (CLOCK_THREAD_CPUTIME_ID) spent inside
  /// the worker loop, summed / maxed across workers. On a host with
  /// fewer cores than workers the wall clock serializes the threads, so
  /// the critical-path model `wall - busy_total + busy_max` estimates
  /// the wall time a sufficiently parallel host would see.
  uint64_t worker_busy_total_us = 0;
  uint64_t worker_busy_max_us = 0;
};

/// The default page -> worker map (stable hash; every caller of a
/// given worker count agrees on ownership).
size_t OwnerOfPage(storage::PageId page, size_t workers);

/// Applies the plan with `options.workers` threads over shared-nothing
/// pool partitions, then merges the partitions back deterministically.
/// On a worker error the earliest (lowest-LSN) failure is reported and
/// the partitions still merge: each page then holds an LSN-ordered
/// prefix of its chain — a valid intermediate recovery state, since
/// redo is idempotent and the caller may crash and rerun.
/// `metrics`, if non-null, accumulates the run's counters.
ParallelRedoReport RunParallelRedo(storage::BufferPool* pool,
                                   const RedoPlan& plan,
                                   const ParallelRedoOptions& options,
                                   ParallelRedoMetrics* metrics = nullptr);

}  // namespace redo::par

#endif  // REDO_REDO_SCHEDULER_H_
