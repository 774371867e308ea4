// The concurrent crash simulator: drive a MiniDb through its concurrent
// front end (many session threads, the group-commit pipeline, fuzzy
// checkpoints), freeze the pipeline at an arbitrary moment — the crash
// boundary — crash, recover, and verify two things no serial simulator
// can check:
//
//  1. Group-commit durability: every commit the pipeline ACKNOWLEDGED
//     before the freeze survives recovery (its LSN is <= the post-
//     salvage stable LSN). Commits that failed with kUnavailable carry
//     no promise and may vanish.
//  2. The recovery criterion under concurrency: the recovered state
//     equals an LSN-ordered replay of exactly the journaled operations
//     whose records survived the crash. Per-page apply order equals LSN
//     order (the page latch spans append+apply; structure modifications
//     serialize on the exclusive gate), so the replay is well-defined.
//
// Fault injectors compose: the crash can tear the in-flight force
// (torn-tail salvage must still protect acked commits) and the disk can
// fail page writes in transient bursts (the buffer pool's retry budget
// must absorb them).

#ifndef REDO_CHECKER_CONCURRENT_SIM_H_
#define REDO_CHECKER_CONCURRENT_SIM_H_

#include <cstdint>
#include <string>

#include "methods/method.h"

namespace redo::checker {

struct ConcurrentSimOptions {
  size_t sessions = 4;         ///< worker threads driving Session handles
  size_t ops_per_session = 64; ///< operations per worker per cycle
  size_t num_pages = 16;
  size_t cycles = 3;           ///< freeze/crash/recover/verify rounds
  /// Commit (block on the pipeline) after every N operations. The last
  /// operation of a worker's run is always committed.
  size_t commit_every = 4;
  /// Per-op probability (in percent) that a worker attempts a split
  /// instead of a single-page write.
  size_t split_percent = 5;
  /// Checkpoints attempted per cycle by a dedicated checkpointer thread
  /// running alongside the workers (0 = none).
  size_t checkpoints_per_cycle = 2;
  /// Engine option: take the fuzzy path for methods that support it.
  bool fuzzy_checkpoints = true;
  /// Log fault: the crash tears the in-flight force, leaving a random
  /// byte-granular prefix of the unacknowledged records on stable
  /// storage. Salvage must never lose an acked commit.
  bool tear_log_tail = false;
  /// Disk fault: transient write-error bursts shorter than the buffer
  /// pool's retry budget (never corrupting, always retried).
  bool disk_write_faults = false;
  uint64_t group_commit_window_us = 100;
  size_t group_commit_ring = 64;
  /// Instant restart: recover with RecoverInstant() and run a full
  /// worker round WHILE redo drains (recover-while-loading), then
  /// WaitUntilRecovered() and verify the combined state. The oracles
  /// are unchanged — serving traffic must not alter what recovery
  /// produces, and no acked commit (old or new) may be lost.
  bool instant_restart = false;
  /// Instant mode: background drain threads (EngineOptions).
  size_t instant_drain_workers = 2;
  /// Instant mode: per-recovery probability (percent) of a second crash
  /// while serving-while-redoing — half strike before any traffic
  /// touches a page, half mid-drain with sessions in flight.
  size_t double_crash_percent = 0;
  /// Transactional mode: every worker wraps each batch of commit_every
  /// operations in an explicit Begin/Commit transaction, rolling back
  /// abort_percent of them with Session::Abort(). Workers write
  /// DISJOINT page partitions (slot-level undo without locking demands
  /// it), and the oracles become the atomicity criterion: the recovered
  /// state must equal an LSN-ordered replay of WINNING transactions
  /// only (winners = transactions with a stable kTxnCommit), and every
  /// acknowledged commit must be a winner. The freeze lands crashes
  /// mid-transaction and mid-abort.
  bool txn_mode = false;
  /// Txn mode: percent of transactions rolled back at runtime.
  size_t abort_percent = 20;
  /// Txn mode: when non-zero, every recovery's undo pass is crashed
  /// after emitting this many CLRs (EngineOptions hook), then the
  /// engine re-crashes and recovers again — repeatedly, until the undo
  /// pass completes. Exercises crash-during-undo convergence via the
  /// CLRs' undo_next chains.
  size_t undo_crash_after_clrs = 0;
  /// Redo worker threads for the (quiescing) recovery between cycles;
  /// > 1 routes redo through the write-graph parallel scheduler.
  size_t parallel_redo_workers = 1;
  /// The device's queue depth (EngineOptions::async_io_workers); 0
  /// keeps one I/O in flight. The REDO_ASYNC_IO environment variable
  /// overrides a zero here, so existing suites run at depth N in CI
  /// without edits.
  size_t async_io_workers = 0;
};

struct ConcurrentSimResult {
  bool ok = false;
  std::string failure;  ///< first failure description, if any
  size_t cycles = 0;
  size_t ops_applied = 0;
  size_t splits_applied = 0;
  size_t commits_acked = 0;
  size_t commits_refused = 0;      ///< CommitWait kUnavailable (frozen)
  size_t lost_acked_commits = 0;   ///< THE violation: acked but not stable
  size_t checkpoints_taken = 0;
  size_t torn_tails = 0;
  size_t write_fault_bursts = 0;
  size_t pages_verified = 0;
  size_t instant_restarts = 0;  ///< RecoverInstant() calls that served
  size_t double_crashes = 0;    ///< crashes during serving-while-redoing
  size_t txns_committed = 0;    ///< txn mode: acknowledged commits
  size_t txns_aborted = 0;      ///< txn mode: runtime rollbacks
  size_t losers_undone = 0;     ///< txn mode: recovery-undo rollbacks
  size_t undo_recrashes = 0;    ///< txn mode: injected crashes mid-undo
  /// Txn mode, THE violation: an acknowledged commit whose transaction
  /// is not a winner on the stable log (atomicity/durability breach).
  size_t atomicity_violations = 0;
  uint64_t group_commits = 0;  ///< pipeline acks (from LogStats)
  uint64_t group_batches = 0;  ///< pipeline forces (from LogStats)
  /// Chrome-trace JSON of the failing cycle's flight-recorder events
  /// (empty when ok) — dumped next to the timeline artifact.
  std::string failing_flight_trace_json;

  std::string ToString() const;
};

/// Runs the concurrent crash-recover-verify loop for one method. The
/// workload content is deterministic in `seed`; thread interleaving and
/// the freeze point are not (this is a stress simulator — the oracle
/// must hold under EVERY interleaving).
ConcurrentSimResult RunConcurrentCrashSim(methods::MethodKind method,
                                          const ConcurrentSimOptions& options,
                                          uint64_t seed);

}  // namespace redo::checker

#endif  // REDO_CHECKER_CONCURRENT_SIM_H_
