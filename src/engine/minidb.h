// MiniDb: the simulated database engine.
//
// Ties together the stable disk, the buffer pool (cache manager), the
// log manager, and a pluggable recovery method. Exposes checkpointing,
// the crash/recover cycle, and Session handles for updates. All state
// transitions flow through the recovery method so each §6 technique
// controls its own logging, checkpoint, and redo behavior.
//
// One operation surface: every update and read reaches the recovery
// method through Dispatch(Session&, Command) (engine/command.h). A
// Session takes the op gate shared and the target page's latch;
// structure modifications (splits) and checkpoints take the gate
// exclusive. Serial execution is one Session used without
// BeginConcurrent(): commits are then forced inline, and an attached
// TraceRecorder records every operation. BeginConcurrent() starts the
// group-commit pipeline so many worker threads can drive sessions at
// once (DESIGN.md §10).

#ifndef REDO_ENGINE_MINIDB_H_
#define REDO_ENGINE_MINIDB_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "engine/engine_options.h"
#include "engine/ops.h"
#include "engine/trace.h"
#include "engine/txn.h"
#include "methods/analysis.h"
#include "methods/method.h"
#include "obs/metrics.h"
#include "obs/recovery_trace.h"
#include "redo/instant.h"
#include "redo/metrics.h"
#include "storage/async_io.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "wal/log_manager.h"

namespace redo::engine {

struct Command;
struct Reply;

struct MiniDbOptions {
  size_t num_pages = 64;
  /// Buffer pool capacity in pages; 0 = unbounded. Must be 0 or >= 2
  /// (split redo touches two pages at once). Methods that forbid
  /// background flushes (logical) require 0; so does the concurrent
  /// front end (no eviction may run under sessions' feet).
  size_t cache_capacity = 0;
  /// Stable-log segmentation (default: one unbounded active segment).
  /// Every live segment is mirrored and every sealed segment archived.
  wal::LogManagerOptions wal;
  /// Execution knobs: parallel redo workers, the group-commit pipeline,
  /// fuzzy checkpoints. Adjustable later via set_engine_options().
  EngineOptions engine;
  /// Networked front end (src/net's NetServer reads these at Start()).
  /// Validated here with everything else so a server assembled from
  /// user input gets one diagnosis covering the whole configuration.
  NetOptions net;

  /// Validates the options, returning InvalidArgument with a diagnosis
  /// instead of crashing. The MiniDb constructor still aborts on
  /// invalid options (programming error); callers assembling options
  /// from user input should Validate() first and surface the Status.
  Status Validate() const;
};

class MiniDb {
 public:
  MiniDb(const MiniDbOptions& options,
         std::unique_ptr<methods::RecoveryMethod> method);

  /// Stops a restart still draining (as Crash() does) before the
  /// engine's parts go.
  ~MiniDb();

  MiniDb(const MiniDb&) = delete;
  MiniDb& operator=(const MiniDb&) = delete;

  // ---- Reads (through the cache) ----

  /// The cached page (redone first while serving-while-redoing). A read
  /// accessor, not an operation: updates go through a Session.
  Result<storage::Page*> FetchPage(storage::PageId page);

  // ---- Lifecycle ----

  /// Method-specific checkpoint. In concurrent mode with
  /// engine().fuzzy_checkpoints set and a method that supports it, this
  /// takes the fuzzy path: a brief exclusive barrier covers only the
  /// dirty-page snapshot and the checkpoint append; the force rides the
  /// group-commit pipeline. Otherwise the classic (quiescing, forcing)
  /// checkpoint runs under the exclusive gate.
  Status Checkpoint();

  /// Background cache-manager activity: flush one page / all pages
  /// (no-ops for methods that forbid background flushes), under the
  /// exclusive gate.
  Status MaybeFlushPage(storage::PageId page);
  Status FlushEverything();

  /// The crash: volatile state (cache, unforced log tail) vanishes. A
  /// running group-commit pipeline is frozen and joined; concurrent
  /// mode ends. Session worker threads must be joined first.
  void Crash();

  /// Post-crash recovery: salvage, analysis, redo, loser undo. Redo
  /// follows the method's redo test. With parallel_workers <= 1 it is
  /// the serial log-order replay (methods::RestartInLogOrder); above that
  /// the analysis plan drains through par::InstantRedoDriver. `start`
  /// anchors the restart on the latest stable checkpoint by default;
  /// media recovery (engine/backup.h) anchors it on a backup's. With a
  /// tracer attached, the whole run (salvage, refusals, the phases) is
  /// recorded as one timeline; nested calls from the degradation ladder
  /// join the enclosing run. Refuses (FailedPrecondition) while Session
  /// handles are still alive — recovery rebuilds the state they operate
  /// on.
  Status Recover(const methods::RestartPoint& start = {});

  // ---- Instant restart (serving-while-redoing) ----

  /// Where the engine stands in the instant-restart state machine.
  /// Quiescing Recover() also lands on kRecovered when it succeeds.
  enum class RecoveryPhase : uint8_t {
    kIdle,       ///< not recovering (fresh, or crashed and not yet recovered)
    kAnalyzing,  ///< salvage + analysis running; no traffic yet
    kServing,    ///< open for sessions; redo chains still draining
    kRecovered,  ///< every chain drained; fully recovered
  };
  RecoveryPhase recovery_phase() const {
    return phase_.load(std::memory_order_acquire);
  }

  /// Instant restart (requires engine_options().instant_restart): runs
  /// salvage, the analysis visit (methods/analysis.h) and loser undo,
  /// then opens for Session traffic
  /// immediately — entering concurrent mode itself — while redo drains
  /// lazily. A session touching page P first drains P's pending chain;
  /// instant_drain_workers background threads drain the remaining
  /// chains in head-LSN order. Returns once the engine
  /// is SERVING (phase kServing), not once it is recovered; call
  /// WaitUntilRecovered() to quiesce into kRecovered, or Crash() to
  /// tear serving down. Refuses with live sessions, in concurrent mode,
  /// or when the configuration cannot serve while redoing.
  Status RecoverInstant();

  /// Blocks until the background drain finishes, closes the timeline
  /// run, and returns the first drain error (Ok on a clean finish).
  /// The engine stays in concurrent mode, fully recovered.
  Status WaitUntilRecovered();

  /// Instant-restart counters (registered as the "redo.instant" source).
  const par::InstantRedoMetrics& instant_redo_metrics() const {
    return instant_metrics_;
  }

  // ---- Sessions: the operation surface ----

  /// A handle for one worker thread. Many sessions drive the same
  /// MiniDb concurrently between BeginConcurrent and Crash/
  /// EndConcurrent; without BeginConcurrent, one session is the serial
  /// front end. Each operation latches its page(s); Commit blocks until
  /// the operation is durable (forced inline when no group-commit
  /// pipeline runs).
  /// A Session is NOT itself thread-safe — one thread per handle.
  /// Handles are move-only and counted: Recover()/RecoverInstant()
  /// refuse while any handle is alive, so a stale handle cannot operate
  /// on state recovery is rebuilding underneath it.
  /// Every operation below is a thin wrapper over the unified command
  /// layer (engine/command.h): it builds a Command, runs it through
  /// Dispatch() — the one execution funnel shared with the checker sims
  /// and the network server — and unpacks the Reply. New call surfaces
  /// should drive Dispatch directly instead of adding entry points.
  class Session {
   public:
    Session(Session&& other) noexcept
        : db_(other.db_),
          last_lsn_(other.last_lsn_),
          txn_id_(other.txn_id_),
          txn_last_lsn_(other.txn_last_lsn_),
          undo_log_(std::move(other.undo_log_)) {
      other.db_ = nullptr;
      other.txn_id_ = 0;
    }
    Session& operator=(Session&& other) noexcept {
      if (this != &other) {
        Release();
        db_ = other.db_;
        last_lsn_ = other.last_lsn_;
        txn_id_ = other.txn_id_;
        txn_last_lsn_ = other.txn_last_lsn_;
        undo_log_ = std::move(other.undo_log_);
        other.db_ = nullptr;
        other.txn_id_ = 0;
      }
      return *this;
    }
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    ~Session() { Release(); }

    Result<core::Lsn> WriteSlot(storage::PageId page, uint32_t slot,
                                int64_t value);
    Result<core::Lsn> Apply(const SinglePageOp& op);
    Result<methods::RecoveryMethod::SplitLsns> Split(const SplitOp& op);
    Result<int64_t> ReadSlot(storage::PageId page, uint32_t slot);

    // ---- Transactions (DESIGN.md §12) ----

    /// Begins an explicit transaction: allocates an id, logs kTxnBegin,
    /// and registers the transaction as live. Until Commit(), every
    /// operation on this session logs its inverse (a kTxnUpdate record
    /// appended BEFORE the operation's redo record), so a crash — or an
    /// Abort() — rolls the whole transaction back. One open transaction
    /// per session; FailedPrecondition on a nested Begin.
    Result<uint64_t> Begin();

    /// Rolls the open transaction back: walks its update chain in
    /// reverse, emitting a kClr per compensated update and applying the
    /// restores, then logs kTxnEnd. Runs under the exclusive op gate
    /// (restores may touch any page the transaction wrote, incl. both
    /// halves of a split). No-op (Ok) when no transaction is open.
    Status Abort();

    /// True while Begin() has run without a matching Commit()/Abort().
    bool in_txn() const { return txn_id_ != 0; }
    /// The open transaction's id (0 when none).
    uint64_t txn_id() const { return txn_id_; }

    /// Blocks until every record up to `lsn` (0 = this session's last
    /// operation) is stable. Returns the stable LSN at acknowledgment,
    /// or kUnavailable if the pipeline froze first — the commit is NOT
    /// durable and must not be acknowledged to any client.
    ///
    /// With an open transaction, `lsn` is ignored: Commit appends
    /// kTxnCommit (atomically removing the transaction from the live
    /// table under the shared gate, so a concurrent checkpoint's
    /// snapshot stays consistent with the log) and waits for the commit
    /// record to be stable. That record is the transaction's last: the
    /// ack logs nothing more. The transaction's fate is decided by the
    /// commit record's durability alone: if the wait fails (frozen
    /// pipeline), recovery's analysis classifies it — stable kTxnCommit
    /// makes it a winner, a torn-away one a loser to be undone. Either
    /// way this session's transaction is closed.
    ///
    /// The wait counts as a session's toward closing the group-commit
    /// window early: once every live session waits, the force starts.
    Result<core::Lsn> Commit(core::Lsn lsn = 0);

    /// LSN of this session's last logged operation (0 if none).
    core::Lsn last_lsn() const { return last_lsn_; }

   private:
    friend class MiniDb;
    /// The command layer's execution funnel (engine/command.cc) drives
    /// the private Session* methods directly.
    friend Reply Dispatch(Session& session, const Command& command);
    /// One in-memory rollback step: the LSN of a logged kTxnUpdate and
    /// its (absolute) inverse actions, kept session-local so a runtime
    /// Abort() never re-reads the log.
    struct UndoEntry {
      core::Lsn lsn = 0;
      std::vector<engine::UndoAction> actions;
    };
    explicit Session(MiniDb* db) : db_(db) {
      db_->live_sessions_.fetch_add(1, std::memory_order_relaxed);
    }
    void Release() {
      if (db_ != nullptr) {
        // Destroying (or overwriting) an uncommitted session aborts its
        // transaction — unless the engine already crashed or left
        // concurrent mode, in which case the transaction died with the
        // process image and analysis will classify it a loser.
        if (txn_id_ != 0 && db_->concurrent()) {
          (void)db_->SessionAbort(*this);
        }
        db_->live_sessions_.fetch_sub(1, std::memory_order_relaxed);
        db_ = nullptr;
      }
    }
    MiniDb* db_;
    core::Lsn last_lsn_ = 0;
    uint64_t txn_id_ = 0;          ///< open transaction (0 = none)
    core::Lsn txn_last_lsn_ = 0;   ///< tail of the kTxnUpdate chain
    std::vector<UndoEntry> undo_log_;  ///< chain mirror for runtime Abort
  };

  /// Enters concurrent mode: validates the configuration (unbounded
  /// cache; no trace recorder — operation tracing is serial-only) and
  /// starts the group-commit pipeline with the engine options' knobs.
  Status BeginConcurrent();

  /// Leaves concurrent mode cleanly: drains the pipeline (everything
  /// appended is forced and acknowledged) and stops the committer.
  Status EndConcurrent();

  /// The crash boundary for simulators: freezes the group-commit
  /// pipeline mid-flight. Unacknowledged Session::Commit calls fail
  /// with kUnavailable; call Crash() afterwards as a real crash would.
  void FreezeCommits();

  /// A new session handle. Valid until Crash/EndConcurrent.
  Session NewSession() { return Session(this); }

  bool concurrent() const { return concurrent_.load(); }

  /// Appends (but does not force) a fuzzy checkpoint under a brief
  /// exclusive barrier; returns its LSN. The record becomes real when
  /// the pipeline forces past it — use Session::Commit(lsn) or
  /// CommitWait to wait. FailedPrecondition if the method cannot
  /// checkpoint fuzzily.
  Result<core::Lsn> FuzzyCheckpoint();

  // ---- Introspection ----

  storage::Disk& disk() { return disk_; }
  const storage::Disk& disk() const { return disk_; }
  storage::BufferPool& pool() { return pool_; }
  wal::LogManager& log() { return log_; }
  const wal::LogManager& log() const { return log_; }
  methods::RecoveryMethod& method() { return *method_; }
  const methods::RecoveryMethod& method() const { return *method_; }
  /// Work of the serial log-order redo, summed over every serial
  /// Recover() of this engine (parallel and instant restarts add none).
  const methods::RedoScanStats& redo_scan_stats() const {
    return redo_scan_stats_;
  }
  size_t num_pages() const { return disk_.num_pages(); }

  /// Attaches instrumentation (trace recorder and/or recovery tracer).
  /// Replaces whatever was attached before — attach is wholesale, so
  /// Attach({}) detaches everything. Lifetime rules: the pointed-to
  /// objects are owned by the caller and must outlive the MiniDb or be
  /// detached first; attach/detach only while the engine is quiesced
  /// (no session threads running, no recovery in flight). A trace
  /// recorder must be detached before BeginConcurrent().
  void Attach(const Instrumentation& instrumentation) {
    instr_ = instrumentation;
  }
  const Instrumentation& instrumentation() const { return instr_; }
  TraceRecorder* trace() { return instr_.trace; }
  obs::RecoveryTracer* recovery_tracer() { return instr_.recovery_tracer; }

  /// Execution knobs (parallel redo workers, group-commit window,
  /// fuzzy checkpoints, the device). Adjust only while quiesced;
  /// group-commit changes take effect at the next BeginConcurrent, redo
  /// changes at the next Recover. Device knobs reconfigure the pool's
  /// device immediately (ConfigureDevice).
  void set_engine_options(const EngineOptions& options);
  const EngineOptions& engine_options() const { return engine_options_; }

  /// The pool's device; never null.
  storage::AsyncIoBackend* async_io() { return pool_.async_io(); }

  /// The unified metrics registry. The disk ("disk", "disk_faults"),
  /// buffer pool ("pool"), and log manager ("wal") register themselves
  /// at construction; callers may register more sources (B-tree stats,
  /// log fault injectors, the recovery tracer).
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Parallel-redo counters (registered as the "redo.parallel" source).
  const par::ParallelRedoMetrics& parallel_redo_metrics() const {
    return parallel_metrics_;
  }

  /// The live-transaction table (checkpoints snapshot it; recovery's
  /// analysis pass re-derives it from the log).
  const engine::TxnRegistry& txn_registry() const { return txn_registry_; }

  /// Undo-pass counters (registered as the "recovery.undo" source).
  const engine::TxnUndoMetrics& txn_undo_metrics() const {
    return undo_metrics_;
  }

  /// The one place an EngineContext is assembled.
  methods::EngineContext ctx() {
    return methods::EngineContext{&disk_,
                                  &pool_,
                                  &log_,
                                  instr_.trace,
                                  instr_.recovery_tracer,
                                  engine_options_,
                                  &txn_registry_,
                                  &undo_metrics_};
  }

 private:
  /// The unified command layer (engine/command.h) executes through the
  /// private Session* methods and reads the health atomics.
  friend Reply Dispatch(Session& session, const Command& command);
  friend Reply DispatchStatus(MiniDb& db);

  Status RecoverInternal(const methods::RestartPoint& start);
  /// Stops an instant restart's drain: aborts the driver and joins its
  /// workers.
  void StopDrain();
  /// The shared preamble of both recovery paths: salvage the torn log
  /// tail, then refuse (Corruption) on a mid-log hole.
  Status PrepareLogForRecovery();
  /// Serving-while-redoing: drains `page`'s pending redo chain before a
  /// session or read touches it. A no-op (one atomic load) outside the
  /// kServing phase or once the chain is done. Callers hold no gate and
  /// no latch: the drain takes them itself (DrainForAccess).
  Status EnsureRedoneForAccess(storage::PageId page);
  /// The quiescing multi-worker redo (parallel_workers > 1, DESIGN.md
  /// §9): parallel_workers threads drain `plan` through an
  /// InstantRedoDriver with the doors closed and eviction held, under
  /// the "redo-scan" phase; then the kept verdicts are emitted in LSN
  /// order and the pool shrinks back to its capacity.
  Status DrainQuiescing(par::RedoPlan plan, par::InstantRedoOptions options);
  /// The drain workers' body, for both restart kinds: claims chains in
  /// head-LSN order and drains each (DrainForAccess) until none is left
  /// or a drain fails.
  void DrainPending(par::InstantRedoDriver* driver);
  /// Drains `page`'s chain on the path its kind needs: a single-page
  /// chain under the op gate shared and the page's latch, a bridged
  /// chain under the gate exclusive (InstantRedoDriver's contract). An
  /// on-demand bridged drain bumps drain_urgent_ while it waits.
  Status DrainForAccess(par::InstantRedoDriver* driver, storage::PageId page,
                        bool on_demand);
  /// Take the op gate, tracing the wait as a gate.wait span (a0 = the
  /// page the holder is about to touch, 0 for page-less acquisitions;
  /// a1 = 1 if exclusive).
  std::shared_lock<std::shared_mutex> LockGateShared(storage::PageId page);
  std::unique_lock<std::shared_mutex> LockGateExclusive(storage::PageId page);
  /// Refuses a page id beyond the disk (InvalidArgument) before any
  /// gate, latch, log record or redo lookup sees it.
  Status CheckPageInRange(storage::PageId page) const;
  /// Records time-to-first-commit once per restart (first successful
  /// Session::Commit while serving-while-redoing).
  void RecordFirstCommitDuringServing();

  Result<core::Lsn> SessionApply(Session& session, const SinglePageOp& op);
  Result<methods::RecoveryMethod::SplitLsns> SessionSplit(Session& session,
                                                          const SplitOp& op);
  Result<int64_t> SessionReadSlot(storage::PageId page, uint32_t slot);

  // ---- Transactions (DESIGN.md §12) ----

  Result<uint64_t> SessionBegin(Session& session);
  Result<core::Lsn> SessionCommitTxn(Session& session);
  Status SessionAbort(Session& session);
  /// Captures the inverse of `op` from the cached page (caller holds the
  /// page latch): a slot before-value for slot writes, a whole-page
  /// before-image otherwise.
  Result<engine::UndoAction> CaptureUndoAction(const SinglePageOp& op);
  /// Appends the kTxnUpdate record for one operation's inverse actions
  /// and advances the session's chain (registry, prev_lsn, undo log).
  void LogTxnUndoInfo(Session& session,
                      std::vector<engine::UndoAction> actions);

  /// Reconfigures the pool's device from the current engine options
  /// (honoring the REDO_ASYNC_IO override) and registers its "io.async"
  /// metrics.
  void ConfigureDevice();

  obs::MetricsRegistry metrics_;  ///< destroyed last: sources deregister into it
  storage::Disk disk_;
  storage::BufferPool pool_;
  /// Live Session handles: the Recover() guard, and the group-commit
  /// committer's count of sessions that could still join a window.
  /// Declared before log_, whose committer reads it until log_ dies.
  std::atomic<int> live_sessions_{0};
  wal::LogManager log_;
  std::unique_ptr<methods::RecoveryMethod> method_;
  Instrumentation instr_;
  EngineOptions engine_options_;
  par::ParallelRedoMetrics parallel_metrics_;
  methods::RedoScanStats redo_scan_stats_;
  /// Live transactions (DESIGN.md §12). Sessions mutate it under the
  /// shared op gate together with the log append it mirrors, so a
  /// checkpoint's exclusive barrier always snapshots a table consistent
  /// with the log. Cleared by Crash(); re-seeded after recovery.
  engine::TxnRegistry txn_registry_;
  engine::TxnUndoMetrics undo_metrics_;

  /// The op gate (DESIGN.md §10). Shared: single-page session ops and
  /// reads, and instant-restart drains of single-page redo chains (each
  /// then latches its page). Exclusive: splits (the SMO barrier),
  /// rollbacks, checkpoints, background flushes, and drains of bridged
  /// redo chains — anything whose page footprint is not captured by one
  /// latch. No thread takes it twice.
  std::shared_mutex op_gate_;
  std::atomic<bool> concurrent_{false};

  // ---- Instant restart state (DESIGN.md §11) ----
  std::atomic<RecoveryPhase> phase_{RecoveryPhase::kIdle};
  std::unique_ptr<par::InstantRedoDriver> instant_driver_;
  par::InstantRedoMetrics instant_metrics_;
  std::vector<std::thread> drain_threads_;
  /// True while the coordinator holds an open "serving-while-redoing"
  /// tracer phase; only the coordinator thread reads or writes it.
  bool instant_run_open_ = false;
  /// When serving began (written before phase_ is released to kServing;
  /// session threads read it only after observing kServing).
  std::chrono::steady_clock::time_point serving_since_{};
  std::atomic<bool> ttfc_recorded_{false};

  /// True only while a quiescing Recover() runs; session op entry
  /// points hard-stop on it under sanitizers (REDO_SANITIZER_CHECK) to
  /// catch the racing call site, not just the diagnosed Recover().
  std::atomic<bool> recovering_{false};
  /// Count of session-side waiters for the exclusive gate: on-demand
  /// drains of bridged chains, splits and rollbacks. The background
  /// drain workers yield while it is non-zero before taking the gate in
  /// either mode, so the waiter never queues behind a background chain
  /// and is not starved by back-to-back shared holders.
  std::atomic<int> drain_urgent_{0};
};

}  // namespace redo::engine

#endif  // REDO_ENGINE_MINIDB_H_
