#include "engine/minidb.h"

#include <algorithm>
#include <cstdlib>
#include <ctime>

#include "engine/command.h"
#include "methods/txn_recovery.h"
#include "obs/flight_recorder.h"

namespace redo::engine {
namespace {

// Thread-CPU time of the calling thread, in microseconds. Unlike the
// wall clock it excludes time the thread spent descheduled (waiting on
// the gate, a latch or a device read, or preempted on an oversubscribed
// host), so it measures redo work, not host parallelism.
uint64_t ThreadCpuUs() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<uint64_t>(ts.tv_nsec) / 1000ull;
}

}  // namespace

Status MiniDbOptions::Validate() const {
  if (num_pages == 0) {
    return Status::InvalidArgument("minidb options: num_pages must be > 0");
  }
  if (cache_capacity == 1) {
    return Status::InvalidArgument(
        "minidb options: cache_capacity must be 0 (unbounded) or >= 2 — "
        "split redo needs two pages cached at once");
  }
  if (engine.parallel_workers == 0) {
    return Status::InvalidArgument(
        "minidb options: parallel_workers must be >= 1");
  }
  if (engine.group_commit_ring == 0) {
    return Status::InvalidArgument(
        "minidb options: group_commit_ring must be >= 1");
  }
  if (engine.instant_restart && engine.instant_drain_workers == 0) {
    return Status::InvalidArgument(
        "minidb options: instant_drain_workers must be >= 1 when "
        "instant_restart is set — an idle engine would never finish "
        "recovering");
  }
  if (net.host.empty()) {
    return Status::InvalidArgument(
        "minidb options: net.host must not be empty (use \"127.0.0.1\" "
        "for loopback or \"0.0.0.0\" to listen on every interface)");
  }
  if (net.max_connections == 0) {
    return Status::InvalidArgument(
        "minidb options: net.max_connections must be >= 1 — a server "
        "that admits no connection can serve no client");
  }
  if (net.worker_threads == 0) {
    return Status::InvalidArgument(
        "minidb options: net.worker_threads must be >= 1 — without a "
        "worker no command would ever execute");
  }
  if (net.pipeline_depth == 0) {
    return Status::InvalidArgument(
        "minidb options: net.pipeline_depth must be >= 1 — a connection "
        "must be allowed at least one outstanding request");
  }
  if (net.accept_backlog == 0) {
    return Status::InvalidArgument(
        "minidb options: net.accept_backlog must be >= 1");
  }
  if (net.max_frame_bytes < 512) {
    return Status::InvalidArgument(
        "minidb options: net.max_frame_bytes must be >= 512 — smaller "
        "frames cannot hold every command encoding");
  }
  if (net.max_frame_bytes > (size_t{1} << 24)) {
    return Status::InvalidArgument(
        "minidb options: net.max_frame_bytes must be <= 16 MiB (the WAL "
        "record payload bound; a larger length prefix is treated as a "
        "hostile frame)");
  }
  return Status::Ok();
}

MiniDb::MiniDb(const MiniDbOptions& options,
               std::unique_ptr<methods::RecoveryMethod> method)
    : disk_(options.num_pages),
      pool_(&disk_, options.cache_capacity),
      log_(options.wal),
      method_(std::move(method)),
      engine_options_(options.engine) {
  const Status valid = options.Validate();
  REDO_CHECK(valid.ok()) << valid.ToString();
  REDO_CHECK(method_ != nullptr);
  REDO_CHECK(method_->allows_background_flush() || options.cache_capacity == 0)
      << method_->name()
      << " forbids background flushes; use an unbounded cache";
  pool_.set_wal_hook([this](core::Lsn lsn) { return log_.Force(lsn); });

  // Federate every subsystem's stats into the unified registry: one
  // snapshot call dumps the whole engine.
  disk_.RegisterMetrics(metrics_, "disk");
  pool_.RegisterMetrics(metrics_, "pool");
  log_.RegisterMetrics(metrics_, "wal");
  metrics_.Register(
      "redo.parallel",
      [this](obs::MetricEmitter& emit) { parallel_metrics_.EmitMetrics(emit); },
      [this]() { parallel_metrics_ = par::ParallelRedoMetrics{}; });
  metrics_.Register(
      "redo.instant",
      [this](obs::MetricEmitter& emit) { instant_metrics_.EmitMetrics(emit); },
      [this]() { instant_metrics_.Reset(); });
  metrics_.Register(
      "recovery.undo",
      [this](obs::MetricEmitter& emit) { undo_metrics_.EmitMetrics(emit); },
      [this]() { undo_metrics_.Reset(); });
  log_.set_append_size_histogram(
      metrics_.GetHistogram("wal.append_bytes", obs::SizeBucketsBytes()));
  // Commit-latency attribution: the three legs every CommitWait
  // decomposes into. The log manager observes them under its mutex.
  log_.set_commit_latency_histograms(
      {metrics_.GetHistogram("wal.commit.stage_wait_us",
                             obs::LatencyBucketsUs()),
       metrics_.GetHistogram("wal.commit.force_us", obs::LatencyBucketsUs()),
       metrics_.GetHistogram("wal.commit.ack_wait_us",
                             obs::LatencyBucketsUs())});
  // The flight recorder is process-global, and so is its slow-op
  // watchdog; surface its counters here.
  obs::FlightRecorder::Global().RegisterMetrics(metrics_, "flight");
  ConfigureDevice();
}

void MiniDb::set_engine_options(const EngineOptions& options) {
  engine_options_ = options;
  ConfigureDevice();
}

void MiniDb::ConfigureDevice() {
  storage::AsyncIoOptions device;
  device.queue_depth = engine_options_.async_io_workers;
  if (device.queue_depth == 0) {
    // The CI seam: run any existing suite at queue depth N by exporting
    // REDO_ASYNC_IO=N, without touching the suite itself.
    if (const char* env = std::getenv("REDO_ASYNC_IO"); env != nullptr) {
      device.queue_depth = static_cast<size_t>(std::strtoul(env, nullptr, 10));
    }
  }
  device.read_latency_us = engine_options_.simulated_read_latency_us;
  device.write_latency_us = engine_options_.simulated_write_latency_us;
  pool_.ConfigureDevice(device);
  // Re-registering replaces the source: after a rebuild it must point
  // at the new backend.
  pool_.async_io()->RegisterMetrics(metrics_, "io.async");
}

Result<storage::Page*> MiniDb::FetchPage(storage::PageId page) {
  REDO_RETURN_IF_ERROR(EnsureRedoneForAccess(page));
  return pool_.Fetch(page);
}

// ---- The concurrent front end ----

Status MiniDb::BeginConcurrent() {
  if (concurrent_.load()) {
    return Status::FailedPrecondition("already in concurrent mode");
  }
  if (pool_.capacity() != 0) {
    return Status::FailedPrecondition(
        "concurrent mode requires an unbounded cache (capacity 0): "
        "eviction must never run under sessions' feet");
  }
  if (instr_.trace != nullptr) {
    return Status::FailedPrecondition(
        "detach the trace recorder before BeginConcurrent — operation "
        "tracing is serial-only");
  }
  wal::GroupCommitOptions gc;
  gc.ring_capacity = engine_options_.group_commit_ring;
  gc.window_us = engine_options_.group_commit_window_us;
  gc.force_latency_us = engine_options_.simulated_force_latency_us;
  gc.live_sessions = &live_sessions_;
  REDO_RETURN_IF_ERROR(log_.StartGroupCommit(gc));
  concurrent_.store(true);
  return Status::Ok();
}

Status MiniDb::EndConcurrent() {
  if (!concurrent_.load()) {
    return Status::FailedPrecondition("not in concurrent mode");
  }
  if (phase_.load(std::memory_order_acquire) == RecoveryPhase::kServing) {
    return Status::FailedPrecondition(
        "serving-while-redoing: WaitUntilRecovered() before "
        "EndConcurrent()");
  }
  concurrent_.store(false);
  return log_.StopGroupCommit();
}

void MiniDb::FreezeCommits() { log_.FreezeGroupCommit(); }

// The Session entry points are thin wrappers over the unified command
// layer: every operation funnels through Dispatch() (engine/command.cc),
// the same code path the checker sims and the network server drive.
// Dispatch is the only way an operation reaches the recovery method.

Result<core::Lsn> MiniDb::Session::WriteSlot(storage::PageId page,
                                             uint32_t slot, int64_t value) {
  return ReplyLsn(Dispatch(*this, MakeWriteSlotCommand(page, slot, value)));
}

Result<core::Lsn> MiniDb::Session::Apply(const SinglePageOp& op) {
  return ReplyLsn(Dispatch(*this, MakeApplyCommand(op)));
}

Result<methods::RecoveryMethod::SplitLsns> MiniDb::Session::Split(
    const SplitOp& op) {
  return ReplySplitLsns(Dispatch(*this, MakeSplitCommand(op)));
}

Result<int64_t> MiniDb::Session::ReadSlot(storage::PageId page,
                                          uint32_t slot) {
  return ReplyValue(Dispatch(*this, MakeReadSlotCommand(page, slot)));
}

Result<uint64_t> MiniDb::Session::Begin() {
  return ReplyTxnId(Dispatch(*this, MakeBeginCommand()));
}

Status MiniDb::Session::Abort() {
  return ReplyStatus(Dispatch(*this, MakeAbortCommand()));
}

Result<core::Lsn> MiniDb::Session::Commit(core::Lsn lsn) {
  return ReplyLsn(Dispatch(*this, MakeCommitCommand(lsn)));
}

Result<core::Lsn> MiniDb::SessionApply(Session& session,
                                       const SinglePageOp& op) {
  REDO_SANITIZER_CHECK(!recovering_.load(std::memory_order_relaxed))
      << "Session op raced a quiescing Recover()";
  // Refuse a bad op before it touches the gate, the latch table or the
  // log: the record of an op the apply then rejects would stay in the
  // log and fail the next recovery.
  REDO_RETURN_IF_ERROR(CheckPageInRange(op.page));
  REDO_RETURN_IF_ERROR(ValidateSinglePageOp(op));
  obs::FlightScope op_span(obs::FlightEventType::kSessionOp, op.page,
                           static_cast<uint64_t>(op.type));
  // On-demand redo runs BEFORE this op takes the gate: the drain takes
  // the gate itself, and no thread holds it twice.
  REDO_RETURN_IF_ERROR(EnsureRedoneForAccess(op.page));
  std::shared_lock<std::shared_mutex> gate = LockGateShared(op.page);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t latch_tick = recorder.enabled() ? recorder.NowTick() : 0;
  storage::PageLatchGuard latch = pool_.LatchPage(op.page);
  if (recorder.enabled()) {
    recorder.EndSpan(obs::FlightEventType::kLatchWait, latch_tick, op.page);
  }
  if (OpDependsOnPageShape(op)) {
    // A B-tree op on a page that is not the node it needs is refused
    // here, under the latch, before its undo info or record is logged.
    Result<storage::Page*> cached = pool_.Fetch(op.page);
    if (!cached.ok()) return cached.status();
    REDO_RETURN_IF_ERROR(ValidateOpOnPage(op, *cached.value()));
  }
  if (session.txn_id_ != 0) {
    // Transactional: log the inverse BEFORE the operation record, under
    // the same latch. Any force that makes the operation durable has
    // already made its undo information durable (lower LSN); the
    // converse torn pair is safe because inverses are absolute.
    Result<engine::UndoAction> undo = CaptureUndoAction(op);
    if (!undo.ok()) return undo.status();
    std::vector<engine::UndoAction> actions;
    actions.push_back(std::move(undo.value()));
    LogTxnUndoInfo(session, std::move(actions));
  }
  methods::EngineContext context = ctx();
  return method_->LogAndApply(context, op);
}

Result<methods::RecoveryMethod::SplitLsns> MiniDb::SessionSplit(
    Session& session, const SplitOp& op) {
  if (op.src == op.dst) {
    return Status::InvalidArgument("split: src and dst must differ");
  }
  REDO_RETURN_IF_ERROR(CheckPageInRange(op.src));
  REDO_RETURN_IF_ERROR(CheckPageInRange(op.dst));
  REDO_RETURN_IF_ERROR(ValidateSplitOp(op));
  REDO_SANITIZER_CHECK(!recovering_.load(std::memory_order_relaxed))
      << "Session split raced a quiescing Recover()";
  obs::FlightScope op_span(obs::FlightEventType::kSessionOp, op.src,
                           static_cast<uint64_t>(wal::RecordType::kPageSplit),
                           op.dst);
  // Structure modification: the gate goes exclusive (the SMO barrier —
  // a split's write-order side effects can cascade flushes onto pages
  // beyond src/dst, which no latch pair covers), then the split
  // latch-couples src -> dst. See DESIGN.md §10. The urgent flag keeps
  // the background drain workers from queueing ahead of us.
  drain_urgent_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> gate = LockGateExclusive(op.src);
  drain_urgent_.fetch_sub(1, std::memory_order_relaxed);
  // Serving-while-redoing: both halves must be current before a new
  // split stacks on top of them; the gate is already exclusive here, so
  // drain in place rather than via EnsureRedoneForAccess.
  if (phase_.load(std::memory_order_acquire) == RecoveryPhase::kServing &&
      instant_driver_ != nullptr) {
    REDO_RETURN_IF_ERROR(
        instant_driver_->DrainPage(op.src, /*on_demand=*/true));
    REDO_RETURN_IF_ERROR(
        instant_driver_->DrainPage(op.dst, /*on_demand=*/true));
  }
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t latch_tick = recorder.enabled() ? recorder.NowTick() : 0;
  auto latches = pool_.LatchCouple(op.src, op.dst);
  if (recorder.enabled()) {
    recorder.EndSpan(obs::FlightEventType::kLatchWait, latch_tick, op.src, 0,
                     op.dst);
  }
  if (op.transform == SplitTransform::kBtreeNode ||
      op.transform == SplitTransform::kBtreeMerge) {
    // Node shapes are checked before anything is logged. src is copied
    // out: fetching dst may evict it under a bounded cache.
    Result<storage::Page*> src = pool_.Fetch(op.src);
    if (!src.ok()) return src.status();
    const storage::Page src_copy = *src.value();
    Result<storage::Page*> dst = pool_.Fetch(op.dst);
    if (!dst.ok()) return dst.status();
    REDO_RETURN_IF_ERROR(ValidateSplitOnPages(op, src_copy, *dst.value()));
  }
  if (session.txn_id_ != 0) {
    // A split's inverse restores both halves from their before-images.
    std::vector<engine::UndoAction> actions;
    for (storage::PageId page : {op.src, op.dst}) {
      Result<storage::Page*> cached = pool_.Fetch(page);
      if (!cached.ok()) return cached.status();
      engine::UndoAction action;
      action.kind = engine::UndoAction::Kind::kPageRestore;
      action.page = page;
      action.image = *cached.value();
      actions.push_back(std::move(action));
    }
    LogTxnUndoInfo(session, std::move(actions));
  }
  methods::EngineContext context = ctx();
  return method_->LogAndApplySplit(context, op);
}

Result<engine::UndoAction> MiniDb::CaptureUndoAction(const SinglePageOp& op) {
  Result<storage::Page*> cached = pool_.Fetch(op.page);
  if (!cached.ok()) return cached.status();
  engine::UndoAction action;
  action.page = op.page;
  if (op.type == wal::RecordType::kSlotWrite && !op.blind) {
    wal::PayloadReader r(op.args);
    Result<uint32_t> slot = r.U32();
    if (!slot.ok()) return slot.status();
    if (slot.value() >= storage::Page::NumSlots()) {
      return Status::InvalidArgument("slot out of range");
    }
    action.kind = engine::UndoAction::Kind::kSlotRestore;
    action.slot = slot.value();
    action.old_value = cached.value()->ReadSlot(slot.value());
  } else {
    // Blind formats and B-tree ops change a page-sized footprint: the
    // whole-page before-image is the inverse.
    action.kind = engine::UndoAction::Kind::kPageRestore;
    action.image = *cached.value();
  }
  return action;
}

void MiniDb::LogTxnUndoInfo(Session& session,
                            std::vector<engine::UndoAction> actions) {
  engine::TxnUpdate update;
  update.txn_id = session.txn_id_;
  update.prev_lsn = session.txn_last_lsn_;
  update.actions = std::move(actions);
  const core::Lsn lsn = log_.Append(wal::RecordType::kTxnUpdate,
                                    engine::EncodeTxnUpdate(update));
  txn_registry_.NoteRecord(session.txn_id_, lsn);
  session.txn_last_lsn_ = lsn;
  session.undo_log_.push_back({lsn, std::move(update.actions)});
}

Result<uint64_t> MiniDb::SessionBegin(Session& session) {
  if (session.txn_id_ != 0) {
    return Status::FailedPrecondition(
        "session already has an open transaction");
  }
  // Append + registry insert are one atom with respect to a
  // checkpoint's exclusive barrier: a checkpoint whose record follows
  // our kTxnBegin always carries this transaction in its tail, so the
  // analysis pass (which scans forward from the checkpoint) never
  // misses a live transaction that began below the checkpoint.
  std::shared_lock<std::shared_mutex> gate = LockGateShared(0);
  const uint64_t txn_id = txn_registry_.AllocateId();
  log_.Append(wal::RecordType::kTxnBegin, engine::EncodeTxnMeta(txn_id));
  txn_registry_.NoteBegin(txn_id);
  session.txn_id_ = txn_id;
  session.txn_last_lsn_ = 0;
  session.undo_log_.clear();
  obs::FlightRecorder::Global().Instant(obs::FlightEventType::kTxnBegin,
                                        txn_id);
  return txn_id;
}

Result<core::Lsn> MiniDb::SessionCommitTxn(Session& session) {
  const uint64_t txn_id = session.txn_id_;
  obs::FlightScope commit_span(obs::FlightEventType::kTxnCommit, txn_id);
  core::Lsn commit_lsn = 0;
  {
    // Commit append + registry removal are one atom under the shared
    // gate: a checkpoint barrier observes either {commit not on the
    // log, txn in the table} or {commit on the log, txn gone} — in
    // every interleaving analysis classifies the transaction correctly.
    std::shared_lock<std::shared_mutex> gate = LockGateShared(0);
    commit_lsn =
        log_.Append(wal::RecordType::kTxnCommit, engine::EncodeTxnMeta(txn_id));
    txn_registry_.NoteEnd(txn_id);
  }
  commit_span.set_args(txn_id, commit_lsn);
  // The transaction's fate now rests with the log alone; this handle is
  // closed whatever the pipeline answers below.
  session.txn_id_ = 0;
  session.txn_last_lsn_ = 0;
  session.undo_log_.clear();
  // The stable kTxnCommit alone makes a winner, so it is the committed
  // transaction's last record: the ack appends nothing after it.
  Result<core::Lsn> acked =
      log_.CommitWait(commit_lsn, wal::LogManager::Waiter::kSession);
  if (acked.ok()) RecordFirstCommitDuringServing();
  return acked;
}

Status MiniDb::SessionAbort(Session& session) {
  const uint64_t txn_id = session.txn_id_;
  obs::FlightScope abort_span(obs::FlightEventType::kTxnAbort, txn_id);
  // Rollback restores pages the transaction wrote — potentially both
  // halves of a split — so it runs under the exclusive gate, like any
  // structure modification. The urgent flag keeps instant-restart's
  // background drain workers from queueing ahead of us.
  drain_urgent_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> gate = LockGateExclusive(0);
  drain_urgent_.fetch_sub(1, std::memory_order_relaxed);
  const bool serving =
      phase_.load(std::memory_order_acquire) == RecoveryPhase::kServing &&
      instant_driver_ != nullptr;
  for (size_t i = session.undo_log_.size(); i-- > 0;) {
    Session::UndoEntry& entry = session.undo_log_[i];
    engine::Clr clr;
    clr.txn_id = txn_id;
    clr.undo_next = i > 0 ? session.undo_log_[i - 1].lsn : 0;
    clr.actions = std::move(entry.actions);
    if (serving) {
      // Serving-while-redoing: the restore must land on fully redone
      // content, and it tags the page with a high LSN that would
      // otherwise make the lazy redo skip the page's pending chain.
      for (const engine::UndoAction& action : clr.actions) {
        REDO_RETURN_IF_ERROR(
            instant_driver_->DrainPage(action.page, /*on_demand=*/true));
      }
    }
    const core::Lsn clr_lsn =
        log_.Append(wal::RecordType::kClr, engine::EncodeClr(clr));
    txn_registry_.NoteRecord(txn_id, clr_lsn);
    REDO_RETURN_IF_ERROR(
        engine::ApplyUndoActions(&pool_, clr.actions, clr_lsn));
    session.undo_log_.pop_back();
    session.txn_last_lsn_ = clr.undo_next;
  }
  // No force: if a crash loses the CLRs, recovery re-derives the same
  // rollback from the (lower-LSN, therefore no-less-durable) kTxnUpdate
  // chain. The kTxnEnd seals the rollback; registry removal is atomic
  // with it thanks to the exclusive gate we still hold.
  log_.Append(wal::RecordType::kTxnEnd, engine::EncodeTxnMeta(txn_id));
  txn_registry_.NoteEnd(txn_id);
  session.txn_id_ = 0;
  session.txn_last_lsn_ = 0;
  return Status::Ok();
}

Result<int64_t> MiniDb::SessionReadSlot(storage::PageId page, uint32_t slot) {
  REDO_SANITIZER_CHECK(!recovering_.load(std::memory_order_relaxed))
      << "Session read raced a quiescing Recover()";
  // Range-check first: LatchFor would otherwise keep a latch for any
  // page id a client names.
  REDO_RETURN_IF_ERROR(CheckPageInRange(page));
  if (slot >= storage::Page::NumSlots()) {
    return Status::InvalidArgument("slot out of range");
  }
  obs::FlightScope op_span(obs::FlightEventType::kSessionOp, page,
                           /*a1=0: read*/ 0);
  REDO_RETURN_IF_ERROR(EnsureRedoneForAccess(page));
  std::shared_lock<std::shared_mutex> gate = LockGateShared(page);
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t latch_tick = recorder.enabled() ? recorder.NowTick() : 0;
  storage::PageLatchGuard latch = pool_.LatchPage(page);
  if (recorder.enabled()) {
    recorder.EndSpan(obs::FlightEventType::kLatchWait, latch_tick, page);
  }
  Result<storage::Page*> cached = pool_.Fetch(page);
  if (!cached.ok()) return cached.status();
  return cached.value()->ReadSlot(slot);
}

Result<core::Lsn> MiniDb::FuzzyCheckpoint() {
  if (phase_.load(std::memory_order_acquire) == RecoveryPhase::kServing) {
    return Status::FailedPrecondition(
        "checkpoint during serving-while-redoing would advance the redo "
        "point past still-pending redo; WaitUntilRecovered() first");
  }
  if (!method_->supports_fuzzy_checkpoint()) {
    return Status::FailedPrecondition(
        std::string(method_->name()) + " cannot checkpoint fuzzily");
  }
  // The barrier covers ONLY the dirty-page snapshot and the checkpoint
  // append — writers stall for microseconds, never for a flush or a
  // force. Atomicity is what makes the redo point safe: every record
  // below the checkpoint's LSN is fully applied and registered in the
  // DPT (or its page already flushed with a covering page LSN), so
  // min(rec_lsn) bounds everything recovery could need to replay.
  obs::FlightScope barrier(obs::FlightEventType::kCkptBarrier, /*fuzzy=*/1);
  std::unique_lock<std::shared_mutex> gate(op_gate_);
  methods::EngineContext context = ctx();
  return method_->FuzzyCheckpoint(context);
}

// ---- Lifecycle ----

Status MiniDb::Checkpoint() {
  if (phase_.load(std::memory_order_acquire) == RecoveryPhase::kServing) {
    return Status::FailedPrecondition(
        "checkpoint during serving-while-redoing would advance the redo "
        "point past still-pending redo; WaitUntilRecovered() first");
  }
  if (concurrent_.load() && engine_options_.fuzzy_checkpoints &&
      method_->supports_fuzzy_checkpoint()) {
    Result<core::Lsn> lsn = FuzzyCheckpoint();
    if (!lsn.ok()) return lsn.status();
    // The record exists once the pipeline forces past it. A freeze
    // before that is fine — the checkpoint simply never happened.
    Result<core::Lsn> durable = log_.CommitWait(lsn.value());
    return durable.ok() ? Status::Ok() : durable.status();
  }
  // Serial or concurrent, the classic checkpoint runs under the
  // exclusive gate (uncontended when no session is mid-operation).
  obs::FlightScope barrier(obs::FlightEventType::kCkptBarrier, /*fuzzy=*/0);
  std::unique_lock<std::shared_mutex> gate(op_gate_);
  methods::EngineContext context = ctx();
  return method_->Checkpoint(context);
}

Status MiniDb::MaybeFlushPage(storage::PageId page) {
  if (!method_->allows_background_flush()) return Status::Ok();
  std::unique_lock<std::shared_mutex> gate(op_gate_);
  return pool_.FlushPageCascading(page);
}

Status MiniDb::FlushEverything() {
  if (!method_->allows_background_flush()) return Status::Ok();
  std::unique_lock<std::shared_mutex> gate(op_gate_);
  return pool_.FlushAll();
}

MiniDb::~MiniDb() { StopDrain(); }

void MiniDb::StopDrain() {
  // Abort() makes NextPendingPage/DrainPage return without work, so the
  // drain workers fall out of their loops and can be joined.
  if (instant_driver_ != nullptr) instant_driver_->Abort();
  for (std::thread& worker : drain_threads_) worker.join();
  drain_threads_.clear();
}

void MiniDb::Crash() {
  // Tear down an in-flight instant restart first.
  StopDrain();
  if (instant_run_open_) {
    obs::RecoveryTracer* tracer = recovery_tracer();
    if (tracer != nullptr && tracer->in_run()) {
      tracer->EndPhase();  // serving-while-redoing
      tracer->EndRun(false, "crash during serving-while-redoing");
    }
    instant_run_open_ = false;
  }
  instant_driver_.reset();
  phase_.store(RecoveryPhase::kIdle, std::memory_order_release);
  // The crash ends concurrent mode: log_.Crash() freezes and joins the
  // committer, and recovery runs serially. Session worker threads must
  // already be joined (their handles die with them).
  concurrent_.store(false);
  pool_.Crash();
  log_.Crash();
  // Live transactions die with the process image; analysis re-derives
  // the survivors' fate from the stable log.
  txn_registry_.Clear();
}

Status MiniDb::Recover(const methods::RestartPoint& start) {
  if (live_sessions_.load(std::memory_order_relaxed) != 0) {
    return Status::FailedPrecondition(
        "Recover() with live Session handles: join the session workers "
        "and drop their handles first — recovery rebuilds the state they "
        "operate on");
  }
  if (phase_.load(std::memory_order_acquire) == RecoveryPhase::kServing) {
    return Status::FailedPrecondition(
        "instant restart in progress: WaitUntilRecovered() or Crash() "
        "before a quiescing Recover()");
  }
  recovering_.store(true, std::memory_order_relaxed);
  if (recovery_tracer() != nullptr) recovery_tracer()->BeginRun(method_->name());
  const Status status = RecoverInternal(start);
  if (recovery_tracer() != nullptr) {
    recovery_tracer()->EndRun(status.ok(),
                              status.ok() ? "ok" : status.ToString());
  }
  recovering_.store(false, std::memory_order_relaxed);
  if (status.ok()) {
    phase_.store(RecoveryPhase::kRecovered, std::memory_order_release);
  }
  return status;
}

Status MiniDb::RecoverInternal(const methods::RestartPoint& start) {
  REDO_RETURN_IF_ERROR(PrepareLogForRecovery());
  // Three passes (DESIGN.md §12): analysis classifies winners/losers
  // from the salvaged log, redo repeats history (CLRs included), undo
  // rolls the losers back emitting new CLRs. Each pass is idempotent,
  // so degradation-ladder reruns and crash-mid-undo re-recoveries
  // converge to the same committed-only state.
  txn_registry_.Clear();
  methods::EngineContext context = ctx();
  methods::TxnAnalysis txns;
  if (engine_options_.parallel_workers > 1) {
    // One analysis visit builds the transaction table, the DPT and the
    // plan the drain workers replay (DESIGN.md §9).
    Result<methods::RestartAnalysis> analysis = [&] {
      obs::PhaseScope analysis_phase(recovery_tracer(), "analysis");
      return methods::AnalyzeForRestart(*method_, context, start);
    }();
    if (!analysis.ok()) return analysis.status();
    REDO_RETURN_IF_ERROR(DrainQuiescing(std::move(analysis.value().plan),
                                        std::move(analysis.value().redo)));
    txns = std::move(analysis.value().txns);
  } else {
    Result<methods::TxnAnalysis> analysis = methods::RestartInLogOrder(
        *method_, context, &redo_scan_stats_, start);
    if (!analysis.ok()) return analysis.status();
    txns = std::move(analysis).value();
  }
  REDO_RETURN_IF_ERROR(methods::UndoLosers(context, txns));
  txn_registry_.SeedNextId(txns.max_txn_id);
  return Status::Ok();
}

Status MiniDb::DrainQuiescing(par::RedoPlan plan,
                              par::InstantRedoOptions options) {
  obs::RecoveryTracer* tracer = recovery_tracer();
  obs::PhaseScope phase(tracer, "redo-scan");
  const size_t tasks = plan.tasks.size();
  const size_t superseded = plan.images_superseded;
  // No metrics sink: redo.instant counts instant restarts only.
  par::InstantRedoDriver driver(&pool_, num_pages(), std::move(plan),
                                std::move(options), /*metrics=*/nullptr);
  if (tracer != nullptr) driver.KeepVerdicts();
  // The workers share the pool: no fetch may evict a frame another
  // worker is replaying into.
  pool_.HoldEviction();
  const size_t workers = engine_options_.parallel_workers;
  std::vector<uint64_t> busy_us(workers, 0);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads.emplace_back([this, &driver, &busy = busy_us[i]] {
      const uint64_t start = ThreadCpuUs();
      DrainPending(&driver);
      busy = ThreadCpuUs() - start;
    });
  }
  for (std::thread& thread : threads) thread.join();
  driver.EmitVerdicts(tracer);
  ++parallel_metrics_.runs;
  parallel_metrics_.workers_spawned += workers;
  parallel_metrics_.tasks += tasks;
  parallel_metrics_.images_superseded += superseded;
  for (uint64_t us : busy_us) parallel_metrics_.apply_busy_us += us;
  parallel_metrics_.apply_critical_path_us +=
      *std::max_element(busy_us.begin(), busy_us.end());
  // A failed drain leaves each page an LSN-ordered prefix of its chain,
  // a valid intermediate state (redo is idempotent): the caller crashes
  // and reruns, and the crash releases the eviction hold.
  REDO_RETURN_IF_ERROR(driver.first_error());
  REDO_CHECK(driver.Done()) << "drain workers left redo tasks pending";
  // Eviction-triggered flushes now see every re-armed §6.4 constraint.
  return pool_.ReduceToCapacity();
}

void MiniDb::DrainPending(par::InstantRedoDriver* driver) {
  storage::PageId page = 0;
  while (driver->NextPendingPage(&page)) {
    // A session waiting for the exclusive gate (a bridged drain, a
    // split or a rollback) outranks the background sweep, whose
    // back-to-back shared holds would otherwise starve it.
    while (drain_urgent_.load(std::memory_order_relaxed) > 0) {
      std::this_thread::yield();
    }
    if (!DrainForAccess(driver, page, /*on_demand=*/false).ok()) break;
  }
}

Status MiniDb::PrepareLogForRecovery() {
  obs::RecoveryTracer* tracer = recovery_tracer();
  // First salvage the stable log: a crash mid-force may have left a torn
  // tail, and every recovery method's log scan must see a clean prefix.
  // Truncating unacknowledged bytes is always safe — the WAL rule means
  // no stable page depends on a record whose force was never acked.
  // (Skipped for a recovery rehearsal on a live db with unforced
  // appends; nothing can be torn while the process is still up.)
  if (log_.PendingForceBytes() == 0) {
    obs::PhaseScope phase(tracer, "salvage");
    const wal::SalvageResult salvage = log_.SalvageTornTail();
    if (tracer != nullptr) {
      tracer->Salvage(salvage.torn, salvage.dropped_bytes,
                      salvage.salvaged_records, salvage.stable_lsn_after);
    }
  }
  // Refuse to recover across a hole in the sealed log body: redo
  // requires an unbroken record prefix, and replaying a silently
  // truncated one would "recover" to a state that never existed. The
  // degradation ladder (engine/degraded_recovery.h) is the sanctioned
  // way past this refusal.
  if (const core::Lsn hole = log_.FirstHoleLsn(); hole != 0) {
    if (tracer != nullptr) {
      tracer->Note("refusing to recover past a log hole at LSN " +
                   std::to_string(hole));
    }
    return Status::Corruption(
        "stable log has an unreadable segment (first unreadable LSN " +
        std::to_string(hole) +
        "); refusing to recover past a gap — repair the log or run the "
        "degradation ladder");
  }
  return Status::Ok();
}

// ---- Instant restart (serving-while-redoing) ----

Status MiniDb::RecoverInstant() {
  if (!engine_options_.instant_restart) {
    return Status::FailedPrecondition(
        "instant restart is disabled: set EngineOptions::instant_restart");
  }
  if (engine_options_.instant_drain_workers == 0) {
    return Status::FailedPrecondition(
        "instant restart needs instant_drain_workers >= 1");
  }
  if (live_sessions_.load(std::memory_order_relaxed) != 0) {
    return Status::FailedPrecondition(
        "RecoverInstant() with live Session handles: join the session "
        "workers and drop their handles first");
  }
  if (phase_.load(std::memory_order_acquire) == RecoveryPhase::kServing) {
    return Status::FailedPrecondition("instant restart already in progress");
  }
  if (concurrent_.load()) {
    return Status::FailedPrecondition(
        "already in concurrent mode — RecoverInstant() enters it itself");
  }
  obs::RecoveryTracer* tracer = recovery_tracer();
  if (tracer != nullptr) {
    tracer->BeginRun(std::string(method_->name()) + "+instant");
  }
  phase_.store(RecoveryPhase::kAnalyzing, std::memory_order_release);
  auto fail = [&](const Status& status) {
    phase_.store(RecoveryPhase::kIdle, std::memory_order_release);
    if (tracer != nullptr) tracer->EndRun(false, status.ToString());
    return status;
  };
  instant_driver_.reset();  // quiesced here: no sessions, no workers
  const Status prepared = PrepareLogForRecovery();
  if (!prepared.ok()) return fail(prepared);
  // One analysis visit: the transaction table, the DPT and the plan.
  Result<methods::RestartAnalysis> analysis = [&] {
    obs::PhaseScope analysis_phase(tracer, "analysis");
    methods::EngineContext context = ctx();
    return methods::AnalyzeForRestart(*method_, context);
  }();
  if (!analysis.ok()) return fail(analysis.status());
  const size_t pending_tasks = analysis.value().plan.tasks.size();
  const size_t multi_page = analysis.value().plan.multi_page_tasks;
  instant_driver_ = std::make_unique<par::InstantRedoDriver>(
      &pool_, num_pages(), std::move(analysis.value().plan),
      std::move(analysis.value().redo), &instant_metrics_);
  // Loser rollback happens BEFORE the doors open: no session may
  // observe a loser's write, and no loser page may be served before its
  // redo chain is drained. The before_touch hook drains each page the
  // undo is about to restore — the restore must land on fully redone
  // content, and it tags the page with a CLR LSN that would otherwise
  // make the driver's lazy redo skip the page's remaining chain.
  {
    txn_registry_.Clear();
    methods::EngineContext context = ctx();
    const methods::TxnAnalysis& txns = analysis.value().txns;
    par::InstantRedoDriver* driver = instant_driver_.get();
    const Status undone = methods::UndoLosers(
        context, txns, [driver](storage::PageId page) {
          return driver->DrainPage(page, /*on_demand=*/true);
        });
    if (!undone.ok()) {
      instant_driver_.reset();
      return fail(undone);
    }
    txn_registry_.SeedNextId(txns.max_txn_id);
  }
  if (tracer != nullptr) {
    tracer->Note("instant restart: open for traffic with " +
                 std::to_string(pending_tasks) + " redo tasks pending (" +
                 std::to_string(multi_page) + " multi-page)");
    tracer->BeginPhase("serving-while-redoing");
    instant_run_open_ = true;
  }
  ttfc_recorded_.store(false, std::memory_order_relaxed);
  serving_since_ = std::chrono::steady_clock::now();
  // kServing is published BEFORE the engine turns concurrent: the
  // network front end admits sessions the moment concurrent() reads
  // true, and a session that still saw kAnalyzing would skip
  // EnsureRedoneForAccess and write a page whose chain is pending —
  // the LSN test would then skip that chain as already installed.
  phase_.store(RecoveryPhase::kServing, std::memory_order_release);
  const Status begun = BeginConcurrent();
  if (!begun.ok()) {
    if (instant_run_open_) {
      tracer->EndPhase();  // serving-while-redoing
      instant_run_open_ = false;
    }
    instant_driver_.reset();
    return fail(begun);
  }
  par::InstantRedoDriver* driver = instant_driver_.get();
  for (size_t i = 0; i < engine_options_.instant_drain_workers; ++i) {
    drain_threads_.emplace_back([this, driver] {
      DrainPending(driver);
      // The worker that drains (or observes) the last chain flips the
      // engine to fully recovered. The tracer is closed later by the
      // coordinator in WaitUntilRecovered — workers never touch it.
      if (driver->Done() && driver->first_error().ok()) {
        RecoveryPhase expected = RecoveryPhase::kServing;
        phase_.compare_exchange_strong(expected, RecoveryPhase::kRecovered,
                                       std::memory_order_acq_rel);
      }
    });
  }
  return Status::Ok();
}

Status MiniDb::WaitUntilRecovered() {
  if (instant_driver_ == nullptr) {
    return Status::FailedPrecondition("no instant restart in progress");
  }
  for (std::thread& worker : drain_threads_) worker.join();
  drain_threads_.clear();
  Status status = instant_driver_->first_error();
  if (status.ok() && !instant_driver_->Done()) {
    status = Status::Unavailable("instant redo aborted before completion");
  }
  phase_.store(status.ok() ? RecoveryPhase::kRecovered : RecoveryPhase::kIdle,
               std::memory_order_release);
  // The driver itself stays alive until the next Crash()/RecoverInstant()
  // (both quiesced): a session that read phase == kServing a moment ago
  // may still be about to consult it, and a live-but-drained driver
  // answers HasPendingWork() with false where a freed one would race.
  if (instant_run_open_) {
    obs::RecoveryTracer* tracer = recovery_tracer();
    if (tracer != nullptr && tracer->in_run()) {
      tracer->EndPhase();  // serving-while-redoing
      tracer->Note("instant drain complete: engine fully recovered");
      tracer->EndRun(status.ok(), status.ok() ? "ok" : status.ToString());
    }
    instant_run_open_ = false;
  }
  return status;
}

Status MiniDb::EnsureRedoneForAccess(storage::PageId page) {
  if (phase_.load(std::memory_order_acquire) != RecoveryPhase::kServing) {
    return Status::Ok();
  }
  par::InstantRedoDriver* driver = instant_driver_.get();
  if (driver == nullptr || !driver->HasPendingWork(page)) return Status::Ok();
  return DrainForAccess(driver, page, /*on_demand=*/true);
}

Status MiniDb::DrainForAccess(par::InstantRedoDriver* driver,
                              storage::PageId page, bool on_demand) {
  if (!driver->IsBridged(page)) {
    // A single-page chain touches nothing but its page: the shared gate
    // and the page's latch cover it, so the drain — device read
    // included — blocks only sessions that want this page.
    std::shared_lock<std::shared_mutex> gate = LockGateShared(page);
    storage::PageLatchGuard latch = pool_.LatchPage(page);
    return driver->DrainPage(page, on_demand);
  }
  // A bridged chain may replay a split dst, which re-arms its §6.4
  // write-order constraint; that can cascade a flush onto pages no latch
  // covers, so the drain takes the gate exclusive.
  if (on_demand) drain_urgent_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> gate = LockGateExclusive(page);
  if (on_demand) drain_urgent_.fetch_sub(1, std::memory_order_relaxed);
  return driver->DrainPage(page, on_demand);
}

std::shared_lock<std::shared_mutex> MiniDb::LockGateShared(
    storage::PageId page) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t tick = recorder.enabled() ? recorder.NowTick() : 0;
  std::shared_lock<std::shared_mutex> gate(op_gate_);
  if (recorder.enabled()) {
    recorder.EndSpan(obs::FlightEventType::kGateWait, tick, page,
                     /*exclusive=*/0);
  }
  return gate;
}

std::unique_lock<std::shared_mutex> MiniDb::LockGateExclusive(
    storage::PageId page) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t tick = recorder.enabled() ? recorder.NowTick() : 0;
  std::unique_lock<std::shared_mutex> gate(op_gate_);
  if (recorder.enabled()) {
    recorder.EndSpan(obs::FlightEventType::kGateWait, tick, page,
                     /*exclusive=*/1);
  }
  return gate;
}

Status MiniDb::CheckPageInRange(storage::PageId page) const {
  if (page < num_pages()) return Status::Ok();
  return Status::InvalidArgument("page " + std::to_string(page) +
                                 " out of range (the disk has " +
                                 std::to_string(num_pages()) + " pages)");
}

void MiniDb::RecordFirstCommitDuringServing() {
  if (phase_.load(std::memory_order_acquire) != RecoveryPhase::kServing) {
    return;
  }
  if (ttfc_recorded_.exchange(true, std::memory_order_acq_rel)) return;
  const auto elapsed = std::chrono::steady_clock::now() - serving_since_;
  instant_metrics_.time_to_first_commit_us.store(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
              .count()),
      std::memory_order_relaxed);
}

}  // namespace redo::engine
