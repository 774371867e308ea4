#include "checker/crash_sim.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <utility>

#include "checker/closed_loop.h"
#include "checker/recovery_checker.h"
#include "engine/backup.h"
#include "engine/command.h"
#include "engine/degraded_recovery.h"
#include "engine/txn.h"
#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/recovery_trace.h"
#include "storage/fault_injector.h"
#include "wal/log_fault_injector.h"

namespace redo::checker {
namespace {

using engine::Action;
using engine::Command;
using engine::MiniDb;
using engine::Reply;
using storage::Page;
using storage::PageId;

// ---- Fixed parameters (no caller ever varied them) ----

/// P(a crash tears the in-flight force) under tear_log_tail.
constexpr double kTornTailProbability = 0.6;
/// Simulated page-read latency over TCP. It stretches the kServing
/// drain from microseconds to milliseconds, so reconnecting clients
/// observably land *during* recovery — the point of instant restart.
/// Each page pays it once per first touch.
constexpr uint64_t kTcpReadLatencyUs = 150;

/// The serial engine's disk schedule. The safety contract under faults
/// is *invariant-holds-or-detected*: every injected fault must be caught
/// by a checksum/error path and healed (the mirror-repair model), and
/// after healing the run must verify exactly like a fault-free one. A
/// page that differs from the model while carrying a VALID checksum is
/// silent corruption — the one outcome the suite exists to rule out.
storage::FaultInjectorOptions SerialDiskFaults() {
  storage::FaultInjectorOptions fi;
  fi.torn_write_probability = 0.03;   // per page write
  fi.write_error_probability = 0.05;  // per page write (burst start)
  fi.max_write_error_burst = 2;       // < BufferPool::kMaxFlushAttempts
  fi.read_error_probability = 0.003;  // per page read (sticky)
  return fi;
}

/// The concurrent engine's disk faults: transient write-error bursts
/// strictly shorter than the pool's retry budget — absorbed, never
/// surfaced or corrupting.
storage::FaultInjectorOptions WriteBursts() {
  storage::FaultInjectorOptions fi;
  fi.write_error_probability = 0.05;
  fi.max_write_error_burst = storage::BufferPool::kMaxFlushAttempts - 2;
  return fi;
}

/// Log-media damage to the sealed log body, rolled per segment at every
/// crash point.
wal::LogFaultOptions LogMediaFaults() {
  wal::LogFaultOptions lf;
  lf.bit_rot_probability = 0.10;
  lf.lost_segment_probability = 0.04;
  // Given a damaged copy, P(the other copy is damaged too): the mirror
  // cannot repair, forcing rung 2 or 3.
  lf.double_fault_probability = 0.35;
  lf.archive_rot_probability = 0.05;  // per archived segment
  return lf;
}

bool IsSerial(const SimOptions& o) {
  return o.transport == Transport::kInProcess && o.sessions == 1;
}

/// Transactions and TCP clients need disjoint per-worker partitions:
/// slot-level undo has no locks, and the in-doubt oracle judges each
/// client's pages alone.
bool IsPartitioned(const SimOptions& o) {
  return o.txn_mode || o.transport == Transport::kTcp;
}

engine::MiniDbOptions DbOptions(methods::MethodKind kind, const SimOptions& o) {
  engine::MiniDbOptions db;
  db.num_pages = o.workload.num_pages;
  db.engine.async_io_workers = o.async_io_workers;
  if (IsSerial(o)) {
    db.cache_capacity =
        kind == methods::MethodKind::kLogical ? 0 : o.cache_capacity;
    // A segmented, mirrored, archived log — the substrate the log-media
    // fault schedule and the degradation ladder exercise.
    if (o.disk_faults) db.wal.segment_bytes = o.log_segment_bytes;
    return db;
  }
  db.cache_capacity = 0;  // concurrent mode requires unbounded
  db.engine.fuzzy_checkpoints = true;
  db.engine.group_commit_ring = 64;
  db.engine.instant_restart = o.instant_restart;
  db.engine.instant_drain_workers = 2;
  db.engine.undo_crash_after_clrs = o.undo_crash_after_clrs;
  db.engine.parallel_workers = std::max<size_t>(1, o.parallel_redo_workers);
  if (o.transport == Transport::kTcp) {
    db.engine.simulated_read_latency_us = kTcpReadLatencyUs;
  }
  return db;
}

/// `status` with `what` prepended to its message (Ok stays Ok).
Status Annotate(const std::string& what, const Status& status) {
  return status.ok() ? status
                     : Status(status.code(), what + ": " + status.message());
}

class Sim {
 public:
  Sim(methods::MethodKind kind, const SimOptions& options, uint64_t seed,
      SimResult* result)
      : options_(options),
        seed_(seed),
        serial_(IsSerial(options)),
        result_(*result),
        db_(DbOptions(kind, options),
            methods::MakeMethod(kind, {options.workload.num_pages})),
        tracer_(&db_.metrics()),
        rng_(seed ^ 0x5117ab1eULL) {}

  ~Sim() {
    if (server_ != nullptr) server_->Stop();
    db_.Crash();  // joins drain workers and the committer in any state
    db_.disk().set_fault_injector(nullptr);
    db_.Attach(engine::Instrumentation{});
  }

  Status Run();
  void Finish(const Status& status);

 private:
  Status Setup();
  // Load.
  Status SerialSegment();
  Status Serve();
  Status Round(bool freeze, uint64_t sleep_hi_us);
  // The crash and the checks before recovery.
  Status CrashNow();
  Status KeepWinners();
  Status PreRecoveryChecks(size_t cycle);
  Status LogMediaLadder(bool* degraded);
  Status RecoveryCrashes();
  Status Equivalence(size_t cycle);
  // Recovery.
  Status Recover();
  Status RecoverRetrying(bool instant);
  // Oracles and the end of a serial cycle.
  Status CheckModel(size_t cycle);
  Status BackupAndTruncate(size_t cycle);
  // Serial fault plumbing.
  Status Scrub(const char* where);
  Status TolerantFetch(PageId page);
  Status TolerantIo(const char* what, const std::function<Status()>& fn);

  const SimOptions options_;
  const uint64_t seed_;
  const bool serial_;
  SimResult& result_;
  // Declared before db_ so they outlive it: the engine's metrics
  // registry and disk point at them.
  std::optional<storage::FaultInjector> injector_;
  std::optional<wal::LogFaultInjector> log_injector_;
  MiniDb db_;
  obs::RecoveryTracer tracer_;
  std::optional<engine::TraceRecorder> trace_;  ///< serial engine only
  std::optional<engine::Workload> workload_;    ///< serial engine only
  std::unique_ptr<net::NetServer> server_;      ///< TCP only
  std::optional<engine::Backup> backup_;        ///< rung 2's anchor
  Rng rng_;
  obs::Snapshot cycle_start_;
  /// The concurrent engine's workers, one closed-loop client each; the
  /// coordinator takes their ledgers after every round.
  std::vector<std::unique_ptr<ClosedLoopClient>> clients_;
  std::vector<JournalEntry> journal_;
  std::vector<core::Lsn> acked_;      ///< the LSN each commit ack named
  std::vector<uint64_t> acked_txns_;  ///< ids of acknowledged transactions
  std::vector<InDoubt> cut_off_;      ///< in doubt; the next crash bounds them
  std::vector<InDoubt> in_doubt_;     ///< bounded by a crash, not yet judged
};

Status Sim::Setup() {
  if (serial_) {
    trace_.emplace(db_.disk());
    workload_.emplace(options_.workload, seed_);
  }
  // The recovery timeline and the metrics baseline restart each cycle,
  // so a failure hands back exactly the failing cycle's events.
  db_.Attach(engine::Instrumentation{serial_ ? &*trace_ : nullptr, &tracer_});
  if (options_.disk_faults) {
    injector_.emplace(serial_ ? SerialDiskFaults() : WriteBursts(),
                      seed_ ^ 0xFA017EC7ULL);
    db_.disk().set_fault_injector(&*injector_);
    if (serial_ && options_.log_segment_bytes > 0) {
      log_injector_.emplace(LogMediaFaults(), seed_ ^ 0x106FAB17ULL);
      log_injector_->RegisterMetrics(db_.metrics());
    }
  }
  if (serial_) return Status::Ok();
  ClientSpec spec{&db_, "127.0.0.1", 0, {}, options_.commit_every,
                  options_.txn_mode, options_.abort_percent};
  if (options_.transport == Transport::kTcp) {
    server_ = std::make_unique<net::NetServer>(&db_, engine::NetOptions{});
    REDO_RETURN_IF_ERROR(Annotate("server start", server_->Start()));
    spec.db = nullptr;
    spec.port = server_->port();
  }
  const PageRange all{0, options_.workload.num_pages};
  for (size_t w = 0; w < options_.sessions; ++w) {
    spec.pages = IsPartitioned(options_) ? all.Part(w, options_.sessions) : all;
    spec.seed = seed_ + w * 131;
    clients_.push_back(std::make_unique<ClosedLoopClient>(spec));
  }
  return Status::Ok();
}

Status Sim::Run() {
  REDO_RETURN_IF_ERROR(Setup());
  for (size_t cycle = 0; cycle < options_.cycles; ++cycle) {
    tracer_.Clear();
    obs::FlightRecorder::Global().Reset();
    cycle_start_ = db_.metrics().TakeSnapshot();
    REDO_RETURN_IF_ERROR(serial_ ? SerialSegment()
                                 : Round(/*freeze=*/true, 3000));
    REDO_RETURN_IF_ERROR(CrashNow());
    if (serial_) REDO_RETURN_IF_ERROR(PreRecoveryChecks(cycle));
    REDO_RETURN_IF_ERROR(Recover());
    REDO_RETURN_IF_ERROR(CheckModel(cycle));
    if (serial_) {
      REDO_RETURN_IF_ERROR(BackupAndTruncate(cycle));
      trace_->BeginEpoch(db_.disk(), db_.log().last_lsn() + 1);
    }
    ++result_.cycles;
  }
  if (server_ == nullptr) return Status::Ok();
  // The last oracle over TCP: a client reads back, over the wire, every
  // slot the workers' op mix writes, to compare with the verified model.
  REDO_RETURN_IF_ERROR(Serve());
  return Annotate("read-back over the wire",
                  clients_[0]
                      ->ReadBack(PageRange{0, db_.num_pages()}, journal_, {})
                      .status());
}

// ---- Load ----

Status Sim::SerialSegment() {
  // One serial session (no BeginConcurrent, so no commit pipeline)
  // drives every update through Dispatch; it must be gone before
  // recovery runs.
  MiniDb::Session session = db_.NewSession();
  for (size_t step = 0; step < options_.ops_per_session; ++step) {
    const Action action = workload_->Next();
    ++result_.ops;
    if (injector_.has_value()) {
      Status fetched = Status::Ok();
      switch (action.kind) {
        case Action::Kind::kSlotWrite:
        case Action::Kind::kBlindFormat:
          fetched = TolerantFetch(action.page);
          break;
        case Action::Kind::kSplit:
        case Action::Kind::kTransfer:
          fetched = TolerantFetch(action.split_src);
          if (fetched.ok()) fetched = TolerantFetch(action.split_dst);
          break;
        default:
          break;  // flush/checkpoint/force absorb faults themselves
      }
      REDO_RETURN_IF_ERROR(Annotate("prefetch", fetched));
    }
    switch (action.kind) {
      case Action::Kind::kSlotWrite:
      case Action::Kind::kBlindFormat: {
        const Command command = engine::MakeApplyCommand(
            action.kind == Action::Kind::kSlotWrite
                ? engine::MakeSlotWrite(action.page, action.slot, action.value)
                : engine::MakeBlindFormat(action.page, action.value));
        const Reply reply = engine::Dispatch(session, command);
        REDO_RETURN_IF_ERROR(Annotate("apply", engine::ReplyStatus(reply)));
        JournalReply(command, reply, /*txn_id=*/0, &journal_);
        break;
      }
      case Action::Kind::kSplit:
      case Action::Kind::kTransfer: {
        const Command command = engine::MakeSplitCommand(
            action.kind == Action::Kind::kSplit
                ? engine::SplitOp{engine::SplitTransform::kSlotHalf,
                                  action.split_src, action.split_dst}
                : engine::MakeSlotTransfer(action.split_src, action.slot,
                                           action.split_dst, action.slot2));
        // A split appends its log record up front and may cascade
        // flushes mid-action; a fault there would leave the log
        // claiming an update the engine never made. Model the
        // protected path real engines use for structural changes
        // (double-write buffer / mirror): repair lost writes so no
        // write-order constraint is stuck unsatisfiable, and suspend
        // injection for the action's duration.
        if (injector_.has_value()) {
          injector_->HealTornPages(&db_.disk());
          injector_->set_paused(true);
        }
        const Reply reply = engine::Dispatch(session, command);
        if (injector_.has_value()) injector_->set_paused(false);
        REDO_RETURN_IF_ERROR(Annotate("split", engine::ReplyStatus(reply)));
        JournalReply(command, reply, /*txn_id=*/0, &journal_);
        break;
      }
      case Action::Kind::kFlushPage:
        REDO_RETURN_IF_ERROR(TolerantIo(
            "flush", [&] { return db_.MaybeFlushPage(action.page); }));
        break;
      case Action::Kind::kCheckpoint:
        REDO_RETURN_IF_ERROR(
            TolerantIo("checkpoint", [&] { return db_.Checkpoint(); }));
        break;
      case Action::Kind::kForceLog: {
        const core::Lsn last = db_.log().last_lsn();
        if (last > 0) {
          REDO_RETURN_IF_ERROR(
              Annotate("force", db_.log().Force(1 + rng_.Below(last))));
        }
        break;
      }
    }
  }
  return Status::Ok();
}

/// Opens the engine for a round of traffic: concurrent mode (a
/// quiescing Recover() leaves it) and, over TCP, the command gate.
Status Sim::Serve() {
  if (!db_.concurrent()) {
    REDO_RETURN_IF_ERROR(Annotate("BeginConcurrent", db_.BeginConcurrent()));
  }
  if (server_ != nullptr) server_->EnableCommands();
  return Status::Ok();
}

/// One round of worker traffic. With `freeze` the crash boundary lands
/// at an arbitrary moment and the workers drain out with refused
/// commits and dropped connections; without it every worker finishes
/// and commits (the serving-while-redoing load).
Status Sim::Round(bool freeze, uint64_t sleep_hi_us) {
  REDO_RETURN_IF_ERROR(Serve());
  auto committed = [this] {
    size_t commits = 0;
    for (const auto& client : clients_) commits += client->commits();
    return commits;
  };
  const size_t commits_before = committed();
  std::atomic<size_t> done{0};
  std::vector<char> cut(clients_.size(), 0);
  std::vector<std::thread> workers;
  for (size_t w = 0; w < clients_.size(); ++w) {
    workers.emplace_back([this, w, &done, &cut] {
      cut[w] = clients_[w]->RunBatches(options_.ops_per_session,
                                       Clock::time_point::max());
      done.fetch_add(1);
    });
  }
  std::thread checkpointer;
  if (freeze && options_.checkpoints_per_cycle > 0) {
    checkpointer = std::thread([this] {
      for (size_t i = 0; i < options_.checkpoints_per_cycle; ++i) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (!db_.Checkpoint().ok()) return;  // frozen mid-checkpoint
        ++result_.checkpoints_taken;  // read once the round joined
      }
    });
  }
  Status boundary = Status::Ok();
  if (freeze) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(200 + rng_.Below(sleep_hi_us)));
    // Never crash a round that acknowledged nothing: a starved
    // scheduler (or sanitizer slowdown) can reach the boundary before
    // any worker commits, and such a cycle proves nothing. Hold the
    // boundary — bounded, so a wedged engine still fails the run —
    // until a commit lands or every worker is done.
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (committed() == commits_before && done.load() < clients_.size() &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    // The crash boundary: commits freeze and, over TCP, the server
    // refuses commands and drops every connection mid-pipeline.
    db_.FreezeCommits();
    if (server_ != nullptr) {
      server_->DisableCommands();
      boundary = Annotate("DisconnectAll", server_->DisconnectAll());
    }
  }
  for (std::thread& t : workers) t.join();
  if (checkpointer.joinable()) checkpointer.join();
  // Take what every worker learned; a Session must be gone before the
  // engine recovers.
  std::string failure;
  for (size_t w = 0; w < clients_.size(); ++w) {
    clients_[w]->Close();
    Ledger ledger = clients_[w]->TakeLedger();
    std::ranges::move(ledger.journal, std::back_inserter(journal_));
    acked_.insert(acked_.end(), ledger.acked.begin(), ledger.acked.end());
    acked_txns_.insert(acked_txns_.end(), ledger.acked_txns.begin(),
                       ledger.acked_txns.end());
    if (ledger.cut_off.has_value()) {
      cut_off_.push_back(std::move(*ledger.cut_off));
    }
    if (failure.empty()) failure = ledger.failure;
    if (failure.empty() && cut[w] && !freeze) {
      failure = "a worker was cut off outside any crash boundary";
    }
  }
  REDO_RETURN_IF_ERROR(boundary);
  return failure.empty() ? Status::Ok() : Status::Corruption(failure);
}

// ---- The crash ----

/// Maybe tears the in-flight force, crashes, and salvages the torn tail
/// the way recovery's first step would, so every check agrees on which
/// records survived — then judges the durability promises against it.
Status Sim::CrashNow() {
  // A random prefix of the unacknowledged volatile records (possibly
  // cutting one in half) reaches stable storage as a torn tail.
  if (options_.tear_log_tail && rng_.Chance(kTornTailProbability)) {
    const size_t pending = db_.log().PendingForceBytes();
    if (pending > 0) db_.log().TearInFlightForce(1 + rng_.Below(pending));
  }
  db_.Crash();
  // Complete unacknowledged records count as survivors (stable_lsn may
  // rise); a partial record is truncated.
  const wal::SalvageResult salvage = db_.log().SalvageTornTail();
  if (salvage.torn) {
    ++result_.torn_tails;
    result_.torn_tail_bytes_dropped += salvage.dropped_bytes;
  }
  result_.salvaged_records += salvage.salvaged_records;
  const core::Lsn stable = db_.log().stable_lsn();

  // No acknowledged commit may be lost: an ack means the committer's
  // force covered the LSN, so salvage must keep it.
  for (core::Lsn lsn : acked_) {
    if (lsn > stable) ++result_.lost_acked_commits;
  }
  if (result_.lost_acked_commits > 0) {
    return Status::Corruption(
        "lost acked commits: stable_lsn " + std::to_string(stable) +
        " below " + std::to_string(result_.lost_acked_commits) +
        " acknowledged commit LSN(s)");
  }
  // Entries above the stable LSN died with the crash, and the log
  // reuses lost LSNs: prune them NOW, before later records collide.
  DropUnstable(&journal_, stable);
  for (InDoubt& doubt : cut_off_) {
    doubt.boundary = stable;
    in_doubt_.push_back(std::move(doubt));
  }
  cut_off_.clear();
  return options_.txn_mode ? KeepWinners() : Status::Ok();
}

/// The atomicity oracle. Winners = every
/// transaction with a stable kTxnCommit, read straight off the log (ids
/// are monotone and never reused across cycles, so one scan of the
/// whole stable log is right). Every ACKNOWLEDGED commit must be a
/// winner, and the journal keeps winners only, so the model replay
/// asserts that no loser write is visible anywhere.
Status Sim::KeepWinners() {
  Result<std::vector<wal::LogRecord>> records = db_.log().StableRecords(1);
  if (!records.ok()) return Annotate("stable scan", records.status());
  std::set<uint64_t> winners;
  for (const wal::LogRecord& record : records.value()) {
    if (record.type != wal::RecordType::kTxnCommit) continue;
    Result<uint64_t> id = engine::DecodeTxnMeta(record.payload);
    if (!id.ok()) return Annotate("bad commit record", id.status());
    winners.insert(id.value());
  }
  for (uint64_t txn : acked_txns_) {
    result_.atomicity_violations += winners.count(txn) == 0 ? 1 : 0;
  }
  if (result_.atomicity_violations > 0) {
    return Status::Corruption(
        "atomicity: " + std::to_string(result_.atomicity_violations) +
        " acknowledged transaction(s) have no stable commit record");
  }
  std::erase_if(journal_, [&winners](const JournalEntry& e) {
    return e.txn_id != 0 && winners.count(e.txn_id) == 0;
  });
  return Status::Ok();
}

Status Sim::PreRecoveryChecks(size_t cycle) {
  if (injector_.has_value()) REDO_RETURN_IF_ERROR(Scrub("post-crash"));
  bool degraded = false;
  REDO_RETURN_IF_ERROR(LogMediaLadder(&degraded));
  if (degraded) return Status::Ok();
  // The invariant against the formal model. Skipped on degraded
  // cycles: its premise — a readable log — is exactly what failed.
  const CheckResult check = CheckCrashState(db_, *trace_);
  ++result_.checker_runs;
  result_.stable_ops_at_crashes += check.stable_ops;
  if (!check.ok) {
    return Status::Corruption("invariant checker at crash " +
                              std::to_string(cycle) + ": " + check.ToString());
  }
  REDO_RETURN_IF_ERROR(RecoveryCrashes());
  return Equivalence(cycle);
}

/// Log-media faults + the degradation ladder. The restart discovers
/// body damage to the stable log. A scrub repairs whatever has an
/// intact twin (rung 1). If a hole remains the cycle is *degraded*:
/// descend the ladder; the model oracle still judges the outcome.
Status Sim::LogMediaLadder(bool* degraded) {
  if (!log_injector_.has_value()) return Status::Ok();
  result_.log_faults_injected += log_injector_->InjectAtCrash(db_.log());
  const wal::ScrubReport scrub = db_.log().Scrub();
  result_.log_scrub_repairs += scrub.repairs + scrub.archive_repairs;
  if (scrub.clean()) {
    if (scrub.repairs + scrub.archive_repairs > 0) {
      ++result_.ladder_mirror_cycles;
    }
    return Status::Ok();
  }
  *degraded = true;
  // Media recovery rewrites every stable page from the backup; run it
  // on the quiesced mirror path, like a split.
  injector_->HealAll(&db_.disk());
  injector_->set_paused(true);
  const engine::LadderReport ladder = engine::RecoverWithDegradation(
      db_, backup_.has_value() ? &*backup_ : nullptr);
  injector_->set_paused(false);
  switch (ladder.rung) {
    case engine::LadderRung::kIntactLog:
    case engine::LadderRung::kMirrorRepair:
      return Status::Corruption(
          "ladder resolved a holed log at rung " +
          std::string(engine::LadderRungName(ladder.rung)) +
          " — scrub and ladder disagree");
    case engine::LadderRung::kMediaRecovery:
      REDO_RETURN_IF_ERROR(Annotate("rung-2 media recovery", ladder.status));
      ++result_.ladder_media_cycles;
      return Status::Ok();
    case engine::LadderRung::kRefused:
      break;
  }
  // The refusal must be loud and precise...
  if (ladder.status.ok() || ladder.first_unreadable_lsn == 0 ||
      ladder.diagnosis.empty()) {
    return Status::Corruption("rung-3 refusal without a diagnosis: " +
                              ladder.ToString());
  }
  ++result_.ladder_refusals;
  // With no offsite restore available the refusal is terminal: the
  // database stays unrecovered, which for the simulator is the end of
  // the run. The failing-cycle timeline names the phase, method, rung,
  // and offending LSN.
  if (options_.no_offsite_restore) {
    return Status::Corruption(
        "unrecoverable: method=" + std::string(db_.method().name()) +
        " rung=" + engine::LadderRungName(ladder.rung) +
        " first_unreadable_lsn=" +
        std::to_string(ladder.first_unreadable_lsn) +
        " (no offsite restore available): " + ladder.diagnosis);
  }
  // ...and it must leave the database unrecovered rather than
  // guessed-at. Model the only sound remedy — an offsite restore of the
  // damaged segments. Recovery then runs ONCE on the still-cold crash
  // state: recovering here and again would replay the suffix twice onto
  // a warm cache, which the logical method (no page-LSN redo test) does
  // not tolerate — splits are not idempotent.
  log_injector_->HealAll(db_.log());
  if (db_.log().FirstHoleLsn() != 0) {
    return Status::Corruption("offsite restore left the log holed");
  }
  return Status::Ok();
}

/// Crashes during recovery: recover, install an arbitrary subset of the
/// redone pages, and crash again — recovery must be idempotent and
/// every intermediate state must still satisfy the invariant.
Status Sim::RecoveryCrashes() {
  for (size_t rc = 0; rc < options_.recovery_crashes; ++rc) {
    const std::string round = "recovery crash round " + std::to_string(rc);
    REDO_RETURN_IF_ERROR(Annotate(round, RecoverRetrying(false)));
    for (PageId p = 0; p < db_.num_pages(); ++p) {
      if (rng_.Chance(0.3)) {
        REDO_RETURN_IF_ERROR(TolerantIo(
            "mid-recovery flush", [&] { return db_.MaybeFlushPage(p); }));
      }
    }
    db_.Crash();
    if (injector_.has_value()) {
      REDO_RETURN_IF_ERROR(Scrub("recovery re-crash"));
    }
    const CheckResult recheck = CheckCrashState(db_, *trace_);
    ++result_.checker_runs;
    if (!recheck.ok) {
      return Status::Corruption("invariant checker after " + round + ": " +
                                recheck.ToString());
    }
  }
  return Status::Ok();
}

/// Serial vs. parallel redo equivalence: recover this cycle's crash
/// state once serially and once per configured worker count, restoring
/// the crash state between runs, and require identical *effective*
/// state (cache-else-disk bytes and page LSNs) plus identical verdict
/// multisets. Runs with injection paused: the oracle compares
/// scheduling, not fault luck.
Status Sim::Equivalence(size_t cycle) {
  if (options_.equivalence_workers.empty()) return Status::Ok();
  if (injector_.has_value()) {
    injector_->HealAll(&db_.disk());
    injector_->set_paused(true);
  }
  std::vector<Page> crash_disk;
  for (PageId p = 0; p < db_.num_pages(); ++p) {
    crash_disk.push_back(db_.disk().PeekPage(p));
  }
  struct Fingerprint {
    Status status = Status::Ok();
    std::vector<std::pair<uint64_t, core::Lsn>> pages;  ///< hash, LSN
    std::vector<std::string> verdicts;                  ///< sorted
  };
  auto fingerprint = [&](size_t workers) {
    Fingerprint fp;
    // A scratch tracer (no registry: the cycle's "recovery" source
    // stays singly registered) so oracle runs don't pollute the cycle
    // timeline; options are restored to serial afterwards.
    obs::RecoveryTracer scratch;
    const engine::Instrumentation main_instr = db_.instrumentation();
    const engine::EngineOptions main_options = db_.engine_options();
    db_.Attach(engine::Instrumentation{main_instr.trace, &scratch});
    engine::EngineOptions oracle_options = main_options;
    oracle_options.parallel_workers = workers;
    db_.set_engine_options(oracle_options);
    fp.status = db_.Recover();
    db_.set_engine_options(main_options);
    db_.Attach(main_instr);
    if (fp.status.ok()) {
      for (PageId p = 0; p < db_.num_pages(); ++p) {
        const Page* cached = db_.pool().PeekCached(p);
        const Page& effective =
            cached != nullptr ? *cached : db_.disk().PeekPage(p);
        fp.pages.emplace_back(effective.ContentHash(), effective.lsn());
      }
      for (const obs::TraceEvent& event : scratch.events()) {
        if (event.event != "redo-verdict") continue;
        std::ostringstream v;
        for (const auto& [key, value] : event.numbers) {
          v << key << "=" << value << " ";
        }
        for (const auto& [key, value] : event.strings) {
          v << key << "=" << value << " ";
        }
        fp.verdicts.push_back(v.str());
      }
      std::sort(fp.verdicts.begin(), fp.verdicts.end());
    }
    // Put the crash state back for the next run.
    db_.Crash();
    for (PageId p = 0; p < db_.num_pages(); ++p) {
      db_.disk().RepairPage(p, crash_disk[p]);
    }
    return fp;
  };
  const Fingerprint serial = fingerprint(1);
  REDO_RETURN_IF_ERROR(
      Annotate("equivalence oracle: serial recover", serial.status));
  const std::string at = " at crash " + std::to_string(cycle);
  for (size_t workers : options_.equivalence_workers) {
    const Fingerprint parallel = fingerprint(workers);
    ++result_.equivalence_checks;
    const std::string who = std::to_string(workers) + "-worker redo";
    std::string divergence;
    if (!parallel.status.ok()) {
      divergence = who + " failed: " + parallel.status.ToString();
    } else if (parallel.pages != serial.pages) {
      divergence = who + " diverges from serial on the recovered pages" + at;
    } else if (parallel.verdicts != serial.verdicts) {
      divergence = who + " verdict multiset differs from serial" + at;
    }
    if (!divergence.empty()) {
      ++result_.equivalence_divergences;
      return Status::Corruption("equivalence oracle: " + divergence);
    }
  }
  if (injector_.has_value()) injector_->set_paused(false);
  return Status::Ok();
}

// ---- Recovery ----

Status Sim::Recover() {
  if (serial_) {
    // On rung-2 cycles the ladder already recovered and re-anchored
    // with a fresh checkpoint; this recovery is then a rehearsal no-op
    // (nothing after the checkpoint), itself worth exercising. On rung-3
    // cycles it is the first (and only) recovery after the offsite
    // restore, running on the cold crash state.
    REDO_RETURN_IF_ERROR(Annotate("recover", RecoverRetrying(false)));
    REDO_RETURN_IF_ERROR(TolerantIo("post-recovery flush",
                                    [&] { return db_.FlushEverything(); }));
    REDO_RETURN_IF_ERROR(TolerantIo("post-recovery checkpoint",
                                    [&] { return db_.Checkpoint(); }));
    // The flush wave above ran with injection live; repair what it tore
    // before holding the state against the oracle.
    return injector_.has_value() ? Scrub("post-recovery") : Status::Ok();
  }
  if (!options_.instant_restart) {
    return Annotate("recover", RecoverRetrying(false));
  }
  // Recover while serving; a double crash strikes mid-recovery and the
  // whole dance restarts from the new salvage point.
  for (bool first = true;; first = false) {
    REDO_RETURN_IF_ERROR(Annotate("instant recover", RecoverRetrying(true)));
    ++result_.instant_restarts;
    if (!first || rng_.Below(100) >= options_.double_crash_percent) break;
    ++result_.double_crashes;
    if (rng_.Below(2) == 1) {
      // Crash mid-drain with workers in flight (else: before any
      // traffic touches a page).
      REDO_RETURN_IF_ERROR(Round(/*freeze=*/true, 1200));
    }
    REDO_RETURN_IF_ERROR(CrashNow());
  }
  // Recover-while-loading: a full round against the serving engine,
  // racing the background drain, with no freeze — every commit must ack.
  REDO_RETURN_IF_ERROR(Round(/*freeze=*/false, 0));
  return Annotate("WaitUntilRecovered", db_.WaitUntilRecovered());
}

/// Recovers, repeating the attempt when it is interrupted. An injected
/// undo re-crash dies Unavailable after K CLRs: crash and recover again
/// until the CLRs' undo_next chains converge. Serially, a sticky read or
/// torn page mid-recovery models failing over to the mirror: heal
/// everything, pause injection, crash the partial recovery (recovery is
/// idempotent), and recover again.
Status Sim::RecoverRetrying(bool instant) {
  auto recover = [&] { return instant ? db_.RecoverInstant() : db_.Recover(); };
  const bool heal = serial_ && injector_.has_value();
  Status status = recover();
  for (size_t heals = 0, recrashes = 0; !status.ok();) {
    if (options_.undo_crash_after_clrs > 0 &&
        status.code() == StatusCode::kUnavailable) {
      if (++recrashes > 500) {
        return Status::Corruption(
            "undo re-crash loop did not converge after 500 attempts");
      }
      ++result_.undo_recrashes;
    } else if (heal && heals++ < 3) {
      ++result_.faults_detected;
      ++result_.recovery_retries;
      injector_->set_paused(true);
      injector_->HealAll(&db_.disk());
    } else {
      break;
    }
    db_.Crash();
    status = recover();
  }
  if (heal) injector_->set_paused(false);
  return status;
}

// ---- Oracles ----

Status Sim::CheckModel(size_t cycle) {
  std::vector<Page> recovered;
  for (PageId p = 0; p < db_.num_pages(); ++p) {
    // Serially the oracle holds the flushed disk itself; concurrently
    // the effective cache-else-disk state.
    const Page* cached = serial_ ? nullptr : db_.pool().PeekCached(p);
    recovered.push_back(cached != nullptr ? *cached : db_.disk().PeekPage(p));
  }
  Result<std::vector<size_t>> matched = MatchRecovered(
      journal_, in_doubt_, recovered,
      serial_ ? PageCompare::kPayloadAndLsn : PageCompare::kPayload);
  if (!matched.ok()) {
    if (serial_ && matched.status().code() == StatusCode::kCorruption) {
      // Every page passed scrub, so this mismatch wears a VALID write
      // checksum — the definition of silent corruption: wrong bytes
      // that nothing flags as wrong.
      ++result_.silent_corruptions;
      return Status::Corruption("SILENT CORRUPTION at crash " +
                                std::to_string(cycle) + ": " +
                                matched.status().message() +
                                ", yet verifies clean");
    }
    return Annotate("model replay at cycle " + std::to_string(cycle),
                    matched.status());
  }
  result_.pages_verified += db_.num_pages();
  KeepSurvivors(matched.value(), &in_doubt_, &journal_);
  return Status::Ok();
}

/// The state was just oracle-verified, so a backup now is known-good —
/// exactly what rung 2 may anchor on. Taken on the quiesced mirror path
/// (a backup of a torn page would poison every later media recovery),
/// and before the epoch reset so the backup's checkpoint record stays
/// below the next epoch's first LSN.
Status Sim::BackupAndTruncate(size_t cycle) {
  if (!options_.disk_faults || options_.backup_interval == 0 ||
      (cycle + 1) % options_.backup_interval != 0) {
    return Status::Ok();
  }
  injector_->HealAll(&db_.disk());
  injector_->set_paused(true);
  Result<engine::Backup> taken = engine::TakeBackup(db_);
  injector_->set_paused(false);
  if (!taken.ok()) return Annotate("backup", taken.status());
  backup_ = std::move(taken).value();
  ++result_.backups_taken;
  if (options_.truncate_at_backup && options_.log_segment_bytes > 0) {
    db_.log().SealActiveSegment();
    return Annotate("truncate",
                    engine::TruncateLog(db_, backup_->backup_lsn).status());
  }
  return Status::Ok();
}

// ---- Serial fault plumbing ----

/// Verifies every stable page's write checksum and heals the damage,
/// the way a scrub pass over a mirrored pair would. A page that fails
/// verification with no injected fault outstanding is real corruption.
/// Runs before every invariant check and oracle compare: both inspect
/// raw stable bytes and must see the post-repair state.
Status Sim::Scrub(const char* where) {
  for (PageId p = 0; p < db_.num_pages(); ++p) {
    const Status verify = db_.disk().VerifyPage(p);
    if (verify.ok()) {
      // No damage; still clear any sticky read error (sector remap).
      injector_->HealPage(&db_.disk(), p);
      continue;
    }
    ++result_.faults_detected;
    if (!injector_->HealPage(&db_.disk(), p)) {
      return Status::Corruption(
          "scrub (" + std::string(where) + "): page " + std::to_string(p) +
          " failed verification with no injected fault outstanding: " +
          verify.ToString());
    }
  }
  return Status::Ok();
}

/// Caches a page before an action touches it, healing injected faults
/// (sticky read errors, torn pages caught by checksum) on the way. This
/// keeps disk faults from firing *inside* an action after its log
/// record is appended — the generalized method logs before it fetches —
/// which would leave the log claiming an update the engine never made.
/// Healing repairs ALL outstanding faults, not just this page's: the
/// fetch may have failed evicting some other frame (e.g. a torn write
/// left a write-order constraint unsatisfiable).
Status Sim::TolerantFetch(PageId page) {
  Status last = Status::Ok();
  for (int attempt = 0; attempt < 8; ++attempt) {
    Result<Page*> fetched = db_.FetchPage(page);
    if (fetched.ok()) {
      last = Status::Ok();
      break;
    }
    last = fetched.status();
    ++result_.faults_detected;
    if (attempt >= 2) injector_->set_paused(true);
    if (injector_->HealAll(&db_.disk()) == 0 && attempt >= 3) break;
  }
  injector_->set_paused(false);
  return last;
}

/// Runs a flush-like engine call (checkpoint, targeted flush) that may
/// trip over injected faults — a write-error burst surfacing through a
/// path without its own retries (the logical method checkpoints with
/// direct disk writes), or a torn write that left a write-order
/// constraint unsatisfiable until the page heals. These calls are
/// idempotent, so the remedy is heal-and-rerun.
Status Sim::TolerantIo(const char* what, const std::function<Status()>& fn) {
  Status status = fn();
  for (int attempt = 0; !status.ok() && injector_.has_value() && attempt < 4;
       ++attempt) {
    ++result_.faults_detected;
    if (attempt >= 2) injector_->set_paused(true);
    injector_->HealAll(&db_.disk());
    status = fn();
  }
  if (injector_.has_value()) injector_->set_paused(false);
  return Annotate(what, status);
}

void Sim::Finish(const Status& status) {
  SimResult& r = result_;
  for (const auto& client : clients_) {
    static_cast<ClientStats&>(r) += client->stats();
  }
  if (injector_.has_value()) {
    const storage::FaultInjectorStats& fs = injector_->stats();
    r.faults_injected = fs.torn_writes + fs.write_bursts + fs.sticky_pages;
    r.pages_healed = fs.pages_healed;
  }
  r.segments_sealed = db_.log().stats().segments_sealed;
  r.segments_truncated = db_.log().stats().segments_truncated;
  r.group_commits = db_.log().stats().group_commits;
  r.group_batches = db_.log().stats().group_batches;
  r.losers_undone = static_cast<size_t>(
      db_.txn_undo_metrics().losers.load(std::memory_order_relaxed));
  r.redo_applied = tracer_.total_verdicts().applied;
  r.redo_skipped_installed = tracer_.total_verdicts().skipped_installed;
  r.redo_not_exposed = tracer_.total_verdicts().not_exposed;
  r.last_cycle_metrics_text =
      db_.metrics().TakeSnapshot().Delta(cycle_start_).ToText();
  r.ok = status.ok();
  if (r.ok) return;
  r.failure = status.ToString();
  // The crash hook: the failing cycle's timeline and flight-recorder
  // trace, dumped by crash_torture as post-mortem artifacts.
  r.failing_timeline_jsonl = tracer_.ToJsonl(/*include_timing=*/true);
  r.failing_flight_trace_json =
      obs::ToChromeTraceJson(obs::FlightRecorder::Global().Drain());
}

/// Every SimResult counter, in report order: one list for ToString and
/// the aggregate.
constexpr std::pair<const char*, size_t SimResult::*> kCounters[] = {
    {"cycles", &SimResult::cycles},
    {"ops", &SimResult::ops},
    {"pages_verified", &SimResult::pages_verified},
    {"torn_tails", &SimResult::torn_tails},
    {"tail_bytes_dropped", &SimResult::torn_tail_bytes_dropped},
    {"salvaged_records", &SimResult::salvaged_records},
    {"faults_injected", &SimResult::faults_injected},
    {"redo_applied", &SimResult::redo_applied},
    {"redo_skipped_installed", &SimResult::redo_skipped_installed},
    {"redo_not_exposed", &SimResult::redo_not_exposed},
    {"checker_runs", &SimResult::checker_runs},
    {"stable_ops", &SimResult::stable_ops_at_crashes},
    {"faults_detected", &SimResult::faults_detected},
    {"pages_healed", &SimResult::pages_healed},
    {"recovery_retries", &SimResult::recovery_retries},
    {"silent_corruptions", &SimResult::silent_corruptions},
    {"log_faults_injected", &SimResult::log_faults_injected},
    {"log_scrub_repairs", &SimResult::log_scrub_repairs},
    {"rung1_cycles", &SimResult::ladder_mirror_cycles},
    {"rung2_cycles", &SimResult::ladder_media_cycles},
    {"rung3_refusals", &SimResult::ladder_refusals},
    {"backups", &SimResult::backups_taken},
    {"segments_sealed", &SimResult::segments_sealed},
    {"segments_truncated", &SimResult::segments_truncated},
    {"equivalence_checks", &SimResult::equivalence_checks},
    {"equivalence_divergences", &SimResult::equivalence_divergences},
    {"splits", &SimResult::splits},
    {"commits_acked", &SimResult::commits_acked},
    {"refused", &SimResult::refused},
    {"lost_acked_commits", &SimResult::lost_acked_commits},
    {"checkpoints", &SimResult::checkpoints_taken},
    {"group_commits", &SimResult::group_commits},
    {"group_batches", &SimResult::group_batches},
    {"instant_restarts", &SimResult::instant_restarts},
    {"double_crashes", &SimResult::double_crashes},
    {"txns_committed", &SimResult::txns_committed},
    {"txns_aborted", &SimResult::txns_aborted},
    {"losers_undone", &SimResult::losers_undone},
    {"undo_recrashes", &SimResult::undo_recrashes},
    {"atomicity_violations", &SimResult::atomicity_violations},
    {"reconnects", &SimResult::reconnects},
    {"reconnects_during_serving", &SimResult::reconnects_during_serving},
    {"in_doubt", &SimResult::in_doubt},
    {"slots_verified", &SimResult::slots_verified},
};

}  // namespace

std::string SimResult::ToString() const {
  std::ostringstream out;
  out << (ok ? std::string("OK") : "FAILED: " + failure) << ";";
  for (const auto& [name, field] : kCounters) {
    if (this->*field != 0) out << " " << name << "=" << this->*field;
  }
  return out.str();
}

SimResult& SimResult::operator+=(const SimResult& other) {
  for (const auto& [name, field] : kCounters) this->*field += other.*field;
  if (!other.ok) {
    if (failure.empty()) failure = other.failure;
    failing_timeline_jsonl = other.failing_timeline_jsonl;
    failing_flight_trace_json = other.failing_flight_trace_json;
    last_cycle_metrics_text = other.last_cycle_metrics_text;
  }
  ok = ok && other.ok;
  return *this;
}

Status ValidateSimOptions(const SimOptions& o) {
  auto refuse = [](const std::string& why) {
    return Status::InvalidArgument("sim options: " + why);
  };
  if (o.sessions == 0) return refuse("sessions must be >= 1");
  if (o.cycles == 0) return refuse("zero crash cycles check nothing");
  if (o.commit_every == 0) return refuse("commit_every must be >= 1");
  if (IsPartitioned(o) && o.workload.num_pages < o.sessions) {
    return refuse("fewer pages than workers' partitions");
  }
  if (IsSerial(o) &&
      (o.instant_restart || o.txn_mode || o.double_crash_percent > 0 ||
       o.undo_crash_after_clrs > 0 || o.parallel_redo_workers > 1)) {
    return refuse(
        "instant restart, transactions, double crashes, undo re-crashes and "
        "parallel redo run on the concurrent engine (more than one session, "
        "or TCP)");
  }
  if (!IsSerial(o) &&
      (o.recovery_crashes > 0 || !o.equivalence_workers.empty() ||
       o.log_segment_bytes > 0 || o.no_offsite_restore)) {
    return refuse(
        "recovery crashes, the equivalence oracle and log-media faults run "
        "on the serial engine (one in-process session)");
  }
  if (o.double_crash_percent > 0 && !o.instant_restart) {
    return refuse("double crashes strike during instant restart");
  }
  if (o.parallel_redo_workers > 1 && o.instant_restart) {
    return refuse(
        "instant restart drains with instant_drain_workers, not "
        "parallel_redo_workers");
  }
  if (o.undo_crash_after_clrs > 0 && !o.txn_mode) {
    return refuse("undo re-crashes need transactions to undo");
  }
  return Status::Ok();
}

SimResult RunSim(methods::MethodKind method, const SimOptions& options,
                 uint64_t seed) {
  SimResult result;
  const Status valid = ValidateSimOptions(options);
  if (!valid.ok()) {
    result.failure = valid.ToString();
    return result;
  }
  Sim sim(method, options, seed, &result);
  sim.Finish(sim.Run());
  return result;
}

}  // namespace redo::checker
