#include "checker/concurrent_sim.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "checker/model_replay.h"
#include "engine/command.h"
#include "engine/minidb.h"
#include "engine/ops.h"
#include "engine/txn.h"
#include "obs/flight_recorder.h"
#include "storage/fault_injector.h"
#include "util/rng.h"

namespace redo::checker {
namespace {

using engine::MiniDb;
using engine::SplitOp;
using storage::Page;
using storage::PageId;

/// Shared run state: the journal and the acked-commit set, written by
/// worker threads under a mutex, read only after every thread joined.
struct RunState {
  std::mutex mu;
  std::vector<JournalEntry> journal;
  std::vector<core::Lsn> acked;
  /// Txn mode: ids of transactions whose Commit() was ACKNOWLEDGED.
  /// The atomicity oracle demands every one of them be a winner.
  std::vector<uint64_t> acked_txns;
  std::string first_failure;  // empty = none

  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    if (first_failure.empty()) first_failure = what;
  }

  void Journal(std::vector<JournalEntry>* logged) {
    std::lock_guard<std::mutex> lock(mu);
    for (JournalEntry& e : *logged) journal.push_back(std::move(e));
    logged->clear();
  }
};

/// One cycle's counters, bumped by every worker thread.
struct CycleCounters {
  std::atomic<size_t> ops_applied{0}, splits_applied{0};
  std::atomic<size_t> commits_acked{0}, commits_refused{0};
  std::atomic<size_t> checkpoints{0};
  std::atomic<size_t> txns_committed{0}, txns_aborted{0};
};

/// The pages a worker writes: [base, base + span).
struct PageRange {
  PageId base = 0;
  size_t span = 0;

  PageId Pick(Rng& rng) const {
    return base + static_cast<PageId>(rng.Below(span));
  }
};

/// Issues one random operation on `pages` through the command layer —
/// the same funnel the wire path uses — and journals what it logged
/// into `logged`, tagged with `txn_id`: a split or slot transfer
/// (split_percent), else a blind format (3%) or a slot write. Half the
/// writes land in the upper slot half, so kSlotHalf splits move live
/// data, not just zeros.
Status IssueRandomOp(MiniDb::Session& session, Rng& rng,
                     const ConcurrentSimOptions& options, PageRange pages,
                     uint64_t txn_id, std::vector<JournalEntry>* logged,
                     CycleCounters& counters) {
  engine::Command command;
  if (pages.span >= 2 && rng.Below(100) < options.split_percent) {
    SplitOp split;
    split.src = pages.Pick(rng);
    split.dst = pages.base + static_cast<PageId>(
                                 (split.src - pages.base + 1 +
                                  rng.Below(pages.span - 1)) %
                                 pages.span);
    if (rng.Below(2) == 0) {
      split = engine::MakeSlotTransfer(
          split.src, static_cast<uint32_t>(rng.Below(8)), split.dst,
          static_cast<uint32_t>(rng.Below(8)));
    }
    command = engine::MakeSplitCommand(split);
  } else {
    command = engine::MakeApplyCommand(
        rng.Below(100) < 3
            ? engine::MakeBlindFormat(pages.Pick(rng),
                                      static_cast<int64_t>(rng.Below(1000)))
            : engine::MakeSlotWrite(
                  pages.Pick(rng),
                  static_cast<uint32_t>(rng.Below(2) == 0
                                            ? rng.Below(8)
                                            : Page::NumSlots() / 2 +
                                                  rng.Below(8)),
                  static_cast<int64_t>(rng.Below(100000))));
  }
  const engine::Reply reply =
      DispatchJournaled(session, command, txn_id, logged);
  if (!reply.ok()) {
    return Status(reply.code,
                  std::string(engine::CommandTypeName(command.type)) +
                      " failed: " + reply.message);
  }
  if (command.type == engine::CommandType::kSplit) {
    counters.splits_applied.fetch_add(1);
  }
  counters.ops_applied.fetch_add(1);
  return Status::Ok();
}

void WorkerLoop(MiniDb& db, RunState& state,
                const ConcurrentSimOptions& options, uint64_t seed,
                size_t worker, CycleCounters& counters) {
  Rng rng(seed * 0x9e3779b9ULL + worker * 131 + 17);
  MiniDb::Session session = db.NewSession();
  const PageRange pages{0, options.num_pages};
  size_t since_commit = 0;
  for (size_t i = 0; i < options.ops_per_session; ++i) {
    std::vector<JournalEntry> logged;
    const Status issued = IssueRandomOp(session, rng, options, pages,
                                        /*txn_id=*/0, &logged, counters);
    if (!issued.ok()) {
      state.Fail(issued.ToString());
      return;
    }
    state.Journal(&logged);

    ++since_commit;
    if (since_commit >= options.commit_every ||
        i + 1 == options.ops_per_session) {
      since_commit = 0;
      const core::Lsn commit_lsn = session.last_lsn();
      const engine::Reply acked =
          engine::Dispatch(session, engine::MakeCommitCommand());
      if (acked.ok()) {
        counters.commits_acked.fetch_add(1);
        std::lock_guard<std::mutex> lock(state.mu);
        state.acked.push_back(commit_lsn);
      } else if (acked.code == StatusCode::kUnavailable) {
        // The pipeline froze: the crash boundary. This commit carries
        // no durability promise; the worker's run is over.
        counters.commits_refused.fetch_add(1);
        return;
      } else {
        state.Fail("commit failed: " + engine::ReplyStatus(acked).ToString());
        return;
      }
    }
  }
}

/// Txn-mode worker: wraps every batch of commit_every operations in an
/// explicit transaction, aborting abort_percent of them. Each worker
/// owns a DISJOINT page partition — slot-level undo without locking
/// means two live transactions must never write the same page.
/// Journaling is fate-driven: committed batches enter the journal,
/// runtime-aborted ones are dropped (guaranteed losers), refused
/// commits enter tagged with their txn id so the post-crash winners
/// filter can decide.
void TxnWorkerLoop(MiniDb& db, RunState& state,
                   const ConcurrentSimOptions& options, uint64_t seed,
                   size_t worker, CycleCounters& counters) {
  Rng rng(seed * 0x9e3779b9ULL + worker * 131 + 17);
  MiniDb::Session session = db.NewSession();
  const size_t per = options.num_pages / options.sessions;
  const PageRange pages{static_cast<PageId>(worker * per), per};
  size_t i = 0;
  while (i < options.ops_per_session) {
    const engine::Reply begun =
        engine::Dispatch(session, engine::MakeBeginCommand());
    if (!begun.ok()) {
      state.Fail("begin failed: " + engine::ReplyStatus(begun).ToString());
      return;
    }
    const uint64_t txn_id = begun.txn_id;
    std::vector<JournalEntry> logged;
    const size_t batch_cap = options.commit_every == 0 ? 1 : options.commit_every;
    const size_t batch = std::min(batch_cap, options.ops_per_session - i);
    for (size_t b = 0; b < batch; ++b, ++i) {
      const Status issued = IssueRandomOp(session, rng, options, pages, txn_id,
                                          &logged, counters);
      if (!issued.ok()) {
        state.Fail("txn " + issued.ToString());
        return;
      }
    }
    if (rng.Below(100) < options.abort_percent) {
      const engine::Reply aborted =
          engine::Dispatch(session, engine::MakeAbortCommand());
      if (!aborted.ok()) {
        state.Fail("abort failed: " + engine::ReplyStatus(aborted).ToString());
        return;
      }
      counters.txns_aborted.fetch_add(1);
      continue;  // a runtime-aborted transaction never enters the journal
    }
    const engine::Reply acked =
        engine::Dispatch(session, engine::MakeCommitCommand());
    if (acked.ok()) {
      counters.commits_acked.fetch_add(1);
      counters.txns_committed.fetch_add(1);
      state.Journal(&logged);
      std::lock_guard<std::mutex> lock(state.mu);
      state.acked_txns.push_back(txn_id);
    } else if (acked.code == StatusCode::kUnavailable) {
      // The crash boundary hit mid-commit: the transaction's fate is the
      // log's to decide. Journal its writes — the winners filter keeps
      // them iff the commit record made it to stable storage.
      counters.commits_refused.fetch_add(1);
      state.Journal(&logged);
      return;
    } else {
      state.Fail("txn commit failed: " + engine::ReplyStatus(acked).ToString());
      return;
    }
  }
}

}  // namespace

std::string ConcurrentSimResult::ToString() const {
  std::ostringstream out;
  out << (ok ? "OK" : "FAIL") << " cycles=" << cycles
      << " ops=" << ops_applied << " splits=" << splits_applied
      << " acked=" << commits_acked << " refused=" << commits_refused
      << " lost_acked=" << lost_acked_commits
      << " checkpoints=" << checkpoints_taken << " torn_tails=" << torn_tails
      << " write_bursts=" << write_fault_bursts
      << " group_commits=" << group_commits
      << " group_batches=" << group_batches
      << " pages_verified=" << pages_verified
      << " instant_restarts=" << instant_restarts
      << " double_crashes=" << double_crashes;
  if (txns_committed + txns_aborted + losers_undone + undo_recrashes > 0) {
    out << " txns_committed=" << txns_committed
        << " txns_aborted=" << txns_aborted
        << " losers_undone=" << losers_undone
        << " undo_recrashes=" << undo_recrashes
        << " atomicity_violations=" << atomicity_violations;
  }
  if (!ok) out << " failure=\"" << failure << "\"";
  return out.str();
}

namespace {

ConcurrentSimResult RunConcurrentCrashSimImpl(
    methods::MethodKind method, const ConcurrentSimOptions& options,
    uint64_t seed) {
  ConcurrentSimResult result;
  if (options.txn_mode && options.num_pages < options.sessions) {
    result.failure = "txn mode needs num_pages >= sessions (disjoint "
                     "per-worker page partitions)";
    return result;
  }

  engine::MiniDbOptions db_options;
  db_options.num_pages = options.num_pages;
  db_options.cache_capacity = 0;  // concurrent mode requires unbounded
  db_options.engine.group_commit_window_us = options.group_commit_window_us;
  db_options.engine.group_commit_ring = options.group_commit_ring;
  db_options.engine.fuzzy_checkpoints = options.fuzzy_checkpoints;
  db_options.engine.instant_restart = options.instant_restart;
  db_options.engine.instant_drain_workers =
      options.instant_drain_workers == 0 ? 1 : options.instant_drain_workers;
  db_options.engine.undo_crash_after_clrs = options.undo_crash_after_clrs;
  db_options.engine.parallel_workers =
      options.parallel_redo_workers == 0 ? 1 : options.parallel_redo_workers;
  db_options.engine.async_io_workers = options.async_io_workers;
  MiniDb db(db_options,
            methods::MakeMethod(method, {options.num_pages}));

  storage::FaultInjectorOptions fault_options;
  if (options.disk_write_faults) {
    // Transient bursts only, strictly shorter than the pool's retry
    // budget: the faults must be absorbed, never surfaced or corrupting.
    fault_options.write_error_probability = 0.05;
    fault_options.max_write_error_burst =
        storage::BufferPool::kMaxFlushAttempts - 2;
  }
  storage::FaultInjector injector(fault_options, seed ^ 0xfau);
  if (options.disk_write_faults) db.disk().set_fault_injector(&injector);

  RunState state;
  Rng sim_rng(seed);

  for (size_t cycle = 0; cycle < options.cycles; ++cycle) {
    // Scope the flight recorder to this cycle so a failure dumps the
    // trace of the failing cycle alone.
    obs::FlightRecorder::Global().Reset();
    // Instant restart leaves the engine in concurrent mode after
    // WaitUntilRecovered, so only the first cycle enters it here.
    if (!db.concurrent()) {
      Status begun = db.BeginConcurrent();
      if (!begun.ok()) {
        result.failure = "BeginConcurrent: " + begun.ToString();
        return result;
      }
    }

    CycleCounters counters;

    // One round of session traffic. With freeze, the crash boundary
    // lands at an arbitrary moment and the workers drain out with
    // refused commits; without it every worker finishes and commits
    // (the serving-while-redoing load).
    auto run_worker_round = [&](bool freeze, uint64_t sleep_hi_us,
                                size_t round_salt) {
      std::vector<std::thread> workers;
      for (size_t w = 0; w < options.sessions; ++w) {
        workers.emplace_back([&, w] {
          const uint64_t worker_seed = seed + cycle * 7919 + round_salt;
          if (options.txn_mode) {
            TxnWorkerLoop(db, state, options, worker_seed, w, counters);
          } else {
            WorkerLoop(db, state, options, worker_seed, w, counters);
          }
        });
      }
      std::thread checkpointer;
      if (freeze && options.checkpoints_per_cycle > 0) {
        checkpointer = std::thread([&] {
          for (size_t i = 0; i < options.checkpoints_per_cycle; ++i) {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            if (!db.Checkpoint().ok()) return;  // frozen mid-checkpoint
            counters.checkpoints.fetch_add(1);
          }
        });
      }
      if (freeze) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(200 + sim_rng.Below(sleep_hi_us)));
        if (options.txn_mode) {
          // A starved scheduler can reach the freeze before any worker
          // resolves its first transaction, leaving the atomicity oracle
          // with no winners to score. Hold the crash boundary (bounded)
          // until one commit lands; the freeze still interrupts every
          // later transaction mid-flight.
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(2);
          while (counters.txns_committed.load() == 0 &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        }
        db.FreezeCommits();
      }
      for (std::thread& t : workers) t.join();
      if (checkpointer.joinable()) checkpointer.join();
    };

    // The crash, optionally tearing the in-flight force mid-record.
    auto crash_now = [&] {
      if (options.tear_log_tail) {
        const size_t pending = db.log().PendingForceBytes();
        if (pending > 0) {
          db.log().TearInFlightForce(sim_rng.Below(pending + 1));
          ++result.torn_tails;
        }
      }
      db.Crash();
    };

    // Oracle 1: no acknowledged commit may be lost. An ack means the
    // committer's force covered the LSN, so salvage must keep it. Then
    // prune the journal of entries above the stable LSN NOW: they died
    // with the crash, and the log reuses lost LSNs, so the next round's
    // records would collide with the corpses.
    auto check_acked_and_prune = [&]() -> bool {
      const core::Lsn stable = db.log().stable_lsn();
      for (core::Lsn lsn : state.acked) {
        if (lsn > stable) ++result.lost_acked_commits;
      }
      if (result.lost_acked_commits > 0) {
        result.failure =
            "lost acked commits: stable_lsn " + std::to_string(stable) +
            " below " + std::to_string(result.lost_acked_commits) +
            " acknowledged commit LSN(s)";
        return false;
      }
      std::lock_guard<std::mutex> lock(state.mu);
      DropUnstable(&state.journal, stable);
      return true;
    };

    // Txn-mode oracles. Winners = every transaction with a stable
    // kTxnCommit, read straight off the log (ids are monotone and never
    // reused across cycles, so one scan of the whole stable log is
    // right). Atomicity: (a) every ACKNOWLEDGED commit is a winner;
    // (b) the journal is pruned to winners only, so the model replay
    // below asserts that no loser write is visible anywhere.
    auto check_txn_atomicity_and_prune = [&]() -> bool {
      if (!options.txn_mode) return true;
      Result<std::vector<wal::LogRecord>> records = db.log().StableRecords(1);
      if (!records.ok()) {
        result.failure = "stable scan: " + records.status().ToString();
        return false;
      }
      std::set<uint64_t> winners;
      for (const wal::LogRecord& record : records.value()) {
        if (record.type != wal::RecordType::kTxnCommit) continue;
        Result<uint64_t> id = engine::DecodeTxnMeta(record.payload);
        if (!id.ok()) {
          result.failure = "bad commit record: " + id.status().ToString();
          return false;
        }
        winners.insert(id.value());
      }
      std::lock_guard<std::mutex> lock(state.mu);
      for (uint64_t txn : state.acked_txns) {
        if (winners.count(txn) == 0) {
          ++result.atomicity_violations;
          if (result.failure.empty()) {
            result.failure = "atomicity: transaction " + std::to_string(txn) +
                             " was acknowledged committed but has no stable "
                             "commit record after recovery";
          }
        }
      }
      if (result.atomicity_violations > 0) return false;
      state.journal.erase(
          std::remove_if(state.journal.begin(), state.journal.end(),
                         [&winners](const JournalEntry& e) {
                           return e.txn_id != 0 &&
                                  winners.count(e.txn_id) == 0;
                         }),
          state.journal.end());
      return true;
    };

    // Oracle 2: the effective state equals an LSN-ordered replay of the
    // (already pruned) journal. The journal spans every cycle: state
    // accumulates across crashes.
    auto verify_against_model = [&]() -> bool {
      std::vector<JournalEntry> survivors;
      {
        std::lock_guard<std::mutex> lock(state.mu);
        survivors = state.journal;
      }
      const size_t survivor_count = survivors.size();
      Result<std::vector<Page>> replayed =
          ReplayJournal(std::move(survivors), options.num_pages);
      if (!replayed.ok()) {
        result.failure = "model replay: " + replayed.status().ToString();
        return false;
      }
      const std::vector<Page>& model = replayed.value();
      // Payload only: the LSN header is method-specific tagging the
      // model replay does not reproduce.
      for (PageId p = 0; p < options.num_pages; ++p) {
        const Page* cached = db.pool().PeekCached(p);
        const Page& got = cached != nullptr ? *cached : db.disk().PeekPage(p);
        if (HashBytes(got.payload()) != HashBytes(model[p].payload())) {
          std::string detail;
          for (size_t slot = 0; slot < Page::NumSlots(); ++slot) {
            if (got.ReadSlot(slot) != model[p].ReadSlot(slot)) {
              detail = "; first diff slot " + std::to_string(slot) + ": got " +
                       std::to_string(got.ReadSlot(slot)) + " want " +
                       std::to_string(model[p].ReadSlot(slot));
              break;
            }
          }
          result.failure = "cycle " + std::to_string(cycle) + ": page " +
                           std::to_string(p) +
                           " diverges from the LSN-ordered model replay of " +
                           std::to_string(survivor_count) +
                           " surviving records (stable_lsn " +
                           std::to_string(db.log().stable_lsn()) + ")" + detail;
          return false;
        }
        ++result.pages_verified;
      }
      return true;
    };

    // Re-crash-during-undo: with the injection armed, recovery's undo
    // pass deliberately dies (Unavailable) after emitting K CLRs; crash
    // and recover again until it converges — the CLRs' undo_next chains
    // guarantee each attempt makes progress.
    auto recover_with_recrashes = [&](auto recover_fn) -> Status {
      Status recovered = recover_fn();
      size_t guard = 0;
      while (options.undo_crash_after_clrs > 0 && !recovered.ok() &&
             recovered.code() == StatusCode::kUnavailable) {
        if (++guard > 500) {
          return Status::Corruption(
              "undo re-crash loop did not converge after 500 attempts");
        }
        ++result.undo_recrashes;
        db.Crash();
        recovered = recover_fn();
      }
      return recovered;
    };

    run_worker_round(/*freeze=*/true, /*sleep_hi_us=*/3000, /*round_salt=*/0);
    if (!state.first_failure.empty()) {
      result.failure = state.first_failure;
      return result;
    }
    crash_now();

    if (options.instant_restart) {
      // Recover while serving; a double crash strikes mid-recovery and
      // the whole dance restarts from the new salvage point.
      bool crashed_again = true;
      bool first_attempt = true;
      while (crashed_again) {
        crashed_again = false;
        Status recovered =
            recover_with_recrashes([&] { return db.RecoverInstant(); });
        if (!recovered.ok()) {
          result.failure = "instant recover: " + recovered.ToString();
          return result;
        }
        ++result.instant_restarts;
        if (!check_acked_and_prune()) return result;
        if (!check_txn_atomicity_and_prune()) return result;
        if (first_attempt &&
            sim_rng.Below(100) < options.double_crash_percent) {
          first_attempt = false;
          ++result.double_crashes;
          if (sim_rng.Below(2) == 1) {
            // Crash mid-drain with sessions in flight.
            run_worker_round(/*freeze=*/true, /*sleep_hi_us=*/1200,
                             /*round_salt=*/1000 + cycle);
            if (!state.first_failure.empty()) {
              result.failure = state.first_failure;
              return result;
            }
          }  // else: crash before any traffic touches a page
          crash_now();
          crashed_again = true;
        }
      }
      // Recover-while-loading: a full worker round against the serving
      // engine, racing the background drain, with no freeze — every
      // commit must ack.
      run_worker_round(/*freeze=*/false, /*sleep_hi_us=*/0,
                       /*round_salt=*/2000 + cycle);
      if (!state.first_failure.empty()) {
        result.failure = state.first_failure;
        return result;
      }
      Status waited = db.WaitUntilRecovered();
      if (!waited.ok()) {
        result.failure = "WaitUntilRecovered: " + waited.ToString();
        return result;
      }
      if (!check_acked_and_prune()) return result;  // prune is a no-op here
      if (!check_txn_atomicity_and_prune()) return result;
      if (!verify_against_model()) return result;
    } else {
      Status recovered = recover_with_recrashes([&] { return db.Recover(); });
      if (!recovered.ok()) {
        result.failure = "recover: " + recovered.ToString();
        return result;
      }
      if (!check_acked_and_prune()) return result;
      if (!check_txn_atomicity_and_prune()) return result;
      if (!verify_against_model()) return result;
    }

    result.ops_applied += counters.ops_applied.load();
    result.splits_applied += counters.splits_applied.load();
    result.commits_acked += counters.commits_acked.load();
    result.commits_refused += counters.commits_refused.load();
    result.checkpoints_taken += counters.checkpoints.load();
    result.txns_committed += counters.txns_committed.load();
    result.txns_aborted += counters.txns_aborted.load();
    ++result.cycles;
  }

  result.group_commits = db.log().stats().group_commits;
  result.group_batches = db.log().stats().group_batches;
  result.losers_undone = static_cast<size_t>(
      db.txn_undo_metrics().losers.load(std::memory_order_relaxed));
  // Instant mode leaves the engine serving in concurrent mode; drain
  // the pipeline cleanly before teardown.
  if (db.concurrent()) (void)db.EndConcurrent();
  db.disk().set_fault_injector(nullptr);
  result.write_fault_bursts = injector.stats().write_bursts;
  result.ok = true;
  return result;
}

}  // namespace

ConcurrentSimResult RunConcurrentCrashSim(methods::MethodKind method,
                                          const ConcurrentSimOptions& options,
                                          uint64_t seed) {
  ConcurrentSimResult result =
      RunConcurrentCrashSimImpl(method, options, seed);
  if (!result.ok) {
    // The crash hook: the failing cycle's flight-recorder trace, dumped
    // next to the timeline artifact by crash_torture.
    result.failing_flight_trace_json =
        obs::ToChromeTraceJson(obs::FlightRecorder::Global().Drain());
  }
  return result;
}

}  // namespace redo::checker
