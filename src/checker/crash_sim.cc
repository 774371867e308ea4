#include "checker/crash_sim.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "checker/model_replay.h"
#include "engine/backup.h"
#include "engine/degraded_recovery.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/recovery_trace.h"
#include "storage/fault_injector.h"
#include "wal/log_fault_injector.h"

namespace redo::checker {

namespace {

using engine::Action;
using engine::MiniDb;
using engine::SplitOp;
using storage::FaultInjector;
using storage::Page;
using storage::PageId;

}  // namespace

std::string CrashSimResult::ToString() const {
  std::ostringstream out;
  out << (ok ? "OK" : ("FAILED: " + failure)) << "; actions=" << actions_executed
      << " crashes=" << crashes << " checker_runs=" << checker_runs
      << " stable_ops=" << stable_ops_at_crashes
      << " pages_verified=" << recovered_pages_verified;
  if (faults_injected > 0 || torn_tails > 0) {
    out << " | faults: injected=" << faults_injected
        << " detected=" << faults_detected << " torn_tails=" << torn_tails
        << " tail_bytes_dropped=" << torn_tail_bytes_dropped
        << " salvaged_records=" << salvaged_records
        << " pages_healed=" << pages_healed
        << " recovery_retries=" << recovery_retries
        << " silent_corruptions=" << silent_corruptions;
  }
  if (log_faults_injected > 0 || backups_taken > 0 || segments_sealed > 0) {
    out << " | log-media: injected=" << log_faults_injected
        << " scrub_repairs=" << log_scrub_repairs
        << " rung1_cycles=" << ladder_mirror_cycles
        << " rung2_cycles=" << ladder_media_cycles
        << " rung3_refusals=" << ladder_refusals
        << " backups=" << backups_taken
        << " segments_sealed=" << segments_sealed
        << " segments_truncated=" << segments_truncated;
  }
  if (redo_applied + redo_skipped_installed + redo_not_exposed > 0) {
    out << " | redo verdicts: applied=" << redo_applied
        << " skipped_installed=" << redo_skipped_installed
        << " not_exposed=" << redo_not_exposed;
  }
  if (equivalence_checks > 0 || equivalence_divergences > 0) {
    out << " | parallel equivalence: checks=" << equivalence_checks
        << " divergences=" << equivalence_divergences;
  }
  return out.str();
}

CrashSimResult RunCrashSim(methods::MethodKind method_kind,
                           const CrashSimOptions& options, uint64_t seed) {
  CrashSimResult result;
  std::optional<FaultInjector> injector_storage;
  FaultInjector* injector = nullptr;
  std::optional<wal::LogFaultInjector> log_injector_storage;
  wal::LogFaultInjector* log_injector = nullptr;

  engine::MiniDbOptions db_options;
  db_options.num_pages = options.workload.num_pages;
  db_options.cache_capacity =
      method_kind == methods::MethodKind::kLogical ? 0 : options.cache_capacity;
  db_options.engine.async_io_workers = options.async_io_workers;
  if (options.faults.enabled) {
    // A segmented, mirrored, archived log — the substrate the log-media
    // fault schedule and the degradation ladder exercise.
    db_options.wal.segment_bytes = options.faults.log_segment_bytes;
  }
  methods::MethodOptions method_options;
  method_options.num_pages = options.workload.num_pages;
  MiniDb db(db_options, methods::MakeMethod(method_kind, method_options));

  engine::TraceRecorder trace(db.disk());

  // Recovery timeline + per-cycle metric deltas. The timeline restarts
  // each cycle, so a failure hands back exactly the failing cycle's
  // events; the metrics baseline restarts with it.
  obs::RecoveryTracer tracer(&db.metrics());
  db.Attach(engine::Instrumentation{&trace, &tracer});
  obs::Snapshot cycle_start = db.metrics().TakeSnapshot();

  auto finalize_observability = [&] {
    result.redo_applied = tracer.total_verdicts().applied;
    result.redo_skipped_installed = tracer.total_verdicts().skipped_installed;
    result.redo_not_exposed = tracer.total_verdicts().not_exposed;
    result.last_cycle_metrics_text =
        db.metrics().TakeSnapshot().Delta(cycle_start).ToText();
  };
  auto fail = [&](std::string why) {
    result.ok = false;
    if (result.failure.empty()) result.failure = std::move(why);
    if (injector != nullptr) {
      const storage::FaultInjectorStats& fs = injector->stats();
      result.faults_injected =
          fs.torn_writes + fs.write_bursts + fs.sticky_pages;
      result.pages_healed = fs.pages_healed;
    }
    result.failing_timeline_jsonl = tracer.ToJsonl(/*include_timing=*/true);
    result.failing_flight_trace_json =
        obs::ToChromeTraceJson(obs::FlightRecorder::Global().Drain());
    finalize_observability();
    return result;
  };

  engine::Workload workload(options.workload, seed);
  Rng rng(seed ^ 0x5117ab1eULL);
  std::vector<JournalEntry> applied;

  // ---- Fault-injection plumbing ----
  if (options.faults.enabled) {
    storage::FaultInjectorOptions fi;
    fi.torn_write_probability = options.faults.torn_write_probability;
    fi.write_error_probability = options.faults.write_error_probability;
    fi.max_write_error_burst = options.faults.max_write_error_burst;
    fi.read_error_probability = options.faults.read_error_probability;
    injector_storage.emplace(fi, seed ^ 0xFA017EC7ULL);
    injector = &*injector_storage;
    db.disk().set_fault_injector(injector);

    if (options.faults.log_segment_bytes > 0) {
      wal::LogFaultOptions lf;
      lf.bit_rot_probability = options.faults.log_bit_rot_probability;
      lf.lost_segment_probability =
          options.faults.log_lost_segment_probability;
      lf.torn_seal_probability = options.faults.log_torn_seal_probability;
      lf.double_fault_probability =
          options.faults.log_double_fault_probability;
      lf.archive_rot_probability = options.faults.log_archive_rot_probability;
      log_injector_storage.emplace(lf, seed ^ 0x106FAB17ULL);
      log_injector = &*log_injector_storage;
      log_injector->RegisterMetrics(db.metrics());
    }
  }

  // The last clean backup (rung 2's anchor), refreshed every
  // `backup_interval` cycles at a verified clean point.
  std::optional<engine::Backup> backup;

  // Verifies every stable page's write checksum and heals the damage,
  // the way a scrub pass over a mirrored pair would. A page that fails
  // verification with no injected fault outstanding is real corruption.
  // Run before every invariant check and oracle compare: both inspect
  // raw stable bytes and must see the post-repair state.
  auto scrub = [&](const char* where) -> Status {
    for (PageId p = 0; p < db.num_pages(); ++p) {
      const Status verify = db.disk().VerifyPage(p);
      if (verify.ok()) {
        // No damage; still clear any sticky read error (sector remap).
        if (injector != nullptr) injector->HealPage(&db.disk(), p);
        continue;
      }
      ++result.faults_detected;
      if (injector == nullptr || !injector->HealPage(&db.disk(), p)) {
        return Status::Corruption("scrub (" + std::string(where) + "): page " +
                                  std::to_string(p) +
                                  " failed verification with no injected "
                                  "fault outstanding: " +
                                  verify.ToString());
      }
    }
    return Status::Ok();
  };

  // Caches a page before an action touches it, healing injected faults
  // (sticky read errors, torn pages caught by checksum) on the way. This
  // keeps disk faults from firing *inside* an action after its log
  // record is appended — the generalized method logs before it fetches —
  // which would leave the log claiming an update the engine never made.
  // Healing repairs ALL outstanding faults, not just this page's: the
  // fetch may have failed evicting some other frame (e.g. a torn write
  // left a write-order constraint unsatisfiable).
  auto tolerant_fetch = [&](PageId p) -> Status {
    Status last = Status::Ok();
    for (int attempt = 0; attempt < 8; ++attempt) {
      Result<Page*> page = db.FetchPage(p);
      if (page.ok()) {
        last = Status::Ok();
        break;
      }
      last = page.status();
      if (injector == nullptr) return last;
      ++result.faults_detected;
      if (attempt >= 2) injector->set_paused(true);
      if (injector->HealAll(&db.disk()) == 0 && attempt >= 3) break;
    }
    if (injector != nullptr) injector->set_paused(false);
    return last;
  };

  // Runs a flush-like engine call (checkpoint, targeted flush) that may
  // trip over injected faults — a write-error burst surfacing through a
  // path without its own retries (the logical method checkpoints with
  // direct disk writes), or a torn write that left a write-order
  // constraint unsatisfiable until the page heals. These calls are
  // idempotent, so the remedy is heal-and-rerun.
  auto tolerant_io = [&](const char* what, auto&& fn) -> Status {
    Status st = fn();
    for (int attempt = 0; !st.ok() && injector != nullptr && attempt < 4;
         ++attempt) {
      ++result.faults_detected;
      if (attempt >= 2) injector->set_paused(true);
      injector->HealAll(&db.disk());
      st = fn();
    }
    if (injector != nullptr) injector->set_paused(false);
    if (!st.ok()) return Status(st.code(), std::string(what) + ": " + st.message());
    return st;
  };

  // Recovery under live fault injection: a sticky read or a torn page
  // read mid-recovery surfaces as an error. The response models failing
  // over to the mirror: heal everything, pause injection, crash the
  // partial recovery (recovery is idempotent), and recover again.
  auto tolerant_recover = [&]() -> Status {
    Status st = db.Recover();
    for (int attempt = 0; !st.ok() && injector != nullptr && attempt < 3;
         ++attempt) {
      ++result.faults_detected;
      ++result.recovery_retries;
      injector->set_paused(true);
      injector->HealAll(&db.disk());
      db.Crash();
      st = db.Recover();
    }
    if (injector != nullptr) injector->set_paused(false);
    return st;
  };

  for (size_t crash = 0; crash < options.crashes; ++crash) {
    // A fresh timeline, flight-recorder trace, and metrics baseline per
    // cycle: a failure hands back exactly the failing cycle's events.
    tracer.Clear();
    obs::FlightRecorder::Global().Reset();
    cycle_start = db.metrics().TakeSnapshot();

    // ---- Normal operation segment ----
    // One serial session (no BeginConcurrent, so no commit pipeline)
    // drives every update through Dispatch; it must be gone before
    // recovery runs.
    {
      MiniDb::Session session = db.NewSession();
      for (size_t step = 0; step < options.ops_per_segment; ++step) {
        const Action action = workload.Next();
        ++result.actions_executed;
        if (injector != nullptr) {
          switch (action.kind) {
            case Action::Kind::kSlotWrite:
            case Action::Kind::kBlindFormat: {
              const Status st = tolerant_fetch(action.page);
              if (!st.ok()) return fail("prefetch: " + st.ToString());
              break;
            }
            case Action::Kind::kSplit:
            case Action::Kind::kTransfer: {
              Status st = tolerant_fetch(action.split_src);
              if (st.ok()) st = tolerant_fetch(action.split_dst);
              if (!st.ok()) return fail("prefetch: " + st.ToString());
              break;
            }
            default:
              break;  // flush/checkpoint/force absorb faults themselves
          }
        }
        switch (action.kind) {
          case Action::Kind::kSlotWrite:
          case Action::Kind::kBlindFormat: {
            const engine::Command command = engine::MakeApplyCommand(
                action.kind == Action::Kind::kSlotWrite
                    ? engine::MakeSlotWrite(action.page, action.slot,
                                            action.value)
                    : engine::MakeBlindFormat(action.page, action.value));
            const engine::Reply reply =
                DispatchJournaled(session, command, /*txn_id=*/0, &applied);
            if (!reply.ok()) {
              return fail("apply: " + engine::ReplyStatus(reply).ToString());
            }
            break;
          }
          case Action::Kind::kSplit:
          case Action::Kind::kTransfer: {
            const SplitOp op =
                action.kind == Action::Kind::kSplit
                    ? SplitOp{engine::SplitTransform::kSlotHalf, action.split_src,
                              action.split_dst}
                    : engine::MakeSlotTransfer(action.split_src, action.slot,
                                               action.split_dst, action.slot2);
            // A split appends its log record up front and may cascade
            // flushes mid-action; a fault there would leave the log
            // claiming an update the engine never made. Model the
            // protected path real engines use for structural changes
            // (double-write buffer / mirror): repair lost writes so no
            // write-order constraint is stuck unsatisfiable, and suspend
            // injection for the action's duration.
            if (injector != nullptr) {
              injector->HealTornPages(&db.disk());
              injector->set_paused(true);
            }
            const engine::Reply reply = DispatchJournaled(
                session, engine::MakeSplitCommand(op), /*txn_id=*/0, &applied);
            if (injector != nullptr) injector->set_paused(false);
            if (!reply.ok()) {
              return fail("split: " + engine::ReplyStatus(reply).ToString());
            }
            break;
          }
          case Action::Kind::kFlushPage: {
            const Status st = tolerant_io(
                "flush", [&] { return db.MaybeFlushPage(action.page); });
            if (!st.ok()) return fail("flush: " + st.ToString());
            break;
          }
          case Action::Kind::kCheckpoint: {
            const Status st =
                tolerant_io("checkpoint", [&] { return db.Checkpoint(); });
            if (!st.ok()) return fail("checkpoint: " + st.ToString());
            break;
          }
          case Action::Kind::kForceLog: {
            const core::Lsn last = db.log().last_lsn();
            if (last > 0) {
              const Status st = db.log().Force(1 + rng.Below(last));
              if (!st.ok()) return fail("force: " + st.ToString());
            }
            break;
          }
        }
      }
    }

    // ---- Crash ----
    // Maybe the crash interrupts an in-flight log force: a random prefix
    // of the unacknowledged volatile records (possibly cutting one in
    // half) reaches stable storage as a torn tail.
    if (injector != nullptr && rng.Chance(options.faults.torn_tail_probability)) {
      const size_t pending = db.log().PendingForceBytes();
      if (pending > 0) {
        db.log().TearInFlightForce(1 + rng.Below(pending));
      }
    }
    db.Crash();
    ++result.crashes;

    // Salvage the torn tail the way recovery's first step would, so the
    // checker and the oracle agree on which records survived. Complete
    // unacknowledged records count as survivors (stable_lsn may rise);
    // a partial record is truncated.
    const wal::SalvageResult salvage = db.log().SalvageTornTail();
    if (salvage.torn) {
      ++result.torn_tails;
      result.torn_tail_bytes_dropped += salvage.dropped_bytes;
    }
    result.salvaged_records += salvage.salvaged_records;
    const core::Lsn stable_lsn = db.log().stable_lsn();

    if (injector != nullptr) {
      const Status st = scrub("post-crash");
      if (!st.ok()) return fail(st.ToString());
    }

    // ---- Log-media faults + the degradation ladder ----
    // The restart discovers body damage to the stable log. A scrub
    // repairs whatever has an intact twin (rung 1). If a hole remains,
    // this cycle is *degraded*: skip the log-scan-based invariant
    // checker (its premise — a readable log — is exactly what failed)
    // and descend the ladder; the byte-level oracle below still judges
    // the outcome.
    bool degraded_cycle = false;
    if (log_injector != nullptr) {
      result.log_faults_injected += log_injector->InjectAtCrash(db.log());
      const wal::ScrubReport scrub_report = db.log().Scrub();
      result.log_scrub_repairs +=
          scrub_report.repairs + scrub_report.archive_repairs;
      if (scrub_report.clean()) {
        if (scrub_report.repairs + scrub_report.archive_repairs > 0) {
          ++result.ladder_mirror_cycles;
        }
      } else {
        degraded_cycle = true;
        // Media recovery rewrites every stable page from the backup;
        // run it on the quiesced mirror path, like the split above.
        if (injector != nullptr) {
          injector->HealAll(&db.disk());
          injector->set_paused(true);
        }
        const engine::LadderReport ladder = engine::RecoverWithDegradation(
            db, backup.has_value() ? &*backup : nullptr);
        if (injector != nullptr) injector->set_paused(false);
        switch (ladder.rung) {
          case engine::LadderRung::kIntactLog:
          case engine::LadderRung::kMirrorRepair:
            return fail("ladder resolved a holed log at rung " +
                        std::string(engine::LadderRungName(ladder.rung)) +
                        " — scrub and ladder disagree");
          case engine::LadderRung::kMediaRecovery: {
            if (!ladder.status.ok()) {
              return fail("rung-2 media recovery: " +
                          ladder.status.ToString());
            }
            ++result.ladder_media_cycles;
            break;
          }
          case engine::LadderRung::kRefused: {
            // The refusal must be loud and precise...
            if (ladder.status.ok() || ladder.first_unreadable_lsn == 0 ||
                ladder.diagnosis.empty()) {
              return fail("rung-3 refusal without a diagnosis: " +
                          ladder.ToString());
            }
            ++result.ladder_refusals;
            // With no offsite restore available the refusal is terminal:
            // the database stays unrecovered, which for the simulator is
            // the end of the run. The failing-cycle timeline (captured
            // by fail) names the phase, method, rung, and offending LSN.
            if (options.faults.no_offsite_restore) {
              return fail(
                  "unrecoverable: method=" + std::string(db.method().name()) +
                  " rung=" + engine::LadderRungName(ladder.rung) +
                  " first_unreadable_lsn=" +
                  std::to_string(ladder.first_unreadable_lsn) +
                  " (no offsite restore available): " + ladder.diagnosis);
            }
            // ...and it must leave the database unrecovered rather than
            // guessed-at. Model the only sound remedy — an offsite
            // restore of the damaged segments. The common recovery below
            // then runs ONCE on the still-cold crash state: recovering
            // here and again below would replay the suffix twice onto a
            // warm cache, which the logical method (no page-LSN redo
            // test) does not tolerate — splits are not idempotent.
            log_injector->HealAll(db.log());
            if (db.log().FirstHoleLsn() != 0) {
              return fail("offsite restore left the log holed");
            }
            break;
          }
        }
      }
    }

    // ---- Invariant check against the formal model ----
    if (options.run_checker && !degraded_cycle) {
      const CheckResult check = CheckCrashState(db, trace);
      ++result.checker_runs;
      result.stable_ops_at_crashes += check.stable_ops;
      if (!check.ok) {
        return fail("invariant checker at crash " + std::to_string(crash) +
                    ": " + check.ToString());
      }
    }

    // ---- Crashes during recovery ----
    // Recover, install an arbitrary subset of the redone pages, and
    // crash again: recovery must be idempotent and every intermediate
    // state must still satisfy the invariant. (Skipped on degraded
    // cycles: the ladder already recovered above.)
    for (size_t rc = 0; rc < (degraded_cycle ? 0 : options.recovery_crashes);
         ++rc) {
      Status recover_status = tolerant_recover();
      if (!recover_status.ok()) {
        return fail("recovery crash round " + std::to_string(rc) + ": " +
                    recover_status.ToString());
      }
      for (PageId p = 0; p < db.num_pages(); ++p) {
        if (rng.Chance(0.3)) {
          const Status flush =
              tolerant_io("mid-recovery flush", [&] { return db.MaybeFlushPage(p); });
          if (!flush.ok()) return fail("mid-recovery flush: " + flush.ToString());
        }
      }
      db.Crash();
      if (injector != nullptr) {
        const Status st = scrub("recovery re-crash");
        if (!st.ok()) return fail(st.ToString());
      }
      if (options.run_checker) {
        const CheckResult recheck = CheckCrashState(db, trace);
        ++result.checker_runs;
        if (!recheck.ok) {
          return fail("invariant checker after recovery crash " +
                      std::to_string(rc) + ": " + recheck.ToString());
        }
      }
    }

    // ---- Serial vs. parallel redo equivalence oracle ----
    // Recover this cycle's crash state once serially and once per
    // configured worker count, restoring the crash state between runs,
    // and require identical *effective* state (cache-else-disk bytes
    // and page LSNs) plus identical verdict multisets. Runs with
    // injection paused: the oracle compares scheduling, not fault luck.
    // Skipped on degraded cycles — the ladder already recovered those.
    if (!degraded_cycle && !options.equivalence_workers.empty()) {
      if (injector != nullptr) {
        injector->HealAll(&db.disk());
        injector->set_paused(true);
      }
      std::vector<Page> crash_disk;
      crash_disk.reserve(db.num_pages());
      for (PageId p = 0; p < db.num_pages(); ++p) {
        crash_disk.push_back(db.disk().PeekPage(p));
      }
      struct RecoveryFingerprint {
        Status status = Status::Ok();
        std::vector<std::pair<uint64_t, core::Lsn>> pages;  ///< hash, LSN
        std::vector<std::string> verdicts;                  ///< sorted
      };
      auto fingerprint = [&](size_t workers) {
        RecoveryFingerprint fp;
        // A scratch tracer (no registry: the cycle's "recovery" source
        // stays singly registered) so oracle runs don't pollute the
        // cycle timeline; options are restored to serial afterwards.
        obs::RecoveryTracer scratch;
        const engine::Instrumentation main_instr = db.instrumentation();
        const engine::EngineOptions main_options = db.engine_options();
        db.Attach(engine::Instrumentation{main_instr.trace, &scratch});
        engine::EngineOptions oracle_options = main_options;
        oracle_options.parallel_workers = workers;
        db.set_engine_options(oracle_options);
        fp.status = db.Recover();
        db.set_engine_options(main_options);
        db.Attach(main_instr);
        if (fp.status.ok()) {
          for (PageId p = 0; p < db.num_pages(); ++p) {
            const Page* cached = db.pool().PeekCached(p);
            const Page& effective =
                cached != nullptr ? *cached : db.disk().PeekPage(p);
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
        db.Crash();
        for (PageId p = 0; p < db.num_pages(); ++p) {
          db.disk().RepairPage(p, crash_disk[p]);
        }
        return fp;
      };
      const RecoveryFingerprint serial = fingerprint(1);
      if (!serial.status.ok()) {
        return fail("equivalence oracle: serial recover: " +
                    serial.status.ToString());
      }
      for (size_t workers : options.equivalence_workers) {
        const RecoveryFingerprint parallel = fingerprint(workers);
        ++result.equivalence_checks;
        if (!parallel.status.ok()) {
          ++result.equivalence_divergences;
          return fail("equivalence oracle: parallel recover (" +
                      std::to_string(workers) +
                      " workers): " + parallel.status.ToString());
        }
        for (PageId p = 0; p < db.num_pages(); ++p) {
          if (parallel.pages[p] != serial.pages[p]) {
            ++result.equivalence_divergences;
            return fail("equivalence oracle: " + std::to_string(workers) +
                        "-worker redo diverges from serial on page " +
                        std::to_string(p) + " at crash " +
                        std::to_string(crash));
          }
        }
        if (parallel.verdicts != serial.verdicts) {
          ++result.equivalence_divergences;
          return fail("equivalence oracle: " + std::to_string(workers) +
                      "-worker redo verdict multiset differs from serial "
                      "at crash " +
                      std::to_string(crash));
        }
      }
      if (injector != nullptr) injector->set_paused(false);
    }

    // ---- Recovery ----
    // On rung-2 cycles the ladder already recovered and re-anchored with
    // a fresh checkpoint; tolerant_recover is then a rehearsal no-op
    // (nothing after the checkpoint), which is itself worth exercising.
    // On rung-3 cycles this is the first (and only) recovery after the
    // offsite restore, running on the cold crash state.
    Status st = tolerant_recover();
    if (!st.ok()) return fail("recover: " + st.ToString());
    st = tolerant_io("post-recovery flush", [&] { return db.FlushEverything(); });
    if (!st.ok()) return fail(st.ToString());
    st = tolerant_io("post-recovery checkpoint", [&] { return db.Checkpoint(); });
    if (!st.ok()) return fail(st.ToString());
    if (injector != nullptr) {
      // The flush wave above ran with injection live; repair what it
      // tore before holding the state against the oracle.
      st = scrub("post-recovery");
      if (!st.ok()) return fail(st.ToString());
    }

    // ---- Byte-level oracle verification ----
    // Recovery must reconstruct exactly the stable-logged prefix.
    DropUnstable(&applied, stable_lsn);
    Result<std::vector<Page>> replayed = ReplayJournal(applied, db.num_pages());
    if (!replayed.ok()) {
      return fail("model replay: " + replayed.status().ToString());
    }
    const std::vector<Page>& expected = replayed.value();
    for (PageId p = 0; p < db.num_pages(); ++p) {
      if (!(db.disk().PeekPage(p) == expected[p])) {
        // Every page passed scrub, so this mismatch wears a VALID write
        // checksum — the definition of silent corruption: wrong bytes
        // that nothing flags as wrong.
        ++result.silent_corruptions;
        return fail("SILENT CORRUPTION: recovered page " + std::to_string(p) +
                    " differs from the stable-log-prefix oracle at crash " +
                    std::to_string(crash) + " yet verifies clean");
      }
      ++result.recovered_pages_verified;
    }

    // ---- Backup + checkpoint truncation ----
    // The state was just oracle-verified, so this backup is known-good —
    // exactly what rung 2 is allowed to anchor on. Taken on the quiesced
    // mirror path (a backup of a torn page would poison every later
    // media recovery), and before the epoch reset so the backup's
    // checkpoint record stays below the next epoch's first LSN.
    if (options.faults.enabled && options.faults.backup_interval > 0 &&
        (crash + 1) % options.faults.backup_interval == 0) {
      if (injector != nullptr) {
        injector->HealAll(&db.disk());
        injector->set_paused(true);
      }
      Result<engine::Backup> taken = engine::TakeBackup(db);
      if (injector != nullptr) injector->set_paused(false);
      if (!taken.ok()) return fail("backup: " + taken.status().ToString());
      backup = std::move(taken).value();
      ++result.backups_taken;
      if (options.faults.truncate_at_backup &&
          options.faults.log_segment_bytes > 0) {
        db.log().SealActiveSegment();
        db.log().TruncateArchived(backup->backup_lsn);
      }
    }

    // ---- New epoch for the trace ----
    trace.BeginEpoch(db.disk(), db.log().last_lsn() + 1);
  }

  if (injector != nullptr) {
    const storage::FaultInjectorStats& fs = injector->stats();
    result.faults_injected = fs.torn_writes + fs.write_bursts + fs.sticky_pages;
    result.pages_healed = fs.pages_healed;
    db.disk().set_fault_injector(nullptr);
  }
  result.segments_sealed = db.log().stats().segments_sealed;
  result.segments_truncated = db.log().stats().segments_truncated;
  finalize_observability();
  db.Attach(engine::Instrumentation{db.trace(), nullptr});
  result.ok = true;
  return result;
}

}  // namespace redo::checker
