// Experiment S6 (§6.1-6.4): the method matrix.
//
// All four recovery methods run the identical randomized workload with
// crashes; at every crash the formal checker validates the recovery
// invariant, and recovery is verified byte-for-byte. The table reports
// the systems trade-offs the paper's survey describes: log volume
// (physical logs images, logical logs intents), stable-state write
// traffic (logical writes only at checkpoints), and recovery behavior.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checker/crash_sim.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/recovery_trace.h"

namespace {

using namespace redo;
using methods::MethodKind;

struct MatrixRow {
  uint64_t log_bytes = 0;
  uint64_t disk_writes = 0;
  uint64_t log_forces = 0;
  size_t stable_ops = 0;
  size_t crashes = 0;
  bool all_ok = true;
  std::string failure;
  // Redo-verdict totals across every crash-sim recovery (the tracer's
  // per-record redo-test outcomes).
  uint64_t applied = 0;
  uint64_t skipped_installed = 0;
  uint64_t not_exposed = 0;
  // Wall-clock per recovery phase, from one traced recovery per seed
  // over the full (uncrashed) workload's log.
  std::map<std::string, uint64_t> phase_us;
};

MatrixRow RunMethod(MethodKind kind, size_t seeds) {
  MatrixRow row;
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    // Re-run the crash sim while also collecting engine stats via a
    // parallel plain run (the sim owns its engine, so re-create one for
    // stats with the same workload).
    checker::SimOptions options;
    options.workload.num_pages = 16;
    options.cache_capacity = 6;
    options.ops_per_session = 250;
    options.cycles = 4;
    const checker::SimResult r = checker::RunSim(kind, options, seed);
    if (!r.ok && row.all_ok) {
      row.all_ok = false;
      row.failure = r.failure;
    }
    row.stable_ops += r.stable_ops_at_crashes;
    row.crashes += r.cycles;
    row.applied += r.redo_applied;
    row.skipped_installed += r.redo_skipped_installed;
    row.not_exposed += r.redo_not_exposed;

    // Stats run (no crashes): identical workload stream.
    engine::MiniDbOptions db_options;
    db_options.num_pages = 16;
    db_options.cache_capacity = kind == MethodKind::kLogical ? 0 : 6;
    engine::MiniDb db(db_options, methods::MakeMethod(kind, {16}));
    engine::Workload workload(options.workload, seed);
    Rng rng(seed ^ 0x5117ab1eULL);
    for (size_t i = 0; i < options.ops_per_session * options.cycles; ++i) {
      const engine::Action action = workload.Next();
      REDO_CHECK(engine::ExecuteAction(db, action, rng).ok());
    }
    REDO_CHECK(db.log().ForceAll().ok());
    row.log_bytes += db.log().stats().stable_bytes;
    row.disk_writes += db.disk().stats().writes;
    row.log_forces += db.log().stats().forces;

    // One traced recovery over the full workload's log: crash here and
    // recover with the tracer attached, accumulating per-phase wall
    // time (analysis vs. redo scan — the scan/apply split §6 discusses).
    obs::RecoveryTracer tracer(&db.metrics());
    db.Attach(redo::engine::Instrumentation{nullptr, &tracer});
    db.Crash();
    REDO_CHECK(db.Recover().ok());
    for (const obs::TraceEvent& event : tracer.events()) {
      if (event.event != "phase-end" || !event.timed) continue;
      for (const auto& [key, value] : event.strings) {
        if (key == "phase") row.phase_us[value] += event.wall_us;
      }
    }
    db.Attach(redo::engine::Instrumentation{nullptr, nullptr});
  }
  return row;
}

// ---- `--parallel`: the redo-apply speedup table ----
//
// One heavy workload per method, no checkpoints (the whole log replays),
// then the same crash state recovered with 1/2/4/8 redo workers (disk
// restored between runs). Two numbers per run:
//
//  * wall — elapsed time, best of `kRepeats`. On a host with >= workers
//    cores this is the speedup directly; on the 1-core CI container the
//    kernel time-slices the workers, so wall can only degrade.
//  * model — the critical-path model: each worker reports its
//    thread-CPU time (CLOCK_THREAD_CPUTIME_ID, excludes time spent
//    descheduled), and `wall - busy_total + busy_max` removes the
//    serialized sibling work the single core forced, leaving the
//    slowest worker's drain plus the serial sections (analysis, the
//    LSN-ordered verdict emission, undo). This is what the write graph
//    *permits*, independent of host core count, and is the number the
//    x4 target checks.

struct RecoverTiming {
  uint64_t wall_us = 0;
  uint64_t busy_total_us = 0;  // sum of worker thread-CPU times
  uint64_t busy_max_us = 0;    // slowest worker (the critical path)

  uint64_t ModeledUs() const {
    // On a many-core host busy_total can exceed wall (the workers really
    // ran concurrently); the model is then the critical path itself.
    const int64_t modeled = static_cast<int64_t>(wall_us) -
                            static_cast<int64_t>(busy_total_us) +
                            static_cast<int64_t>(busy_max_us);
    return modeled > static_cast<int64_t>(busy_max_us)
               ? static_cast<uint64_t>(modeled)
               : busy_max_us;
  }
};

RecoverTiming TimedRecover(engine::MiniDb& db, size_t workers,
                           const std::vector<storage::Page>& crash_disk) {
  db.Crash();
  for (storage::PageId p = 0; p < db.num_pages(); ++p) {
    db.disk().RepairPage(p, crash_disk[p]);
  }
  engine::EngineOptions recovery;
  recovery.parallel_workers = workers;
  db.set_engine_options(recovery);
  const redo::par::ParallelRedoMetrics before = db.parallel_redo_metrics();
  const auto start = std::chrono::steady_clock::now();
  REDO_CHECK(db.Recover().ok());
  const auto end = std::chrono::steady_clock::now();
  const redo::par::ParallelRedoMetrics after = db.parallel_redo_metrics();
  RecoverTiming t;
  t.wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(end - start)
          .count());
  t.busy_total_us = after.apply_busy_us - before.apply_busy_us;
  t.busy_max_us = after.apply_critical_path_us - before.apply_critical_path_us;
  // Serial runs bypass the drain workers entirely; the whole wall is
  // the one chain.
  if (workers <= 1) {
    t.busy_total_us = t.wall_us;
    t.busy_max_us = t.wall_us;
  }
  return t;
}

int RunParallelSpeedup() {
  constexpr size_t kPages = 96;
  constexpr size_t kActions = 6000;
  constexpr size_t kRepeats = 5;
  constexpr size_t kWorkerCounts[] = {1, 2, 4, 8};

  std::printf(
      "Parallel redo speedup: one workload per method (%zu actions,\n"
      "%zu pages, no checkpoints — the full log replays), the identical\n"
      "crash state recovered with 1/2/4/8 redo drain workers.\n"
      "All times are the best of %zu runs. `model` is the critical-path\n"
      "model (wall - sum(worker cpu) + max(worker cpu)): the wall time a\n"
      "host with >= workers cores would see; on a 1-core host the wall\n"
      "column only measures time-slicing overhead.\n\n",
      kActions, kPages, kRepeats);
  std::printf("%-16s %8s %9s %8s %8s %8s %9s %9s\n", "method", "records",
              "serial ms", "2w wall", "4w wall", "8w wall", "4w model",
              "model x4");

  bool physical_meets_target = false;
  for (const MethodKind kind : methods::kMethodKinds) {
    engine::MiniDbOptions db_options;
    db_options.num_pages = kPages;
    db_options.cache_capacity = 0;  // unbounded: time redo, not eviction
    engine::MiniDb db(db_options, methods::MakeMethod(kind, {kPages}));

    engine::WorkloadOptions workload_options;
    workload_options.num_pages = kPages;
    workload_options.checkpoint_probability = 0.0;
    engine::Workload workload(workload_options, /*seed=*/17);
    Rng rng(0x5117ab1eULL);
    for (size_t i = 0; i < kActions; ++i) {
      REDO_CHECK(engine::ExecuteAction(db, workload.Next(), rng).ok());
    }
    REDO_CHECK(db.log().ForceAll().ok());
    const size_t records = db.log().StableRecords(1).value().size();
    db.Crash();
    std::vector<storage::Page> crash_disk;
    crash_disk.reserve(kPages);
    for (storage::PageId p = 0; p < kPages; ++p) {
      crash_disk.push_back(db.disk().PeekPage(p));
    }

    uint64_t best_wall[4] = {~0ull, ~0ull, ~0ull, ~0ull};
    uint64_t best_model[4] = {~0ull, ~0ull, ~0ull, ~0ull};
    for (size_t repeat = 0; repeat < kRepeats; ++repeat) {
      for (size_t w = 0; w < 4; ++w) {
        const RecoverTiming t = TimedRecover(db, kWorkerCounts[w], crash_disk);
        if (t.wall_us < best_wall[w]) best_wall[w] = t.wall_us;
        if (t.ModeledUs() < best_model[w]) best_model[w] = t.ModeledUs();
      }
    }
    const double speedup4 =
        best_model[2] > 0 ? double(best_model[0]) / double(best_model[2]) : 0.0;
    std::printf("%-16s %8zu %9.2f %8.2f %8.2f %8.2f %9.2f %8.2fx\n",
                methods::MethodKindName(kind), records, best_wall[0] / 1000.0,
                best_wall[1] / 1000.0, best_wall[2] / 1000.0,
                best_wall[3] / 1000.0, best_model[2] / 1000.0, speedup4);
    if (kind == MethodKind::kPhysical && speedup4 >= 1.5) {
      physical_meets_target = true;
    }
  }
  std::printf(
      "\nRedo-all methods parallelize best: pure per-page image chains\n"
      "with blind first-touch installs (no disk reads). The LSN-test\n"
      "methods read each first-touched page to consult its LSN; bridged\n"
      "chains drain one at a time under the exclusive gate.\n");
  std::printf("physical x4 target (model >=1.50x): %s\n",
              physical_meets_target ? "MET" : "NOT MET");
  return physical_meets_target ? 0 : 1;
}

// ---- `--instant`: time-to-first-commit under instant restart ----
//
// Experiment S9: the same heavy no-checkpoint crash state recovered two
// ways. `offline` is the classic quiescing Recover(): no session can
// commit until every record has replayed. `instant` is RecoverInstant():
// the engine opens after analysis, a session immediately writes one page
// (draining just that page's redo chain on demand) and commits —
// time-to-first-commit — while a background worker drains the remaining
// chains; the run then counts how many further commits land while the
// engine is still recovering (phase == kServing) before
// WaitUntilRecovered() quiesces it. Both timings are best-of-kRepeats on
// the identical restored crash disk.

struct InstantTiming {
  uint64_t offline_us = 0;   ///< quiescing Recover() wall time
  uint64_t ttfc_us = 0;      ///< RecoverInstant + first WriteSlot + Commit
  uint64_t recovered_us = 0; ///< RecoverInstant until WaitUntilRecovered
  size_t queue_depth = 0;    ///< the device the instant runs used
  uint64_t serving_ops = 0;  ///< commits landed while phase == kServing
  uint64_t drained_on_demand = 0;
  uint64_t drained_background = 0;
};

void RestoreCrashState(engine::MiniDb& db,
                       const std::vector<storage::Page>& crash_disk) {
  db.Crash();
  for (storage::PageId p = 0; p < db.num_pages(); ++p) {
    db.disk().RepairPage(p, crash_disk[p]);
  }
}

/// Both recovery paths are charged this per buffer-pool miss so the
/// page reads redo must perform are visible in wall clock — the cost
/// instant restart defers. The workload itself runs with a free disk.
constexpr uint64_t kSimulatedReadLatencyUs = 200;

InstantTiming RunInstantConfig(MethodKind kind, size_t pages, size_t actions,
                               size_t repeats) {
  engine::MiniDbOptions db_options;
  db_options.num_pages = pages;
  db_options.cache_capacity = 0;  // instant restart serves concurrently
  db_options.engine.group_commit_window_us = 5;  // commit latency, not batching
  engine::MiniDb db(db_options, methods::MakeMethod(kind, {pages}));

  engine::WorkloadOptions workload_options;
  workload_options.num_pages = pages;
  workload_options.checkpoint_probability = 0.0;
  engine::Workload workload(workload_options, /*seed=*/23);
  Rng rng(0x1157ab1eULL);
  for (size_t i = 0; i < actions; ++i) {
    REDO_CHECK(engine::ExecuteAction(db, workload.Next(), rng).ok());
  }
  REDO_CHECK(db.log().ForceAll().ok());
  db.Crash();
  std::vector<storage::Page> crash_disk;
  crash_disk.reserve(pages);
  for (storage::PageId p = 0; p < pages; ++p) {
    crash_disk.push_back(db.disk().PeekPage(p));
  }

  InstantTiming best;
  best.offline_us = ~0ull;
  best.ttfc_us = ~0ull;
  best.recovered_us = ~0ull;
  for (size_t repeat = 0; repeat < repeats; ++repeat) {
    // Offline: the quiescing baseline.
    RestoreCrashState(db, crash_disk);
    engine::EngineOptions offline_options;
    offline_options.simulated_read_latency_us = kSimulatedReadLatencyUs;
    db.set_engine_options(offline_options);
    auto start = std::chrono::steady_clock::now();
    REDO_CHECK(db.Recover().ok());
    auto end = std::chrono::steady_clock::now();
    const uint64_t offline_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - start)
            .count());
    if (offline_us < best.offline_us) best.offline_us = offline_us;

    // Instant: open, touch one page, commit — then keep committing
    // until the background drain wins the race.
    RestoreCrashState(db, crash_disk);
    engine::EngineOptions instant_options;
    instant_options.instant_restart = true;
    instant_options.instant_drain_workers = 1;
    instant_options.group_commit_window_us = 5;
    instant_options.simulated_read_latency_us = kSimulatedReadLatencyUs;
    db.set_engine_options(instant_options);
    start = std::chrono::steady_clock::now();
    REDO_CHECK(db.RecoverInstant().ok());
    uint64_t serving_ops = 0;
    {
      engine::MiniDb::Session session = db.NewSession();
      REDO_CHECK(session.WriteSlot(0, 0, int64_t(repeat)).ok());
      REDO_CHECK(session.Commit().ok());
      end = std::chrono::steady_clock::now();
      if (db.recovery_phase() == engine::MiniDb::RecoveryPhase::kServing) {
        ++serving_ops;
      }
      for (storage::PageId p = 1;
           db.recovery_phase() == engine::MiniDb::RecoveryPhase::kServing;
           p = (p + 1) % pages) {
        REDO_CHECK(session.WriteSlot(p, 1, int64_t(p)).ok());
        REDO_CHECK(session.Commit().ok());
        if (db.recovery_phase() == engine::MiniDb::RecoveryPhase::kServing) {
          ++serving_ops;
        }
      }
    }
    REDO_CHECK(db.WaitUntilRecovered().ok());
    const uint64_t recovered_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    REDO_CHECK(db.EndConcurrent().ok());
    const uint64_t ttfc_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - start)
            .count());
    if (ttfc_us < best.ttfc_us) best.ttfc_us = ttfc_us;
    if (recovered_us < best.recovered_us) best.recovered_us = recovered_us;
    best.queue_depth = db.async_io()->queue_depth();
    if (serving_ops > best.serving_ops) best.serving_ops = serving_ops;
  }
  best.drained_on_demand = db.instant_redo_metrics().pages_on_demand.load();
  best.drained_background = db.instant_redo_metrics().pages_background.load();
  return best;
}

int RunInstantRestart() {
  constexpr size_t kPages = 96;
  constexpr size_t kActions = 6000;
  constexpr size_t kRepeats = 5;

  std::printf(
      "Experiment S9: instant restart (serving-while-redoing).\n"
      "One heavy no-checkpoint workload per method (%zu actions, %zu\n"
      "pages), crashed and recovered two ways on the identical disk:\n"
      "offline (quiescing Recover: first commit waits for ALL redo) vs\n"
      "instant (RecoverInstant: analysis only, then a session commits\n"
      "after draining just its page's chain on demand). `serving ops`\n"
      "counts commits that landed while redo was still draining, and\n"
      "`drain ms` runs from RecoverInstant to WaitUntilRecovered. Times\n"
      "are best of %zu runs; both paths charge a simulated %lluus page\n"
      "read per pool miss (the I/O instant restart defers).\n\n",
      kActions, kPages, kRepeats,
      (unsigned long long)kSimulatedReadLatencyUs);
  std::printf("%-16s %10s %9s %7s %11s %9s %9s %9s %5s\n", "method",
              "offline ms", "ttfc ms", "ratio", "serving ops", "ondemand",
              "backgrnd", "drain ms", "depth");

  bool physical_meets_target = false;
  for (const MethodKind kind : methods::kMethodKinds) {
    const InstantTiming t = RunInstantConfig(kind, kPages, kActions, kRepeats);
    const double ratio =
        t.offline_us > 0 ? double(t.ttfc_us) / double(t.offline_us) : 0.0;
    std::printf("%-16s %10.2f %9.2f %6.1f%% %11llu %9llu %9llu %9.2f %5zu\n",
                methods::MethodKindName(kind), t.offline_us / 1000.0,
                t.ttfc_us / 1000.0, ratio * 100.0,
                (unsigned long long)t.serving_ops,
                (unsigned long long)t.drained_on_demand,
                (unsigned long long)t.drained_background,
                t.recovered_us / 1000.0, t.queue_depth);
    if (kind == MethodKind::kPhysical && ratio < 0.25 && t.serving_ops > 0) {
      physical_meets_target = true;
    }
  }
  std::printf(
      "\nTime-to-first-commit pays only the salvage + analysis scan plus\n"
      "one page's redo chain; the quiescing baseline pays the full\n"
      "replay before any session may even open. The serving-ops column\n"
      "is the paper's §5 point made operational: any linear extension of\n"
      "the write graph is a correct redo order, so new traffic may\n"
      "interleave with redo page by page.\n");
  std::printf(
      "physical instant target (ttfc < 25%% of offline, serving ops > 0): "
      "%s\n",
      physical_meets_target ? "MET" : "NOT MET");
  return physical_meets_target ? 0 : 1;
}

// ---- `--frontend`: group-commit throughput scaling ----
//
// Experiment S8: the concurrent front end under a commit-per-op
// workload with a simulated 300us force. One session pays the device
// latency on every commit; more sessions share one force per batch
// through the group-commit pipeline, so ops/sec should scale until the
// force window saturates. `forces/commit` makes the amortization
// visible directly: 1.0 means every commit forced alone, 1/N means N
// commits rode each force.

struct FrontendRow {
  double ops_per_sec = 0.0;
  double forces_per_commit = 0.0;
  // Commit-latency attribution (microseconds), interpolated from the
  // wal.commit.* histograms the group-commit pipeline feeds: how long a
  // committing session spent waiting for its durability ack.
  uint64_t ack_p50_us = 0;
  uint64_t ack_p95_us = 0;
  uint64_t ack_p99_us = 0;
  uint64_t force_p50_us = 0;
};

FrontendRow RunFrontendConfig(MethodKind kind, size_t sessions) {
  constexpr size_t kPages = 64;
  constexpr size_t kTotalOps = 1200;
  engine::MiniDbOptions db_options;
  db_options.num_pages = kPages;
  db_options.cache_capacity = 0;  // concurrent mode requires unbounded
  db_options.engine.group_commit_window_us = 150;
  db_options.engine.simulated_force_latency_us = 300;
  engine::MiniDb db(db_options, methods::MakeMethod(kind, {kPages}));
  REDO_CHECK(db.BeginConcurrent().ok());
  const uint64_t forces_before = db.log().stats().forces;

  const size_t per_session = kTotalOps / sessions;
  const size_t pages_per_worker = kPages / sessions;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(sessions);
  for (size_t w = 0; w < sessions; ++w) {
    workers.emplace_back([&db, w, per_session, pages_per_worker] {
      engine::MiniDb::Session session = db.NewSession();
      for (size_t i = 0; i < per_session; ++i) {
        const storage::PageId page = static_cast<storage::PageId>(
            w * pages_per_worker + i % pages_per_worker);
        REDO_CHECK(
            session.WriteSlot(page, static_cast<uint32_t>(i % 8), int64_t(i))
                .ok());
        REDO_CHECK(session.Commit().ok());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  REDO_CHECK(db.EndConcurrent().ok());
  const auto end = std::chrono::steady_clock::now();

  const double elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  const double commits = static_cast<double>(per_session * sessions);
  FrontendRow row;
  row.ops_per_sec = elapsed_s > 0 ? commits / elapsed_s : 0.0;
  row.forces_per_commit =
      commits > 0
          ? static_cast<double>(db.log().stats().forces - forces_before) /
                commits
          : 0.0;
  const obs::Snapshot snapshot = db.metrics().TakeSnapshot();
  if (const obs::SnapshotEntry* ack = snapshot.Find("wal.commit.ack_wait_us");
      ack != nullptr) {
    row.ack_p50_us =
        obs::HistogramPercentile(ack->bounds, ack->bucket_counts, 0.50);
    row.ack_p95_us =
        obs::HistogramPercentile(ack->bounds, ack->bucket_counts, 0.95);
    row.ack_p99_us =
        obs::HistogramPercentile(ack->bounds, ack->bucket_counts, 0.99);
  }
  if (const obs::SnapshotEntry* force = snapshot.Find("wal.commit.force_us");
      force != nullptr) {
    row.force_p50_us =
        obs::HistogramPercentile(force->bounds, force->bucket_counts, 0.50);
  }
  return row;
}

int RunFrontendThroughput() {
  constexpr size_t kSessionCounts[] = {1, 2, 4, 8};
  std::printf(
      "Experiment S8: concurrent front-end throughput (group commit).\n"
      "Commit-per-op workload, simulated 300us force, 150us commit\n"
      "window, disjoint pages per session. ops/sec should scale with\n"
      "sessions as commits share forces; forces/commit shows the\n"
      "amortization (1.0 = every commit forced alone). The p50/p95/p99\n"
      "columns are the 4-session commit-latency attribution: how long a\n"
      "committing session waited for its durability ack (from the\n"
      "wal.commit.ack_wait_us histogram the pipeline feeds).\n\n");
  std::printf("%-16s %9s %9s %9s %9s %8s %7s %7s %7s %7s %7s\n", "method",
              "1s op/s", "2s op/s", "4s op/s", "8s op/s", "x4", "f/c@1",
              "f/c@4", "p50@4", "p95@4", "p99@4");

  bool physical_meets_target = false;
  for (const MethodKind kind : methods::kMethodKinds) {
    FrontendRow rows[4];
    for (size_t s = 0; s < 4; ++s) {
      rows[s] = RunFrontendConfig(kind, kSessionCounts[s]);
    }
    const double speedup4 =
        rows[0].ops_per_sec > 0 ? rows[2].ops_per_sec / rows[0].ops_per_sec
                                : 0.0;
    std::printf(
        "%-16s %9.0f %9.0f %9.0f %9.0f %7.2fx %7.2f %7.2f %7llu %7llu "
        "%7llu\n",
        methods::MethodKindName(kind), rows[0].ops_per_sec,
        rows[1].ops_per_sec, rows[2].ops_per_sec, rows[3].ops_per_sec,
        speedup4, rows[0].forces_per_commit, rows[2].forces_per_commit,
        (unsigned long long)rows[2].ack_p50_us,
        (unsigned long long)rows[2].ack_p95_us,
        (unsigned long long)rows[2].ack_p99_us);
    if (kind == MethodKind::kPhysical && speedup4 >= 2.0) {
      physical_meets_target = true;
    }
  }
  std::printf(
      "\nOne session serializes on the device: every commit waits its own\n"
      "force. The pipeline batches concurrent commits into one CRC-framed\n"
      "force each window, so the force count — not the session count —\n"
      "tracks the device budget.\n");
  std::printf("physical x4 target (ops/sec >=2.00x): %s\n",
              physical_meets_target ? "MET" : "NOT MET");
  return physical_meets_target ? 0 : 1;
}

// ---- `--overhead`: flight-recorder tracing overhead ----
//
// Experiment S11: the always-on claim, measured. The 4-session
// `--frontend` configuration (the hottest instrumented path: every op
// records a session span + latch wait, every commit a txn span and the
// gc stage/window/force/ack decomposition) runs with the flight
// recorder enabled and disabled, best of kRepeats each, interleaved so
// host noise hits both arms equally. The budget is <= 5% throughput
// loss with tracing on.

int RunTracingOverhead() {
  constexpr size_t kSessions = 4;
  constexpr size_t kRepeats = 3;

  std::printf(
      "Experiment S11: flight-recorder overhead on the group-commit\n"
      "front end (%zu sessions, commit-per-op, simulated 300us force).\n"
      "Each cell is the best of %zu interleaved runs; overhead is\n"
      "1 - on/off. Budget: <= 5%% with tracing on.\n\n",
      kSessions, kRepeats);
  std::printf("%-16s %12s %12s %9s\n", "method", "off op/s", "on op/s",
              "overhead");

  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  bool within_budget = true;
  for (const MethodKind kind : methods::kMethodKinds) {
    double best_off = 0.0, best_on = 0.0;
    for (size_t repeat = 0; repeat < kRepeats; ++repeat) {
      recorder.set_enabled(false);
      best_off =
          std::max(best_off, RunFrontendConfig(kind, kSessions).ops_per_sec);
      recorder.set_enabled(true);
      best_on =
          std::max(best_on, RunFrontendConfig(kind, kSessions).ops_per_sec);
    }
    recorder.set_enabled(true);  // always-on is the resting state
    const double overhead = best_off > 0 ? 1.0 - best_on / best_off : 0.0;
    std::printf("%-16s %12.0f %12.0f %8.2f%%\n", methods::MethodKindName(kind),
                best_off, best_on, overhead * 100.0);
    if (kind == MethodKind::kPhysical && overhead > 0.05) {
      within_budget = false;
    }
  }
  std::printf(
      "\nThe recorder's hot path is one relaxed enabled() load plus a\n"
      "fixed-size event write under an uncontended per-thread mutex; the\n"
      "pipeline's simulated force dominates, so tracing disappears into\n"
      "the commit wait.\n");
  std::printf("physical overhead budget (<= 5.00%%): %s\n",
              within_budget ? "MET" : "NOT MET");
  return within_budget ? 0 : 1;
}

// ---- `--io`: async batched I/O depth sweep ----
//
// Experiment S12: what the AsyncIoBackend's batching buys on the two
// I/O-bound paths it serves, swept over queue depth {0, 1, 2, 4, 8}.
// Depth 0 is the engine's default device: the same batch interface, the
// same per-op device latency, executed inline with one op in flight —
// the honest baseline (only queue depth reaches the simulated device's
// internal parallelism).
//
//  * writeback — checkpoint-heavy: every round dirties all pages, then
//    FlushEverything() drives the pool's batched writeback
//    (constraint-free waves through AsyncIoBackend::Submit), each page
//    write costing a simulated 150us of device time.
//  * recovery — a heavy no-checkpoint crash state recovered with 4
//    redo drain workers; every first-touch page read costs a simulated
//    200us. Above depth 0 the workers' misses overlap, up to the four
//    workers; at depth 0 they serialize on the device's disk mutex.
//
// Targets: depth >= 4 beats depth 0 by >= 1.3x on both workloads, and
// depth 1 is within 15% of depth 0 (the batch plumbing itself must not
// cost anything when there is no parallelism to win).

int RunAsyncIoSweep() {
  constexpr size_t kDepths[] = {0, 1, 2, 4, 8};
  constexpr size_t kNumDepths = 5;
  constexpr size_t kRepeats = 2;
  constexpr uint64_t kWriteLatencyUs = 150;
  constexpr uint64_t kReadLatencyUs = 200;
  const MethodKind kind = MethodKind::kPhysiological;

  // The CI seam would silently turn the depth-0 arm async and void the
  // comparison; the sweep owns its depths.
  ::unsetenv("REDO_ASYNC_IO");

  std::printf(
      "Experiment S12: async batched I/O — queue-depth sweep.\n"
      "Both workloads charge the identical per-op simulated device\n"
      "latency at every depth (writes %llu us, reads %llu us); depth 0\n"
      "is the engine's default one-op-in-flight device, so the sweep\n"
      "isolates what batching overlaps. Times are best of %zu runs.\n\n",
      (unsigned long long)kWriteLatencyUs, (unsigned long long)kReadLatencyUs,
      kRepeats);

  // -- writeback: rounds of dirty-all + checkpoint flush --
  constexpr size_t kWbPages = 48;
  constexpr size_t kWbRounds = 6;
  uint64_t wb_us[kNumDepths];
  uint64_t wb_batches[kNumDepths] = {0, 0, 0, 0, 0};
  for (size_t d = 0; d < kNumDepths; ++d) {
    wb_us[d] = ~0ull;
    for (size_t repeat = 0; repeat < kRepeats; ++repeat) {
      engine::MiniDbOptions db_options;
      db_options.num_pages = kWbPages;
      db_options.cache_capacity = 0;
      db_options.engine.async_io_workers = kDepths[d];
      db_options.engine.simulated_write_latency_us = kWriteLatencyUs;
      engine::MiniDb db(db_options, methods::MakeMethod(kind, {kWbPages}));
      engine::MiniDb::Session session = db.NewSession();
      const auto start = std::chrono::steady_clock::now();
      for (size_t round = 0; round < kWbRounds; ++round) {
        for (storage::PageId p = 0; p < kWbPages; ++p) {
          REDO_CHECK(session.WriteSlot(p, 0, int64_t(round * 100 + p)).ok());
        }
        REDO_CHECK(db.FlushEverything().ok());
      }
      const auto end = std::chrono::steady_clock::now();
      const uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(end - start)
              .count());
      if (us < wb_us[d]) wb_us[d] = us;
      wb_batches[d] = db.pool().stats().batch_flushes;
    }
  }

  // -- recovery: one crash state, recovered per depth --
  constexpr size_t kRecPages = 128;
  constexpr size_t kRecActions = 3000;
  uint64_t rec_us[kNumDepths];
  {
    engine::MiniDbOptions db_options;
    db_options.num_pages = kRecPages;
    db_options.cache_capacity = 0;
    engine::MiniDb db(db_options, methods::MakeMethod(kind, {kRecPages}));
    engine::WorkloadOptions workload_options;
    workload_options.num_pages = kRecPages;
    workload_options.checkpoint_probability = 0.0;
    engine::Workload workload(workload_options, /*seed=*/31);
    Rng rng(0xa510b1eULL);
    for (size_t i = 0; i < kRecActions; ++i) {
      REDO_CHECK(engine::ExecuteAction(db, workload.Next(), rng).ok());
    }
    REDO_CHECK(db.log().ForceAll().ok());
    db.Crash();
    std::vector<storage::Page> crash_disk;
    crash_disk.reserve(kRecPages);
    for (storage::PageId p = 0; p < kRecPages; ++p) {
      crash_disk.push_back(db.disk().PeekPage(p));
    }
    for (size_t d = 0; d < kNumDepths; ++d) {
      rec_us[d] = ~0ull;
      for (size_t repeat = 0; repeat < kRepeats; ++repeat) {
        db.Crash();
        for (storage::PageId p = 0; p < kRecPages; ++p) {
          db.disk().RepairPage(p, crash_disk[p]);
        }
        engine::EngineOptions recovery;
        recovery.parallel_workers = 4;
        recovery.async_io_workers = kDepths[d];
        recovery.simulated_read_latency_us = kReadLatencyUs;
        db.set_engine_options(recovery);
        const auto start = std::chrono::steady_clock::now();
        REDO_CHECK(db.Recover().ok());
        const auto end = std::chrono::steady_clock::now();
        const uint64_t us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(end - start)
                .count());
        if (us < rec_us[d]) rec_us[d] = us;
      }
    }
    db.set_engine_options(engine::EngineOptions{});
  }

  std::printf("%-10s %12s %9s %9s %12s %10s\n", "depth", "writeback ms",
              "wb x", "batches", "recovery ms", "rec x");
  for (size_t d = 0; d < kNumDepths; ++d) {
    const double wb_x = wb_us[d] > 0 ? double(wb_us[0]) / double(wb_us[d]) : 0;
    const double rec_x =
        rec_us[d] > 0 ? double(rec_us[0]) / double(rec_us[d]) : 0;
    char label[24];
    if (kDepths[d] == 0) {
      std::snprintf(label, sizeof label, "0 (sync)");
    } else {
      std::snprintf(label, sizeof label, "%zu", kDepths[d]);
    }
    std::printf("%-10s %12.2f %8.2fx %9llu %12.2f %9.2fx\n", label,
                wb_us[d] / 1000.0, wb_x, (unsigned long long)wb_batches[d],
                rec_us[d] / 1000.0, rec_x);
  }

  const double wb4 = wb_us[3] > 0 ? double(wb_us[0]) / double(wb_us[3]) : 0;
  const double rec4 =
      rec_us[3] > 0 ? double(rec_us[0]) / double(rec_us[3]) : 0;
  const bool depth4_wins = wb4 >= 1.3 && rec4 >= 1.3;
  const bool depth1_flat = wb_us[1] <= wb_us[0] + wb_us[0] * 15 / 100 &&
                           rec_us[1] <= rec_us[0] + rec_us[0] * 15 / 100;
  std::printf(
      "\nDepth 0 pays every op's device time serially; the batched arms\n"
      "keep up to `depth` ops in flight, so the wave's wall time is the\n"
      "per-op latency times ceil(ops/depth). Writeback batches come from\n"
      "the pool's constraint-free flush waves. Recovery reads are the\n"
      "drain workers' misses: at most one per worker is in flight.\n");
  std::printf("depth-4 target (>= 1.30x over sync on both): %s "
              "(writeback %.2fx, recovery %.2fx)\n",
              depth4_wins ? "MET" : "NOT MET", wb4, rec4);
  std::printf("depth-1 target (<= 1.15x of sync wall on both): %s\n",
              depth1_flat ? "MET" : "NOT MET");
  return depth4_wins && depth1_flat ? 0 : 1;
}

// ---- `--txn`: undo-pass cost vs abort ratio ----
//
// Experiment S10: the same transactional workload per method at abort
// ratios 0/10/25/50%. The ratio drives both redo-side cost (runtime
// aborts leave CLR chains on the log that every recovery replays) and
// undo-side cost (transactions still open at the crash are losers the
// undo pass must roll back). At 0% both must be silent: no losers, no
// CLRs, no "undo" phase in the timeline — the loser-free recovery is
// byte-identical to the pre-transaction engine.

struct TxnRow {
  size_t losers = 0;         ///< open at the crash, undone by recovery
  uint64_t clrs = 0;         ///< CLRs the undo pass emitted
  uint64_t walked = 0;       ///< chain records visited by undo
  uint64_t undo_us = 0;      ///< "undo" phase wall time
  uint64_t recover_us = 0;   ///< whole Recover() wall time
  uint64_t log_records = 0;  ///< stable records replayed (incl. CLRs)
};

int RunTxnUndoCost() {
  constexpr size_t kPages = 64;
  constexpr size_t kTxns = 240;
  constexpr size_t kOpsPerTxn = 6;
  constexpr size_t kAbortPercents[] = {0, 10, 25, 50};

  std::printf(
      "Experiment S10: undo-pass cost vs abort ratio. Per method and\n"
      "ratio, %zu transactions of %zu slot writes each: the ratio of\n"
      "them rolls back at runtime (leaving CLR chains the redo pass\n"
      "replays) and the same share of extra sessions is left open at\n"
      "the crash (losers the undo pass rolls back via fresh CLRs).\n"
      "`undo ms` is the timeline's undo-phase wall time inside the\n"
      "whole recovery (`total ms`); at 0%% the pass must be silent.\n\n",
      kTxns, kOpsPerTxn);
  std::printf("%-16s %6s %7s %6s %7s %8s %8s %9s\n", "method", "abort%",
              "losers", "clrs", "walked", "records", "undo ms", "total ms");

  bool silent_at_zero = true;
  for (const MethodKind kind : methods::kMethodKinds) {
    for (const size_t abort_percent : kAbortPercents) {
      engine::MiniDbOptions db_options;
      db_options.num_pages = kPages;
      db_options.cache_capacity = 0;  // concurrent mode requires unbounded
      engine::MiniDb db(db_options, methods::MakeMethod(kind, {kPages}));
      REDO_CHECK(db.BeginConcurrent().ok());
      Rng rng(0x510bea7 ^ abort_percent);

      // The committed/aborted stream: one session, disjoint low pages.
      {
        engine::MiniDb::Session session = db.NewSession();
        for (size_t t = 0; t < kTxns; ++t) {
          REDO_CHECK(session.Begin().ok());
          for (size_t i = 0; i < kOpsPerTxn; ++i) {
            const storage::PageId page =
                static_cast<storage::PageId>((t * kOpsPerTxn + i) %
                                             (kPages / 2));
            REDO_CHECK(session
                           .WriteSlot(page, static_cast<uint32_t>(i),
                                      int64_t(t * 100 + i))
                           .ok());
          }
          if (rng.Below(100) < abort_percent) {
            REDO_CHECK(session.Abort().ok());
          } else {
            REDO_CHECK(session.Commit().ok());
          }
        }
      }

      // The losers: abort%/5 sessions left open at the crash, writing
      // the high pages. A final committed transaction forces their
      // records stable, then the crash strands them mid-flight.
      std::vector<engine::MiniDb::Session> open;
      const size_t open_sessions = abort_percent / 5;
      open.reserve(open_sessions);
      for (size_t s = 0; s < open_sessions; ++s) {
        open.push_back(db.NewSession());
        REDO_CHECK(open.back().Begin().ok());
        for (size_t i = 0; i < kOpsPerTxn; ++i) {
          const storage::PageId page = static_cast<storage::PageId>(
              kPages / 2 + (s * kOpsPerTxn + i) % (kPages / 2));
          REDO_CHECK(open.back()
                         .WriteSlot(page, static_cast<uint32_t>(i),
                                    int64_t(s * 1000 + i))
                         .ok());
        }
      }
      {
        engine::MiniDb::Session forcer = db.NewSession();
        REDO_CHECK(forcer.Begin().ok());
        REDO_CHECK(forcer.WriteSlot(0, 7, 1).ok());
        REDO_CHECK(forcer.Commit().ok());
      }

      db.Crash();
      open.clear();  // handles die after the crash: true losers

      const uint64_t clrs_before = db.txn_undo_metrics().clrs_emitted.load();
      const uint64_t walked_before =
          db.txn_undo_metrics().records_walked.load();
      const uint64_t losers_before = db.txn_undo_metrics().losers.load();
      obs::RecoveryTracer tracer(&db.metrics());
      db.Attach(redo::engine::Instrumentation{nullptr, &tracer});
      const auto start = std::chrono::steady_clock::now();
      REDO_CHECK(db.Recover().ok());
      const auto end = std::chrono::steady_clock::now();
      db.Attach(redo::engine::Instrumentation{nullptr, nullptr});

      TxnRow row;
      row.recover_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(end - start)
              .count());
      row.losers =
          static_cast<size_t>(db.txn_undo_metrics().losers.load() -
                              losers_before);
      row.clrs = db.txn_undo_metrics().clrs_emitted.load() - clrs_before;
      row.walked = db.txn_undo_metrics().records_walked.load() - walked_before;
      row.log_records = db.log().StableRecords(1).value().size();
      for (const obs::TraceEvent& event : tracer.events()) {
        if (event.event != "phase-end" || !event.timed) continue;
        for (const auto& [key, value] : event.strings) {
          if (key == "phase" && value == "undo") row.undo_us += event.wall_us;
        }
      }
      if (abort_percent == 0 && (row.losers != 0 || row.undo_us != 0)) {
        silent_at_zero = false;
      }

      std::printf("%-16s %6zu %7zu %6llu %7llu %8llu %8.2f %9.2f\n",
                  methods::MethodKindName(kind), abort_percent, row.losers,
                  (unsigned long long)row.clrs, (unsigned long long)row.walked,
                  (unsigned long long)row.log_records, row.undo_us / 1000.0,
                  row.recover_us / 1000.0);
    }
  }
  std::printf(
      "\nThe undo pass scales with what the crash strands, not with the\n"
      "log: losers' chains are walked in one merged reverse pass, CLRs\n"
      "from runtime aborts only add redo volume (they are never undone,\n"
      "only hopped via undo_next). The 0%% rows are the no-losers\n"
      "guarantee: no undo phase, no CLRs, timelines byte-identical to a\n"
      "transaction-free engine.\n");
  std::printf("0%% abort rows silent (no losers, no undo phase): %s\n",
              silent_at_zero ? "MET" : "NOT MET");
  return silent_at_zero ? 0 : 1;
}

// Experiment S6, the default: the method matrix.
int RunMethodMatrix() {
  constexpr size_t kSeeds = 4;
  std::printf("Experiment S6: the §6 method matrix (identical workloads,\n"
              "%zu seeds x 4 crash segments x 250 actions, 16 pages)\n\n",
              kSeeds);
  std::printf("%-16s %10s %12s %11s %11s %9s %9s\n", "method", "invariant",
              "stable ops", "log KB", "disk", "log", "crashes");
  std::printf("%-16s %10s %12s %11s %11s %9s %9s\n", "", "holds",
              "recovered", "", "writes", "forces", "");
  std::vector<std::pair<MethodKind, MatrixRow>> rows;
  for (const MethodKind kind : methods::kMethodKinds) {
    rows.emplace_back(kind, RunMethod(kind, kSeeds));
    const MatrixRow& row = rows.back().second;
    std::printf("%-16s %10s %12zu %11llu %11llu %9llu %9zu\n",
                methods::MethodKindName(kind),
                row.all_ok ? "always" : "VIOLATED", row.stable_ops,
                (unsigned long long)row.log_bytes / 1024,
                (unsigned long long)row.disk_writes,
                (unsigned long long)row.log_forces, row.crashes);
    if (!row.all_ok) std::printf("    failure: %s\n", row.failure.c_str());
  }

  std::printf("\nRecovery observability (redo-test verdicts across every\n"
              "crash-sim recovery; phase wall time from one traced\n"
              "full-log recovery per seed):\n\n");
  std::printf("%-16s %9s %9s %9s %13s\n", "method", "applied", "skipped",
              "notexp", "redo-scan us");
  for (const auto& [kind, row] : rows) {
    const auto scan = row.phase_us.find("redo-scan");
    std::printf("%-16s %9llu %9llu %9llu %13llu\n",
                methods::MethodKindName(kind),
                (unsigned long long)row.applied,
                (unsigned long long)row.skipped_installed,
                (unsigned long long)row.not_exposed,
                (unsigned long long)(scan != row.phase_us.end() ? scan->second
                                                                 : 0));
  }
  std::printf(
      "\nThe verdict columns are the paper's redo test made visible:\n"
      "redo-all methods (logical, physical) apply everything since the\n"
      "checkpoint and never skip; the LSN-test methods skip records the\n"
      "page LSN proves installed; the analysis variant converts skips\n"
      "into not-exposed verdicts that cost no page fetch at all.\n");
  std::printf(
      "\nShape check (paper §6): every method maintains the recovery\n"
      "invariant at every crash point. Physical logging pays the largest\n"
      "log (full images); logical recovery writes the stable state only\n"
      "at checkpoints (fewest disk writes); the LSN methods sit between,\n"
      "with generalized-LSN matching physiological except on splits.\n");
  return 0;
}

constexpr const char* kUsage =
    "usage: bench_methods_matrix [--parallel | --frontend | --instant | "
    "--txn | --overhead | --io]\n";

int Usage(const char* argument) {
  std::fprintf(stderr, "bench_methods_matrix: unknown argument '%s'\n%s",
               argument, kUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::pair<const char*, int (*)()> kModes[] = {
      {"--parallel", RunParallelSpeedup}, {"--frontend", RunFrontendThroughput},
      {"--instant", RunInstantRestart},   {"--txn", RunTxnUndoCost},
      {"--overhead", RunTracingOverhead}, {"--io", RunAsyncIoSweep}};
  if (argc == 1) return RunMethodMatrix();
  for (const auto& [flag, run] : kModes) {
    if (std::strcmp(argv[1], flag) == 0) {
      return argc == 2 ? run() : Usage(argv[2]);
    }
  }
  return Usage(argv[1]);
}
