// Instant restart (DESIGN.md §11): RecoverInstant() opens the engine
// for Session traffic right after analysis; touching a page drains its
// pending redo chain on demand while background workers sweep the rest
// in write-graph order. These tests pin the API contracts, the
// equivalence with the quiescing Recover() for every method, and the
// races the design must survive (readers vs the background drain, a
// second crash mid-drain). The interleaving-heavy oracles live in the
// concurrent simulator's instant mode.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/minidb.h"
#include "engine/ops.h"
#include "method_param_name.h"
#include "obs/recovery_trace.h"
#include "storage/fault_injector.h"
#include "util/rng.h"

namespace redo::engine {
namespace {

using methods::MethodKind;
using storage::PageId;

constexpr size_t kPages = 24;
constexpr uint32_t kSlots = 4;

EngineOptions InstantEngine(size_t workers) {
  EngineOptions engine;
  engine.instant_restart = true;
  engine.instant_drain_workers = workers;
  engine.group_commit_window_us = 5;
  return engine;
}

std::unique_ptr<MiniDb> MakeDb(MethodKind kind, const EngineOptions& engine) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 0;
  options.engine = engine;
  return std::make_unique<MiniDb>(options, methods::MakeMethod(kind, {kPages}));
}

// Deterministic serial workload: slot writes with a sprinkle of slot
// transfers so the redo plan has multi-page records bridging chains.
// Transfers stay among pages [0, transfer_pages): the chains of the
// pages above are single-page, and 0 leaves no multi-page record.
void RunWorkload(MiniDb& db, uint64_t seed, size_t ops,
                 PageId transfer_pages = kPages) {
  Rng rng(seed);
  for (size_t i = 0; i < ops; ++i) {
    const PageId page = static_cast<PageId>(rng.Below(kPages));
    if (rng.Below(100) < 6 && page < transfer_pages) {
      PageId dst = static_cast<PageId>(rng.Below(transfer_pages));
      if (dst == page) dst = static_cast<PageId>((dst + 1) % transfer_pages);
      ASSERT_TRUE(db.NewSession().Split(MakeSlotTransfer(page, 0, dst, 1)).ok());
    } else {
      const uint32_t slot = static_cast<uint32_t>(rng.Below(kSlots));
      ASSERT_TRUE(
          db.NewSession().WriteSlot(page, slot, static_cast<int64_t>(i + 1)).ok());
    }
  }
}

std::vector<storage::Page> SnapshotDisk(MiniDb& db) {
  std::vector<storage::Page> pages;
  pages.reserve(kPages);
  for (PageId p = 0; p < kPages; ++p) pages.push_back(db.disk().PeekPage(p));
  return pages;
}

void RestoreCrashState(MiniDb& db, const std::vector<storage::Page>& disk) {
  db.Crash();
  for (PageId p = 0; p < kPages; ++p) db.disk().RepairPage(p, disk[p]);
}

std::vector<int64_t> SlotSnapshot(MiniDb& db) {
  std::vector<int64_t> values;
  values.reserve(kPages * kSlots);
  for (PageId p = 0; p < kPages; ++p) {
    for (uint32_t s = 0; s < kSlots; ++s) {
      Result<int64_t> got = db.NewSession().ReadSlot(p, s);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      values.push_back(got.ok() ? got.value() : -1);
    }
  }
  return values;
}

// Crash a warmed-up engine and return the crash-time disk image, so a
// test can recover the identical state as many times as it likes.
std::vector<storage::Page> BuildCrashState(MiniDb& db, uint64_t seed,
                                           size_t ops,
                                           PageId transfer_pages = kPages) {
  RunWorkload(db, seed, ops, transfer_pages);
  EXPECT_TRUE(db.log().ForceAll().ok());
  db.Crash();
  return SnapshotDisk(db);
}

// Gives pages [0, pages) their birth, flushes them and checkpoints past
// it: a later restart's scan starts after those births, so each of those
// pages' chains must read its page (par::BlindFirstTouch). Writes slot
// kSlots, which no workload touches.
void BirthBeforeTheScan(MiniDb& db, PageId pages) {
  for (PageId p = 0; p < pages; ++p) {
    ASSERT_TRUE(db.NewSession().WriteSlot(p, kSlots, 1).ok());
  }
  ASSERT_TRUE(db.FlushEverything().ok());
  ASSERT_TRUE(db.Checkpoint().ok());
}

// The crash state of `seed`'s workload with one loser stranded at the
// crash: its writes to pages 0-5 are stable, its commit never came.
// Pages [0, read_pages) are born before the restart's scan
// (BirthBeforeTheScan); the others are born inside it.
std::unique_ptr<MiniDb> CrashWithLoser(MethodKind kind, uint64_t seed,
                                       PageId read_pages = 0) {
  auto db = MakeDb(kind, InstantEngine(2));
  BirthBeforeTheScan(*db, read_pages);
  RunWorkload(*db, seed, /*ops=*/400);
  MiniDb::Session loser = db->NewSession();
  EXPECT_TRUE(loser.Begin().ok());
  for (PageId p = 0; p < 6; ++p) {
    EXPECT_TRUE(loser.WriteSlot(p, 0, -1 - static_cast<int64_t>(p)).ok());
  }
  EXPECT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  return db;  // the loser's handle dies after the crash: no runtime abort
}

// Every page's full bytes, header included, through the cache.
std::vector<storage::Page> PageBytes(MiniDb& db) {
  std::vector<storage::Page> pages;
  pages.reserve(kPages);
  for (PageId p = 0; p < kPages; ++p) {
    Result<storage::Page*> page = db.FetchPage(p);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    pages.push_back(page.ok() ? *page.value() : storage::Page());
  }
  return pages;
}

// Makes `page` unreadable until healed: a sticky read fault.
void MakeUnreadable(MiniDb& db, storage::FaultInjector& injector,
                    PageId page) {
  db.disk().set_fault_injector(&injector);
  injector.set_paused(false);
  EXPECT_FALSE(db.disk().ReadPage(page).ok());
  injector.set_paused(true);  // no new faults; the sticky one stays
}

storage::FaultInjectorOptions EveryReadFails() {
  storage::FaultInjectorOptions options;
  options.read_error_probability = 1.0;
  return options;
}

TEST(InstantRestartGuardsTest, RecoverInstantRequiresTheOptIn) {
  auto db = MakeDb(MethodKind::kPhysical, EngineOptions{});
  const Status refused = db->RecoverInstant();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
}

TEST(InstantRestartGuardsTest, ValidateRejectsZeroDrainWorkers) {
  MiniDbOptions options;
  options.engine.instant_restart = true;
  options.engine.instant_drain_workers = 0;
  const Status invalid = options.Validate();
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.code(), StatusCode::kInvalidArgument);
}

TEST(InstantRestartGuardsTest, WaitWithoutInstantRecoveryFails) {
  auto db = MakeDb(MethodKind::kPhysical, InstantEngine(1));
  const Status refused = db->WaitUntilRecovered();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
}

TEST(InstantRestartGuardsTest, CheckpointsRefusedWhileServing) {
  auto db = MakeDb(MethodKind::kPhysiological, InstantEngine(1));
  const std::vector<storage::Page> crash_disk =
      BuildCrashState(*db, /*seed=*/11, /*ops=*/2000);
  RestoreCrashState(*db, crash_disk);
  ASSERT_TRUE(db->RecoverInstant().ok());
  // A checkpoint taken now would advance the redo point past chains
  // that have not replayed yet. The refusal is only observable while
  // the drain is still running; if the background worker already won,
  // the guard is vacuously satisfied.
  if (db->recovery_phase() == MiniDb::RecoveryPhase::kServing) {
    const Status ckpt = db->Checkpoint();
    if (!ckpt.ok()) {
      EXPECT_EQ(ckpt.code(), StatusCode::kFailedPrecondition);
    }
    const Result<core::Lsn> fuzzy = db->FuzzyCheckpoint();
    if (!fuzzy.ok()) {
      EXPECT_EQ(fuzzy.status().code(), StatusCode::kFailedPrecondition);
    }
  }
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  ASSERT_TRUE(db->EndConcurrent().ok());
}

class InstantRestartMethodTest : public ::testing::TestWithParam<MethodKind> {};

// The heart of the tentpole: for every method, serving-while-redoing
// must land on exactly the state the quiescing Recover() produces from
// the same crash disk. §5's claim — any linear extension of the write
// graph is a correct redo order — is what makes the on-demand +
// background interleaving legal.
TEST_P(InstantRestartMethodTest, InstantEqualsOfflineRecovery) {
  auto db = MakeDb(GetParam(), InstantEngine(2));
  const std::vector<storage::Page> crash_disk =
      BuildCrashState(*db, /*seed=*/7, /*ops=*/600);

  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->recovery_phase(), MiniDb::RecoveryPhase::kRecovered);
  const std::vector<int64_t> expected = SlotSnapshot(*db);

  RestoreCrashState(*db, crash_disk);
  ASSERT_TRUE(db->RecoverInstant().ok());
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  EXPECT_EQ(db->recovery_phase(), MiniDb::RecoveryPhase::kRecovered);
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_EQ(SlotSnapshot(*db), expected);
  EXPECT_GE(db->instant_redo_metrics().restarts.load(), 1u);
}

// A restart reads the stable log once: one analysis visit builds the
// transaction table, the DPT and the plan, for instant restart and for
// the parallel quiescing restart alike. The drain and the undo pass
// read records by LSN, never by another visit.
TEST_P(InstantRestartMethodTest, OneStableVisitPerRestart) {
  EngineOptions engine = InstantEngine(2);
  engine.parallel_workers = 4;
  auto db = MakeDb(GetParam(), engine);
  RunWorkload(*db, /*seed=*/5, /*ops=*/200);
  ASSERT_TRUE(db->Checkpoint().ok());
  RunWorkload(*db, /*seed=*/6, /*ops=*/200);
  {
    // A loser stranded at the crash: its handle dies after the crash.
    MiniDb::Session loser = db->NewSession();
    ASSERT_TRUE(loser.Begin().ok());
    ASSERT_TRUE(loser.WriteSlot(2, 0, -2).ok());
    ASSERT_TRUE(db->log().ForceAll().ok());
    db->Crash();
  }
  const std::vector<storage::Page> crash_disk = SnapshotDisk(*db);
  auto visits = [&db] { return db->log().stats().stable_visits; };

  uint64_t before = visits();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(visits() - before, 1u) << "parallel Recover()";
  EXPECT_EQ(db->txn_undo_metrics().losers.load(), 1u);

  RestoreCrashState(*db, crash_disk);
  before = visits();
  ASSERT_TRUE(db->RecoverInstant().ok());
  EXPECT_EQ(visits() - before, 1u) << "RecoverInstant()";
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_EQ(visits() - before, 1u) << "the drain visited the log";
}

INSTANTIATE_TEST_SUITE_P(AllMethods, InstantRestartMethodTest,
                         ::testing::ValuesIn(methods::kMethodKinds));

// Physical logging images a page on every write, so most images of a
// suffix are superseded by a later image of the same page. An aborted
// transaction's CLRs, interleaved with them, block supersession where
// they restore a page. Both drains — quiescing and instant — must still
// land on the serial redo's bytes, installing nothing for the
// superseded images.
TEST(InstantRestartTest, SupersededImagesRecoverLikeOffline) {
  auto db = MakeDb(MethodKind::kPhysical, InstantEngine(2));
  for (int round = 0; round < 8; ++round) {
    for (PageId p = 0; p < 6; ++p) {
      ASSERT_TRUE(db->NewSession().WriteSlot(p, round % kSlots, 10 * round + p).ok());
    }
    if (round % 2 == 0) {
      MiniDb::Session txn = db->NewSession();
      ASSERT_TRUE(txn.Begin().ok());
      for (PageId p : {1u, 3u, 5u}) {
        ASSERT_TRUE(txn.WriteSlot(p, 1, -round).ok());
      }
      ASSERT_TRUE(txn.Abort().ok());
    }
  }
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  const std::vector<storage::Page> crash_disk = SnapshotDisk(*db);

  ASSERT_TRUE(db->Recover().ok());  // the serial redo loop
  const std::vector<storage::Page> expected = PageBytes(*db);

  RestoreCrashState(*db, crash_disk);
  EngineOptions parallel = db->engine_options();
  parallel.parallel_workers = 4;
  db->set_engine_options(parallel);
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(PageBytes(*db), expected) << "parallel redo";
  const uint64_t superseded = db->parallel_redo_metrics().images_superseded;
  EXPECT_GT(superseded, 0u);

  RestoreCrashState(*db, crash_disk);
  db->disk().ResetStats();
  ASSERT_TRUE(db->RecoverInstant().ok());
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  EXPECT_EQ(db->disk().stats().reads, 0u) << "every chain starts with an image";
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_EQ(PageBytes(*db), expected) << "instant restart";
  const par::InstantRedoMetrics& metrics = db->instant_redo_metrics();
  EXPECT_EQ(metrics.images_superseded.load(), superseded)
      << "both drains replay the same plan";
  EXPECT_EQ(metrics.tasks_skipped.load(), 0u)
      << "a superseded image still counts as applied";
}

// A session read issued the moment the engine opens must see the fully
// recovered value for that page — the on-demand drain runs before the
// read no matter how far the background sweep has gotten.
TEST(InstantRestartTest, OnDemandDrainServesReadsDuringRecovery) {
  auto db = MakeDb(MethodKind::kPhysical, InstantEngine(1));
  const std::vector<storage::Page> crash_disk =
      BuildCrashState(*db, /*seed=*/13, /*ops=*/1500);

  ASSERT_TRUE(db->Recover().ok());
  const std::vector<int64_t> expected = SlotSnapshot(*db);

  RestoreCrashState(*db, crash_disk);
  ASSERT_TRUE(db->RecoverInstant().ok());
  {
    MiniDb::Session session = db->NewSession();
    for (PageId p = 0; p < kPages; ++p) {
      for (uint32_t s = 0; s < kSlots; ++s) {
        Result<int64_t> got = session.ReadSlot(p, s);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.value(), expected[p * kSlots + s])
            << "page " << p << " slot " << s;
      }
    }
  }
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  ASSERT_TRUE(db->EndConcurrent().ok());
  const auto& metrics = db->instant_redo_metrics();
  EXPECT_GT(metrics.tasks_applied.load() + metrics.tasks_skipped.load(), 0u);
}

// §6.2: a physical write replaces a whole page, so the stable page it
// overwrites is unexposed. Every chain of a physical instant restart
// starts with a page image, and the drain installs it without reading
// the page (the first-touch rule).
TEST(InstantRestartTest, PhysicalDrainReadsNoPages) {
  auto offline = CrashWithLoser(MethodKind::kPhysical, /*seed=*/31);
  ASSERT_TRUE(offline->Recover().ok());
  const std::vector<storage::Page> expected = PageBytes(*offline);

  auto db = CrashWithLoser(MethodKind::kPhysical, /*seed=*/31);
  db->disk().ResetStats();
  db->pool().ResetStats();
  ASSERT_TRUE(db->RecoverInstant().ok());
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  EXPECT_EQ(db->disk().stats().reads, 0u);
  EXPECT_EQ(db->txn_undo_metrics().losers.load(), 1u);
  const storage::BufferPoolStats& pool = db->pool().stats();
  EXPECT_GT(pool.blind_installs, 0u);
  EXPECT_EQ(pool.misses, 0u);
  EXPECT_EQ(pool.fetches, pool.hits + pool.misses + pool.blind_installs);
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_EQ(PageBytes(*db), expected);
}

// Every fetch is exactly one of a hit, a miss or a blind install, after
// a serial, a parallel and an instant restart alike: every drain
// fetches through the one pool.
TEST(InstantRestartTest, PoolFetchesBalanceAfterEveryRestartKind) {
  auto expect_balanced = [](MiniDb& db, const char* restart) {
    const storage::BufferPoolStats& pool = db.pool().stats();
    EXPECT_EQ(pool.fetches, pool.hits + pool.misses + pool.blind_installs)
        << restart;
  };
  for (size_t workers : {size_t{1}, size_t{4}}) {
    auto db = CrashWithLoser(MethodKind::kPhysical, /*seed=*/43);
    EngineOptions engine = db->engine_options();
    engine.parallel_workers = workers;
    db->set_engine_options(engine);
    db->pool().ResetStats();
    ASSERT_TRUE(db->Recover().ok());
    expect_balanced(*db, workers > 1 ? "parallel" : "serial");
    if (workers > 1) {
      EXPECT_GT(db->pool().stats().blind_installs, 0u);
    }
  }
  auto db = CrashWithLoser(MethodKind::kPhysical, /*seed=*/43);
  db->pool().ResetStats();
  ASSERT_TRUE(db->RecoverInstant().ok());
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  expect_balanced(*db, "instant");
  EXPECT_GT(db->pool().stats().blind_installs, 0u);
  ASSERT_TRUE(db->EndConcurrent().ok());
}

// Under the LSN test the instant drain reads exactly the pages the
// serial restart reads, and installs the same pages blind. Every page
// has a chain, and each is read or installed blind once. The upper half
// is born inside the scan and starts from the zero page. The lower half
// was born before it and is read, except where its first scanned task
// is a page image (a physiological transfer logs its dst as one): this
// seed installs two such pages blind.
TEST(InstantRestartTest, PhysiologicalDrainReadsWhatOfflineRedoReads) {
  constexpr PageId kRead = kPages / 2;
  auto offline = CrashWithLoser(MethodKind::kPhysiological, /*seed=*/37, kRead);
  offline->disk().ResetStats();
  offline->pool().ResetStats();
  ASSERT_TRUE(offline->Recover().ok());
  const uint64_t offline_reads = offline->disk().stats().reads;
  const uint64_t offline_blind = offline->pool().stats().blind_installs;
  EXPECT_EQ(offline_reads, 10u);
  EXPECT_EQ(offline_blind, 14u);

  auto db = CrashWithLoser(MethodKind::kPhysiological, /*seed=*/37, kRead);
  db->disk().ResetStats();
  db->pool().ResetStats();
  ASSERT_TRUE(db->RecoverInstant().ok());
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  EXPECT_EQ(db->disk().stats().reads, offline_reads);
  EXPECT_EQ(db->pool().stats().blind_installs, offline_blind);
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_EQ(PageBytes(*db), PageBytes(*offline));
}

// A logical whole split whose transform does not read dst computes dst
// from src alone: the drain installs dst without reading it, so a dst
// that cannot be read does not fail the drain. (Page 20 is touched by
// the split alone; an earlier logged write would read it first.)
TEST(InstantRestartTest, LogicalWholeSplitInstallsDstBlind) {
  auto build = [] {
    auto db = MakeDb(MethodKind::kLogical, InstantEngine(1));
    MiniDb::Session session = db->NewSession();
    for (uint32_t slot = 0; slot < storage::Page::NumSlots(); slot += 37) {
      EXPECT_TRUE(session.WriteSlot(1, slot, 1000 + slot).ok());
    }
    EXPECT_TRUE(
        session.Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 1, 20})
            .ok());
    EXPECT_TRUE(db->log().ForceAll().ok());
    db->Crash();
    return db;
  };
  auto offline = build();
  ASSERT_TRUE(offline->Recover().ok());
  const std::vector<storage::Page> expected = PageBytes(*offline);

  auto db = build();
  storage::FaultInjector injector(EveryReadFails(), /*seed=*/1);
  MakeUnreadable(*db, injector, 20);
  ASSERT_TRUE(db->RecoverInstant().ok());
  const Status drained = db->WaitUntilRecovered();
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_GE(db->pool().stats().blind_installs, 1u);
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_EQ(PageBytes(*db), expected);
  db->disk().set_fault_injector(nullptr);
}

// A sticky read fault on a page whose chain starts with a page image
// never fires under redo-all: the page is installed, not read. Under
// the LSN test the same fault surfaces as the drain's first error when
// the page's chain needs its read: page 7 was born, flushed and
// checkpointed past before the scan. The quiescing multi-worker
// Recover() runs the same drain: it fails only where the instant drain
// fails, and once the fault is gone a crash and rerun land on the
// serial recovery's bytes.
TEST(InstantRestartTest, StickyReadFaultOnlyFailsDrainsThatRead) {
  constexpr PageId kFaulty = 7;
  constexpr PageId kRead = kFaulty + 1;
  {
    auto db = CrashWithLoser(MethodKind::kPhysical, /*seed=*/41, kRead);
    storage::FaultInjector injector(EveryReadFails(), /*seed=*/1);
    MakeUnreadable(*db, injector, kFaulty);
    ASSERT_TRUE(db->RecoverInstant().ok());
    const Status drained = db->WaitUntilRecovered();
    EXPECT_TRUE(drained.ok()) << drained.ToString();
    ASSERT_TRUE(db->EndConcurrent().ok());
    db->disk().set_fault_injector(nullptr);
  }
  {
    auto db = CrashWithLoser(MethodKind::kPhysiological, /*seed=*/41, kRead);
    storage::FaultInjector injector(EveryReadFails(), /*seed=*/1);
    MakeUnreadable(*db, injector, kFaulty);
    ASSERT_TRUE(db->RecoverInstant().ok());
    const Status drained = db->WaitUntilRecovered();
    EXPECT_EQ(drained.code(), StatusCode::kUnavailable) << drained.ToString();
    db->Crash();
    db->disk().set_fault_injector(nullptr);
  }
  for (const MethodKind kind :
       {MethodKind::kPhysical, MethodKind::kPhysiological}) {
    auto serial = CrashWithLoser(kind, /*seed=*/41, kRead);
    ASSERT_TRUE(serial->Recover().ok());
    const std::vector<storage::Page> expected = PageBytes(*serial);

    auto db = CrashWithLoser(kind, /*seed=*/41, kRead);
    EngineOptions engine = db->engine_options();
    engine.parallel_workers = 4;
    db->set_engine_options(engine);
    storage::FaultInjector injector(EveryReadFails(), /*seed=*/1);
    MakeUnreadable(*db, injector, kFaulty);
    const Status recovered = db->Recover();
    if (kind == MethodKind::kPhysical) {
      EXPECT_TRUE(recovered.ok()) << recovered.ToString();
      db->disk().set_fault_injector(nullptr);
    } else {
      EXPECT_EQ(recovered.code(), StatusCode::kUnavailable)
          << recovered.ToString();
      db->Crash();
      db->disk().set_fault_injector(nullptr);
      const Status rerun = db->Recover();
      ASSERT_TRUE(rerun.ok()) << rerun.ToString();
    }
    EXPECT_EQ(PageBytes(*db), expected) << methods::MethodKindName(kind);
  }
}

// Session writes committed while redo is still draining are durable
// across the NEXT crash — serving-while-redoing hands out real commits,
// not provisional ones.
TEST(InstantRestartTest, WritesDuringServingSurviveTheNextCrash) {
  auto db = MakeDb(MethodKind::kPhysical, InstantEngine(1));
  const std::vector<storage::Page> crash_disk =
      BuildCrashState(*db, /*seed=*/17, /*ops=*/1000);
  RestoreCrashState(*db, crash_disk);

  ASSERT_TRUE(db->RecoverInstant().ok());
  {
    MiniDb::Session session = db->NewSession();
    for (PageId p = 0; p < kPages; ++p) {
      ASSERT_TRUE(session.WriteSlot(p, 3, 7000 + p).ok());
    }
    ASSERT_TRUE(session.Commit().ok());
  }
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  ASSERT_TRUE(db->EndConcurrent().ok());

  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  for (PageId p = 0; p < kPages; ++p) {
    Result<int64_t> got = db->NewSession().ReadSlot(p, 3);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), 7000 + p) << "page " << p;
  }
}

// The TSan target: reader threads hammer every page through Sessions
// while two background workers drain chains, and writer threads commit
// transactions on every page meanwhile. Transfers among the lower half
// of the pages bridge those chains, so bridged chains drain under the
// exclusive gate while the upper half's single-page chains drain under
// the shared gate and their page latches — both paths at once. Every
// read must return the recovered value, every acked write must read
// back after the drain and after a second crash, and nothing may race.
TEST(InstantRestartTest, ReadersRaceTheBackgroundDrain) {
  auto db = MakeDb(MethodKind::kPhysiological, InstantEngine(2));
  const std::vector<storage::Page> crash_disk = BuildCrashState(
      *db, /*seed=*/19, /*ops=*/1500, /*transfer_pages=*/kPages / 2);

  ASSERT_TRUE(db->Recover().ok());
  const std::vector<int64_t> expected = SlotSnapshot(*db);

  RestoreCrashState(*db, crash_disk);
  ASSERT_TRUE(db->RecoverInstant().ok());
  constexpr size_t kReaders = 4;
  constexpr size_t kWriters = 2;
  // Writers own the slots above the workload's (and the transfers'),
  // one slot each, so readers' expectations stay exact.
  auto written = [](size_t writer, PageId page) {
    return static_cast<int64_t>(100000 * (writer + 1) + page);
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReaders; ++t) {
    threads.emplace_back([&db, &expected, t] {
      MiniDb::Session session = db->NewSession();
      // Each reader starts at a different page so on-demand drains and
      // the background sweep collide from several directions at once.
      for (size_t i = 0; i < kPages; ++i) {
        const PageId p = static_cast<PageId>((t * 7 + i) % kPages);
        for (uint32_t s = 0; s < kSlots; ++s) {
          Result<int64_t> got = session.ReadSlot(p, s);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(got.value(), expected[p * kSlots + s])
              << "page " << p << " slot " << s;
        }
      }
    });
  }
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&db, &written, w] {
      MiniDb::Session session = db->NewSession();
      for (size_t i = 0; i < kPages; ++i) {
        const PageId p = static_cast<PageId>((w * 11 + i) % kPages);
        ASSERT_TRUE(session.Begin().ok());
        ASSERT_TRUE(session
                        .WriteSlot(p, static_cast<uint32_t>(kSlots + w),
                                   written(w, p))
                        .ok());
        ASSERT_TRUE(session.Commit().ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  ASSERT_TRUE(db->EndConcurrent().ok());
  auto expect_writes_read_back = [&](const char* when) {
    for (size_t w = 0; w < kWriters; ++w) {
      for (PageId p = 0; p < kPages; ++p) {
        Result<int64_t> got =
            db->NewSession().ReadSlot(p, static_cast<uint32_t>(kSlots + w));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(got.value(), written(w, p))
            << when << ": writer " << w << " page " << p;
      }
    }
  };
  EXPECT_EQ(SlotSnapshot(*db), expected);
  expect_writes_read_back("after the drain");

  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(SlotSnapshot(*db), expected);
  expect_writes_read_back("after a second crash");
}

// Serving while redoing blocks only the pages redo touches. With no
// multi-page record every chain is single-page: a session op on a page
// already drained takes the gate shared and its own latch, so it
// finishes while another session's on-demand drain still waits out a
// 20 ms device read — instead of queueing behind that read on the
// driver's mutex and the exclusive gate. Every page is born before the
// scan, so every chain reads its page.
TEST(InstantRestartTest, DrainedPageOpsDoNotWaitForAnotherPagesRead) {
  auto db = MakeDb(MethodKind::kPhysiological, InstantEngine(1));
  BirthBeforeTheScan(*db, kPages);
  const std::vector<storage::Page> crash_disk = BuildCrashState(
      *db, /*seed=*/47, /*ops=*/600, /*transfer_pages=*/0);
  RestoreCrashState(*db, crash_disk);
  constexpr uint64_t kReadUs = 20000;
  EngineOptions engine = db->engine_options();
  engine.simulated_read_latency_us = kReadUs;
  db->set_engine_options(engine);

  ASSERT_TRUE(db->RecoverInstant().ok());
  {
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.ReadSlot(0, 0).ok());  // drains page 0 on demand
    std::thread drainer([&db] {
      MiniDb::Session other = db->NewSession();
      Result<int64_t> got = other.ReadSlot(kPages - 1, 0);
      EXPECT_TRUE(got.ok()) << got.status().ToString();
    });
    // Let the drainer reach its page's read.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const auto start = std::chrono::steady_clock::now();
    const Result<core::Lsn> wrote = session.WriteSlot(0, 1, 4242);
    const Result<int64_t> read = session.ReadSlot(0, 1);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    drainer.join();
    ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read.value(), 4242);
    EXPECT_LT(elapsed, std::chrono::microseconds(kReadUs / 2))
        << "an op on a drained page waited for another page's read";
  }
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_GT(db->instant_redo_metrics().pages_on_demand.load(), 0u);
}

// The network front end admits sessions once the engine reads
// concurrent. Instant restart publishes kServing first: a session that
// saw a concurrent engine still in kAnalyzing would skip its page's
// pending chain, and the LSN test would later skip that chain as
// installed. A watcher thread checks the order across restarts, with a
// recovery tracer attached so the restart does real work in between.
TEST(InstantRestartTest, ConcurrentIsPublishedOnlyOnceServing) {
  auto db = MakeDb(MethodKind::kPhysiological, InstantEngine(1));
  const std::vector<storage::Page> crash_disk =
      BuildCrashState(*db, /*seed=*/53, /*ops=*/300);
  obs::RecoveryTracer tracer(&db->metrics());
  db->Attach({nullptr, &tracer});
  for (int round = 0; round < 10; ++round) {
    RestoreCrashState(*db, crash_disk);
    std::atomic<bool> stop{false};
    std::atomic<int> seen{-1};
    std::thread watcher([&db, &stop, &seen] {
      while (!stop.load()) {
        if (db->concurrent()) {
          seen.store(static_cast<int>(db->recovery_phase()));
          return;
        }
      }
    });
    const Status recovered = db->RecoverInstant();
    stop.store(true);
    watcher.join();
    ASSERT_TRUE(recovered.ok()) << recovered.ToString();
    EXPECT_NE(seen.load(), static_cast<int>(MiniDb::RecoveryPhase::kAnalyzing))
        << "round " << round << ": concurrent before kServing";
    ASSERT_TRUE(db->WaitUntilRecovered().ok());
    ASSERT_TRUE(db->EndConcurrent().ok());
  }
  db->Attach({});
}

// Crashing mid-drain (before any traffic) must leave a state the
// quiescing Recover() brings back to exactly the offline answer; a
// commit acked during a later serving window must survive a crash that
// strikes while redo is STILL draining (the double crash).
TEST(InstantRestartTest, CrashDuringServingRecoversCleanly) {
  auto db = MakeDb(MethodKind::kPhysical, InstantEngine(1));
  const std::vector<storage::Page> crash_disk =
      BuildCrashState(*db, /*seed=*/23, /*ops=*/1200);

  ASSERT_TRUE(db->Recover().ok());
  const std::vector<int64_t> expected = SlotSnapshot(*db);

  // Crash between analysis and the first fetch: no traffic, no acks —
  // recovery owes exactly the offline state.
  RestoreCrashState(*db, crash_disk);
  ASSERT_TRUE(db->RecoverInstant().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(SlotSnapshot(*db), expected);

  // Double crash mid-drain with an acked commit in the window: the ack
  // is a promise the second recovery must keep.
  RestoreCrashState(*db, crash_disk);
  ASSERT_TRUE(db->RecoverInstant().ok());
  {
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.WriteSlot(2, 3, 424242).ok());
    ASSERT_TRUE(session.Commit().ok());
  }
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  Result<int64_t> got = db->NewSession().ReadSlot(2, 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 424242);
}

// An engine destroyed mid-drain stops its drain workers, as Crash()
// does; a joinable worker left behind would abort the process. Run in a
// child process so an abort fails this test, not the binary.
TEST(InstantRestartTest, DestroyedWhileServingExitsCleanly) {
  EXPECT_EXIT(
      {
        auto db = MakeDb(MethodKind::kPhysiological, InstantEngine(2));
        RestoreCrashState(*db, BuildCrashState(*db, /*seed=*/31, /*ops=*/2000));
        if (!db->RecoverInstant().ok()) std::exit(1);
        db.reset();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

// The redo.instant source feeds the engine's unified registry: a
// restart that served a commit during the drain records a non-zero
// time-to-first-commit.
TEST(InstantRestartTest, TimeToFirstCommitMetricIsRecorded) {
  auto db = MakeDb(MethodKind::kPhysical, InstantEngine(1));
  const std::vector<storage::Page> crash_disk =
      BuildCrashState(*db, /*seed=*/29, /*ops=*/1500);
  RestoreCrashState(*db, crash_disk);

  ASSERT_TRUE(db->RecoverInstant().ok());
  bool committed_while_serving = false;
  {
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.WriteSlot(0, 0, 1).ok());
    ASSERT_TRUE(session.Commit().ok());
    // The phase only moves forward: still kServing AFTER the ack means
    // the ack itself landed during serving and must have been timed.
    committed_while_serving =
        db->recovery_phase() == MiniDb::RecoveryPhase::kServing;
  }
  ASSERT_TRUE(db->WaitUntilRecovered().ok());
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_EQ(db->instant_redo_metrics().restarts.load(), 1u);
  if (committed_while_serving) {
    EXPECT_GT(db->instant_redo_metrics().time_to_first_commit_us.load(), 0u);
  }
}

// ---- The first-touch rule for born pages (par::BlindFirstTouch) ----
//
// A page whose chain starts at its birth (an op logged onto the zero
// page) starts from the zero page instead of being read; a page born
// before the restart's scan is read. Each test runs every restart kind:
// serial, the quiescing drain and the instant drain at 2, 4 and 8
// workers. The generalized method logs no birth (generalized.cc), so
// its chains read as before.

struct RestartMode {
  const char* name;
  bool instant;
  size_t workers;
};

constexpr RestartMode kRestartModes[] = {
    {"serial", false, 1},      {"quiescing-2", false, 2},
    {"quiescing-4", false, 4}, {"quiescing-8", false, 8},
    {"instant-2", true, 2},    {"instant-4", true, 4},
    {"instant-8", true, 8},
};

EngineOptions ModeEngine(const RestartMode& mode) {
  EngineOptions engine = InstantEngine(mode.instant ? mode.workers : 1);
  engine.parallel_workers = mode.instant ? 1 : mode.workers;
  return engine;
}

// Runs `mode`'s restart to its end; a failed drain is returned as is,
// with the engine left for the caller to crash.
Status Restart(MiniDb& db, const RestartMode& mode) {
  if (!mode.instant) return db.Recover();
  REDO_RETURN_IF_ERROR(db.RecoverInstant());
  REDO_RETURN_IF_ERROR(db.WaitUntilRecovered());
  return db.EndConcurrent();
}

class FirstTouchTest : public testing::TestWithParam<MethodKind> {
 protected:
  // Everything but the generalized method logs an op onto the zero page
  // born.
  bool LogsBirths() const { return GetParam() != MethodKind::kGeneralized; }

  // A crashed engine for `mode`: `build` runs its workload, every
  // record is forced, and `*before` holds the pages as the crash found
  // them in the cache, which every restart must rebuild byte for byte.
  template <typename Build>
  std::unique_ptr<MiniDb> Crashed(const RestartMode& mode, Build build,
                                  std::vector<storage::Page>* before) {
    auto db = MakeDb(GetParam(), ModeEngine(mode));
    build(*db);
    EXPECT_TRUE(db->log().ForceAll().ok());
    *before = PageBytes(*db);
    db->Crash();
    db->disk().ResetStats();
    db->pool().ResetStats();
    return db;
  }
};

// Slot writes on every page, no multi-page record: each page's chain
// starts at its birth.
void BornInTheScan(MiniDb& db) { RunWorkload(db, 61, 300, 0); }

// (a) A restart whose scan holds every page's birth reads no page: each
// page with a chain starts from the zero page, one blind install each.
TEST_P(FirstTouchTest, BornChainsReadNoPage) {
  for (const RestartMode& mode : kRestartModes) {
    SCOPED_TRACE(mode.name);
    std::vector<storage::Page> before;
    auto db = Crashed(mode, BornInTheScan, &before);
    const Status restarted = Restart(*db, mode);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
    EXPECT_EQ(db->disk().stats().reads, LogsBirths() ? 0u : kPages);
    EXPECT_EQ(db->pool().stats().blind_installs, LogsBirths() ? kPages : 0u);
    EXPECT_EQ(PageBytes(*db), before);
  }
}

// (b) A page flushed after its birth, behind a checkpoint that moves the
// scan start past the birth, is read exactly once.
TEST_P(FirstTouchTest, PageBornBeforeTheScanIsReadOnce) {
  for (const RestartMode& mode : kRestartModes) {
    SCOPED_TRACE(mode.name);
    std::vector<storage::Page> before;
    auto db = Crashed(
        mode,
        [](MiniDb& engine) {
          BirthBeforeTheScan(engine, kPages);
          BornInTheScan(engine);
        },
        &before);
    const Status restarted = Restart(*db, mode);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
    EXPECT_EQ(db->disk().stats().reads, kPages);
    EXPECT_EQ(db->pool().stats().blind_installs, 0u);
    EXPECT_EQ(PageBytes(*db), before);
  }
}

// (c) A page flushed after its birth whose born record is still scanned
// (no checkpoint since) is replayed whole from the zero page: the records
// a read would skip as installed are applied, and the page ends as the
// crash found it, which is what a read-path restart rebuilds too (the
// generalized method's run here is one).
TEST_P(FirstTouchTest, FlushedPageWhoseBirthIsScannedIsReplayedWhole) {
  for (const RestartMode& mode : kRestartModes) {
    SCOPED_TRACE(mode.name);
    std::vector<storage::Page> before;
    auto db = Crashed(
        mode,
        [](MiniDb& engine) {
          RunWorkload(engine, 67, 150, 0);
          ASSERT_TRUE(engine.FlushEverything().ok());
          RunWorkload(engine, 71, 150, 0);
        },
        &before);
    const Status restarted = Restart(*db, mode);
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
    EXPECT_EQ(db->disk().stats().reads, LogsBirths() ? 0u : kPages);
    EXPECT_EQ(db->pool().stats().blind_installs, LogsBirths() ? kPages : 0u);
    if (!mode.instant && mode.workers == 1) {
      const methods::RedoScanStats& stats = db->redo_scan_stats();
      if (LogsBirths()) {
        EXPECT_EQ(stats.replayed, stats.scanned);
      } else {
        EXPECT_LT(stats.replayed, stats.scanned);
      }
    }
    if (mode.instant) {
      const par::InstantRedoMetrics& metrics = db->instant_redo_metrics();
      EXPECT_EQ(metrics.tasks_skipped.load() == 0, LogsBirths());
    }
    EXPECT_EQ(PageBytes(*db), before);
  }
}

// (d) A sticky-unreadable or torn page whose chain starts at its birth
// does not fail the restart: it is never read. A page born before the
// scan needs its read, so the same fault fails the restart with the
// status it always did (kUnavailable for a sticky read error,
// kCorruption for a torn page).
TEST_P(FirstTouchTest, UnreadablePageFailsOnlyARestartThatReadsIt) {
  constexpr PageId kFaulty = 5;
  enum class Fault { kSticky, kTorn };
  for (const RestartMode& mode : kRestartModes) {
    for (const Fault fault : {Fault::kSticky, Fault::kTorn}) {
      for (const bool born_in_scan : {true, false}) {
        SCOPED_TRACE(std::string(mode.name) +
                     (fault == Fault::kSticky ? " sticky" : " torn") +
                     (born_in_scan ? " born in the scan" : " born before it"));
        storage::FaultInjectorOptions options;
        options.torn_write_probability = 1.0;
        storage::FaultInjector tearing(options, /*seed=*/3);
        std::vector<storage::Page> before;
        auto db = Crashed(
            mode,
            [&](MiniDb& engine) {
              if (!born_in_scan) BirthBeforeTheScan(engine, kPages);
              BornInTheScan(engine);
              if (fault == Fault::kTorn) {
                // A tear keeps the page's leading sectors, so the write
                // it tears changes the last one: the read then sees it.
                ASSERT_TRUE(engine.NewSession()
                                .WriteSlot(kFaulty,
                                           storage::Page::NumSlots() - 1, 99)
                                .ok());
                engine.disk().set_fault_injector(&tearing);
                ASSERT_TRUE(engine.MaybeFlushPage(kFaulty).ok());
                engine.disk().set_fault_injector(nullptr);
              }
            },
            &before);
        storage::FaultInjector sticky(EveryReadFails(), /*seed=*/1);
        if (fault == Fault::kSticky) {
          MakeUnreadable(*db, sticky, kFaulty);
        } else {
          db->disk().set_fault_injector(&tearing);
          tearing.set_paused(true);
        }
        const Status restarted = Restart(*db, mode);
        if (born_in_scan && LogsBirths()) {
          ASSERT_TRUE(restarted.ok()) << restarted.ToString();
          EXPECT_EQ(PageBytes(*db), before);
        } else {
          EXPECT_EQ(restarted.code(), fault == Fault::kSticky
                                          ? StatusCode::kUnavailable
                                          : StatusCode::kCorruption)
              << restarted.ToString();
          db->Crash();
        }
        db->disk().set_fault_injector(nullptr);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PageLsnMethods, FirstTouchTest,
    testing::Values(MethodKind::kPhysiological,
                    MethodKind::kPhysiologicalAnalysis,
                    MethodKind::kGeneralized),
    [](const testing::TestParamInfo<MethodKind>& info) {
      return MethodParamName(info.param);
    });

}  // namespace
}  // namespace redo::engine
