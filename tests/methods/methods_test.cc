// Method-specific behavior: what each §6 technique logs, how it
// checkpoints, and the mechanics its redo test relies on.

#include "methods/method.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "engine/minidb.h"
#include "methods/common.h"

namespace redo::methods {
namespace {

using engine::MiniDb;

constexpr size_t kPages = 8;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind, size_t capacity = 0) {
  engine::MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = kind == MethodKind::kLogical ? 0 : capacity;
  return std::make_unique<MiniDb>(options, methods::MakeMethod(kind, {kPages}));
}

std::vector<wal::LogRecord> StableRecords(MiniDb& db) {
  REDO_CHECK(db.log().ForceAll().ok());
  return db.log().StableRecords(1).value();
}

// ---- Record shapes ----

TEST(PhysicalMethodTest, LogsOnlyFullPageImages) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 1, 2})
          .ok());
  // Each record decodes to a whole page; each page's last one is the
  // cached page, byte for byte.
  std::map<storage::PageId, storage::Page> logged;
  for (const wal::LogRecord& record : StableRecords(*db)) {
    EXPECT_EQ(record.type, wal::RecordType::kPageImage);
    Result<std::pair<storage::PageId, storage::Page>> image =
        engine::DecodePageImage(record.payload);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    logged.insert_or_assign(image.value().first, image.value().second);
  }
  ASSERT_EQ(logged.size(), 2u);
  for (const auto& [page, image] : logged) {
    EXPECT_TRUE(image == *db->pool().Fetch(page).value()) << "page " << page;
  }
}

TEST(PhysiologicalMethodTest, SplitLogsOneImageAndOneRewrite) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 1, 2})
          .ok());
  const std::vector<wal::LogRecord> records = StableRecords(*db);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, wal::RecordType::kPageImage)
      << "the new page is logged physically under physiological recovery";
  EXPECT_EQ(records[1].type, wal::RecordType::kPageRewrite);
}

TEST(GeneralizedMethodTest, SplitLogsTwoSmallRecords) {
  auto db = MakeDb(MethodKind::kGeneralized);
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 1, 2})
          .ok());
  const std::vector<wal::LogRecord> records = StableRecords(*db);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, wal::RecordType::kPageSplit);
  EXPECT_EQ(records[1].type, wal::RecordType::kPageRewrite);
  EXPECT_LT(records[0].payload.size(), 64u)
      << "no page image: the §6.4 log-volume win";
}

TEST(LogicalMethodTest, SplitIsOneMultiPageRecord) {
  auto db = MakeDb(MethodKind::kLogical);
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 1, 2})
          .ok());
  const std::vector<wal::LogRecord> records = StableRecords(*db);
  ASSERT_EQ(records.size(), 1u)
      << "a logical operation may read and write many pages";
  EXPECT_EQ(records[0].type, wal::RecordType::kPageSplit);
}

TEST(PartialPhysicalMethodTest, SlotWritesLogBytesNotImages) {
  auto full = MakeDb(MethodKind::kPhysical);
  auto partial = MakeDb(MethodKind::kPhysicalPartial);
  std::vector<uint64_t> measured;
  for (auto* db : {full.get(), partial.get()}) {
    // An image costs what its page holds: fill every slot first, then
    // measure the ten slot writes alone.
    ASSERT_TRUE(db->NewSession().Apply(engine::MakeBlindFormat(1, -1)).ok());
    ASSERT_TRUE(db->log().ForceAll().ok());
    const uint64_t before = db->log().stats().stable_bytes;
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->NewSession().WriteSlot(1, i, i).ok());
    }
    ASSERT_TRUE(db->log().ForceAll().ok());
    measured.push_back(db->log().stats().stable_bytes - before);
  }
  EXPECT_LT(measured[1] * 20, measured[0])
      << "a byte-poke record is orders of magnitude smaller than an image";

  // The converse: the image of a near-empty page is a few dozen bytes.
  auto fresh = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(fresh->NewSession().WriteSlot(1, 0, 5).ok());
  const std::vector<wal::LogRecord> records = StableRecords(*fresh);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_LT(records[0].payload.size(), 64u);
}

TEST(PartialPhysicalMethodTest, RecordsAreBlind) {
  auto db = MakeDb(MethodKind::kPhysicalPartial);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  const std::vector<wal::LogRecord> records = StableRecords(*db);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].type, wal::RecordType::kSlotWrite);
  const auto op =
      engine::DecodeSinglePageOp(records[0].type, records[0].payload).value();
  EXPECT_TRUE(op.blind) << "§6.2: physical operations do not read data";
}

TEST(PartialPhysicalMethodTest, SplitsFallBackToImages) {
  auto db = MakeDb(MethodKind::kPhysicalPartial);
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 1, 2})
          .ok());
  const std::vector<wal::LogRecord> records = StableRecords(*db);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].type, wal::RecordType::kPageImage);
  EXPECT_EQ(records[1].type, wal::RecordType::kPageImage);
}

TEST(PartialPhysicalMethodTest, RedoAllConvergesOnNewerDiskVersions) {
  // The idempotence story: flush a page holding updates newer than the
  // redo point, crash, and replay everything — the old pokes re-apply
  // onto the newer page and the final bytes converge.
  auto db = MakeDb(MethodKind::kPhysicalPartial);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 6).ok());
  ASSERT_TRUE(db->MaybeFlushPage(1).ok());  // disk holds both pokes
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());  // replays both onto the newer page
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 5);
  EXPECT_EQ(db->NewSession().ReadSlot(1, 1).value(), 6);
  EXPECT_EQ(db->redo_scan_stats().replayed, 2u);
}

// ---- Page LSN tagging ----

TEST(LsnTaggingTest, CachedPagesCarryTheirLastRecordLsn) {
  for (const MethodKind kind :
       {MethodKind::kPhysiological, MethodKind::kGeneralized,
        MethodKind::kPhysical, MethodKind::kLogical}) {
    auto db = MakeDb(kind);
    const core::Lsn lsn1 = db->NewSession().WriteSlot(1, 0, 5).value();
    EXPECT_EQ(db->FetchPage(1).value()->lsn(), lsn1)
        << MethodKindName(kind);
    const core::Lsn lsn2 = db->NewSession().WriteSlot(1, 1, 6).value();
    EXPECT_EQ(db->FetchPage(1).value()->lsn(), lsn2)
        << MethodKindName(kind);
    EXPECT_GT(lsn2, lsn1);
  }
}

// ---- Checkpoints ----

TEST(CheckpointTest, RedoScanStartIsOnePastCheckpointWhenClean) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  const methods::EngineContext ctx = db->ctx();
  const core::Lsn start = db->method().RedoScanStart(ctx).value();
  EXPECT_EQ(start, db->log().last_lsn() + 1)
      << "nothing before the checkpoint needs redo";
}

TEST(CheckpointTest, FuzzyCheckpointKeepsDirtyRecLsn) {
  auto db = MakeDb(MethodKind::kPhysiological);
  const core::Lsn first = db->NewSession().WriteSlot(1, 0, 5).value();
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 6).ok());
  // Page 1 is still dirty: the redo point must reach back to it.
  ASSERT_TRUE(db->Checkpoint().ok());
  const methods::EngineContext ctx = db->ctx();
  EXPECT_EQ(db->method().RedoScanStart(ctx).value(), first);

  // After flushing, a new checkpoint moves the redo point forward.
  ASSERT_TRUE(db->FlushEverything().ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(db->method().RedoScanStart(ctx).value(), db->log().last_lsn() + 1);
}

TEST(CheckpointTest, PhysicalCheckpointFlushesEverything) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 6).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_TRUE(db->pool().DirtyPages().empty());
  EXPECT_EQ(db->disk().PeekPage(1).ReadSlot(0), 5);
  EXPECT_EQ(db->disk().PeekPage(2).ReadSlot(0), 6);
}

TEST(CheckpointTest, NoStableCheckpointMeansScanFromOne) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  const methods::EngineContext ctx = db->ctx();
  EXPECT_EQ(db->method().RedoScanStart(ctx).value(), 1u);
}

TEST(CheckpointTest, UnforcedCheckpointRecordDoesNotCount) {
  // A checkpoint whose record is lost in the crash never happened.
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // forces internally
  const core::Lsn after_first = db->log().last_lsn();
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 6).ok());
  // Hand-append a checkpoint record without forcing it.
  wal::PayloadWriter w;
  w.U64(db->log().last_lsn() + 2);
  db->log().Append(wal::RecordType::kCheckpoint, w.Take());
  db->Crash();
  const methods::EngineContext ctx = db->ctx();
  const core::Lsn start = db->method().RedoScanStart(ctx).value();
  EXPECT_LE(start, after_first + 1)
      << "recovery must fall back to the last *stable* checkpoint";
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 5);
}

// ---- Logical method's staging area (System R, §6.1) ----

TEST(LogicalMethodTest, CrashBeforeCheckpointDiscardsStaging) {
  auto db = MakeDb(MethodKind::kLogical);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // installs x=5
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 6).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  // Crash before the next checkpoint: the stable database still holds 5,
  // and recovery replays the logged 6.
  EXPECT_EQ(db->disk().PeekPage(1).ReadSlot(0), 5);
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 6);
}

TEST(LogicalMethodTest, RecoveryReplaysAgainstCheckpointedState) {
  auto db = MakeDb(MethodKind::kLogical);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, i).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  for (int i = 4; i <= 6; ++i) {
    ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, i).ok());
  }
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 6);
}

// ---- Generalized method's constraint management ----

TEST(GeneralizedMethodTest, OppositeSplitsDoNotDeadlock) {
  auto db = MakeDb(MethodKind::kGeneralized);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 6).ok());
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 1, 2})
          .ok());
  // The reverse split would close a constraint cycle; the method must
  // resolve it (by flushing) rather than deadlock.
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 2, 1})
          .ok());
  EXPECT_TRUE(db->FlushEverything().ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  EXPECT_TRUE(db->Recover().ok());
}

TEST(GeneralizedMethodTest, ConstraintRearmedDuringRecovery) {
  auto db = MakeDb(MethodKind::kGeneralized);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 1, 2})
          .ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  // The replayed split re-arms the write-order constraint: the old page
  // still must not reach disk before the new one.
  const Status st = db->pool().FlushPage(1);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(db->pool().FlushPageCascading(1).ok());
}

// ---- Redo-scan stats accumulate across recoveries ----

TEST(RedoScanStatsTest, StatsAccumulateAcrossRecoverCalls) {
  // Regression: the serial redo scan used to zero the caller's stats
  // struct on entry, so a second Recover() (a degradation-ladder rerun,
  // a recovery rehearsal) clobbered the first run's counts instead of
  // reporting per-rung and total work. Every method's serial redo runs
  // the one log-order replayer, so every method counts.
  for (const MethodKind kind :
       {MethodKind::kLogical, MethodKind::kPhysical,
        MethodKind::kPhysiological, MethodKind::kGeneralized,
        MethodKind::kPhysiologicalAnalysis, MethodKind::kPhysicalPartial}) {
    auto db = MakeDb(kind);
    obs::RecoveryTracer tracer;
    db->Attach(engine::Instrumentation{db->trace(), &tracer});
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(db->NewSession().WriteSlot(1, i, i + 10).ok());
    }
    ASSERT_TRUE(db->log().ForceAll().ok());
    db->Crash();
    ASSERT_TRUE(db->Recover().ok());
    const size_t after_first = db->redo_scan_stats().scanned;
    EXPECT_EQ(after_first, 3u) << MethodKindName(kind);

    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(db->NewSession().WriteSlot(2, i, i + 20).ok());
    }
    ASSERT_TRUE(db->log().ForceAll().ok());
    db->Crash();
    ASSERT_TRUE(db->Recover().ok());
    // The second scan sees all 5 records; the total is cumulative.
    EXPECT_EQ(db->redo_scan_stats().scanned, after_first + 5)
        << MethodKindName(kind) << ": second Recover() clobbered the total";
    EXPECT_GE(db->redo_scan_stats().replayed, 2u)
        << MethodKindName(kind);
    // The tracer separates runs: per-run counts stay per-run while the
    // stats struct totals.
    EXPECT_EQ(tracer.total_verdicts().total(), 3u + 5u)
        << MethodKindName(kind);
    EXPECT_EQ(tracer.run_verdicts().total(), 5u) << MethodKindName(kind);
    db->Attach(engine::Instrumentation{db->trace(), nullptr});
  }
}

// ---- Factory coverage ----

TEST(MethodFactoryTest, NamesAndKindsAreConsistent) {
  EXPECT_STREQ(MakeMethod(MethodKind::kLogical, {4})->name(), "logical");
  EXPECT_STREQ(MakeMethod(MethodKind::kPhysical, {4})->name(), "physical");
  EXPECT_STREQ(MakeMethod(MethodKind::kPhysiological, {4})->name(),
               "physiological");
  EXPECT_STREQ(MakeMethod(MethodKind::kGeneralized, {4})->name(),
               "generalized-lsn");
  EXPECT_EQ(MakeMethod(MethodKind::kLogical, {4})->redo_test_kind(),
            RecoveryMethod::RedoTestKind::kRedoAllSinceCheckpoint);
  EXPECT_EQ(MakeMethod(MethodKind::kPhysical, {4})->redo_test_kind(),
            RecoveryMethod::RedoTestKind::kRedoAllSinceCheckpoint);
  EXPECT_EQ(MakeMethod(MethodKind::kPhysiological, {4})->redo_test_kind(),
            RecoveryMethod::RedoTestKind::kLsnTag);
  EXPECT_EQ(MakeMethod(MethodKind::kGeneralized, {4})->redo_test_kind(),
            RecoveryMethod::RedoTestKind::kLsnTag);
  EXPECT_FALSE(MakeMethod(MethodKind::kLogical, {4})->allows_background_flush());
  EXPECT_TRUE(MakeMethod(MethodKind::kPhysical, {4})->allows_background_flush());
}

}  // namespace
}  // namespace redo::methods
