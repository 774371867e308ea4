// The §4.3 analysis pass: ARIES-style dirty-page-table reconstruction
// lets the redo scan skip installed records without page I/O, while
// recovering exactly the same state.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "checker/recovery_checker.h"
#include "engine/minidb.h"
#include "engine/workload.h"
#include "methods/common.h"

namespace redo::methods {
namespace {

using engine::MiniDb;

constexpr size_t kPages = 12;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind) {
  engine::MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 6;
  return std::make_unique<MiniDb>(options, MakeMethod(kind, {kPages}));
}

TEST(AnalysisTest, NameAndKind) {
  const auto method = MakeMethod(MethodKind::kPhysiologicalAnalysis, {kPages});
  EXPECT_STREQ(method->name(), "physio-aries");
  EXPECT_EQ(method->redo_test_kind(), RecoveryMethod::RedoTestKind::kLsnTag);
}

TEST(AnalysisTest, CheckpointCarriesDirtyPageTable) {
  auto db = MakeDb(MethodKind::kPhysiologicalAnalysis);
  const core::Lsn first = db->NewSession().WriteSlot(1, 0, 5).value();
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 6).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  const methods::EngineContext ctx = db->ctx();
  const auto dpt = internal_methods::ReadCheckpointDpt(ctx).value();
  ASSERT_EQ(dpt.size(), 2u);
  EXPECT_EQ(dpt.at(1), first);
}

TEST(AnalysisTest, PlainCheckpointYieldsEmptyDpt) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  const methods::EngineContext ctx = db->ctx();
  EXPECT_TRUE(internal_methods::ReadCheckpointDpt(ctx).value().empty());
}

// Every engine checkpoint payload ends with the transaction-table tail.
// The DPT reader stops where that tail starts, so a checkpoint without a
// DPT body reads as an empty table instead of the tail misread as DPT
// entries.
TEST(AnalysisTest, CheckpointDptReaderStopsAtTheTxnTail) {
  for (const MethodKind kind :
       {MethodKind::kPhysiological, MethodKind::kGeneralized,
        MethodKind::kPhysiologicalAnalysis}) {
    engine::MiniDbOptions options;
    options.num_pages = kPages;  // unbounded cache: the concurrent front end
    MiniDb db(options, MakeMethod(kind, {kPages}));
    ASSERT_TRUE(db.BeginConcurrent().ok());
    MiniDb::Session session = db.NewSession();
    for (storage::PageId page = 1; page <= 3; ++page) {
      ASSERT_TRUE(session.Begin().ok());
      ASSERT_TRUE(session.WriteSlot(page, 0, page).ok());
      ASSERT_TRUE(session.Commit().ok());
    }
    ASSERT_TRUE(session.Begin().ok());  // left open across the checkpoint
    ASSERT_TRUE(session.WriteSlot(4, 0, 4).ok());
    ASSERT_TRUE(db.Checkpoint().ok());

    const Result<std::map<storage::PageId, core::Lsn>> dpt =
        internal_methods::ReadCheckpointDpt(db.ctx());
    ASSERT_TRUE(dpt.ok()) << MethodKindName(kind) << ": "
                          << dpt.status().ToString();
    if (kind == MethodKind::kPhysiologicalAnalysis) {
      EXPECT_EQ(dpt.value().size(), 4u) << "the four dirty pages";
    } else {
      EXPECT_TRUE(dpt.value().empty()) << MethodKindName(kind);
    }
  }
}

TEST(AnalysisTest, SkipsInstalledRecordsWithoutFetching) {
  auto db = MakeDb(MethodKind::kPhysiologicalAnalysis);
  // Dirty two pages; flush page 1 (installing its ops); checkpoint.
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 6).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 7).ok());
  ASSERT_TRUE(db->MaybeFlushPage(1).ok());
  ASSERT_TRUE(db->Checkpoint().ok());  // redo point = page 2's rec_lsn = 3
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  const RedoScanStats stats = db->redo_scan_stats();
  EXPECT_EQ(stats.replayed, 1u) << "only page 2's record replays";
  EXPECT_EQ(stats.skipped_without_fetch, 0u)
      << "page 1's records precede the redo point entirely";
  EXPECT_EQ(db->NewSession().ReadSlot(1, 1).value(), 6);
  EXPECT_EQ(db->NewSession().ReadSlot(2, 0).value(), 7);
}

TEST(AnalysisTest, AnalysisSavesFetchesWhenRedoPointReachesBack) {
  auto db = MakeDb(MethodKind::kPhysiologicalAnalysis);
  // Page 2 dirtied first and never flushed: the redo point stays at its
  // rec_lsn. Page 1 accumulates many later records and is then flushed:
  // all of them are installed, and analysis skips them without I/O.
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 1).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 100 + i).ok());
  }
  ASSERT_TRUE(db->MaybeFlushPage(1).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  const RedoScanStats stats = db->redo_scan_stats();
  EXPECT_EQ(stats.scanned, 21u);
  EXPECT_EQ(stats.replayed, 1u);
  EXPECT_EQ(stats.skipped_without_fetch, 20u)
      << "page 1 left the DPT when flushed; its records skip without I/O";
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 119);
  EXPECT_EQ(db->NewSession().ReadSlot(2, 0).value(), 1);
}

TEST(AnalysisTest, PlainPhysiologicalFetchesForEveryScannedRecord) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 1).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 100 + i).ok());
  }
  ASSERT_TRUE(db->MaybeFlushPage(1).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  const RedoScanStats stats = db->redo_scan_stats();
  EXPECT_EQ(stats.skipped_without_fetch, 0u);
  EXPECT_GE(stats.page_fetches, 21u)
      << "without analysis every scanned record costs a fetch";
}

TEST(AnalysisTest, RecoversIdenticallyToPlainPhysiological) {
  // Same workload, both variants: byte-identical recovered disks.
  auto RunOne = [](MethodKind kind) {
    auto db = MakeDb(kind);
    engine::WorkloadOptions wopts;
    wopts.num_pages = kPages;
    engine::Workload workload(wopts, /*seed=*/31);
    Rng rng(31);
    for (int i = 0; i < 500; ++i) {
      const engine::Action action = workload.Next();
      REDO_CHECK(engine::ExecuteAction(*db, action, rng).ok());
    }
    REDO_CHECK(db->log().ForceAll().ok());
    db->Crash();
    REDO_CHECK(db->Recover().ok());
    REDO_CHECK(db->FlushEverything().ok());
    std::vector<uint64_t> hashes;
    for (storage::PageId p = 0; p < kPages; ++p) {
      hashes.push_back(db->disk().PeekPage(p).ContentHash());
    }
    return hashes;
  };
  EXPECT_EQ(RunOne(MethodKind::kPhysiological),
            RunOne(MethodKind::kPhysiologicalAnalysis));
}

TEST(AnalysisTest, InvariantCheckerAcceptsAnalysisVariant) {
  auto db = MakeDb(MethodKind::kPhysiologicalAnalysis);
  engine::TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db->NewSession().WriteSlot(i % kPages, 0, i).ok());
    if (i == 15) {
      ASSERT_TRUE(db->MaybeFlushPage(3).ok());
      ASSERT_TRUE(db->Checkpoint().ok());
    }
  }
  ASSERT_TRUE(db->log().Force(20).ok());
  db->Crash();
  const checker::CheckResult result = checker::CheckCrashState(*db, trace);
  EXPECT_TRUE(result.ok) << result.ToString();
}

}  // namespace
}  // namespace redo::methods
