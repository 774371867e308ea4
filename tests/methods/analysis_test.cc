// The §4.3 analysis pass: ARIES-style dirty-page-table reconstruction
// lets the redo scan skip installed records without page I/O, while
// recovering exactly the same state.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "checker/recovery_checker.h"
#include "engine/minidb.h"
#include "engine/workload.h"
#include "methods/analysis.h"
#include "obs/recovery_trace.h"

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
  const auto dpt = ReadStableCheckpoint(db->log()).value().payload.dpt;
  ASSERT_EQ(dpt.size(), 2u);
  EXPECT_EQ(dpt.at(1), first);
}

TEST(AnalysisTest, PlainCheckpointYieldsEmptyDpt) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_TRUE(ReadStableCheckpoint(db->log()).value().payload.dpt.empty());
}

// Every engine checkpoint payload ends with the transaction table. The
// decoder finds the table from the back and tells the body by its
// length, so neither the table nor the logical method's staged-page
// list is misread as DPT entries.
TEST(AnalysisTest, CheckpointDptReaderStopsAtTheTxnTail) {
  for (const MethodKind kind :
       {MethodKind::kPhysiological, MethodKind::kGeneralized,
        MethodKind::kPhysiologicalAnalysis, MethodKind::kLogical}) {
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

    const Result<StableCheckpoint> checkpoint = ReadStableCheckpoint(db.log());
    ASSERT_TRUE(checkpoint.ok()) << MethodKindName(kind) << ": "
                                 << checkpoint.status().ToString();
    const engine::CheckpointPayload& payload = checkpoint.value().payload;
    EXPECT_EQ(payload.txns.size(), 1u) << "the open transaction";
    if (kind == MethodKind::kPhysiologicalAnalysis) {
      EXPECT_EQ(payload.dpt.size(), 4u) << "the four dirty pages";
    } else {
      EXPECT_TRUE(payload.dpt.empty()) << MethodKindName(kind);
    }
    if (kind == MethodKind::kLogical) {
      EXPECT_EQ(payload.staged_pages,
                (std::vector<storage::PageId>{1, 2, 3, 4}))
          << "the four staged pages";
    } else {
      EXPECT_TRUE(payload.staged_pages.empty()) << MethodKindName(kind);
    }
  }
}

// Every restart reads the latest stable checkpoint once, with a tracer
// attached, and hands it to each step that needs it: the stable-state
// repair, the checkpoint-chosen event and the analysis visit. It reads
// the log once too: the serial restart replays inside its visit.
TEST(AnalysisTest, EveryRestartReadsTheCheckpointOnce) {
  enum class Restart { kSerial, kTwoWorkers, kInstant };
  for (const MethodKind kind : kMethodKinds) {
    for (const Restart restart :
         {Restart::kSerial, Restart::kTwoWorkers, Restart::kInstant}) {
      SCOPED_TRACE(testing::Message() << MethodKindName(kind) << ", restart "
                                      << static_cast<int>(restart));
      engine::MiniDbOptions options;
      options.num_pages = kPages;  // unbounded cache: logical, instant
      options.engine.parallel_workers =
          restart == Restart::kTwoWorkers ? 2 : 1;
      options.engine.instant_restart = restart == Restart::kInstant;
      options.engine.instant_drain_workers = 1;
      MiniDb db(options, MakeMethod(kind, {kPages}));
      for (storage::PageId page = 1; page <= 4; ++page) {
        ASSERT_TRUE(db.NewSession().WriteSlot(page, 0, page).ok());
      }
      ASSERT_TRUE(db.Checkpoint().ok());
      ASSERT_TRUE(db.NewSession().WriteSlot(5, 0, 5).ok());
      ASSERT_TRUE(db.log().ForceAll().ok());
      db.Crash();

      obs::RecoveryTracer tracer;
      db.Attach(engine::Instrumentation{nullptr, &tracer});
      const wal::LogStats before = db.log().stats();
      if (restart == Restart::kInstant) {
        ASSERT_TRUE(db.RecoverInstant().ok());
        ASSERT_TRUE(db.WaitUntilRecovered().ok());
        ASSERT_TRUE(db.EndConcurrent().ok());
      } else {
        ASSERT_TRUE(db.Recover().ok());
      }
      const wal::LogStats& after = db.log().stats();
      EXPECT_EQ(after.checkpoint_cache_hits - before.checkpoint_cache_hits +
                    after.checkpoint_full_scans - before.checkpoint_full_scans,
                1u);
      EXPECT_EQ(after.stable_visits - before.stable_visits, 1u);
      db.Attach({});
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
