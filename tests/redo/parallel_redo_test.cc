// Parallel redo: plan construction, the drain executor, and end-to-end
// equivalence of the quiescing multi-worker drain with the serial redo
// through every recovery method.

#include "redo/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/minidb.h"
#include "engine/ops.h"
#include "methods/analysis.h"
#include "obs/recovery_trace.h"
#include "storage/page.h"

namespace redo::par {
namespace {

using engine::MiniDb;
using engine::SplitOp;
using engine::SplitTransform;
using methods::MethodKind;
using storage::Page;
using storage::PageId;

constexpr size_t kPages = 16;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind, size_t capacity = 0) {
  engine::MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = kind == MethodKind::kLogical ? 0 : capacity;
  return std::make_unique<MiniDb>(options, methods::MakeMethod(kind, {kPages}));
}

std::vector<wal::LogRecord> StableRecords(MiniDb& db) {
  EXPECT_TRUE(db.log().ForceAll().ok());
  return db.log().StableRecords(1).value();
}

// The plan of the whole stable log, built as the restart analysis
// builds it: each record decoded in place, surviving images read back
// by Finish.
RedoPlan PlanFromLog(MiniDb& db, bool whole_splits,
                     bool supersede_images = false) {
  EXPECT_TRUE(db.log().ForceAll().ok());
  RedoPlanBuilder builder(supersede_images);
  const Result<wal::ScanExtent> visited = db.log().VisitStable(
      1, [&](const wal::LogRecord& record) -> Status {
        Result<std::optional<RedoTask>> task =
            DecodeRedoTask(record, whole_splits);
        if (!task.ok()) return task.status();
        if (task.value().has_value()) builder.Add(std::move(*task.value()));
        return Status::Ok();
      });
  EXPECT_TRUE(visited.ok()) << visited.status().ToString();
  Result<RedoPlan> plan = std::move(builder).Finish(db.log());
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.ok() ? std::move(plan).value() : RedoPlan{};
}

// The effective (cache-else-disk) post-recovery state: per-page content
// hash and page LSN — what the serial/parallel comparison is about.
std::vector<std::pair<uint64_t, core::Lsn>> EffectiveState(MiniDb& db) {
  std::vector<std::pair<uint64_t, core::Lsn>> state;
  for (PageId p = 0; p < db.num_pages(); ++p) {
    const Page* cached = db.pool().PeekCached(p);
    const Page& page = cached != nullptr ? *cached : db.disk().PeekPage(p);
    state.emplace_back(page.ContentHash(), page.lsn());
  }
  return state;
}

std::vector<Page> SnapshotDisk(MiniDb& db) {
  std::vector<Page> pages;
  for (PageId p = 0; p < db.num_pages(); ++p) {
    pages.push_back(db.disk().PeekPage(p));
  }
  return pages;
}

void RestoreCrashState(MiniDb& db, const std::vector<Page>& disk) {
  db.Crash();
  for (PageId p = 0; p < db.num_pages(); ++p) db.disk().RepairPage(p, disk[p]);
}

// One restart's redo-verdict events, in emission order: (LSN, text).
using Verdicts = std::vector<std::pair<int64_t, std::string>>;

// Recovers `db` with a recovery tracer attached, appending the run's
// redo-verdict events to `verdicts`.
Status RecoverCollectingVerdicts(MiniDb& db, Verdicts* verdicts) {
  obs::RecoveryTracer tracer;
  db.Attach(engine::Instrumentation{nullptr, &tracer});
  const Status status = db.Recover();
  db.Attach(engine::Instrumentation{});
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.event != "redo-verdict") continue;
    int64_t lsn = 0;
    for (const auto& [key, value] : event.numbers) {
      if (key == "lsn") lsn = value;
    }
    verdicts->emplace_back(lsn, event.ToText(/*include_timing=*/false));
  }
  return status;
}

bool AscendingLsns(const Verdicts& verdicts) {
  for (size_t i = 1; i < verdicts.size(); ++i) {
    if (verdicts[i].first < verdicts[i - 1].first) return false;
  }
  return true;
}

std::vector<std::string> SortedTexts(const Verdicts& verdicts) {
  std::vector<std::string> texts;
  for (const auto& [lsn, text] : verdicts) texts.push_back(text);
  std::sort(texts.begin(), texts.end());
  return texts;
}

// A workload touching every task shape: slot writes, blind formats,
// splits, slot transfers, interleaved across pages.
void RunMixedWorkload(MiniDb& db) {
  for (int round = 0; round < 3; ++round) {
    for (PageId p = 1; p < 6; ++p) {
      ASSERT_TRUE(db.NewSession().WriteSlot(p, round, 10 * round + p).ok());
      ASSERT_TRUE(db.NewSession().WriteSlot(p, 300 + round, 7 * round + p).ok());
    }
  }
  ASSERT_TRUE(db.NewSession().Apply(engine::MakeBlindFormat(6, 42)).ok());
  ASSERT_TRUE(db.NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 1, 7}).ok());
  ASSERT_TRUE(db.NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 2, 8}).ok());
  ASSERT_TRUE(db.NewSession().Split(engine::MakeSlotTransfer(3, 1, 4, 5)).ok());
  for (PageId p = 7; p < 9; ++p) {
    ASSERT_TRUE(db.NewSession().WriteSlot(p, 2, 99 + p).ok());
  }
}

// ---- Plan construction ----

TEST(ParallelPlanTest, DecodesEveryRecordShape) {
  auto db = MakeDb(MethodKind::kGeneralized);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 1, 2}).ok());
  const RedoPlan plan = PlanFromLog(*db, false);
  // slot write, split, rewrite — in LSN order.
  ASSERT_EQ(plan.tasks.size(), 3u);
  EXPECT_EQ(plan.tasks[0].kind, RedoTaskKind::kSinglePage);
  EXPECT_EQ(plan.tasks[1].kind, RedoTaskKind::kSplitDst);
  EXPECT_EQ(plan.tasks[2].kind, RedoTaskKind::kSinglePage);
  EXPECT_EQ(plan.multi_page_tasks, 1u);
  EXPECT_LT(plan.tasks[0].lsn, plan.tasks[1].lsn);
}

TEST(ParallelPlanTest, WholeSplitsCarryBothPagesAsWrites) {
  auto db = MakeDb(MethodKind::kLogical);
  ASSERT_TRUE(db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 1, 2}).ok());
  const RedoPlan plan = PlanFromLog(*db, true);
  ASSERT_EQ(plan.tasks.size(), 1u);
  EXPECT_EQ(plan.tasks[0].kind, RedoTaskKind::kWholeSplit);
  EXPECT_EQ(plan.tasks[0].Writes(),
            (std::vector<PageId>{2, 1}));  // dst and the rewritten src
}

TEST(ParallelPlanTest, CheckpointsCarryNoTask) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  const std::vector<wal::LogRecord> records = StableRecords(*db);
  const RedoPlan plan = PlanFromLog(*db, false);
  EXPECT_LT(plan.tasks.size(), records.size());
}

// ---- Superseded images (§2.3) ----

// Under the redo-all test, an image followed by a later image of the
// same page, with no task touching the page in between, is unexposed:
// the analysis visit keeps its task but copies and installs nothing.
TEST(ParallelPlanTest, ImageAfterImageOnOnePageSupersedes) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 1).ok());  // task 0: p1
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 2).ok());  // task 1: p1
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 3).ok());  // task 2: p2
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 2, 4).ok());  // task 3: p1
  ASSERT_TRUE(db->log().ForceAll().ok());
  methods::EngineContext ctx = db->ctx();
  const Result<methods::RestartAnalysis> analysis =
      methods::AnalyzeForRestart(db->method(), ctx);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const RedoPlan& plan = analysis.value().plan;
  ASSERT_EQ(plan.tasks.size(), 4u);
  EXPECT_TRUE(plan.tasks[0].superseded);
  EXPECT_TRUE(plan.tasks[1].superseded) << "p2's image does not touch p1";
  EXPECT_FALSE(plan.tasks[2].superseded);
  EXPECT_FALSE(plan.tasks[3].superseded) << "a page's last image survives";
  EXPECT_EQ(plan.images_superseded, 2u);
}

TEST(ParallelPlanTest, SurvivingPayloadsEqualTheirLogRecords) {
  auto db = MakeDb(MethodKind::kPhysical);
  for (int round = 0; round < 3; ++round) {
    for (PageId p = 1; p < 4; ++p) {
      ASSERT_TRUE(db->NewSession().WriteSlot(p, round, 10 * round + p).ok());
    }
  }
  const RedoPlan plan = PlanFromLog(*db, false, /*supersede_images=*/true);
  ASSERT_EQ(plan.tasks.size(), 9u);
  EXPECT_EQ(plan.images_superseded, 6u);
  for (const RedoTask& task : plan.tasks) {
    if (task.superseded) {
      EXPECT_TRUE(task.image_payload.empty()) << "lsn " << task.lsn;
      continue;
    }
    EXPECT_EQ(task.image_payload,
              db->log().StableRecordAt(task.lsn).value().payload)
        << "lsn " << task.lsn;
  }
}

TEST(ParallelPlanTest, InterveningClrBlocksSupersession) {
  auto db = MakeDb(MethodKind::kPhysical);
  {
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.Begin().ok());
    ASSERT_TRUE(session.WriteSlot(1, 0, 1).ok());  // image of p1
    ASSERT_TRUE(session.Abort().ok());             // CLR restoring p1
  }
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 2).ok());  // image of p1
  const RedoPlan plan = PlanFromLog(*db, false, /*supersede_images=*/true);
  ASSERT_EQ(plan.tasks.size(), 3u);
  EXPECT_EQ(plan.tasks[1].kind, RedoTaskKind::kClrRestore);
  EXPECT_FALSE(plan.tasks[0].superseded)
      << "the CLR restores p1 between the two images";
  EXPECT_EQ(plan.images_superseded, 0u);
}

TEST(ParallelPlanTest, InterveningSlotPokeBlocksSupersession) {
  // Partial physical logging: splits log images of both pages, slot
  // writes log blind pokes.
  auto db = MakeDb(MethodKind::kPhysicalPartial);
  // Tasks 0-1: images of p2 and p1. Task 2: a poke on p2. Tasks 3-4:
  // images of p2 and p3. Tasks 5-6: images of p1 and p4.
  ASSERT_TRUE(
      db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 1, 2}).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 5).ok());
  ASSERT_TRUE(
      db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 3, 2}).ok());
  ASSERT_TRUE(
      db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 4, 1}).ok());
  const RedoPlan plan = PlanFromLog(*db, false, /*supersede_images=*/true);
  ASSERT_EQ(plan.tasks.size(), 7u);
  EXPECT_EQ(plan.tasks[2].kind, RedoTaskKind::kSinglePage);
  EXPECT_FALSE(plan.tasks[0].superseded) << "the poke touches p2 in between";
  EXPECT_TRUE(plan.tasks[1].superseded) << "nothing touches p1 in between";
  EXPECT_EQ(plan.images_superseded, 1u);
}

TEST(ParallelPlanTest, InterveningSplitBlocksSupersession) {
  // The rule is stated on tasks, whatever logged them: an image of p2,
  // a generalized split writing p2, then another image of p2.
  auto db = MakeDb(MethodKind::kGeneralized);
  Page image;
  image.WriteSlot(0, 7);
  db->log().Append(wal::RecordType::kPageImage, engine::EncodePageImage(2, image));
  ASSERT_TRUE(
      db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 1, 2}).ok());
  db->log().Append(wal::RecordType::kPageImage, engine::EncodePageImage(2, image));
  const RedoPlan plan = PlanFromLog(*db, false, /*supersede_images=*/true);
  // Image of p2, split 1 -> 2, rewrite of p1, image of p2.
  ASSERT_EQ(plan.tasks.size(), 4u);
  EXPECT_EQ(plan.tasks[1].kind, RedoTaskKind::kSplitDst);
  EXPECT_FALSE(plan.tasks[0].superseded) << "the split writes p2 in between";
  EXPECT_EQ(plan.images_superseded, 0u);
}

TEST(ParallelPlanTest, LsnTestPlansNeverSupersede) {
  // Physiological logging images a split's new page: two splits into p2
  // leave two images of p2 with nothing touching p2 between them.
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(
      db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 1, 2}).ok());
  ASSERT_TRUE(
      db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 3, 2}).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  methods::EngineContext ctx = db->ctx();
  const Result<methods::RestartAnalysis> analysis =
      methods::AnalyzeForRestart(db->method(), ctx);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  const RedoPlan& plan = analysis.value().plan;
  ASSERT_EQ(plan.tasks.size(), 4u);
  EXPECT_EQ(plan.images_superseded, 0u);
  for (const RedoTask& task : plan.tasks) EXPECT_FALSE(task.superseded);
  EXPECT_EQ(plan.tasks[0].image_payload.size(),
            db->log().StableRecordAt(plan.tasks[0].lsn).value().payload.size());
  // The same log planned under the redo-all rule supersedes the first.
  EXPECT_EQ(PlanFromLog(*db, false, /*supersede_images=*/true)
                .images_superseded,
            1u);
}

// ---- Bridged chains ----

// p1's chain feeds the split which feeds p2's chain: the split bridges
// the two chains, so whichever drain worker claims either page must
// replay p1's write, then the split, then p2's write. Any other order
// splits stale bytes into p2 or lets p2's later write be clobbered.
TEST(ParallelSchedulerTest, CrossWorkerSplitHandoffRespectsWriteGraphOrder) {
  auto db = MakeDb(MethodKind::kGeneralized);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 300, 7).ok());
  ASSERT_TRUE(db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 1, 2}).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 9).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  const std::vector<Page> crash_disk = SnapshotDisk(*db);
  const RedoPlan plan = PlanFromLog(*db, false);
  ASSERT_EQ(plan.multi_page_tasks, 1u);

  ASSERT_TRUE(db->Recover().ok());
  const auto serial_state = EffectiveState(*db);

  for (size_t workers : {2u, 4u, 8u}) {
    RestoreCrashState(*db, crash_disk);
    engine::EngineOptions recovery;
    recovery.parallel_workers = workers;
    db->set_engine_options(recovery);
    Verdicts verdicts;
    ASSERT_TRUE(RecoverCollectingVerdicts(*db, &verdicts).ok()) << workers;
    db->set_engine_options(engine::EngineOptions{});
    EXPECT_EQ(EffectiveState(*db), serial_state) << workers << " workers";
    EXPECT_TRUE(AscendingLsns(verdicts)) << workers << " workers";
    EXPECT_EQ(verdicts.size(), plan.tasks.size()) << workers << " workers";
  }
}

TEST(ParallelSchedulerTest, WholeSplitHandoffMatchesSerialApply) {
  auto db = MakeDb(MethodKind::kLogical);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 300, 7).ok());
  ASSERT_TRUE(db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 1, 2}).ok());
  ASSERT_TRUE(db->NewSession().Split(engine::MakeSlotTransfer(2, 0, 3, 4)).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  const std::vector<Page> crash_disk = SnapshotDisk(*db);

  ASSERT_TRUE(db->Recover().ok());
  const auto serial_state = EffectiveState(*db);

  for (size_t workers : {2u, 3u}) {
    RestoreCrashState(*db, crash_disk);
    engine::EngineOptions recovery;
    recovery.parallel_workers = workers;
    db->set_engine_options(recovery);
    ASSERT_TRUE(db->Recover().ok());
    db->set_engine_options(engine::EngineOptions{});
    EXPECT_EQ(EffectiveState(*db), serial_state) << workers << " workers";
  }
}

// ---- End-to-end equivalence across every method ----

TEST(ParallelRedoEngineTest, EveryMethodRecoversIdenticallyAtEveryWorkerCount) {
  for (const MethodKind kind : methods::kMethodKinds) {
    auto db = MakeDb(kind);
    RunMixedWorkload(*db);
    if (testing::Test::HasFatalFailure()) return;
    // Installed work for the LSN test to skip: pages 1 and 2 are clean
    // at the checkpoint (so physio-aries' DPT skips their earlier
    // records), and page 3 reaches disk after its last record.
    for (PageId p : {1u, 2u}) ASSERT_TRUE(db->MaybeFlushPage(p).ok());
    ASSERT_TRUE(db->Checkpoint().ok()) << methods::MethodKindName(kind);
    for (PageId p = 1; p < 5; ++p) {
      ASSERT_TRUE(db->NewSession().WriteSlot(p, 9, 1000 + p).ok());
    }
    ASSERT_TRUE(db->MaybeFlushPage(3).ok());
    ASSERT_TRUE(db->log().ForceAll().ok());
    db->Crash();
    const std::vector<Page> crash_disk = SnapshotDisk(*db);

    Verdicts serial;
    ASSERT_TRUE(RecoverCollectingVerdicts(*db, &serial).ok())
        << methods::MethodKindName(kind);
    const auto serial_state = EffectiveState(*db);
    ASSERT_FALSE(serial.empty()) << methods::MethodKindName(kind);

    for (size_t workers : {2u, 4u, 8u}) {
      RestoreCrashState(*db, crash_disk);
      engine::EngineOptions recovery;
      recovery.parallel_workers = workers;
      db->set_engine_options(recovery);
      Verdicts parallel;
      ASSERT_TRUE(RecoverCollectingVerdicts(*db, &parallel).ok())
          << methods::MethodKindName(kind) << " with " << workers;
      db->set_engine_options(engine::EngineOptions{});
      EXPECT_EQ(EffectiveState(*db), serial_state)
          << methods::MethodKindName(kind) << " diverges at " << workers
          << " workers";
      // The drain's verdicts are the serial scan's, emitted in LSN
      // order after the workers join.
      EXPECT_EQ(SortedTexts(parallel), SortedTexts(serial))
          << methods::MethodKindName(kind) << " verdicts at " << workers
          << " workers";
      EXPECT_TRUE(AscendingLsns(parallel))
          << methods::MethodKindName(kind) << " verdict order at "
          << workers << " workers";
    }
  }
}

// The serial restart grows the DPT inside its one visit and replays
// each record as soon as the record has extended it; a 2-worker restart
// plans against the complete DPT. Their verdicts must agree on a log
// where growing the DPT in the wrong order would show: a fuzzy
// checkpoint whose redo start precedes it, page 1 flushed before it and
// dirtied again after it, page 3 first dirtied after it.
TEST(ParallelRedoEngineTest, SerialOnePassDptReachesTheCompleteDptsVerdicts) {
  auto db = MakeDb(MethodKind::kPhysiologicalAnalysis);
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 1).ok());  // LSN 1
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 2).ok());  // LSN 2
  ASSERT_TRUE(db->MaybeFlushPage(1).ok());
  ASSERT_TRUE(db->Checkpoint().ok());                     // LSN 3
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 4).ok());  // LSN 4
  ASSERT_TRUE(db->NewSession().WriteSlot(3, 0, 5).ok());  // LSN 5
  ASSERT_TRUE(db->log().ForceAll().ok());
  const methods::StableCheckpoint checkpoint =
      methods::ReadStableCheckpoint(db->log()).value();
  ASSERT_EQ(checkpoint.lsn, 3u);
  ASSERT_EQ(checkpoint.payload.redo_start, 1u) << "page 2 is still dirty";
  db->Crash();
  const std::vector<Page> crash_disk = SnapshotDisk(*db);

  Verdicts serial;
  ASSERT_TRUE(RecoverCollectingVerdicts(*db, &serial).ok());
  const std::string older = R"(verdict="applied" reason="page-lsn-older")";
  EXPECT_EQ(serial,
            (Verdicts{
                {1, "redo-verdict " + older + " lsn=1 page=2"},
                {2, R"(redo-verdict verdict="not-exposed" reason="analysis-dpt")"
                    " lsn=2 page=1"},
                {4, "redo-verdict " + older + " lsn=4 page=1"},
                {5, "redo-verdict " + older + " lsn=5 page=3"},
            }));

  RestoreCrashState(*db, crash_disk);
  engine::EngineOptions recovery;
  recovery.parallel_workers = 2;
  db->set_engine_options(recovery);
  Verdicts parallel;
  ASSERT_TRUE(RecoverCollectingVerdicts(*db, &parallel).ok());
  EXPECT_EQ(parallel, serial);
}

TEST(ParallelRedoEngineTest, BoundedPoolReenforcesCapacityAfterMerge) {
  auto db = MakeDb(MethodKind::kGeneralized, /*capacity=*/4);
  RunMixedWorkload(*db);
  if (testing::Test::HasFatalFailure()) return;
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  engine::EngineOptions recovery;
  recovery.parallel_workers = 4;
  db->set_engine_options(recovery);
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_LE(db->pool().num_cached(), 4u)
      << "the drain holds eviction; the pool must shrink back after it";
}

// ---- Queue depth ----

// Above queue depth 0 the drain workers' misses overlap on the device;
// the depth changes the I/O schedule, never the outcome or the I/O
// itself: the recovered state and the pages read are the depth-0 run's
// for every method. A page is read at most once per restart (eviction
// is held), by the first task that touches it without overwriting it
// or starting it at its birth. The flush and checkpoint put every
// birth before the scan, so the LSN test reads the pages it tests.
TEST(ParallelRedoEngineTest, AsyncPrefetchRecoversIdenticallyForEveryMethod) {
  for (const MethodKind kind : methods::kMethodKinds) {
    auto db = MakeDb(kind);
    RunMixedWorkload(*db);
    if (testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(db->FlushEverything().ok()) << methods::MethodKindName(kind);
    ASSERT_TRUE(db->Checkpoint().ok()) << methods::MethodKindName(kind);
    for (PageId p = 1; p < 5; ++p) {
      ASSERT_TRUE(db->NewSession().WriteSlot(p, 9, 1000 + p).ok());
    }
    ASSERT_TRUE(db->log().ForceAll().ok());
    db->Crash();
    const std::vector<Page> crash_disk = SnapshotDisk(*db);

    // (The REDO_ASYNC_IO CI seam may raise even this arm's depth above
    // 0; the comparison holds either way.)
    engine::EngineOptions plain;
    plain.parallel_workers = 4;
    db->set_engine_options(plain);
    db->disk().ResetStats();
    ASSERT_TRUE(db->Recover().ok()) << methods::MethodKindName(kind);
    const auto plain_state = EffectiveState(*db);
    const uint64_t plain_reads = db->disk().stats().reads;

    RestoreCrashState(*db, crash_disk);
    engine::EngineOptions deep = plain;
    deep.async_io_workers = 4;
    db->set_engine_options(deep);
    db->disk().ResetStats();
    ASSERT_TRUE(db->Recover().ok()) << methods::MethodKindName(kind);
    const uint64_t deep_reads = db->disk().stats().reads;
    db->set_engine_options(engine::EngineOptions{});
    EXPECT_EQ(EffectiveState(*db), plain_state)
        << methods::MethodKindName(kind) << " diverges at queue depth 4";
    EXPECT_EQ(deep_reads, plain_reads)
        << methods::MethodKindName(kind) << " reads differ at queue depth 4";
    if (kind == MethodKind::kPhysiological) {
      EXPECT_GT(plain_reads, 0u)
          << "the LSN test reads a page born before the scan";
    }
  }
}

// ---- Metrics ----

TEST(ParallelRedoEngineTest, ParallelRunsFeedTheMetricsSource) {
  auto db = MakeDb(MethodKind::kPhysical);
  for (PageId p = 1; p < 6; ++p) {
    ASSERT_TRUE(db->NewSession().Apply(engine::MakeBlindFormat(p, p)).ok());
  }
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  engine::EngineOptions recovery;
  recovery.parallel_workers = 4;
  db->set_engine_options(recovery);
  ASSERT_TRUE(db->Recover().ok());
  const ParallelRedoMetrics& metrics = db->parallel_redo_metrics();
  EXPECT_EQ(metrics.runs, 1u);
  EXPECT_EQ(metrics.workers_spawned, 4u);
  EXPECT_EQ(metrics.tasks, 5u);
  EXPECT_GE(metrics.apply_busy_us, metrics.apply_critical_path_us);
  EXPECT_GE(db->pool().stats().blind_installs, 1u)
      << "redo-all images install their first touch without a disk read";
  EXPECT_EQ(db->instant_redo_metrics().restarts.load(), 0u)
      << "redo.instant counts instant restarts only";
  const std::string text = db->metrics().TakeSnapshot().ToText();
  EXPECT_NE(text.find("redo.parallel.runs 1"), std::string::npos) << text;
}

TEST(ParallelRedoEngineTest, SerialRecoveryLeavesParallelMetricsUntouched) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->NewSession().Apply(engine::MakeBlindFormat(1, 1)).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->parallel_redo_metrics().runs, 0u);
}

}  // namespace
}  // namespace redo::par
