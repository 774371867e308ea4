// The recovery checker: the formal model as an oracle over the engine.

#include "checker/recovery_checker.h"

#include <gtest/gtest.h>

#include <memory>

#include "method_param_name.h"

namespace redo::checker {
namespace {

using engine::MiniDb;
using engine::TraceRecorder;
using methods::MethodKind;

constexpr size_t kPages = 8;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind) {
  engine::MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 0;
  return std::make_unique<MiniDb>(options, methods::MakeMethod(kind, {kPages}));
}

class CheckerMethodTest : public ::testing::TestWithParam<MethodKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllMethods, CheckerMethodTest,
    ::testing::ValuesIn(methods::kMethodKinds),
    [](const auto& info) { return MethodParamName(info.param); });

TEST_P(CheckerMethodTest, CleanCrashSatisfiesInvariant) {
  auto db = MakeDb(GetParam());
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 6).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.stable_ops, 2u);
  EXPECT_TRUE(result.invariant.holds);
  EXPECT_TRUE(result.invariant.recovered_final_state);
}

TEST_P(CheckerMethodTest, UnforcedTailIsInvisibleAndFine) {
  auto db = MakeDb(GetParam());
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  Result<core::Lsn> first = db->NewSession().WriteSlot(1, 0, 5);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(db->log().Force(first.value()).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 6).ok());  // lost at crash
  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.stable_ops, 1u);
}

TEST_P(CheckerMethodTest, CheckpointedStateSatisfiesInvariant) {
  auto db = MakeDb(GetParam());
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(db->NewSession().WriteSlot(i % kPages, 0, i).ok());
  }
  // Fuzzy checkpoints only advance the redo point past flushed pages.
  ASSERT_TRUE(db->FlushEverything().ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(3, 3, 99).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_GT(result.checkpointed_ops, 0u);
}

TEST_P(CheckerMethodTest, SplitCrashSatisfiesInvariant) {
  auto db = MakeDb(GetParam());
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  ASSERT_TRUE(db->NewSession().WriteSlot(0, storage::Page::NumSlots() / 2, 41).ok());
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 0, 4})
          .ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  if (GetParam() != MethodKind::kLogical) {
    // Flush in the (only legal) order so the crash state is interesting.
    ASSERT_TRUE(db->pool().FlushPageCascading(0).ok());
  }
  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  EXPECT_TRUE(result.ok) << result.ToString();
}

// Sabotage: write a page to disk directly, bypassing the WAL, with
// contents the trace never saw. The checker must flag it.
TEST_P(CheckerMethodTest, DetectsTornOrRogueDiskWrite) {
  auto db = MakeDb(GetParam());
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());

  storage::Page rogue;
  rogue.WriteSlot(9, 12345);
  rogue.set_lsn(777);
  ASSERT_TRUE(db->disk().WritePage(2, rogue).ok());

  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.problems.empty());
  EXPECT_NE(result.problems[0].find("page 2"), std::string::npos)
      << result.ToString();
}

// Sabotage: flush a page whose log record is NOT stable by bypassing the
// WAL hook (writing the cached page straight to disk). The checker must
// call out the write-ahead-log violation.
TEST_P(CheckerMethodTest, DetectsWalViolation) {
  auto db = MakeDb(GetParam());
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());  // record NOT forced
  storage::Page* cached = db->FetchPage(1).value();
  ASSERT_TRUE(db->disk().WritePage(1, *cached).ok());  // rogue direct write

  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  EXPECT_FALSE(result.ok);
  bool found = false;
  for (const std::string& p : result.problems) {
    if (p.find("WAL violation") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found) << result.ToString();
}

// Sabotage: make the stable state lie about installation — install the
// *second* of two dependent updates without the first. For LSN methods
// this shows up as a violated invariant.
TEST(CheckerTest, DetectsInstallationOrderViolation) {
  auto db = MakeDb(MethodKind::kGeneralized);
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  // A split: dst must reach disk before src's rewrite does.
  ASSERT_TRUE(db->NewSession().WriteSlot(0, storage::Page::NumSlots() / 2, 41).ok());
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 0, 4})
          .ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  // Bypass the buffer pool's constraint: write the rewritten src page
  // directly to disk while dst is still only in cache.
  storage::Page* src = db->FetchPage(0).value();
  ASSERT_TRUE(db->disk().WritePage(0, *src).ok());

  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  EXPECT_FALSE(result.ok) << "the checker must catch the careful-write-order "
                             "violation the paper warns about";
  EXPECT_TRUE(result.model_built) << result.ToString();
  EXPECT_FALSE(result.invariant.holds);
  EXPECT_FALSE(result.invariant.recovered_final_state)
      << "and recovery indeed loses data: " << result.ToString();
}

// The same violation under the physiological method is harmless: the new
// page was logged physically (blind), so installing src first is legal.
TEST(CheckerTest, PhysiologicalToleratesOldPageFirst) {
  auto db = MakeDb(MethodKind::kPhysiological);
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  ASSERT_TRUE(db->NewSession().WriteSlot(0, storage::Page::NumSlots() / 2, 41).ok());
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 0, 4})
          .ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  ASSERT_TRUE(db->pool().FlushPage(0).ok()) << "old page first is fine here";
  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  EXPECT_TRUE(result.ok) << result.ToString();
}

TEST(CheckerTest, DiagnosisStateUnexplainable) {
  // The careful-write-order sabotage: no installation prefix can explain
  // the stable state at all.
  auto db = MakeDb(MethodKind::kGeneralized);
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  ASSERT_TRUE(db->NewSession().WriteSlot(0, storage::Page::NumSlots() / 2, 41).ok());
  ASSERT_TRUE(
      db->NewSession()
          .Split(engine::SplitOp{engine::SplitTransform::kSlotHalf, 0, 4})
          .ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  storage::Page* src = db->FetchPage(0).value();
  ASSERT_TRUE(db->disk().WritePage(0, *src).ok());  // bypass the constraint
  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.failure_locus,
            CheckResult::FailureLocus::kStateUnexplainable);
  EXPECT_NE(result.ToString().find("NO installation prefix"),
            std::string::npos);
}

TEST(CheckerTest, DiagnosisRedoTestWrong) {
  // A lying checkpoint: the state is perfectly explainable (a legal
  // partial flush), but the checkpoint record claims everything is
  // installed so the redo test skips records it must replay.
  auto db = MakeDb(MethodKind::kPhysiological);
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 0, 6).ok());
  ASSERT_TRUE(db->MaybeFlushPage(1).ok());  // page 2 not installed
  // Forge a checkpoint asserting nothing needs redo.
  wal::PayloadWriter forged;
  forged.U64(db->log().last_lsn() + 2);
  db->log().Append(wal::RecordType::kCheckpoint, forged.Take());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  ASSERT_FALSE(result.ok);
  EXPECT_EQ(result.failure_locus, CheckResult::FailureLocus::kRedoTestWrong);
  EXPECT_NE(result.ToString().find("redo test / checkpoint"),
            std::string::npos);
}

TEST(CheckerTest, EpochBoundariesAbsorbOldHistory) {
  auto db = MakeDb(MethodKind::kPhysiological);
  TraceRecorder trace(db->disk());
  db->Attach(engine::Instrumentation{&trace, nullptr});
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->FlushEverything().ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  // New epoch: the old op is pre-history.
  trace.BeginEpoch(db->disk(), db->log().last_lsn() + 1);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 6).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  const CheckResult result = CheckCrashState(*db, trace);
  EXPECT_TRUE(result.ok) << result.ToString();
  EXPECT_EQ(result.stable_ops, 1u) << "only the in-epoch op is modeled";
}

}  // namespace
}  // namespace redo::checker
