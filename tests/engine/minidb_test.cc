// MiniDb end-to-end behavior, parameterized over all four §6 recovery
// methods: the same assertions must hold regardless of method.

#include "engine/minidb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "btree/node_format.h"
#include "engine/workload.h"
#include "method_param_name.h"

namespace redo::engine {
namespace {

using methods::MethodKind;

constexpr size_t kPages = 8;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind, size_t cache_capacity = 0) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = kind == MethodKind::kLogical ? 0 : cache_capacity;
  return std::make_unique<MiniDb>(options, methods::MakeMethod(kind, {kPages}));
}

class MiniDbMethodTest : public ::testing::TestWithParam<MethodKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllMethods, MiniDbMethodTest,
    ::testing::ValuesIn(methods::kMethodKinds),
    [](const auto& info) { return MethodParamName(info.param); });

TEST_P(MiniDbMethodTest, WritesAreVisibleThroughCache) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 2, 42).ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 2).value(), 42);
}

TEST_P(MiniDbMethodTest, EveryUpdateIsLoggedBeforeApplied) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(0, 0, 1).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(0, 1, 2).ok());
  EXPECT_EQ(db->log().last_lsn(), 2u);
}

TEST_P(MiniDbMethodTest, CrashWithoutForceLosesEverything) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 7).ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 0)
      << "unforced update must not survive";
}

TEST_P(MiniDbMethodTest, ForcedUpdatesSurviveCrash) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 7).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 3, 8).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 7);
  EXPECT_EQ(db->NewSession().ReadSlot(2, 3).value(), 8);
}

// A refused op must leave no record behind: a record whose apply the
// engine refuses would stay in the log, and once a later force covered
// it the next recovery would fail on it.
TEST_P(MiniDbMethodTest, RefusedOpsLeaveTheLogUntouched) {
  auto db = MakeDb(GetParam());
  {
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.WriteSlot(1, 0, 7).ok());
    // B-tree nodes for the shape checks: page 5 a full leaf, page 6 a
    // one-key leaf, page 7 an internal node with no entry; page 4 stays
    // zeroed.
    ASSERT_TRUE(session.Apply(MakeBtreeInit(5, /*is_leaf=*/true, 0)).ok());
    for (uint32_t key = 0; key < btree::NodeRef::Capacity(); ++key) {
      ASSERT_TRUE(session.Apply(MakeBtreeInsert(5, key, key)).ok());
    }
    ASSERT_TRUE(session.Apply(MakeBtreeInit(6, /*is_leaf=*/true, 0)).ok());
    ASSERT_TRUE(session.Apply(MakeBtreeInsert(6, -1, 1)).ok());
    ASSERT_TRUE(session.Apply(MakeBtreeInit(7, /*is_leaf=*/false, 0)).ok());
    const core::Lsn before = db->log().last_lsn();

    const Result<core::Lsn> bad_page = session.WriteSlot(kPages, 0, 1);
    ASSERT_FALSE(bad_page.ok());
    EXPECT_EQ(bad_page.status().code(), StatusCode::kInvalidArgument);
    const Result<core::Lsn> bad_slot = session.WriteSlot(
        2, static_cast<uint32_t>(storage::Page::NumSlots()), 1);
    ASSERT_FALSE(bad_slot.ok());
    EXPECT_EQ(bad_slot.status().code(), StatusCode::kInvalidArgument);
    SinglePageOp bad_type = MakeSlotWrite(2, 0, 1);
    bad_type.type = wal::RecordType::kCheckpoint;
    EXPECT_EQ(session.Apply(bad_type).status().code(),
              StatusCode::kInvalidArgument);
    SinglePageOp truncated = MakeSlotWrite(2, 0, 1);
    truncated.args.resize(3);
    EXPECT_FALSE(session.Apply(truncated).ok());
    EXPECT_EQ(
        session.Split(MakeSlotTransfer(0, 0, kPages + 3, 1)).status().code(),
        StatusCode::kInvalidArgument);
    SplitOp bad_transfer = MakeSlotTransfer(0, 0, 3, 1);
    bad_transfer.arg1 = static_cast<uint32_t>(storage::Page::NumSlots());
    EXPECT_EQ(session.Split(bad_transfer).status().code(),
              StatusCode::kInvalidArgument);
    const SplitOp bad_transform{static_cast<SplitTransform>(9), 0, 3};
    EXPECT_EQ(session.Split(bad_transform).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(session.ReadSlot(kPages, 0).status().code(),
              StatusCode::kInvalidArgument);
    // B-tree ops on pages that are not the nodes they need: refused
    // before the record is appended, not by the apply after it (nor by
    // an abort inside the node code).
    EXPECT_EQ(session.Apply(MakeBtreeInsert(4, 5, 7)).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(session.Apply(MakeBtreeRemove(4, 5)).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(session.Apply(MakeBtreeSplitRewrite(4, 3)).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(session.Apply(MakeBtreeInsert(5, -7, 1)).status().code(),
              StatusCode::kFailedPrecondition)
        << "a full leaf has no free entry";
    EXPECT_EQ(
        session.Split(SplitOp{SplitTransform::kBtreeNode, 4, 3}).status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(
        session.Split(SplitOp{SplitTransform::kBtreeNode, 7, 3}).status().code(),
        StatusCode::kInvalidArgument)
        << "an internal node with no entry has no separator to push up";
    EXPECT_EQ(
        session.Split(SplitOp{SplitTransform::kBtreeMerge, 1, 2}).status().code(),
        StatusCode::kInvalidArgument);
    EXPECT_EQ(
        session.Split(SplitOp{SplitTransform::kBtreeMerge, 6, 5}).status().code(),
        StatusCode::kFailedPrecondition)
        << "the merged keys do not fit in dst";
    EXPECT_EQ(db->log().last_lsn(), before) << "a refused op was logged";
    {
      // Inside a transaction the undo info is not logged either.
      MiniDb::Session txn = db->NewSession();
      ASSERT_TRUE(txn.Begin().ok());
      const core::Lsn begun = db->log().last_lsn();
      EXPECT_FALSE(txn.Apply(MakeBtreeInsert(4, 5, 7)).ok());
      EXPECT_FALSE(txn.Split(SplitOp{SplitTransform::kBtreeNode, 4, 3}).ok());
      EXPECT_EQ(db->log().last_lsn(), begun) << "undo info was logged";
      ASSERT_TRUE(txn.Abort().ok());
    }

    ASSERT_TRUE(session.WriteSlot(3, 1, 9).ok());
    ASSERT_TRUE(session.Commit().ok());
  }
  db->Crash();
  const Status recovered = db->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 7);
  EXPECT_EQ(db->NewSession().ReadSlot(3, 1).value(), 9);
}

TEST_P(MiniDbMethodTest, PrefixOfLogSurvives) {
  auto db = MakeDb(GetParam());
  Result<core::Lsn> first = db->NewSession().WriteSlot(0, 0, 1);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(db->log().Force(first.value()).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(0, 0, 2).ok());  // not forced
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(0, 0).value(), 1);
}

TEST_P(MiniDbMethodTest, RecoveryIsIdempotentAcrossRepeatedCrashes) {
  auto db = MakeDb(GetParam());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 100 + i).ok());
  }
  ASSERT_TRUE(db->log().ForceAll().ok());
  for (int round = 0; round < 3; ++round) {
    db->Crash();
    ASSERT_TRUE(db->Recover().ok());
    EXPECT_EQ(db->NewSession().ReadSlot(1, 1).value(), 104);
  }
}

TEST_P(MiniDbMethodTest, CheckpointInstallsAndShortensRecovery) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 5)
      << "checkpoint must make the update stable";
}

TEST_P(MiniDbMethodTest, UpdatesAfterCheckpointAlsoRecover) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 6).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 5);
  EXPECT_EQ(db->NewSession().ReadSlot(1, 1).value(), 6);
}

TEST_P(MiniDbMethodTest, SplitMovesUpperHalfAndRecovers) {
  auto db = MakeDb(GetParam());
  const size_t half = storage::Page::NumSlots() / 2;
  ASSERT_TRUE(db->NewSession().WriteSlot(0, 0, 11).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(0, half, 22).ok());
  ASSERT_TRUE(db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 0, 3}).ok());
  EXPECT_EQ(db->NewSession().ReadSlot(3, 0).value(), 22) << "moved to the new page";
  EXPECT_EQ(db->NewSession().ReadSlot(0, half).value(), 0) << "removed from the old page";
  EXPECT_EQ(db->NewSession().ReadSlot(0, 0).value(), 11) << "lower half untouched";

  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(3, 0).value(), 22);
  EXPECT_EQ(db->NewSession().ReadSlot(0, half).value(), 0);
  EXPECT_EQ(db->NewSession().ReadSlot(0, 0).value(), 11);
}

TEST_P(MiniDbMethodTest, BlindFormatRecovers) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 5, 1).ok());
  ASSERT_TRUE(db->NewSession().Apply(MakeBlindFormat(2, 9)).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(2, 5).value(), 9);
  EXPECT_EQ(db->NewSession().ReadSlot(2, 0).value(), 9);
}

TEST_P(MiniDbMethodTest, FlushedPagesSurviveWithoutReplay) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 33).ok());
  // Install through the method's own channel.
  if (GetParam() == MethodKind::kLogical) {
    ASSERT_TRUE(db->Checkpoint().ok());
  } else {
    ASSERT_TRUE(db->MaybeFlushPage(1).ok());
  }
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 33);
}

TEST_P(MiniDbMethodTest, WalForcesLogBeforePageFlush) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  EXPECT_EQ(db->log().stable_lsn(), 0u);
  if (GetParam() == MethodKind::kLogical) {
    ASSERT_TRUE(db->Checkpoint().ok());
  } else {
    ASSERT_TRUE(db->MaybeFlushPage(1).ok());
  }
  EXPECT_GE(db->log().stable_lsn(), 1u)
      << "the page reached disk, so its record must be stable (WAL)";
}

TEST_P(MiniDbMethodTest, RandomWorkloadSmokeRun) {
  auto db = MakeDb(GetParam(), /*cache_capacity=*/4);
  WorkloadOptions options;
  options.num_pages = kPages;
  Workload workload(options, /*seed=*/GetParam() == MethodKind::kLogical ? 1 : 2);
  Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const Action action = workload.Next();
    ASSERT_TRUE(ExecuteAction(*db, action, rng).ok()) << action.ToString();
  }
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
}

TEST_P(MiniDbMethodTest, SlotTransferMovesValueAndRecovers) {
  // The §7 "new class of logged operation": move p1[3] into p2[5].
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 3, 77).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 5, 11).ok());
  ASSERT_TRUE(db->NewSession().Split(MakeSlotTransfer(1, 3, 2, 5)).ok());
  EXPECT_EQ(db->NewSession().ReadSlot(2, 5).value(), 77) << "value arrived";
  EXPECT_EQ(db->NewSession().ReadSlot(1, 3).value(), 0) << "source slot zeroed";
  EXPECT_EQ(db->NewSession().ReadSlot(2, 0).value(), 0) << "rest of dst untouched";

  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(2, 5).value(), 77);
  EXPECT_EQ(db->NewSession().ReadSlot(1, 3).value(), 0);
}

TEST_P(MiniDbMethodTest, TransferPreservesOtherDstSlots) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 4, 44).ok());  // pre-existing dst content
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 9).ok());
  ASSERT_TRUE(db->NewSession().Split(MakeSlotTransfer(1, 0, 2, 6)).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(2, 4).value(), 44)
      << "transfer must not clobber the rest of the destination page";
  EXPECT_EQ(db->NewSession().ReadSlot(2, 6).value(), 9);
}

TEST(MiniDbTest, GeneralizedTransferEnforcesWriteOrder) {
  auto db = MakeDb(MethodKind::kGeneralized);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 3, 77).ok());
  ASSERT_TRUE(db->NewSession().Split(MakeSlotTransfer(1, 3, 2, 5)).ok());
  // The zeroed source must not reach disk before the destination: the
  // transfer record's redo reads the source.
  EXPECT_EQ(db->pool().FlushPage(1).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db->pool().FlushPage(2).ok());
  EXPECT_TRUE(db->pool().FlushPage(1).ok());
}

TEST(MiniDbTest, GeneralizedSplitEnforcesWriteOrder) {
  auto db = MakeDb(MethodKind::kGeneralized);
  ASSERT_TRUE(db->NewSession().WriteSlot(0, storage::Page::NumSlots() / 2, 7).ok());
  ASSERT_TRUE(db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 0, 1}).ok());
  // Directly flushing the overwritten source page must be refused until
  // the new page is stable (§6.4's careful write order).
  const Status st = db->pool().FlushPage(0);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db->pool().FlushPage(1).ok());
  EXPECT_TRUE(db->pool().FlushPage(0).ok());
}

TEST(MiniDbTest, PhysiologicalSplitHasNoWriteOrderConstraint) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->NewSession().WriteSlot(0, storage::Page::NumSlots() / 2, 7).ok());
  ASSERT_TRUE(db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 0, 1}).ok());
  // The new page was logged physically, so the old page may go first.
  EXPECT_TRUE(db->pool().FlushPage(0).ok());
}

TEST(MiniDbTest, GeneralizedSplitLogsFarFewerBytesThanPhysiological) {
  auto gen = MakeDb(MethodKind::kGeneralized);
  auto physio = MakeDb(MethodKind::kPhysiological);
  std::vector<uint64_t> measured;
  for (auto* db : {gen.get(), physio.get()}) {
    // An image costs what its page holds: fill the half the split moves,
    // then measure the split alone.
    for (size_t slot = storage::Page::NumSlots() / 2;
         slot < storage::Page::NumSlots(); ++slot) {
      ASSERT_TRUE(db->NewSession()
                      .WriteSlot(0, static_cast<uint32_t>(slot),
                                 static_cast<int64_t>(slot) + 1)
                      .ok());
    }
    ASSERT_TRUE(db->log().ForceAll().ok());
    const uint64_t before = db->log().stats().stable_bytes;
    ASSERT_TRUE(db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 0, 1}).ok());
    ASSERT_TRUE(db->log().ForceAll().ok());
    measured.push_back(db->log().stats().stable_bytes - before);
  }
  EXPECT_LT(measured[0] * 10, measured[1])
      << "the split record must be an order of magnitude smaller than a "
         "physical page image";

  // The converse: the image of a near-empty new page is a few dozen
  // bytes.
  auto fresh = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(fresh->NewSession().WriteSlot(0, 1, 7).ok());
  ASSERT_TRUE(
      fresh->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 0, 1}).ok());
  ASSERT_TRUE(fresh->log().ForceAll().ok());
  const std::vector<wal::LogRecord> records =
      fresh->log().StableRecords(1).value();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[1].type, wal::RecordType::kPageImage);
  EXPECT_LT(records[1].payload.size(), 64u);
}

TEST(MiniDbTest, LogicalMethodNeverWritesDiskBetweenCheckpoints) {
  auto db = MakeDb(MethodKind::kLogical);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, i).ok());
    ASSERT_TRUE(db->MaybeFlushPage(1).ok());  // must be a no-op
  }
  EXPECT_EQ(db->disk().stats().writes, 0u);
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_GT(db->disk().stats().writes, 0u);
}

TEST(MiniDbDeathTest, LogicalWithBoundedCacheAborts) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 4;
  EXPECT_DEATH(MiniDb(options, methods::MakeMethod(MethodKind::kLogical, {kPages})),
               "unbounded");
}

TEST(MiniDbDeathTest, CapacityOneAborts) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 1;
  EXPECT_DEATH(
      MiniDb(options, methods::MakeMethod(MethodKind::kPhysical, {kPages})),
      "two pages");
}

}  // namespace
}  // namespace redo::engine
