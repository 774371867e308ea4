// Media recovery: restore a backup and run the crash restart from it —
// the theory's redo claim at archive scale, for every method.

#include "engine/backup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "btree/btree.h"
#include "btree/node_format.h"
#include "engine/workload.h"
#include "method_param_name.h"

namespace redo::engine {
namespace {

using methods::MethodKind;

constexpr size_t kPages = 24;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = kind == MethodKind::kLogical ? 0 : 8;
  return std::make_unique<MiniDb>(options, methods::MakeMethod(kind, {kPages}));
}

class BackupMethodTest : public ::testing::TestWithParam<MethodKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllMethods, BackupMethodTest,
    ::testing::ValuesIn(methods::kMethodKinds),
    [](const auto& info) { return MethodParamName(info.param); });

TEST_P(BackupMethodTest, RestoreAloneRecoversBackupPoint) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  const Backup backup = TakeBackup(*db).value();
  DestroyMedia(*db);
  EXPECT_EQ(db->disk().PeekPage(1).ReadSlot(0), 0) << "media gone";
  ASSERT_TRUE(MediaRecover(*db, backup).ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 5);
}

TEST_P(BackupMethodTest, LogSuffixReplaysOnTopOfBackup) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  const Backup backup = TakeBackup(*db).value();
  // Post-backup activity of every flavor.
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 6).ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(2, 3, 7).ok());
  ASSERT_TRUE(db->NewSession().Apply(MakeBlindFormat(3, 9)).ok());
  ASSERT_TRUE(db->NewSession().Split(SplitOp{SplitTransform::kSlotHalf, 3, 4}).ok());
  ASSERT_TRUE(db->NewSession().Split(MakeSlotTransfer(2, 3, 5, 1)).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());

  DestroyMedia(*db);
  ASSERT_TRUE(MediaRecover(*db, backup).ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 6);
  EXPECT_EQ(db->NewSession().ReadSlot(5, 1).value(), 7) << "transferred value";
  EXPECT_EQ(db->NewSession().ReadSlot(2, 3).value(), 0) << "transfer source zeroed";
  EXPECT_EQ(db->NewSession().ReadSlot(3, 0).value(), 9);
  EXPECT_EQ(db->NewSession().ReadSlot(4, 0).value(), 9) << "split moved the upper half";
}

TEST_P(BackupMethodTest, UnforcedTailIsLostInMediaRecoveryToo) {
  auto db = MakeDb(GetParam());
  const Backup backup = TakeBackup(*db).value();
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 1, 6).ok());  // never forced
  db->Crash();
  DestroyMedia(*db);
  ASSERT_TRUE(MediaRecover(*db, backup).ok());
  EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 5);
  EXPECT_EQ(db->NewSession().ReadSlot(1, 1).value(), 0);
}

TEST_P(BackupMethodTest, MatchesCrashRecoveryStateExactly) {
  // The same workload, recovered two ways — crash recovery on the
  // surviving disk vs. media recovery from the backup — must converge
  // to identical stable states.
  auto RunOne = [&](bool media) {
    auto db = MakeDb(GetParam());
    WorkloadOptions wopts;
    wopts.num_pages = kPages;
    Workload workload(wopts, /*seed=*/77);
    Rng rng(77);
    Backup backup;
    for (int i = 0; i < 400; ++i) {
      if (i == 100) backup = TakeBackup(*db).value();
      const Action action = workload.Next();
      REDO_CHECK(ExecuteAction(*db, action, rng).ok());
    }
    REDO_CHECK(db->log().ForceAll().ok());
    db->Crash();
    if (media) {
      DestroyMedia(*db);
      REDO_CHECK(MediaRecover(*db, backup).ok());
    } else {
      REDO_CHECK(db->Recover().ok());
      REDO_CHECK(db->FlushEverything().ok());
      if (!db->method().allows_background_flush()) {
        REDO_CHECK(db->Checkpoint().ok());
      }
    }
    std::vector<int64_t> values;
    for (storage::PageId p = 0; p < kPages; ++p) {
      for (uint32_t s = 0; s < 4; ++s) {
        values.push_back(db->NewSession().ReadSlot(p, s).value());
      }
    }
    return values;
  };
  EXPECT_EQ(RunOne(false), RunOne(true));
}

TEST_P(BackupMethodTest, TransactionsReplayLikeCrashRecovery) {
  // Transaction records and CLRs after the backup point: one committed
  // transaction and one rolled back with Abort(). Media recovery and
  // crash recovery must leave byte-identical stable pages.
  auto RunOne = [&](bool media) {
    auto db = MakeDb(GetParam());
    REDO_CHECK(db->NewSession().WriteSlot(1, 0, 5).ok());
    const Backup backup = TakeBackup(*db).value();
    {
      MiniDb::Session winner = db->NewSession();
      REDO_CHECK(winner.Begin().ok());
      REDO_CHECK(winner.WriteSlot(1, 0, 6).ok());
      REDO_CHECK(winner.WriteSlot(2, 1, 7).ok());
      REDO_CHECK(winner.Commit().ok());
    }
    {
      MiniDb::Session loser = db->NewSession();
      REDO_CHECK(loser.Begin().ok());
      REDO_CHECK(loser.WriteSlot(1, 0, 98).ok());
      REDO_CHECK(loser.WriteSlot(3, 2, 99).ok());
      REDO_CHECK(loser.Abort().ok());
    }
    REDO_CHECK(db->log().ForceAll().ok());
    const std::vector<wal::LogRecord> suffix =
        db->log().StableRecords(backup.backup_lsn + 1).value();
    EXPECT_TRUE(std::any_of(suffix.begin(), suffix.end(),
                            [](const wal::LogRecord& record) {
                              return record.type == wal::RecordType::kClr;
                            }))
        << "the rollback must log CLRs after the backup";
    db->Crash();
    if (media) {
      DestroyMedia(*db);
      REDO_CHECK(MediaRecover(*db, backup).ok());
    } else {
      REDO_CHECK(db->Recover().ok());
      REDO_CHECK(db->FlushEverything().ok());
      if (!db->method().allows_background_flush()) {
        REDO_CHECK(db->Checkpoint().ok());
      }
    }
    EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 6);
    EXPECT_EQ(db->NewSession().ReadSlot(2, 1).value(), 7);
    EXPECT_EQ(db->NewSession().ReadSlot(3, 2).value(), 0) << "rolled back";
    std::vector<uint8_t> stable;
    for (storage::PageId p = 0; p < kPages; ++p) {
      const std::span<const uint8_t> bytes = db->disk().PeekPage(p).bytes();
      stable.insert(stable.end(), bytes.begin(), bytes.end());
    }
    return stable;
  };
  EXPECT_EQ(RunOne(false), RunOne(true));
}

TEST_P(BackupMethodTest, LoserOpenAtCrashRollsBackLikeCrashRecovery) {
  // A transaction open at the crash that wrote on both sides of the
  // backup point: media recovery must roll it back as crash recovery
  // does, through the backup checkpoint's transaction table, to
  // byte-identical stable pages.
  auto RunOne = [&](bool media) {
    auto db = MakeDb(GetParam());
    REDO_CHECK(db->NewSession().WriteSlot(1, 0, 5).ok());
    Backup backup;
    {
      MiniDb::Session loser = db->NewSession();
      REDO_CHECK(loser.Begin().ok());
      REDO_CHECK(loser.WriteSlot(2, 1, 98).ok());
      backup = TakeBackup(*db).value();
      REDO_CHECK(loser.WriteSlot(1, 0, 99).ok());
      REDO_CHECK(db->NewSession().WriteSlot(3, 2, 7).ok());
      REDO_CHECK(db->log().ForceAll().ok());
      db->Crash();  // the loser's handle dies after the crash
    }
    if (media) {
      DestroyMedia(*db);
      REDO_CHECK(MediaRecover(*db, backup).ok());
    } else {
      REDO_CHECK(db->Recover().ok());
      REDO_CHECK(db->FlushEverything().ok());
      if (!db->method().allows_background_flush()) {
        REDO_CHECK(db->Checkpoint().ok());
      }
    }
    EXPECT_EQ(db->NewSession().ReadSlot(1, 0).value(), 5) << "rolled back";
    EXPECT_EQ(db->NewSession().ReadSlot(2, 1).value(), 0) << "rolled back";
    EXPECT_EQ(db->NewSession().ReadSlot(3, 2).value(), 7);
    std::vector<uint8_t> stable;
    for (storage::PageId p = 0; p < kPages; ++p) {
      const std::span<const uint8_t> bytes = db->disk().PeekPage(p).bytes();
      stable.insert(stable.end(), bytes.begin(), bytes.end());
    }
    return stable;
  };
  EXPECT_EQ(RunOne(false), RunOne(true));
}

TEST(BackupTest, BtreeSurvivesMediaFailure) {
  auto db = MakeDb(MethodKind::kGeneralized);
  btree::Btree tree = btree::Btree::Create(db.get()).value();
  const int n = static_cast<int>(btree::NodeRef::Capacity()) * 2;
  for (int i = 0; i < n / 2; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  const Backup backup = TakeBackup(*db).value();
  for (int i = n / 2; i < n; ++i) ASSERT_TRUE(tree.Insert(i, i).ok());
  for (int i = 0; i < n / 4; ++i) ASSERT_TRUE(tree.Remove(i).ok());
  ASSERT_TRUE(db->log().ForceAll().ok());

  DestroyMedia(*db);
  ASSERT_TRUE(MediaRecover(*db, backup).ok());
  btree::Btree reopened = btree::Btree::Open(db.get()).value();
  ASSERT_TRUE(reopened.ValidateStructure().ok());
  EXPECT_EQ(reopened.Size().value(), static_cast<size_t>(n - n / 4));
}

TEST(BackupTest, NonImageRecordInPhysicalLogFailsMediaRecoveryToo) {
  // A physical log holds only page images. Media recovery classifies
  // each record with the method, as crash recovery does, and refuses a
  // foreign record with the same Corruption instead of applying it.
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->NewSession().WriteSlot(1, 0, 5).ok());
  const Backup backup = TakeBackup(*db).value();
  const SinglePageOp poke = MakeSlotWrite(1, 0, 6);
  db->log().Append(poke.type, EncodeSinglePageOp(poke));
  ASSERT_TRUE(db->log().ForceAll().ok());
  db->Crash();
  const Status crash = db->Recover();
  ASSERT_EQ(crash.code(), StatusCode::kCorruption) << crash.ToString();

  db->Crash();
  DestroyMedia(*db);
  const Status media = MediaRecover(*db, backup);
  EXPECT_EQ(media.code(), StatusCode::kCorruption) << media.ToString();
  EXPECT_EQ(media.ToString(), crash.ToString());
}

TEST(BackupTest, SizeMismatchRejected) {
  auto db = MakeDb(MethodKind::kPhysical);
  Backup backup;
  backup.pages.resize(3);
  EXPECT_EQ(MediaRecover(*db, backup).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace redo::engine
