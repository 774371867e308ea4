// The degradation ladder (engine/degraded_recovery.h), parameterized
// over damage site x mirror state x archive state x backup presence:
// every combination must resolve at exactly the predicted rung, rungs
// 0-2 must recover the exact pre-crash values, and rung 3 must refuse
// loudly, naming the first unreadable LSN.

#include "engine/degraded_recovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/backup.h"
#include "engine/minidb.h"
#include "method_param_name.h"

namespace redo::engine {
namespace {

using methods::MethodKind;

constexpr size_t kPages = 8;

struct LadderCase {
  const char* name;
  bool damage = true;          // corrupt the first sealed segment's primary
  bool damage_mirror = false;  // ...and its mirror (a double fault)
  bool damage_archive = false; // ...and its archive copy
  bool with_backup = false;    // a backup taken after the damaged segment
  LadderRung expected = LadderRung::kIntactLog;
};

const LadderCase kMatrix[] = {
    {"clean_log", false, false, false, false, LadderRung::kIntactLog},
    {"clean_log_with_backup", false, false, false, true,
     LadderRung::kIntactLog},
    {"primary_rot_mirror_intact", true, false, false, false,
     LadderRung::kMirrorRepair},
    {"primary_rot_mirror_intact_backup_ignored", true, false, false, true,
     LadderRung::kMirrorRepair},
    {"double_fault_archive_covers_no_backup", true, true, false, false,
     LadderRung::kMediaRecovery},  // genesis + full archive replay
    {"double_fault_archive_covers_backup", true, true, false, true,
     LadderRung::kMediaRecovery},
    {"double_fault_archive_dead_backup_covers", true, true, true, true,
     LadderRung::kMediaRecovery},  // backup subsumes the dead segment
    {"double_fault_archive_dead_no_backup", true, true, true, false,
     LadderRung::kRefused},
};

struct LadderRig {
  std::unique_ptr<MiniDb> db;
  std::optional<Backup> backup;
  std::map<std::pair<storage::PageId, uint32_t>, int64_t> expected_slots;
  wal::SegmentInfo target;  // the (to-be-)damaged segment
};

// Where a transaction still open at the crash wrote: nowhere (no
// loser), on both sides of the backup, or first of all, in the segment
// the rig damages.
enum class Loser { kNone, kAcrossBackup, kInFirstSegment };

void MakeRig(MethodKind kind, const LadderCase& c, Loser loser_at,
             LadderRig* out) {
  LadderRig& rig = *out;
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 0;
  options.wal.segment_bytes = 160;
  rig.db = std::make_unique<MiniDb>(options, methods::MakeMethod(kind, {kPages}));
  MiniDb& db = *rig.db;

  auto write = [&](storage::PageId page, uint32_t slot, int64_t value) {
    ASSERT_TRUE(db.NewSession().WriteSlot(page, slot, value).ok());
    ASSERT_TRUE(db.log().ForceAll().ok());
    rig.expected_slots[{page, slot}] = value;
  };

  MiniDb::Session loser = db.NewSession();
  if (loser_at == Loser::kInFirstSegment) {
    ASSERT_TRUE(loser.Begin().ok());
    ASSERT_TRUE(loser.WriteSlot(1, 7, -7).ok());
  }

  // Enough forced writes to seal several segments, with a checkpoint in
  // the middle so recovery has a scan anchor.
  for (int i = 0; i < 10; ++i) write(1 + i % (kPages - 1), i % 4, 100 + i);
  ASSERT_TRUE(db.Checkpoint().ok());
  for (int i = 10; i < 16; ++i) write(1 + i % (kPages - 1), i % 4, 100 + i);

  // The loser writes (1, 0) before the backup and (2, 0) after it; both
  // keep their committed values (100 + 0 and 100 + 8).
  if (loser_at == Loser::kAcrossBackup) {
    ASSERT_TRUE(loser.Begin().ok());
    ASSERT_TRUE(loser.WriteSlot(1, 0, -1).ok());
  }

  // The backup (when present) is taken AFTER the target segment's
  // records, so it subsumes them — the precondition for amputating an
  // unrebuildable segment at rung 2.
  if (c.with_backup) rig.backup = TakeBackup(db).value();
  if (loser_at == Loser::kAcrossBackup) {
    ASSERT_TRUE(loser.WriteSlot(2, 0, -2).ok());
  }

  // Post-backup suffix, so rungs 1-2 must replay real work.
  for (int i = 16; i < 22; ++i) write(1 + i % (kPages - 1), i % 4, 100 + i);

  db.Crash();  // the loser's handle dies after the crash
  const std::vector<wal::SegmentInfo> live = db.log().LiveSegments();
  ASSERT_GE(live.size(), 3u) << "the rig must seal several segments";
  ASSERT_TRUE(live[0].sealed);
  rig.target = live[0];

  if (c.damage) {
    ASSERT_TRUE(db.log().CorruptSegmentByte(rig.target.id,
                                            wal::LogCopy::kPrimary, 7, 0x40));
  }
  if (c.damage_mirror) {
    ASSERT_TRUE(db.log().LoseSegmentCopy(rig.target.id, wal::LogCopy::kMirror));
  }
  if (c.damage_archive) {
    ASSERT_TRUE(db.log().CorruptSegmentByte(rig.target.id,
                                            wal::LogCopy::kArchive, 7, 0x40));
  }
}

struct LadderParam {
  MethodKind method;
  LadderCase c;
};

class LadderMatrixTest : public ::testing::TestWithParam<LadderParam> {};

constexpr MethodKind kLadderMethods[] = {
    MethodKind::kLogical, MethodKind::kPhysical, MethodKind::kPhysiological,
    MethodKind::kGeneralized};

std::vector<LadderParam> LadderParams() {
  std::vector<LadderParam> params;
  for (const MethodKind kind : kLadderMethods) {
    for (const LadderCase& c : kMatrix) params.push_back(LadderParam{kind, c});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    DamageMatrix, LadderMatrixTest, ::testing::ValuesIn(LadderParams()),
    [](const ::testing::TestParamInfo<LadderParam>& info) {
      return MethodParamName(info.param.method) + "_" + info.param.c.name;
    });

// Runs the ladder on the rig `c` describes and checks it resolves at
// `c.expected`.
void ExpectResolution(MethodKind kind, const LadderCase& c, Loser loser_at) {
  LadderRig rig;
  MakeRig(kind, c, loser_at, &rig);
  if (::testing::Test::HasFatalFailure()) return;
  MiniDb& db = *rig.db;

  const LadderReport report =
      RecoverWithDegradation(db, rig.backup ? &*rig.backup : nullptr);
  EXPECT_EQ(report.rung, c.expected) << report.ToString();

  if (c.expected == LadderRung::kRefused) {
    // Rung 3: loud, precise, and terminal — never recover past a gap.
    EXPECT_FALSE(report.status.ok());
    EXPECT_EQ(report.first_unreadable_lsn, rig.target.first_lsn)
        << "the refusal must name the FIRST unreadable LSN";
    EXPECT_NE(
        report.diagnosis.find(std::to_string(rig.target.first_lsn)),
        std::string::npos)
        << "diagnosis must cite the LSN: " << report.diagnosis;
    EXPECT_FALSE(db.Recover().ok())
        << "ordinary recovery must keep refusing while the hole exists";
    return;
  }

  // Rungs 0-2 must succeed and reproduce every pre-crash value exactly
  // (a loser's writes rolled back).
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  auto expect_values = [&](const char* when) {
    for (const auto& [key, value] : rig.expected_slots) {
      EXPECT_EQ(db.NewSession().ReadSlot(key.first, key.second).value(), value)
          << when << ": page " << key.first << " slot " << key.second;
    }
  };
  expect_values("after the ladder");
  if (c.expected == LadderRung::kMediaRecovery) {
    EXPECT_EQ(report.used_backup, c.with_backup);
    if (c.damage_archive) {
      EXPECT_GE(report.segments_amputated, 1u)
          << "an unrebuildable-but-subsumed segment must be amputated";
    }
    // Media recovery must leave the live log whole again: the NEXT
    // crash recovers ordinarily.
    EXPECT_EQ(db.log().FirstHoleLsn(), 0u);
    db.Crash();
    ASSERT_TRUE(db.Recover().ok());
    expect_values("after the next crash");
  }
}

TEST_P(LadderMatrixTest, ResolvesAtThePredictedRung) {
  ExpectResolution(GetParam().method, GetParam().c, Loser::kNone);
}

// A transaction open at the crash across the backup, over a
// double-faulted segment: rung 2 restarts from the backup and rolls the
// loser back, and the next crash keeps it rolled back.
class LadderLoserTest : public ::testing::TestWithParam<MethodKind> {};

INSTANTIATE_TEST_SUITE_P(
    DamageMatrix, LadderLoserTest,
    ::testing::ValuesIn(kLadderMethods),
    [](const auto& info) { return MethodParamName(info.param); });

TEST_P(LadderLoserTest, MediaRecoveryRollsTheLoserBack) {
  const LadderCase c = {"double_fault_loser_backup", true, true, false, true,
                        LadderRung::kMediaRecovery};
  ExpectResolution(GetParam(), c, Loser::kAcrossBackup);
}

// A loser whose chain starts in the first segment, and all three copies
// of that segment lost. The backup subsumes the hole for redo, but undo
// must walk the chain below the backup: the ladder refuses at rung 3,
// naming the chain's LSN, before it writes a page.
TEST_P(LadderLoserTest, RefusesWhenUndoCannotReadTheChain) {
  const LadderCase c = {"triple_fault_loser_backup", true, true, true, true,
                        LadderRung::kRefused};
  LadderRig rig;
  MakeRig(GetParam(), c, Loser::kInFirstSegment, &rig);
  if (HasFatalFailure()) return;
  MiniDb& db = *rig.db;
  ASSERT_EQ(rig.backup->checkpoint.payload.txns.size(), 1u);
  const core::Lsn chain_lsn = rig.backup->checkpoint.payload.txns[0].last_lsn;
  ASSERT_GE(chain_lsn, rig.target.first_lsn);
  ASSERT_LE(chain_lsn, rig.target.last_lsn);
  std::vector<storage::Page> disk;
  for (storage::PageId p = 0; p < kPages; ++p) {
    disk.push_back(db.disk().PeekPage(p));
  }

  const LadderReport report = RecoverWithDegradation(db, &*rig.backup);
  EXPECT_EQ(report.rung, LadderRung::kRefused) << report.ToString();
  EXPECT_EQ(report.first_unreadable_lsn, chain_lsn) << report.ToString();
  EXPECT_NE(report.diagnosis.find("undo needs LSN " +
                                  std::to_string(chain_lsn)),
            std::string::npos)
      << report.diagnosis;
  for (storage::PageId p = 0; p < kPages; ++p) {
    EXPECT_TRUE(db.disk().PeekPage(p) == disk[p])
        << "the refusal wrote page " << p;
  }
  EXPECT_FALSE(db.Recover().ok())
      << "ordinary recovery must keep refusing while the hole exists";
}

// A restart must not replay past a hole below the live log. Checkpoint
// truncation may retire records the checkpoint's redo start still needs
// (a page dirty since LSN 1) to the archive; once that archive copy is
// lost, every live segment is intact and no check of the live log sees
// the hole, so the restart's log visit itself must refuse, naming the
// first unreadable LSN, never replay the records after it onto pages
// that miss the write before it.
struct ArchiveHoleParam {
  MethodKind method;
  bool instant;  // RecoverInstant() instead of the quiescing Recover()
};

class ArchiveHoleRestartTest
    : public ::testing::TestWithParam<ArchiveHoleParam> {};

std::vector<ArchiveHoleParam> ArchiveHoleParams() {
  std::vector<ArchiveHoleParam> params;
  for (const MethodKind kind :
       {MethodKind::kPhysiological, MethodKind::kPhysiologicalAnalysis,
        MethodKind::kGeneralized}) {
    for (const bool instant : {false, true}) params.push_back({kind, instant});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(
    FuzzyMethods, ArchiveHoleRestartTest,
    ::testing::ValuesIn(ArchiveHoleParams()),
    [](const ::testing::TestParamInfo<ArchiveHoleParam>& info) {
      return MethodParamName(info.param.method) +
             (info.param.instant ? "_instant" : "_quiescing");
    });

using SlotValues = std::map<std::pair<storage::PageId, uint32_t>, int64_t>;

std::unique_ptr<MiniDb> MakeArchiveHoleDb(const ArchiveHoleParam& param) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.wal.segment_bytes = 200;
  options.engine.instant_restart = param.instant;
  return std::make_unique<MiniDb>(options,
                                  methods::MakeMethod(param.method, {kPages}));
}

// Page 1 is written at LSN 1 and still dirty at a fuzzy checkpoint, so
// the checkpoint's redo start is LSN 1; more writes follow, all forced
// and the last segment sealed. `values` gets every slot's last value.
void BuildArchiveHoleRig(MiniDb& db, SlotValues* values) {
  MiniDb::Session session = db.NewSession();
  auto write = [&](storage::PageId page, uint32_t slot, int64_t value) {
    ASSERT_TRUE(session.WriteSlot(page, slot, value).ok());
    (*values)[{page, slot}] = value;
  };
  write(1, 0, 4242);  // LSN 1
  for (int i = 0; i < 40; ++i) write(2 + i % 5, i % 4, 7 + i);
  ASSERT_TRUE(db.Checkpoint().ok());  // page 1 is dirty since LSN 1
  for (int value = 0; value <= 4; ++value) write(3, 2, value);
  ASSERT_TRUE(db.log().ForceAll().ok());
  db.log().SealActiveSegment();
}

TEST_P(ArchiveHoleRestartTest, RestartRefusesAHoleUnderItsRedoStart) {
  std::unique_ptr<MiniDb> owned = MakeArchiveHoleDb(GetParam());
  MiniDb& db = *owned;
  SlotValues values;
  BuildArchiveHoleRig(db, &values);
  if (::testing::Test::HasFatalFailure()) return;
  wal::LogManager& log = db.log();
  ASSERT_GT(log.TruncateArchived(log.stable_lsn()), 0u);
  const wal::SegmentInfo first = log.ArchivedSegments().front();
  ASSERT_EQ(first.first_lsn, 1u);
  ASSERT_GT(log.live_begin_lsn(), first.last_lsn)
      << "LSN 1 must be archive-only";
  ASSERT_TRUE(log.LoseSegmentCopy(first.id, wal::LogCopy::kArchive));
  db.Crash();
  EXPECT_TRUE(log.Scrub().clean());
  EXPECT_EQ(log.FirstHoleLsn(), 0u);

  const Status recovered =
      GetParam().instant ? db.RecoverInstant() : db.Recover();
  if (recovered.ok() && GetParam().instant) {
    // The restart ran past the hole: stop its drain before failing.
    (void)db.WaitUntilRecovered();
    (void)db.EndConcurrent();
  }
  EXPECT_EQ(recovered.code(), StatusCode::kCorruption)
      << recovered.ToString();
  EXPECT_NE(recovered.message().find("first unreadable LSN 1;"),
            std::string::npos)
      << recovered.ToString();
}

// Truncated through TruncateLog, which caps at the restart's scan start
// (the redo start, LSN 1), the same rig keeps LSN 1 live: losing the
// first segment's archive copy then costs nothing.
TEST_P(ArchiveHoleRestartTest, CappedTruncationKeepsTheRedoStartLive) {
  std::unique_ptr<MiniDb> owned = MakeArchiveHoleDb(GetParam());
  MiniDb& db = *owned;
  SlotValues values;
  BuildArchiveHoleRig(db, &values);
  if (::testing::Test::HasFatalFailure()) return;
  wal::LogManager& log = db.log();
  ASSERT_TRUE(TruncateLog(db, log.stable_lsn()).ok());
  ASSERT_EQ(log.live_begin_lsn(), 1u) << "the redo start must stay live";
  const wal::SegmentInfo first = log.ArchivedSegments().front();
  ASSERT_EQ(first.first_lsn, 1u);
  ASSERT_TRUE(log.LoseSegmentCopy(first.id, wal::LogCopy::kArchive));
  db.Crash();

  if (GetParam().instant) {
    ASSERT_TRUE(db.RecoverInstant().ok());
    ASSERT_TRUE(db.WaitUntilRecovered().ok());
  } else {
    ASSERT_TRUE(db.Recover().ok());
  }
  for (const auto& [key, value] : values) {
    EXPECT_EQ(db.NewSession().ReadSlot(key.first, key.second).value(), value)
        << "page " << key.first << " slot " << key.second;
  }
  if (GetParam().instant) {
    ASSERT_TRUE(db.EndConcurrent().ok());
  }
}

// Rung 2 may amputate the segment holding the backup's own checkpoint
// record: the backup keeps that checkpoint, and the restart from it
// reads no record at or below the backup LSN.
class BackupCheckpointAmputatedTest
    : public ::testing::TestWithParam<MethodKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllMethods, BackupCheckpointAmputatedTest,
    ::testing::ValuesIn(methods::kMethodKinds),
    [](const auto& info) { return MethodParamName(info.param); });

TEST_P(BackupCheckpointAmputatedTest, MediaRecoveryStillSucceeds) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.wal.segment_bytes = 160;
  MiniDb db(options, methods::MakeMethod(GetParam(), {kPages}));
  SlotValues values;
  auto write = [&](storage::PageId page, uint32_t slot, int64_t value) {
    ASSERT_TRUE(db.NewSession().WriteSlot(page, slot, value).ok());
    ASSERT_TRUE(db.log().ForceAll().ok());
    values[{page, slot}] = value;
  };
  for (int i = 0; i < 10; ++i) write(1 + i % (kPages - 1), i % 4, 100 + i);
  const Backup backup = TakeBackup(db).value();
  db.log().SealActiveSegment();  // the backup's checkpoint ends a segment
  for (int i = 10; i < 16; ++i) write(1 + i % (kPages - 1), i % 4, 100 + i);
  db.Crash();

  const std::vector<wal::SegmentInfo> live = db.log().LiveSegments();
  const auto holder = std::find_if(
      live.begin(), live.end(), [&](const wal::SegmentInfo& segment) {
        return segment.sealed && segment.last_lsn == backup.backup_lsn;
      });
  ASSERT_NE(holder, live.end());
  for (const wal::LogCopy copy : {wal::LogCopy::kPrimary,
                                  wal::LogCopy::kMirror,
                                  wal::LogCopy::kArchive}) {
    ASSERT_TRUE(db.log().LoseSegmentCopy(holder->id, copy));
  }

  const LadderReport report = RecoverWithDegradation(db, &backup);
  EXPECT_EQ(report.rung, LadderRung::kMediaRecovery) << report.ToString();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.segments_amputated, 1u);
  db.Crash();
  ASSERT_TRUE(db.Recover().ok());
  for (const auto& [key, value] : values) {
    EXPECT_EQ(db.NewSession().ReadSlot(key.first, key.second).value(), value)
        << "page " << key.first << " slot " << key.second;
  }
}

}  // namespace
}  // namespace redo::engine
