// Backups and media recovery under the disk-fault schedule: TakeBackup,
// DestroyMedia, and MediaRecover must survive torn page writes,
// write-error bursts, and sticky read errors (the crash sim's serial
// schedule) for every Section 6 method, and must replay through the
// segmented, truncated, archive-backed log.

#include "engine/backup.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>

#include "storage/fault_injector.h"
#include "method_param_name.h"

namespace redo::engine {
namespace {

using methods::MethodKind;

constexpr size_t kPages = 12;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind, size_t segment_bytes = 0) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = kind == MethodKind::kLogical ? 0 : 4;
  options.wal.segment_bytes = segment_bytes;
  return std::make_unique<MiniDb>(options, methods::MakeMethod(kind, {kPages}));
}

class BackupFaultTest : public ::testing::TestWithParam<MethodKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllMethods, BackupFaultTest,
    ::testing::Values(MethodKind::kLogical, MethodKind::kPhysical,
                      MethodKind::kPhysiological, MethodKind::kGeneralized),
    [](const auto& info) { return MethodParamName(info.param); });

TEST_P(BackupFaultTest, MediaRecoveryUnderDiskFaultSchedule) {
  // The crash sim's serial disk fault schedule, hot enough that most
  // seeds inject something.
  storage::FaultInjectorOptions fault_options;
  fault_options.torn_write_probability = 0.03;
  fault_options.write_error_probability = 0.05;
  fault_options.max_write_error_burst = 2;
  fault_options.read_error_probability = 0.003;

  uint64_t faults_seen = 0;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto db = MakeDb(GetParam());
    storage::FaultInjector injector(fault_options, seed);
    db->disk().set_fault_injector(&injector);

    std::map<std::pair<storage::PageId, uint32_t>, int64_t> expected;
    auto tolerant_write = [&](storage::PageId page, uint32_t slot,
                              int64_t value) {
      Result<core::Lsn> lsn = db->NewSession().WriteSlot(page, slot, value);
      // A write-error burst can outlast the pool's retries (or a sticky
      // read can block the fetch): heal — the mirror-repair model — and
      // retry on the quiesced path until the bounded burst drains.
      for (int attempt = 0; !lsn.ok() && attempt < 4; ++attempt) {
        injector.HealAll(&db->disk());
        injector.set_paused(true);
        lsn = db->NewSession().WriteSlot(page, slot, value);
        injector.set_paused(false);
      }
      ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
      expected[{page, slot}] = value;
    };

    // Checkpoints give the injector disk traffic under every method
    // (logical only touches the disk at its pointer swing); a failed
    // attempt is retried after healing, like the pool's own retries.
    auto tolerant_checkpoint = [&] {
      Status st = db->Checkpoint();
      // Heal and redo a failed checkpoint on the quiesced mirror path,
      // as a real system would finish it on its degraded replica. An
      // in-flight bounded burst can still fail the first quiesced
      // attempts, so loop until it drains.
      for (int attempt = 0; !st.ok() && attempt < 4; ++attempt) {
        injector.HealAll(&db->disk());
        injector.set_paused(true);
        st = db->Checkpoint();
        injector.set_paused(false);
      }
      ASSERT_TRUE(st.ok()) << st.ToString();
    };

    for (int i = 0; i < 24; ++i) {
      tolerant_write(1 + i % (kPages - 1), i % 4, 1000 * seed + i);
      if (i % 8 == 7) tolerant_checkpoint();
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Heals, pauses, and drains any in-flight write-error burst (bursts
    // fire even while paused) so the next section runs fault-free.
    auto quiesce = [&] {
      injector.HealAll(&db->disk());
      injector.set_paused(true);
      for (int i = 0; i < fault_options.max_write_error_burst; ++i) {
        (void)db->disk().WritePage(0, db->disk().PeekPage(0));
      }
      injector.HealAll(&db->disk());
    };

    // A backup is a clean point: quiesce the faulty path while taking
    // it, as a real system would copy from the mirror.
    quiesce();
    const Backup backup = TakeBackup(*db).value();
    injector.set_paused(false);

    for (int i = 24; i < 40; ++i) {
      tolerant_write(1 + i % (kPages - 1), i % 4, 1000 * seed + i);
      if (i % 8 == 7) tolerant_checkpoint();
      if (::testing::Test::HasFatalFailure()) return;
    }
    ASSERT_TRUE(db->log().ForceAll().ok());

    // Media failure + recovery run on the quiesced path too: media
    // recovery rewrites every stable page, and DestroyMedia asserts its
    // writes succeed.
    quiesce();
    DestroyMedia(*db);
    ASSERT_TRUE(MediaRecover(*db, backup).ok());
    injector.set_paused(false);

    for (const auto& [key, value] : expected) {
      Result<int64_t> got = db->NewSession().ReadSlot(key.first, key.second);
      if (!got.ok()) {  // a sticky read injected post-recovery
        injector.HealAll(&db->disk());
        got = db->NewSession().ReadSlot(key.first, key.second);
      }
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got.value(), value)
          << "page " << key.first << " slot " << key.second;
    }
    faults_seen += injector.stats().torn_writes + injector.stats().write_errors +
                   injector.stats().read_errors;
  }
  EXPECT_GT(faults_seen, 0u)
      << "the schedule should have injected something across 6 seeds";
}

TEST_P(BackupFaultTest, MediaRecoveryReplaysThroughTruncatedArchivedLog) {
  // Post-backup history lives partly in truncated-away (archive-only)
  // segments: MediaRecover's read path must stitch backup + archive +
  // live log. This is the rung-2 read path under checkpoint truncation.
  auto db = MakeDb(GetParam(), /*segment_bytes=*/160);
  std::map<std::pair<storage::PageId, uint32_t>, int64_t> expected;
  auto write = [&](storage::PageId page, uint32_t slot, int64_t value) {
    ASSERT_TRUE(db->NewSession().WriteSlot(page, slot, value).ok());
    ASSERT_TRUE(db->log().ForceAll().ok());
    expected[{page, slot}] = value;
  };

  for (int i = 0; i < 8; ++i) write(1 + i % (kPages - 1), i % 4, 100 + i);
  const Backup backup = TakeBackup(*db).value();
  for (int i = 8; i < 24; ++i) write(1 + i % (kPages - 1), i % 4, 100 + i);

  // Checkpoint, then retire every pre-checkpoint sealed segment to the
  // archive: part of the post-backup suffix is now archive-only.
  ASSERT_TRUE(db->Checkpoint().ok());
  db->log().SealActiveSegment();
  ASSERT_GT(db->log().TruncateArchived(db->log().stable_lsn()), 0u);
  ASSERT_GT(db->log().live_begin_lsn(), backup.backup_lsn)
      << "the rig must truncate past the backup point";

  DestroyMedia(*db);
  ASSERT_TRUE(MediaRecover(*db, backup).ok());
  for (const auto& [key, value] : expected) {
    EXPECT_EQ(db->NewSession().ReadSlot(key.first, key.second).value(), value)
        << "page " << key.first << " slot " << key.second;
  }
}

}  // namespace
}  // namespace redo::engine
