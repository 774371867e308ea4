#include "wal/log_manager.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace redo::wal {
namespace {

TEST(LogManagerTest, AppendAssignsMonotonicLsns) {
  LogManager log;
  EXPECT_EQ(log.Append(RecordType::kSlotWrite, {}), 1u);
  EXPECT_EQ(log.Append(RecordType::kSlotWrite, {}), 2u);
  EXPECT_EQ(log.last_lsn(), 2u);
  EXPECT_EQ(log.stable_lsn(), 0u);
}

TEST(LogManagerTest, ForceMovesPrefixToStable) {
  LogManager log;
  log.Append(RecordType::kSlotWrite, {1});
  log.Append(RecordType::kSlotWrite, {2});
  log.Append(RecordType::kSlotWrite, {3});
  ASSERT_TRUE(log.Force(2).ok());
  EXPECT_EQ(log.stable_lsn(), 2u);

  Result<std::vector<LogRecord>> stable = log.StableRecords(1);
  ASSERT_TRUE(stable.ok());
  ASSERT_EQ(stable.value().size(), 2u);
  EXPECT_EQ(stable.value()[0].payload, std::vector<uint8_t>{1});
  EXPECT_EQ(stable.value()[1].payload, std::vector<uint8_t>{2});
}

TEST(LogManagerTest, ForceBeyondEndForcesEverything) {
  LogManager log;
  log.Append(RecordType::kSlotWrite, {});
  ASSERT_TRUE(log.Force(999).ok());
  EXPECT_EQ(log.stable_lsn(), 1u);
}

TEST(LogManagerTest, ForceIsIdempotent) {
  LogManager log;
  log.Append(RecordType::kSlotWrite, {1});
  ASSERT_TRUE(log.Force(1).ok());
  const uint64_t bytes = log.stats().stable_bytes;
  ASSERT_TRUE(log.Force(1).ok());
  EXPECT_EQ(log.stats().stable_bytes, bytes) << "no duplicate stable records";
  EXPECT_EQ(log.StableRecords(1).value().size(), 1u);
}

TEST(LogManagerTest, CrashDropsVolatileTailOnly) {
  LogManager log;
  log.Append(RecordType::kSlotWrite, {1});
  log.Append(RecordType::kSlotWrite, {2});
  ASSERT_TRUE(log.Force(1).ok());
  log.Crash();
  EXPECT_EQ(log.stable_lsn(), 1u);
  EXPECT_EQ(log.last_lsn(), 1u) << "lost LSNs are reusable";
  EXPECT_EQ(log.StableRecords(1).value().size(), 1u);

  // Appends after recovery continue from the stable LSN.
  EXPECT_EQ(log.Append(RecordType::kSlotWrite, {3}), 2u);
}

TEST(LogManagerTest, StableRecordsFromMidLsn) {
  LogManager log;
  for (int i = 0; i < 5; ++i) log.Append(RecordType::kSlotWrite, {});
  ASSERT_TRUE(log.ForceAll().ok());
  const std::vector<LogRecord> tail = log.StableRecords(4).value();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].lsn, 4u);
  EXPECT_EQ(tail[1].lsn, 5u);
}

TEST(LogManagerTest, LatestStableCheckpointFound) {
  LogManager log;
  log.Append(RecordType::kSlotWrite, {});
  log.Append(RecordType::kCheckpoint, {1});
  log.Append(RecordType::kSlotWrite, {});
  log.Append(RecordType::kCheckpoint, {2});
  log.Append(RecordType::kSlotWrite, {});
  ASSERT_TRUE(log.ForceAll().ok());
  const auto checkpoint = log.LatestStableCheckpoint().value();
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_EQ(checkpoint->lsn, 4u);
  EXPECT_EQ(checkpoint->payload, std::vector<uint8_t>{2});
}

TEST(LogManagerTest, NoCheckpointReturnsNullopt) {
  LogManager log;
  log.Append(RecordType::kSlotWrite, {});
  ASSERT_TRUE(log.ForceAll().ok());
  EXPECT_FALSE(log.LatestStableCheckpoint().value().has_value());
}

TEST(LogManagerTest, UnforcedCheckpointInvisible) {
  LogManager log;
  log.Append(RecordType::kCheckpoint, {});
  EXPECT_FALSE(log.LatestStableCheckpoint().value().has_value());
}

TEST(LogManagerTest, TornStableTailTruncatedNotFatal) {
  // A torn tail is no longer a fatal error: the scan salvages the valid
  // prefix and reports the damage, so recovery can proceed from it.
  LogManager log;
  log.Append(RecordType::kSlotWrite, {1, 2, 3});
  log.Append(RecordType::kSlotWrite, {4, 5, 6});
  ASSERT_TRUE(log.ForceAll().ok());
  log.CorruptStableTail(3);  // cuts into the second record
  std::vector<core::Lsn> visited;
  const Result<ScanExtent> scan =
      log.VisitStable(1, [&visited](const LogRecord& record) {
        visited.push_back(record.lsn);
        return Status::Ok();
      });
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().torn);
  EXPECT_EQ(visited, std::vector<core::Lsn>{1});
  EXPECT_EQ(scan.value().last_valid_lsn, 1u);
  // StableRecords returns the salvaged prefix instead of erroring.
  const auto records = log.StableRecords(1);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records.value().size(), 1u);
  // The damage is bytes past the valid prefix, which salvage drops.
  EXPECT_GT(log.SalvageTornTail().dropped_bytes, 0u);
}

TEST(LogManagerTest, SalvageTruncatesTornTailAtLastValidRecord) {
  LogManager log;
  log.Append(RecordType::kSlotWrite, {1});
  log.Append(RecordType::kSlotWrite, {2});
  ASSERT_TRUE(log.ForceAll().ok());
  log.Append(RecordType::kCheckpoint, {});
  // The crash interrupts the force: only part of the checkpoint record
  // reaches stable storage.
  const size_t pending = log.PendingForceBytes();
  ASSERT_GT(pending, 4u);
  EXPECT_EQ(log.TearInFlightForce(pending - 3), pending - 3);
  EXPECT_EQ(log.stable_lsn(), 2u) << "torn bytes are not acknowledged";
  log.Crash();

  const SalvageResult salvage = log.SalvageTornTail();
  EXPECT_TRUE(salvage.torn);
  EXPECT_EQ(salvage.dropped_bytes, pending - 3);
  EXPECT_EQ(salvage.salvaged_records, 0u);
  EXPECT_EQ(salvage.stable_lsn_before, 2u);
  EXPECT_EQ(salvage.stable_lsn_after, 2u);
  EXPECT_EQ(log.StableRecords(1).value().size(), 2u);
  EXPECT_EQ(log.stats().torn_tail_truncations, 1u);
  EXPECT_EQ(log.stats().torn_bytes_dropped, pending - 3);
}

TEST(LogManagerTest, SalvageKeepsExactlyTheWholeRecordsOfEveryTear) {
  // A crash may tear a force after any of its bytes. Salvage keeps the
  // records whose frames lie wholly inside the bytes that landed, reads
  // them back unchanged, and drops the partial frame after them.
  const std::vector<std::vector<uint8_t>> payloads = {
      {}, {1, 2, 3}, std::vector<uint8_t>(40, 7), {9}};
  auto stage = [&payloads](LogManager& log, std::vector<LogRecord>* tail) {
    log.Append(RecordType::kSlotWrite, {0xaa});
    ASSERT_TRUE(log.ForceAll().ok());
    for (const std::vector<uint8_t>& payload : payloads) {
      const core::Lsn lsn = log.Append(RecordType::kSlotWrite, payload);
      tail->push_back(LogRecord{lsn, RecordType::kSlotWrite, payload});
    }
  };
  size_t pending = 0;
  {
    LogManager log;
    std::vector<LogRecord> tail;
    stage(log, &tail);
    pending = log.PendingForceBytes();
  }
  for (size_t landed = 0; landed < pending; ++landed) {
    LogManager log;
    std::vector<LogRecord> tail;
    stage(log, &tail);
    ASSERT_EQ(log.TearInFlightForce(landed), landed);
    log.Crash();
    size_t whole = 0;
    size_t whole_bytes = 0;
    while (whole < tail.size() &&
           whole_bytes + EncodedRecordSize(tail[whole]) <= landed) {
      whole_bytes += EncodedRecordSize(tail[whole]);
      ++whole;
    }
    const SalvageResult salvage = log.SalvageTornTail();
    EXPECT_EQ(salvage.salvaged_records, whole) << "landed " << landed;
    EXPECT_EQ(salvage.dropped_bytes, landed - whole_bytes)
        << "landed " << landed;
    EXPECT_EQ(salvage.torn, landed > whole_bytes) << "landed " << landed;
    EXPECT_EQ(log.stable_lsn(), 1 + whole) << "landed " << landed;
    const std::vector<LogRecord> records = log.StableRecords(1).value();
    ASSERT_EQ(records.size(), 1 + whole) << "landed " << landed;
    for (size_t i = 0; i < whole; ++i) {
      EXPECT_EQ(records[1 + i], tail[i]) << "landed " << landed;
    }
  }
}

TEST(LogManagerTest, SalvageRecoversCompleteUnacknowledgedRecords) {
  // A torn force can still land complete records. They are genuine
  // survivors — the crash happened before the ack, but the bytes are
  // whole and checksummed — so stable_lsn RISES. This is safe because
  // no page flush can have depended on the unacknowledged force.
  LogManager log;
  log.Append(RecordType::kSlotWrite, {1});
  ASSERT_TRUE(log.ForceAll().ok());
  log.Append(RecordType::kSlotWrite, {2});
  log.Append(RecordType::kSlotWrite, {3});
  const size_t pending = log.PendingForceBytes();
  // Land ALL pending bytes: both records are complete on stable storage.
  EXPECT_EQ(log.TearInFlightForce(pending), pending);
  log.Crash();
  EXPECT_EQ(log.stable_lsn(), 1u);

  const SalvageResult salvage = log.SalvageTornTail();
  EXPECT_FALSE(salvage.torn) << "every stable byte decoded";
  EXPECT_EQ(salvage.salvaged_records, 2u);
  EXPECT_EQ(salvage.stable_lsn_after, 3u);
  EXPECT_EQ(log.stable_lsn(), 3u);
  EXPECT_EQ(log.StableRecords(1).value().size(), 3u);
  EXPECT_EQ(log.stats().salvaged_records, 2u);
}

TEST(LogManagerTest, SalvageAfterCorruptStableTailRescansFromScratch) {
  LogManager log;
  for (int i = 0; i < 5; ++i) {
    log.Append(RecordType::kSlotWrite, {static_cast<uint8_t>(i)});
  }
  ASSERT_TRUE(log.ForceAll().ok());
  log.CorruptStableTail(7);  // cuts into record 5
  log.Crash();
  const SalvageResult salvage = log.SalvageTornTail();
  EXPECT_TRUE(salvage.torn);
  EXPECT_EQ(salvage.stable_lsn_after, 4u);
  EXPECT_EQ(log.StableRecords(1).value().size(), 4u);
  // Appends continue from the salvaged LSN.
  EXPECT_EQ(log.Append(RecordType::kSlotWrite, {9}), 5u);
}

TEST(LogManagerTest, LatestStableCheckpointUsesCachedOffset) {
  LogManager log;
  for (int round = 0; round < 10; ++round) {
    log.Append(RecordType::kSlotWrite, {static_cast<uint8_t>(round)});
    log.Append(RecordType::kCheckpoint, {static_cast<uint8_t>(round)});
    ASSERT_TRUE(log.ForceAll().ok());
  }
  const auto checkpoint = log.LatestStableCheckpoint();
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(checkpoint.value().has_value());
  EXPECT_EQ(checkpoint.value()->lsn, 20u);
  EXPECT_EQ(checkpoint.value()->payload, std::vector<uint8_t>{9});
  EXPECT_EQ(log.stats().checkpoint_cache_hits, 1u);
  EXPECT_EQ(log.stats().checkpoint_full_scans, 0u);
}

TEST(LogManagerTest, LatestStableCheckpointFallsBackOnDamage) {
  LogManager log;
  log.Append(RecordType::kCheckpoint, {1});
  log.Append(RecordType::kSlotWrite, {2});
  log.Append(RecordType::kCheckpoint, {3});
  ASSERT_TRUE(log.ForceAll().ok());
  log.CorruptStableTail(2);  // damages the tail past the 2nd checkpoint
  const auto checkpoint = log.LatestStableCheckpoint();
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(checkpoint.value().has_value());
  EXPECT_EQ(checkpoint.value()->lsn, 1u) << "latest INTACT checkpoint";
  EXPECT_GE(log.stats().checkpoint_full_scans, 1u);
}

TEST(LogManagerTest, SalvageOnCleanLogIsFreeAndExact) {
  LogManager log;
  log.Append(RecordType::kSlotWrite, {1});
  ASSERT_TRUE(log.ForceAll().ok());
  log.Crash();
  const SalvageResult salvage = log.SalvageTornTail();
  EXPECT_FALSE(salvage.torn);
  EXPECT_EQ(salvage.dropped_bytes, 0u);
  EXPECT_EQ(salvage.salvaged_records, 0u);
  EXPECT_EQ(log.stable_lsn(), 1u);
}

// A log over many small sealed segments plus a non-empty active one.
// Every tenth record is a checkpoint, so TruncateArchived has a
// checkpoint to stop below.
std::unique_ptr<LogManager> SegmentedLog(int records) {
  LogManagerOptions options;
  options.segment_bytes = 96;
  auto log = std::make_unique<LogManager>(options);
  for (int i = 1; i <= records; ++i) {
    const uint8_t b = static_cast<uint8_t>(i);
    log->Append(i % 10 == 0 ? RecordType::kCheckpoint : RecordType::kSlotWrite,
                {b, b, b, b, b, b});
    if (i % 3 == 0) {
      EXPECT_TRUE(log->ForceAll().ok());
    }
  }
  EXPECT_TRUE(log->ForceAll().ok());
  return log;
}

// The point lookup returns, for every stable LSN, exactly the record the
// whole-log scan holds.
void ExpectLookupsMatchTheScan(const LogManager& log, const char* where) {
  const std::vector<LogRecord> all = log.StableRecords(1).value();
  ASSERT_EQ(all.size(), log.stable_lsn()) << where;
  for (const LogRecord& record : all) {
    Result<LogRecord> found = log.StableRecordAt(record.lsn);
    ASSERT_TRUE(found.ok()) << where << ": LSN " << record.lsn << ": "
                            << found.status().ToString();
    EXPECT_EQ(found.value(), record) << where << ": LSN " << record.lsn;
  }
}

TEST(LogManagerTest, StableRecordAtMatchesTheScanInEverySegmentKind) {
  const std::unique_ptr<LogManager> owned = SegmentedLog(61);
  LogManager& log = *owned;
  const std::vector<SegmentInfo> live = log.LiveSegments();
  ASSERT_GE(live.size(), 10u);
  ASSERT_FALSE(live.back().sealed);
  ASSERT_NE(live.back().first_lsn, 0u) << "the active segment holds records";
  ExpectLookupsMatchTheScan(log, "sealed and active");

  // Truncation leaves the oldest segments only in the archive.
  ASSERT_GT(log.TruncateArchived(log.stable_lsn()), 0u);
  ASSERT_GT(log.live_begin_lsn(), 1u);
  ExpectLookupsMatchTheScan(log, "archive-only prefix");

  EXPECT_EQ(log.StableRecordAt(0).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(log.StableRecordAt(log.stable_lsn() + 1).status().code(),
            StatusCode::kNotFound);
  // Appended but not forced: above stable_lsn(), so refused.
  const core::Lsn volatile_lsn = log.Append(RecordType::kSlotWrite, {1});
  EXPECT_EQ(log.StableRecordAt(volatile_lsn).status().code(),
            StatusCode::kNotFound);
}

TEST(LogManagerTest, StableRecordAtReadsOnlyTheSegmentHoldingTheLsn) {
  const std::unique_ptr<LogManager> owned = SegmentedLog(90);
  LogManager& log = *owned;
  ASSERT_GE(log.LiveSegments().size(), 20u);
  log.ResetStats();
  for (core::Lsn lsn : {1u, 40u, 89u}) {
    ASSERT_TRUE(log.StableRecordAt(lsn).ok()) << lsn;
  }
  EXPECT_EQ(log.stats().scan_cache_hits + log.stats().scan_decodes, 3u)
      << "one segment read per lookup, whatever precedes it";
}

TEST(LogManagerTest, StableRecordAtReadsAnUnverifiedActiveTail) {
  LogManager log;
  for (uint8_t i = 1; i <= 5; ++i) log.Append(RecordType::kSlotWrite, {i});
  ASSERT_TRUE(log.ForceAll().ok());
  // The cut leaves the active segment unverified: LSNs 1-4 are decodable
  // bytes no cache vouches for, and LSN 5 is torn.
  log.CorruptStableTail(2);
  for (core::Lsn lsn = 1; lsn <= 4; ++lsn) {
    Result<LogRecord> found = log.StableRecordAt(lsn);
    ASSERT_TRUE(found.ok()) << lsn << ": " << found.status().ToString();
    EXPECT_EQ(found.value().payload,
              std::vector<uint8_t>{static_cast<uint8_t>(lsn)});
  }
  EXPECT_FALSE(log.StableRecordAt(5).ok()) << "past the damage";
}

TEST(LogManagerTest, StableRecordAtRefusesAtOrPastAHole) {
  const std::unique_ptr<LogManager> owned = SegmentedLog(61);
  LogManager& log = *owned;
  const std::vector<SegmentInfo> live = log.LiveSegments();
  ASSERT_GE(live.size(), 5u);
  const SegmentInfo hole = live[2];
  ASSERT_TRUE(hole.sealed);
  ASSERT_TRUE(log.LoseSegmentCopy(hole.id, LogCopy::kPrimary));
  ASSERT_TRUE(log.LoseSegmentCopy(hole.id, LogCopy::kMirror));
  // No twin to read around the hole.
  ASSERT_TRUE(log.LoseSegmentCopy(hole.id, LogCopy::kArchive));
  ASSERT_EQ(log.FirstHoleLsn(), hole.first_lsn);

  // The scan stops at the hole; the lookup serves exactly what it holds.
  const std::vector<LogRecord> prefix = log.StableRecords(1).value();
  ASSERT_EQ(prefix.size(), hole.first_lsn - 1);
  for (const LogRecord& record : prefix) {
    Result<LogRecord> found = log.StableRecordAt(record.lsn);
    ASSERT_TRUE(found.ok()) << record.lsn;
    EXPECT_EQ(found.value(), record);
  }
  for (core::Lsn lsn = hole.first_lsn; lsn <= log.stable_lsn(); ++lsn) {
    EXPECT_EQ(log.StableRecordAt(lsn).status().code(),
              StatusCode::kCorruption)
        << "LSN " << lsn << " is at or past the hole";
  }
}

TEST(LogManagerTest, StableRecordAtArchiveHoleRefusesOnlyTheArchivePrefix) {
  const std::unique_ptr<LogManager> owned = SegmentedLog(61);
  LogManager& log = *owned;
  ASSERT_GT(log.TruncateArchived(log.stable_lsn()), 2u);
  const std::vector<SegmentInfo> archived = log.ArchivedSegments();
  const SegmentInfo hole = archived[1];
  ASSERT_LT(hole.last_lsn, log.live_begin_lsn()) << "archive-only";
  ASSERT_TRUE(log.LoseSegmentCopy(hole.id, LogCopy::kArchive));

  // Below the live log the archive is read as a scan from LSN 1 would
  // read it: up to the hole.
  for (core::Lsn lsn = 1; lsn < hole.first_lsn; ++lsn) {
    EXPECT_TRUE(log.StableRecordAt(lsn).ok()) << lsn;
  }
  for (core::Lsn lsn = hole.first_lsn; lsn < log.live_begin_lsn(); ++lsn) {
    EXPECT_EQ(log.StableRecordAt(lsn).status().code(),
              StatusCode::kCorruption)
        << lsn;
  }
  // The live log does not depend on the archive.
  const std::vector<LogRecord> live = log.StableRecords(log.live_begin_lsn()).value();
  ASSERT_FALSE(live.empty());
  for (const LogRecord& record : live) {
    Result<LogRecord> found = log.StableRecordAt(record.lsn);
    ASSERT_TRUE(found.ok()) << record.lsn;
    EXPECT_EQ(found.value(), record);
  }
}

TEST(LogManagerTest, VisitStableStopsAtTheVisitorsError) {
  LogManager log;
  for (uint8_t i = 1; i <= 5; ++i) log.Append(RecordType::kSlotWrite, {i});
  ASSERT_TRUE(log.ForceAll().ok());
  std::vector<core::Lsn> seen;
  const Result<ScanExtent> visited =
      log.VisitStable(2, [&seen](const LogRecord& record) {
        seen.push_back(record.lsn);
        return record.lsn == 4 ? Status::Corruption("stop") : Status::Ok();
      });
  EXPECT_EQ(visited.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(seen, (std::vector<core::Lsn>{2, 3, 4}));

  const Result<ScanExtent> whole =
      log.VisitStable(1, [](const LogRecord&) { return Status::Ok(); });
  ASSERT_TRUE(whole.ok());
  EXPECT_FALSE(whole.value().torn);
  EXPECT_EQ(whole.value().last_valid_lsn, 5u);
}

TEST(LogManagerTest, StatsTrackForces) {
  LogManager log;
  log.Append(RecordType::kSlotWrite, {});
  log.Append(RecordType::kSlotWrite, {});
  (void)log.Force(2);
  EXPECT_EQ(log.stats().appends, 2u);
  EXPECT_EQ(log.stats().forces, 1u);
  EXPECT_EQ(log.stats().forced_records, 2u);
  EXPECT_GT(log.stats().stable_bytes, 0u);
}

}  // namespace
}  // namespace redo::wal
