// The segmented stable log: sealing at record boundaries, the one test
// of an intact copy (its frames decode with no LSN gap), mirror repair,
// archiving, checkpoint truncation, the archive coverage check and
// repair, and the parsed-record cache that keeps repeated scans from
// re-deserializing the whole image.

#include <gtest/gtest.h>

#include <string>

#include "util/rng.h"
#include "wal/log_manager.h"

namespace redo::wal {
namespace {

// Every record below is 18 framing bytes + 14 payload bytes = 32 bytes;
// with 96-byte segments the log seals after every third record.
constexpr size_t kSegmentBytes = 96;
constexpr size_t kRecordBytes = 32;

LogManager MakeSegmented(size_t segment_bytes = kSegmentBytes) {
  LogManagerOptions options;
  options.segment_bytes = segment_bytes;
  return LogManager(options);
}

core::Lsn AppendForced(LogManager& log, uint8_t tag,
                       RecordType type = RecordType::kSlotWrite) {
  const size_t payload = type == RecordType::kCheckpoint ? 0 : 14;
  const core::Lsn lsn = log.Append(type, std::vector<uint8_t>(payload, tag));
  EXPECT_TRUE(log.ForceAll().ok());
  return lsn;
}

// The first sealed live segment (tests damage the oldest history).
SegmentInfo FirstSealed(const LogManager& log) {
  for (const SegmentInfo& info : log.LiveSegments()) {
    if (info.sealed) return info;
  }
  ADD_FAILURE() << "no sealed segment";
  return SegmentInfo{};
}

TEST(SegmentTest, RecordOffsetsTileEachSegment) {
  // The physical layout log_inspector --json reports: a segment's bytes
  // are exactly its records' encodings concatenated, so a cumulative
  // EncodedRecordSize walk yields every record's byte offset within its
  // segment file, and a sealed segment's offsets sum to its size.
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 10; ++i) AppendForced(log, i);

  const std::vector<LogRecord> records = log.StableRecords(1).value();
  ASSERT_FALSE(records.empty());
  for (const SegmentInfo& seg : log.LiveSegments()) {
    if (seg.first_lsn == 0) continue;
    size_t offset = 0;
    for (const LogRecord& record : records) {
      if (record.lsn < seg.first_lsn || record.lsn > seg.last_lsn) continue;
      EXPECT_EQ(offset % kRecordBytes, 0u);
      offset += EncodedRecordSize(record);
    }
    EXPECT_EQ(offset, seg.bytes)
        << "segment " << seg.id << " bytes != sum of its record encodings";
  }
}

TEST(SegmentTest, SealsAtRecordBoundariesAndArchives) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 10; ++i) AppendForced(log, i);

  const std::vector<SegmentInfo> live = log.LiveSegments();
  ASSERT_GE(live.size(), 3u);
  core::Lsn expected_first = 1;
  for (size_t i = 0; i < live.size(); ++i) {
    const SegmentInfo& info = live[i];
    const bool is_active = i + 1 == live.size();
    EXPECT_EQ(info.sealed, !is_active) << "only the last segment is active";
    EXPECT_EQ(info.first_lsn, expected_first) << "segments tile the LSN space";
    if (info.sealed) {
      EXPECT_EQ(info.bytes % kRecordBytes, 0u) << "sealed at a record boundary";
      EXPECT_TRUE(info.archived) << "sealed segments ship to the archive";
    }
    expected_first = info.last_lsn + 1;
  }
  EXPECT_EQ(log.stats().segments_sealed, live.size() - 1);
  EXPECT_EQ(log.ArchivedSegments().size(), live.size() - 1);
  EXPECT_EQ(log.archived_through(), live[live.size() - 2].last_lsn);
  EXPECT_EQ(log.live_begin_lsn(), 1u);

  Result<std::vector<LogRecord>> all = log.StableRecords(1);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), 10u);
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(all.value()[i].lsn, i + 1);
}

TEST(SegmentTest, FlatLogNeverSeals) {
  LogManager log;  // segment_bytes = 0: the unbounded PR-1 behavior
  for (uint8_t i = 1; i <= 20; ++i) AppendForced(log, i);
  EXPECT_EQ(log.LiveSegments().size(), 1u);
  EXPECT_EQ(log.stats().segments_sealed, 0u);
  EXPECT_TRUE(log.ArchivedSegments().empty());
}

TEST(SegmentTest, ScrubRepairsBitRottenPrimaryFromMirror) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 7; ++i) AppendForced(log, i);
  const SegmentInfo target = FirstSealed(log);

  ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kPrimary, 5, 0x40));
  const ScrubReport report = log.Scrub();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.repairs, 1u);
  ASSERT_FALSE(report.verdicts.empty());
  EXPECT_EQ(report.verdicts[0].state,
            SegmentVerdict::State::kRepairedFromMirror);
  EXPECT_EQ(log.stats().mirror_repairs, 1u);

  // The repair is durable: a second pass finds everything intact, and
  // the full record sequence reads back.
  const ScrubReport again = log.Scrub();
  EXPECT_TRUE(again.clean());
  EXPECT_EQ(again.repairs, 0u);
  EXPECT_EQ(log.StableRecords(1).value().size(), 7u);
}

TEST(SegmentTest, ScrubRebuildsRottenMirrorFromPrimary) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 7; ++i) AppendForced(log, i);
  const SegmentInfo target = FirstSealed(log);

  ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kMirror, 9, 0x01));
  const ScrubReport report = log.Scrub();
  EXPECT_TRUE(report.clean());
  ASSERT_FALSE(report.verdicts.empty());
  EXPECT_EQ(report.verdicts[0].state, SegmentVerdict::State::kMirrorRebuilt);
}

TEST(SegmentTest, ScrubRepairsLostCopyFromTwin) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 7; ++i) AppendForced(log, i);
  const SegmentInfo target = FirstSealed(log);

  ASSERT_TRUE(log.LoseSegmentCopy(target.id, LogCopy::kPrimary));
  EXPECT_TRUE(log.Scrub().clean());
  EXPECT_EQ(log.StableRecords(1).value().size(), 7u);
}

// Every byte of a sealed segment is covered. Rot one byte of the
// primary and Scrub repairs it from the mirror, after which a full scan
// reads every record unchanged. Rot the same byte of both copies and
// the segment is a hole at its first LSN: a scan stops before it and a
// lookup refuses at or past it. Flips use the engine decoders' sweep
// masks (0xff and one random nonzero mask per byte).
TEST(SegmentTest, EveryByteOfASealedSegmentIsRepairedOrAHole) {
  auto fill = [](LogManager& log) {
    for (uint8_t i = 1; i <= 8; ++i) AppendForced(log, i);
  };
  LogManager reference = MakeSegmented();
  fill(reference);
  const std::vector<LogRecord> expected = reference.StableRecords(1).value();
  const SegmentInfo target = reference.LiveSegments()[1];
  ASSERT_TRUE(target.sealed);
  Rng rng(30);
  for (size_t offset = 0; offset < target.bytes; ++offset) {
    for (const uint8_t mask :
         {uint8_t{0xff}, static_cast<uint8_t>(1 + rng.Below(255))}) {
      const std::string at = "byte " + std::to_string(offset);
      {
        LogManager log = MakeSegmented();
        fill(log);
        ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kPrimary,
                                           offset, mask));
        const ScrubReport report = log.Scrub();
        EXPECT_TRUE(report.clean()) << at;
        ASSERT_EQ(report.verdicts.size(), 2u) << at;
        EXPECT_EQ(report.verdicts[1].state,
                  SegmentVerdict::State::kRepairedFromMirror)
            << at;
        EXPECT_EQ(log.StableRecords(1).value(), expected) << at;
      }
      LogManager log = MakeSegmented();
      fill(log);
      for (const LogCopy copy : {LogCopy::kPrimary, LogCopy::kMirror}) {
        ASSERT_TRUE(log.CorruptSegmentByte(target.id, copy, offset, mask));
      }
      EXPECT_EQ(log.FirstHoleLsn(), target.first_lsn) << at;
      core::Lsn last_visited = 0;
      const Result<ScanExtent> scan =
          log.VisitStable(1, [&last_visited](const LogRecord& record) {
            last_visited = record.lsn;
            return Status::Ok();
          });
      ASSERT_TRUE(scan.ok()) << at;
      EXPECT_TRUE(scan.value().torn) << at;
      EXPECT_EQ(scan.value().last_valid_lsn, target.first_lsn - 1) << at;
      EXPECT_EQ(last_visited, target.first_lsn - 1) << at;
      EXPECT_TRUE(log.StableRecordAt(target.first_lsn - 1).ok()) << at;
      for (const core::Lsn lsn : {target.first_lsn, log.stable_lsn()}) {
        EXPECT_EQ(log.StableRecordAt(lsn).status().code(),
                  StatusCode::kCorruption)
            << at << ", LSN " << lsn;
      }
      const ScrubReport report = log.Scrub();
      EXPECT_EQ(report.holes, 1u) << at;
      EXPECT_EQ(report.first_unreadable_lsn, target.first_lsn) << at;
    }
  }
}

// A copy is intact only when every frame decodes and its LSNs run from
// the segment's first to its last without a gap. A primary with its
// middle frame cut out still decodes frame by frame and still starts
// and ends at the segment's LSNs; with its mirror lost, the segment is
// a hole for every reader and for scrub, and only the archive
// rebuilds it.
TEST(SegmentTest, CopyMissingAnInteriorRecordIsAHole) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 7; ++i) AppendForced(log, i);
  const SegmentInfo target = FirstSealed(log);
  ASSERT_EQ(target.bytes, 3 * kRecordBytes);
  const core::Lsn cut = target.first_lsn + 1;

  SegmentCopy primary =
      log.PeekSegmentCopy(target.id, LogCopy::kPrimary).value();
  primary.bytes.erase(primary.bytes.begin() + kRecordBytes,
                      primary.bytes.begin() + 2 * kRecordBytes);
  ASSERT_TRUE(log.RestoreSegmentCopy(target.id, LogCopy::kPrimary, primary));
  ASSERT_TRUE(log.LoseSegmentCopy(target.id, LogCopy::kMirror));

  EXPECT_EQ(log.FirstHoleLsn(), target.first_lsn);
  const auto ignore = [](const LogRecord&) { return Status::Ok(); };
  EXPECT_TRUE(log.VisitStable(1, ignore).value().torn);
  EXPECT_EQ(log.StableRecordAt(cut).status().code(), StatusCode::kCorruption);
  const ScrubReport report = log.Scrub();
  EXPECT_EQ(report.holes, 1u);
  EXPECT_EQ(report.repairs, 0u);

  EXPECT_EQ(log.RepairFromArchive(), 1u);
  const std::vector<LogRecord> records = log.StableRecords(1).value();
  ASSERT_EQ(records.size(), 7u);
  for (size_t i = 0; i < records.size(); ++i) EXPECT_EQ(records[i].lsn, i + 1);
}

// Scrub keeps the records it decoded in the parsed cache, so a read
// after it rebuilt a primary from its mirror decodes nothing again.
TEST(SegmentTest, ReadAfterAScrubRepairDecodesNoSegment) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 7; ++i) AppendForced(log, i);
  const SegmentInfo target = FirstSealed(log);
  ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kPrimary, 5, 0x40));
  const ScrubReport report = log.Scrub();
  ASSERT_FALSE(report.verdicts.empty());
  ASSERT_EQ(report.verdicts[0].state,
            SegmentVerdict::State::kRepairedFromMirror);

  const uint64_t decodes = log.stats().scan_decodes;
  ASSERT_EQ(log.StableRecords(1).value().size(), 7u);
  EXPECT_EQ(log.stats().scan_decodes, decodes);
}

// Scrub's archive pass: a rotten archive copy of a live segment is
// rebuilt from its intact live twin and counts as a mirror repair.
TEST(SegmentTest, ScrubRebuildsARottenArchiveCopyFromItsLiveTwin) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 7; ++i) AppendForced(log, i);
  const SegmentInfo target = FirstSealed(log);
  ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kArchive, 5, 0x40));

  const uint64_t mirror_repairs = log.stats().mirror_repairs;
  const ScrubReport report = log.Scrub();
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.repairs, 0u);
  EXPECT_EQ(report.archive_repairs, 1u);
  EXPECT_EQ(report.archive_holes, 0u);
  ASSERT_FALSE(report.archive_verdicts.empty());
  EXPECT_EQ(report.archive_verdicts[0].id, target.id);
  EXPECT_EQ(report.archive_verdicts[0].state,
            SegmentVerdict::State::kRepairedFromMirror);
  EXPECT_EQ(log.stats().mirror_repairs, mirror_repairs + 1);

  // The rebuilt archive copy decodes again: the next scrub finds it
  // intact, and it alone re-seeds the segment once both live copies
  // are lost.
  EXPECT_EQ(log.Scrub().archive_verdicts[0].state,
            SegmentVerdict::State::kIntact);
  ASSERT_TRUE(log.LoseSegmentCopy(target.id, LogCopy::kPrimary));
  ASSERT_TRUE(log.LoseSegmentCopy(target.id, LogCopy::kMirror));
  EXPECT_EQ(log.RepairFromArchive(), 1u);
  EXPECT_EQ(log.StableRecords(1).value().size(), 7u);
}

// A retired segment has no live twin, so its rotten archive copy is an
// archive hole.
TEST(SegmentTest, RottenArchiveCopyOfARetiredSegmentIsAnArchiveHole) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 3; ++i) AppendForced(log, i);  // sealed: 1-3
  AppendForced(log, 4, RecordType::kCheckpoint);
  ASSERT_EQ(log.TruncateArchived(log.stable_lsn()), 1u);
  const SegmentInfo retired = log.ArchivedSegments().front();
  ASSERT_TRUE(log.CorruptSegmentByte(retired.id, LogCopy::kArchive, 5, 0x40));

  const ScrubReport report = log.Scrub();
  EXPECT_EQ(report.segments, 0u) << "no sealed live segment";
  EXPECT_EQ(report.archive_repairs, 0u);
  EXPECT_EQ(report.archive_holes, 1u);
  ASSERT_EQ(report.archive_verdicts.size(), 1u);
  EXPECT_EQ(report.archive_verdicts[0].id, retired.id);
  EXPECT_EQ(report.archive_verdicts[0].state, SegmentVerdict::State::kHole);
}

TEST(SegmentTest, DoubleFaultIsAHoleAndScansStopThere) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 10; ++i) AppendForced(log, i);
  const std::vector<SegmentInfo> live = log.LiveSegments();
  ASSERT_GE(live.size(), 3u);
  const SegmentInfo& target = live[1];  // a middle sealed segment
  ASSERT_TRUE(target.sealed);

  ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kPrimary, 3, 0x10));
  ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kMirror, 3, 0x10));
  const ScrubReport report = log.Scrub();
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.holes, 1u);
  EXPECT_EQ(report.first_unreadable_lsn, target.first_lsn);
  EXPECT_EQ(log.FirstHoleLsn(), target.first_lsn);

  // A redo prefix must be unbroken: the scan yields the records before
  // the hole and reports the damage — never the records past it.
  core::Lsn last_visited = 0;
  const Result<ScanExtent> scan =
      log.VisitStable(1, [&last_visited](const LogRecord& record) {
        last_visited = record.lsn;
        return Status::Ok();
      });
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().torn);
  EXPECT_EQ(last_visited, target.first_lsn - 1);
}

TEST(SegmentTest, ArchiveCoversLiveHolesAndRepairsThem) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 10; ++i) AppendForced(log, i);
  const SegmentInfo target = FirstSealed(log);
  ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kPrimary, 3, 0x10));
  ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kMirror, 3, 0x10));
  ASSERT_NE(log.FirstHoleLsn(), 0u);

  // The archive copy covers the hole, though a read stops there.
  EXPECT_EQ(log.FirstUncoveredLsn(1), 0u);
  const auto ignore = [](const LogRecord&) { return Status::Ok(); };
  EXPECT_TRUE(log.VisitStable(1, ignore).value().torn);

  // Re-seeded from it, the live log reads end to end.
  EXPECT_EQ(log.RepairFromArchive(), 1u);
  EXPECT_EQ(log.FirstHoleLsn(), 0u);
  std::vector<core::Lsn> visited;
  const Result<ScanExtent> scan =
      log.VisitStable(1, [&visited](const LogRecord& record) {
        visited.push_back(record.lsn);
        return Status::Ok();
      });
  ASSERT_TRUE(scan.ok());
  EXPECT_FALSE(scan.value().torn);
  ASSERT_EQ(visited.size(), 10u);
  for (size_t i = 0; i < visited.size(); ++i) EXPECT_EQ(visited[i], i + 1);
}

TEST(SegmentTest, UncoverableGapNamesItsFirstUnreadableLsn) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 10; ++i) AppendForced(log, i);
  const SegmentInfo target = FirstSealed(log);
  ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kPrimary, 3, 0x10));
  ASSERT_TRUE(log.LoseSegmentCopy(target.id, LogCopy::kMirror));
  ASSERT_TRUE(log.LoseSegmentCopy(target.id, LogCopy::kArchive));

  EXPECT_EQ(log.FirstUncoveredLsn(1), target.first_lsn);
  // Nothing can re-seed the segment, so a read still stops at it.
  EXPECT_EQ(log.RepairFromArchive(), 0u);
  const Result<ScanExtent> scan =
      log.VisitStable(1, [](const LogRecord&) { return Status::Ok(); });
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan.value().torn);
  EXPECT_EQ(scan.value().last_valid_lsn, target.first_lsn - 1);

  // Reading from past the gap is still fine — the gap is below `from`.
  EXPECT_EQ(log.FirstUncoveredLsn(target.last_lsn + 1), 0u);
}

TEST(SegmentTest, CheckpointTruncationRetiresToArchive) {
  LogManager log = MakeSegmented();
  // No checkpoint yet: truncation has no anchor and must refuse.
  for (uint8_t i = 1; i <= 6; ++i) AppendForced(log, i);
  EXPECT_EQ(log.TruncateArchived(log.stable_lsn()), 0u);

  const core::Lsn checkpoint =
      AppendForced(log, 0, RecordType::kCheckpoint);
  for (uint8_t i = 7; i <= 10; ++i) AppendForced(log, i);
  log.SealActiveSegment();  // no-op if lsn 10 already sealed the segment

  const size_t dropped = log.TruncateArchived(checkpoint);
  EXPECT_GE(dropped, 1u);
  EXPECT_EQ(log.stats().segments_truncated, dropped);
  EXPECT_GT(log.live_begin_lsn(), 1u);
  EXPECT_LT(log.live_begin_lsn(), checkpoint + 1)
      << "the latest stable checkpoint must stay in the live log";

  // The truncated prefix is still served — transparently — from the
  // archive, so a scan from LSN 1 sees the full history.
  Result<std::vector<LogRecord>> all = log.StableRecords(1);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all.value().size(), 11u);  // 10 writes + 1 checkpoint
  for (size_t i = 0; i < all.value().size(); ++i) {
    EXPECT_EQ(all.value()[i].lsn, i + 1);
  }

  // The checkpoint anchor survives truncation.
  Result<std::optional<LogRecord>> latest = log.LatestStableCheckpoint();
  ASSERT_TRUE(latest.ok());
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_EQ(latest.value()->lsn, checkpoint);
}

TEST(SegmentTest, SealActiveSegmentNeedsVerifiedRecords) {
  LogManager log = MakeSegmented(1 << 20);  // too large to auto-seal
  EXPECT_FALSE(log.SealActiveSegment()) << "empty active segment";
  AppendForced(log, 1);
  EXPECT_TRUE(log.SealActiveSegment());
  EXPECT_EQ(log.LiveSegments().size(), 2u);
  EXPECT_FALSE(log.SealActiveSegment()) << "fresh active segment is empty";
}

// Satellite regression: StableRecords used to re-deserialize the whole
// stable byte image on every call. The parsed-record cache must serve
// repeat scans without any decode, and fault hooks must invalidate it
// (a cache must never mask damage).
TEST(SegmentTest, RepeatScansAreServedFromTheParsedCache) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 10; ++i) AppendForced(log, i);

  ASSERT_TRUE(log.StableRecords(1).ok());
  const uint64_t decodes_after_first = log.stats().scan_decodes;
  const uint64_t hits_after_first = log.stats().scan_cache_hits;
  EXPECT_EQ(decodes_after_first, 0u)
      << "records parsed at force time: a scan needs no decode";
  EXPECT_GT(hits_after_first, 0u);

  ASSERT_TRUE(log.StableRecords(1).ok());
  EXPECT_EQ(log.stats().scan_decodes, decodes_after_first)
      << "repeat scan must not re-deserialize";
  EXPECT_GT(log.stats().scan_cache_hits, hits_after_first);
}

TEST(SegmentTest, FaultHooksInvalidateTheParsedCache) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 10; ++i) AppendForced(log, i);
  const SegmentInfo target = FirstSealed(log);

  // Damage + undo (the injector's snapshot/restore pattern): the bytes
  // are byte-identical again, but the cache was invalidated, so the next
  // scan re-verifies by decoding instead of trusting stale parses.
  const SegmentCopy primary =
      log.PeekSegmentCopy(target.id, LogCopy::kPrimary).value();
  ASSERT_TRUE(log.CorruptSegmentByte(target.id, LogCopy::kPrimary, 5, 0x20));
  ASSERT_TRUE(log.RestoreSegmentCopy(target.id, LogCopy::kPrimary, primary));

  const uint64_t decodes_before = log.stats().scan_decodes;
  ASSERT_EQ(log.StableRecords(1).value().size(), 10u);
  EXPECT_GT(log.stats().scan_decodes, decodes_before)
      << "the invalidated segment must be re-decoded";

  const uint64_t decodes_after = log.stats().scan_decodes;
  ASSERT_TRUE(log.StableRecords(1).ok());
  EXPECT_EQ(log.stats().scan_decodes, decodes_after)
      << "and the refilled cache serves the next scan";
}

TEST(SegmentTest, TornTailSalvageIsConfinedToTheActiveSegment) {
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 7; ++i) AppendForced(log, i);
  const core::Lsn stable = log.stable_lsn();

  // A crash tears an in-flight force mid-record; the sealed history is
  // untouched and salvage only truncates the active segment.
  log.Append(RecordType::kSlotWrite, std::vector<uint8_t>(14, 0xaa));
  const size_t pending = log.PendingForceBytes();
  ASSERT_GT(pending, 4u);
  ASSERT_EQ(log.TearInFlightForce(pending - 4), pending - 4);
  log.Crash();
  const SalvageResult salvage = log.SalvageTornTail();
  EXPECT_TRUE(salvage.torn);
  EXPECT_EQ(log.stable_lsn(), stable);
  EXPECT_TRUE(log.Scrub().clean()) << "sealed segments unaffected";
  EXPECT_EQ(log.StableRecords(1).value().size(), stable);
}

TEST(SegmentTest, SalvageAfterTruncationKeepsTheArchivedLsnsStable) {
  // Checkpoint truncation retired every sealed segment, so the live log
  // is the active segment alone. A salvage that re-verifies it from its
  // first byte must still count the retired LSNs before it as stable,
  // or the next append would reuse an LSN the archive holds.
  LogManager log = MakeSegmented();
  for (uint8_t i = 1; i <= 3; ++i) AppendForced(log, i);  // sealed: 1-3
  AppendForced(log, 4, RecordType::kCheckpoint);
  ASSERT_EQ(log.TruncateArchived(log.stable_lsn()), 1u);
  ASSERT_EQ(log.LiveSegments().size(), 1u);
  log.CorruptStableTail(1);  // cuts into the checkpoint record
  EXPECT_TRUE(log.SalvageTornTail().torn);
  EXPECT_EQ(log.stable_lsn(), 3u);
  EXPECT_EQ(log.Append(RecordType::kSlotWrite, {5}), 4u);
  EXPECT_EQ(log.StableRecords(1).value().size(), 3u);
}

}  // namespace
}  // namespace redo::wal
