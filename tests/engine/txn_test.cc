// Transactions (DESIGN.md §12): the Session Begin/Commit/Abort API, the
// undo-information codecs, the live-transaction registry, and the
// checkpoint payload codec. Crash-time atomicity (losers undone
// during recovery) lives in undo_recovery_test and the txn simulator;
// these tests pin the runtime contracts.

#include <optional>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/minidb.h"
#include "engine/ops.h"
#include "engine/txn.h"
#include "methods/method.h"

namespace redo::engine {
namespace {

using methods::MethodKind;
using storage::Page;
using storage::PageId;

constexpr size_t kPages = 16;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind) {
  MiniDbOptions options;
  options.num_pages = kPages;
  return std::make_unique<MiniDb>(options,
                                  methods::MakeMethod(kind, {kPages}));
}

// ---- Codecs ----

TEST(TxnCodecTest, TxnUpdateRoundTripsSlotAndPageActions) {
  TxnUpdate update;
  update.txn_id = 42;
  update.prev_lsn = 117;
  UndoAction slot;
  slot.kind = UndoAction::Kind::kSlotRestore;
  slot.page = 3;
  slot.slot = 7;
  slot.old_value = -12345;
  update.actions.push_back(slot);
  UndoAction image;
  image.kind = UndoAction::Kind::kPageRestore;
  image.page = 9;
  image.image.WriteSlot(0, 777);
  image.image.WriteSlot(5, -1);
  update.actions.push_back(image);

  Result<TxnUpdate> decoded = DecodeTxnUpdate(EncodeTxnUpdate(update));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().txn_id, 42u);
  EXPECT_EQ(decoded.value().prev_lsn, 117u);
  ASSERT_EQ(decoded.value().actions.size(), 2u);
  EXPECT_EQ(decoded.value().actions[0].kind, UndoAction::Kind::kSlotRestore);
  EXPECT_EQ(decoded.value().actions[0].page, 3u);
  EXPECT_EQ(decoded.value().actions[0].slot, 7u);
  EXPECT_EQ(decoded.value().actions[0].old_value, -12345);
  EXPECT_EQ(decoded.value().actions[1].kind, UndoAction::Kind::kPageRestore);
  EXPECT_EQ(decoded.value().actions[1].page, 9u);
  EXPECT_EQ(decoded.value().actions[1].image.ReadSlot(0), 777);
  EXPECT_EQ(decoded.value().actions[1].image.ReadSlot(5), -1);
}

TEST(TxnCodecTest, ClrRoundTrips) {
  Clr clr;
  clr.txn_id = 8;
  clr.undo_next = 55;
  UndoAction slot;
  slot.page = 1;
  slot.slot = 2;
  slot.old_value = 3;
  clr.actions.push_back(slot);

  Result<Clr> decoded = DecodeClr(EncodeClr(clr));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().txn_id, 8u);
  EXPECT_EQ(decoded.value().undo_next, 55u);
  ASSERT_EQ(decoded.value().actions.size(), 1u);
  EXPECT_EQ(decoded.value().actions[0].old_value, 3);
}

TEST(TxnCodecTest, TxnMetaRoundTripsAndRejectsGarbage) {
  Result<uint64_t> decoded = DecodeTxnMeta(EncodeTxnMeta(987654321));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), 987654321u);

  const std::vector<uint8_t> short_payload = {1, 2, 3};
  EXPECT_FALSE(DecodeTxnMeta(short_payload).ok());
  EXPECT_FALSE(DecodeTxnUpdate(short_payload).ok());
  EXPECT_FALSE(DecodeClr(short_payload).ok());
}

TEST(TxnCodecTest, ActionCountPastThePayloadIsCorruption) {
  // One slot restore follows a count it cannot satisfy; the decoders
  // refuse the count before reserving anything for it.
  for (const uint32_t count : {0xffffffffu, 2u}) {
    wal::PayloadWriter w;
    w.U64(42).U64(7).U32(count);
    w.U8(static_cast<uint8_t>(UndoAction::Kind::kSlotRestore));
    w.U32(1).U32(2).I64(3);
    const std::vector<uint8_t> payload = w.Take();
    EXPECT_EQ(DecodeTxnUpdate(payload).status().code(),
              StatusCode::kCorruption)
        << "count " << count;
    EXPECT_EQ(DecodeClr(payload).status().code(), StatusCode::kCorruption)
        << "count " << count;
  }
}

// ---- Checkpoint payload codec ----

// One checkpoint per body; `table` adds a three-entry transaction table.
std::vector<CheckpointPayload> EveryBody(bool table) {
  std::vector<CheckpointPayload> checkpoints = {
      {.redo_start = 42},
      {.redo_start = 42,
       .body = CheckpointBody::kDirtyPages,
       .dpt = {{3, 40}, {5, 41}}},
      {.redo_start = 42,
       .body = CheckpointBody::kStagedPages,
       .staged_pages = {5, 3, 7}},
  };
  if (table) {
    for (CheckpointPayload& checkpoint : checkpoints) {
      checkpoint.has_txn_table = true;
      checkpoint.txns = {{3, 90}, {7, 0}, {11, 200}};
      checkpoint.max_txn_id = 11;
    }
  }
  return checkpoints;
}

void ExpectSameCheckpoint(const CheckpointPayload& decoded,
                          const CheckpointPayload& expected) {
  EXPECT_EQ(decoded.redo_start, expected.redo_start);
  EXPECT_EQ(decoded.body, expected.body);
  EXPECT_EQ(decoded.dpt, expected.dpt);
  EXPECT_EQ(decoded.staged_pages, expected.staged_pages);
  EXPECT_EQ(decoded.has_txn_table, expected.has_txn_table);
  ASSERT_EQ(decoded.txns.size(), expected.txns.size());
  for (size_t i = 0; i < expected.txns.size(); ++i) {
    EXPECT_EQ(decoded.txns[i].txn_id, expected.txns[i].txn_id);
    EXPECT_EQ(decoded.txns[i].last_lsn, expected.txns[i].last_lsn);
  }
  EXPECT_EQ(decoded.max_txn_id, expected.max_txn_id);
}

TEST(TxnCheckpointTailTest, TailRoundTripsBehindAnyBody) {
  // The table is a self-identifying suffix and the body is told by its
  // length: every body comes back out with the table behind it.
  for (const bool table : {true, false}) {
    for (const CheckpointPayload& checkpoint : EveryBody(table)) {
      SCOPED_TRACE(testing::Message() << "body " << int(checkpoint.body)
                                      << ", table " << table);
      const std::vector<uint8_t> payload = EncodeCheckpoint(checkpoint);
      const Result<CheckpointPayload> decoded = DecodeCheckpoint(payload);
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      ExpectSameCheckpoint(decoded.value(), checkpoint);
      EXPECT_EQ(EncodeCheckpoint(decoded.value()), payload);
    }
  }
}

TEST(TxnCheckpointTailTest, EmptyTableStillMarksPresence) {
  for (CheckpointPayload checkpoint : EveryBody(/*table=*/false)) {
    checkpoint.has_txn_table = true;
    const Result<CheckpointPayload> decoded =
        DecodeCheckpoint(EncodeCheckpoint(checkpoint));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(decoded.value().has_txn_table);
    EXPECT_TRUE(decoded.value().txns.empty());
    EXPECT_EQ(decoded.value().max_txn_id, 0u);
    ExpectSameCheckpoint(decoded.value(), checkpoint);
  }
}

TEST(TxnCheckpointTailTest, PreTxnPayloadsReadAsAbsent) {
  // A checkpoint written without a transaction registry carries no
  // table: it must decode as "no table", not as garbage entries.
  wal::PayloadWriter plain;
  plain.U64(42);
  wal::PayloadWriter with_dpt;
  with_dpt.U64(42).U32(1).U32(3).U64(40);
  for (const std::vector<uint8_t>& payload : {plain.Take(), with_dpt.Take()}) {
    const Result<CheckpointPayload> decoded = DecodeCheckpoint(payload);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value().redo_start, 42u);
    EXPECT_FALSE(decoded.value().has_txn_table);
    EXPECT_TRUE(decoded.value().txns.empty());
  }

  // A count with no entries behind it, or no redo start at all, is no
  // checkpoint any writer produces.
  wal::PayloadWriter count_only;
  count_only.U64(42).U32(7);
  EXPECT_EQ(DecodeCheckpoint(count_only.Take()).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeCheckpoint({}).status().code(), StatusCode::kCorruption);
}

// A zero count fits both bodies; either way the body is empty.
TEST(TxnCheckpointTailTest, ZeroCountReadsAsAnEmptyBody) {
  const CheckpointPayload staged{.redo_start = 9,
                                 .body = CheckpointBody::kStagedPages};
  const Result<CheckpointPayload> decoded =
      DecodeCheckpoint(EncodeCheckpoint(staged));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.value().dpt.empty());
  EXPECT_TRUE(decoded.value().staged_pages.empty());
  EXPECT_EQ(EncodeCheckpoint(decoded.value()), EncodeCheckpoint(staged));
}

// ---- Registry ----

TEST(TxnRegistryTest, LifecycleAndSnapshot) {
  TxnRegistry registry;
  const uint64_t a = registry.AllocateId();
  const uint64_t b = registry.AllocateId();
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);

  registry.NoteBegin(a);
  registry.NoteBegin(b);
  registry.NoteRecord(a, 50);
  EXPECT_EQ(registry.live_count(), 2u);

  std::vector<TxnTableEntry> snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].txn_id, a);
  EXPECT_EQ(snapshot[0].last_lsn, 50u);
  EXPECT_EQ(snapshot[1].last_lsn, 0u);

  registry.NoteEnd(a);
  EXPECT_EQ(registry.live_count(), 1u);
  registry.Clear();
  EXPECT_EQ(registry.live_count(), 0u);
}

TEST(TxnRegistryTest, SeedNextIdNeverMovesBackwards) {
  TxnRegistry registry;
  registry.SeedNextId(10);
  EXPECT_EQ(registry.AllocateId(), 11u);
  registry.SeedNextId(5);  // lower water mark must not rewind the allocator
  EXPECT_EQ(registry.AllocateId(), 12u);
}

// ---- Session API ----

TEST(TxnSessionTest, BeginCommitMakesWritesDurable) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session session = db->NewSession();
    EXPECT_FALSE(session.in_txn());
    Result<uint64_t> txn = session.Begin();
    ASSERT_TRUE(txn.ok()) << txn.status().ToString();
    EXPECT_TRUE(session.in_txn());
    EXPECT_EQ(session.txn_id(), txn.value());
    ASSERT_TRUE(session.WriteSlot(2, 0, 100).ok());
    ASSERT_TRUE(session.WriteSlot(2, 1, 200).ok());
    Result<core::Lsn> committed = session.Commit();
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    EXPECT_FALSE(session.in_txn());

    Result<int64_t> read = session.ReadSlot(2, 0);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), 100);
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_EQ(db->txn_registry().live_count(), 0u);
}

// The last stable record of transaction `txn` (any record type that
// carries a transaction id), or nullopt if the log holds none.
std::optional<wal::LogRecord> LastTxnRecord(const MiniDb& db, uint64_t txn) {
  const Result<std::vector<wal::LogRecord>> records =
      db.log().StableRecords(1);
  REDO_CHECK(records.ok()) << records.status().ToString();
  std::optional<wal::LogRecord> last;
  for (const wal::LogRecord& record : records.value()) {
    Result<uint64_t> id = Status::NotFound("no transaction id");
    switch (record.type) {
      case wal::RecordType::kTxnBegin:
      case wal::RecordType::kTxnCommit:
      case wal::RecordType::kTxnEnd:
        id = DecodeTxnMeta(record.payload);
        break;
      case wal::RecordType::kTxnUpdate:
        id = DecodeTxnUpdate(record.payload).value().txn_id;
        break;
      case wal::RecordType::kClr:
        id = DecodeClr(record.payload).value().txn_id;
        break;
      default:
        break;
    }
    if (id.ok() && id.value() == txn) last = record;
  }
  return last;
}

TEST(TxnSessionTest, CommittedTransactionEndsWithItsCommitRecord) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  uint64_t txn = 0;
  {
    MiniDb::Session session = db->NewSession();
    Result<uint64_t> begun = session.Begin();
    ASSERT_TRUE(begun.ok());
    txn = begun.value();
    ASSERT_TRUE(session.WriteSlot(2, 0, 100).ok());
    ASSERT_TRUE(session.Commit().ok());
  }
  // Drain: everything appended, the ack path included, becomes stable.
  ASSERT_TRUE(db->EndConcurrent().ok());
  const std::optional<wal::LogRecord> last = LastTxnRecord(*db, txn);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->type, wal::RecordType::kTxnCommit)
      << "the ack must append nothing after the commit record";
}

TEST(TxnSessionTest, AbortStillEndsWithTxnEnd) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  uint64_t txn = 0;
  {
    MiniDb::Session session = db->NewSession();
    Result<uint64_t> begun = session.Begin();
    ASSERT_TRUE(begun.ok());
    txn = begun.value();
    ASSERT_TRUE(session.WriteSlot(2, 0, 100).ok());
    ASSERT_TRUE(session.Abort().ok());
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
  const std::optional<wal::LogRecord> last = LastTxnRecord(*db, txn);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->type, wal::RecordType::kTxnEnd)
      << "analysis needs kTxnEnd to drop a finished rollback";
}

TEST(TxnSessionTest, NestedBeginRefused) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.Begin().ok());
    Result<uint64_t> nested = session.Begin();
    EXPECT_EQ(nested.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(session.in_txn());  // the open transaction is untouched
    ASSERT_TRUE(session.Commit().ok());
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(TxnSessionTest, AbortRestoresSlotWritesAndBlindFormats) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session session = db->NewSession();
    // Committed baseline the abort must restore to.
    ASSERT_TRUE(session.WriteSlot(4, 0, 111).ok());
    ASSERT_TRUE(session.Commit().ok());

    ASSERT_TRUE(session.Begin().ok());
    ASSERT_TRUE(session.WriteSlot(4, 0, 999).ok());
    ASSERT_TRUE(session.Apply(MakeBlindFormat(5, 31337)).ok());
    ASSERT_TRUE(session.WriteSlot(5, 2, -5).ok());
    Status aborted = session.Abort();
    ASSERT_TRUE(aborted.ok()) << aborted.ToString();
    EXPECT_FALSE(session.in_txn());

    Result<int64_t> kept = session.ReadSlot(4, 0);
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(kept.value(), 111);  // pre-transaction value restored
    Result<int64_t> formatted = session.ReadSlot(5, 0);
    ASSERT_TRUE(formatted.ok());
    EXPECT_EQ(formatted.value(), 0);  // blind format rolled back wholesale
    Result<int64_t> after = session.ReadSlot(5, 2);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value(), 0);
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_EQ(db->txn_registry().live_count(), 0u);
}

TEST(TxnSessionTest, AbortRestoresBothHalvesOfASplit) {
  auto db = MakeDb(MethodKind::kGeneralized);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.WriteSlot(6, 0, 10).ok());
    ASSERT_TRUE(session.WriteSlot(6, 1, 20).ok());
    ASSERT_TRUE(session.Commit().ok());

    ASSERT_TRUE(session.Begin().ok());
    ASSERT_TRUE(session.Split(MakeSlotTransfer(6, 1, 7, 0)).ok());
    ASSERT_TRUE(session.Abort().ok());

    Result<int64_t> src = session.ReadSlot(6, 1);
    ASSERT_TRUE(src.ok());
    EXPECT_EQ(src.value(), 20);  // the rewrite's zeroing is undone
    Result<int64_t> dst = session.ReadSlot(7, 0);
    ASSERT_TRUE(dst.ok());
    EXPECT_EQ(dst.value(), 0);  // the transfer's landing is undone
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(TxnSessionTest, AbortWithoutTxnIsANoOp) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session session = db->NewSession();
    EXPECT_TRUE(session.Abort().ok());
    ASSERT_TRUE(session.WriteSlot(1, 0, 5).ok());
    EXPECT_TRUE(session.Abort().ok());  // still no transaction open
    Result<int64_t> read = session.ReadSlot(1, 0);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), 5);  // non-transactional write untouched
    ASSERT_TRUE(session.Commit().ok());
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(TxnSessionTest, DestructorAbortsOpenTransaction) {
  // The satellite fix: letting a Session die with an open transaction
  // must roll the transaction back, exactly like an explicit Abort().
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session setup = db->NewSession();
    ASSERT_TRUE(setup.WriteSlot(3, 0, 77).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  {
    MiniDb::Session doomed = db->NewSession();
    ASSERT_TRUE(doomed.Begin().ok());
    ASSERT_TRUE(doomed.WriteSlot(3, 0, 1000).ok());
    ASSERT_TRUE(doomed.WriteSlot(3, 1, 2000).ok());
    // No Commit, no Abort: the destructor must clean up.
  }
  EXPECT_EQ(db->txn_registry().live_count(), 0u);
  {
    MiniDb::Session reader = db->NewSession();
    Result<int64_t> s0 = reader.ReadSlot(3, 0);
    ASSERT_TRUE(s0.ok());
    EXPECT_EQ(s0.value(), 77);
    Result<int64_t> s1 = reader.ReadSlot(3, 1);
    ASSERT_TRUE(s1.ok());
    EXPECT_EQ(s1.value(), 0);
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(TxnSessionTest, MoveTransfersTheOpenTransaction) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session a = db->NewSession();
    ASSERT_TRUE(a.Begin().ok());
    ASSERT_TRUE(a.WriteSlot(8, 0, 42).ok());
    const uint64_t id = a.txn_id();

    MiniDb::Session b = std::move(a);
    EXPECT_TRUE(b.in_txn());
    EXPECT_EQ(b.txn_id(), id);
    ASSERT_TRUE(b.Commit().ok());

    Result<int64_t> read = b.ReadSlot(8, 0);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), 42);
  }
  EXPECT_EQ(db->txn_registry().live_count(), 0u);
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(TxnSessionTest, IdsAreMonotoneAcrossSessions) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  uint64_t last = 0;
  for (int i = 0; i < 3; ++i) {
    MiniDb::Session session = db->NewSession();
    Result<uint64_t> txn = session.Begin();
    ASSERT_TRUE(txn.ok());
    EXPECT_GT(txn.value(), last);
    last = txn.value();
    ASSERT_TRUE(session.WriteSlot(1, 0, i).ok());
    ASSERT_TRUE(session.Commit().ok());
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(TxnSessionTest, RegistryTracksLiveTransactionsUnderTheGate) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session a = db->NewSession();
    MiniDb::Session b = db->NewSession();
    ASSERT_TRUE(a.Begin().ok());
    ASSERT_TRUE(b.Begin().ok());
    EXPECT_EQ(db->txn_registry().live_count(), 2u);
    ASSERT_TRUE(a.WriteSlot(1, 0, 1).ok());
    std::vector<TxnTableEntry> snapshot = db->txn_registry().Snapshot();
    ASSERT_EQ(snapshot.size(), 2u);
    // a's chain has a kTxnUpdate; b began but logged nothing.
    EXPECT_NE(snapshot[0].last_lsn, 0u);
    EXPECT_EQ(snapshot[1].last_lsn, 0u);
    ASSERT_TRUE(a.Commit().ok());
    EXPECT_EQ(db->txn_registry().live_count(), 1u);
    ASSERT_TRUE(b.Abort().ok());
    EXPECT_EQ(db->txn_registry().live_count(), 0u);
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(TxnSessionTest, IdAllocatorReseedsPastRecoveredIds) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  uint64_t committed_id = 0;
  {
    MiniDb::Session session = db->NewSession();
    Result<uint64_t> txn = session.Begin();
    ASSERT_TRUE(txn.ok());
    committed_id = txn.value();
    ASSERT_TRUE(session.WriteSlot(1, 0, 9).ok());
    ASSERT_TRUE(session.Commit().ok());
  }
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session session = db->NewSession();
    Result<uint64_t> txn = session.Begin();
    ASSERT_TRUE(txn.ok());
    EXPECT_GT(txn.value(), committed_id);
    ASSERT_TRUE(session.Commit().ok());
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

}  // namespace
}  // namespace redo::engine
