// Recovery-time atomicity, per method: crash-anytime losers are rolled
// back by the undo pass (CLRs with undo_next back-chains), winners
// survive, checkpoints re-anchor the transaction table, and the pass is
// restartable — a crash mid-undo (injected after K CLRs) converges over
// arbitrarily many re-crashes. The same contracts are checked for the
// quiescing Recover(), its multi-worker redo drain, and instant restart
// (a loser's page must be undone before serving exposes it). Undo reads
// only the chain records it walks, into the archive if need be.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/minidb.h"
#include "engine/ops.h"
#include "methods/method.h"
#include "methods/txn_recovery.h"

namespace redo::methods {
namespace {

using engine::MiniDb;
using engine::MiniDbOptions;
using storage::PageId;

constexpr size_t kPages = 16;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind,
                               const engine::EngineOptions& engine = {}) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.engine = engine;
  return std::make_unique<MiniDb>(options, MakeMethod(kind, {kPages}));
}

// Seeds a committed baseline, leaves `loser_writes` uncommitted slot
// writes on pages 2 and 3 from an open transaction, and forces them
// stable via a committing winner on page 4. The caller crashes next.
// Returns the loser's transaction id.
uint64_t StageLoser(MiniDb* db, bool checkpoint_mid_txn) {
  EXPECT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session setup = db->NewSession();
    EXPECT_TRUE(setup.WriteSlot(2, 0, 111).ok());
    EXPECT_TRUE(setup.WriteSlot(3, 0, 333).ok());
    EXPECT_TRUE(setup.Commit().ok());
  }
  MiniDb::Session loser = db->NewSession();
  Result<uint64_t> txn = loser.Begin();
  EXPECT_TRUE(txn.ok()) << txn.status().ToString();
  EXPECT_TRUE(loser.WriteSlot(2, 0, 900).ok());
  if (checkpoint_mid_txn) {
    // The checkpoint lands between the loser's first write and the
    // crash: its transaction-table tail (and, for steal-style methods,
    // the flushed uncommitted page) is what the undo pass must handle.
    EXPECT_TRUE(db->Checkpoint().ok());
  }
  EXPECT_TRUE(loser.WriteSlot(2, 1, 901).ok());
  EXPECT_TRUE(loser.WriteSlot(3, 0, 903).ok());
  {
    // A winner AFTER the loser's writes: its commit forces the log, so
    // the loser's kTxnUpdate/op records are stable at the crash.
    MiniDb::Session winner = db->NewSession();
    EXPECT_TRUE(winner.Begin().ok());
    EXPECT_TRUE(winner.WriteSlot(4, 0, 444).ok());
    EXPECT_TRUE(winner.Commit().ok());
  }
  db->Crash();  // loser's handle dies after the crash: no runtime abort
  return txn.ok() ? txn.value() : 0;
}

void ExpectLoserUndoneWinnersKept(MiniDb* db) {
  Result<int64_t> s20 = db->NewSession().ReadSlot(2, 0);
  ASSERT_TRUE(s20.ok()) << s20.status().ToString();
  EXPECT_EQ(s20.value(), 111);  // restored to the committed baseline
  Result<int64_t> s21 = db->NewSession().ReadSlot(2, 1);
  ASSERT_TRUE(s21.ok());
  EXPECT_EQ(s21.value(), 0);  // never-committed slot back to zero
  Result<int64_t> s30 = db->NewSession().ReadSlot(3, 0);
  ASSERT_TRUE(s30.ok());
  EXPECT_EQ(s30.value(), 333);
  Result<int64_t> s40 = db->NewSession().ReadSlot(4, 0);
  ASSERT_TRUE(s40.ok());
  EXPECT_EQ(s40.value(), 444);  // the winner survives
}

class UndoRecoveryTest : public ::testing::TestWithParam<MethodKind> {};

TEST_P(UndoRecoveryTest, CrashMidTransactionRollsTheLoserBack) {
  auto db = MakeDb(GetParam());
  StageLoser(db.get(), /*checkpoint_mid_txn=*/false);
  Status recovered = db->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  ExpectLoserUndoneWinnersKept(db.get());
  EXPECT_GE(db->txn_undo_metrics().losers.load(), 1u);
  EXPECT_GE(db->txn_undo_metrics().clrs_emitted.load(), 3u);
  EXPECT_EQ(db->txn_registry().live_count(), 0u);
}

TEST_P(UndoRecoveryTest, CheckpointBetweenWriteAndCrashStillUndoes) {
  // The transaction table is re-anchored from the checkpoint record's
  // tail: the loser's pre-checkpoint write has no post-checkpoint
  // kTxnUpdate, so only the tail knows the chain exists.
  engine::EngineOptions engine;
  engine.fuzzy_checkpoints = true;  // methods that can, checkpoint fuzzily
  auto db = MakeDb(GetParam(), engine);
  StageLoser(db.get(), /*checkpoint_mid_txn=*/true);
  Status recovered = db->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  ExpectLoserUndoneWinnersKept(db.get());
  EXPECT_GE(db->txn_undo_metrics().losers.load(), 1u);
}

TEST_P(UndoRecoveryTest, QuiescingCheckpointAlsoCarriesTheTable) {
  // Same scenario down the classic (quiescing, forcing) checkpoint
  // path, which flushes the loser's uncommitted page to stable disk —
  // the steal case: redo reinstalls it, undo must take it back out.
  engine::EngineOptions engine;
  engine.fuzzy_checkpoints = false;
  auto db = MakeDb(GetParam(), engine);
  StageLoser(db.get(), /*checkpoint_mid_txn=*/true);
  Status recovered = db->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  ExpectLoserUndoneWinnersKept(db.get());
}

TEST_P(UndoRecoveryTest, StolenUncommittedWriteNeverSurvivesRecovery) {
  // Regression (satellite): an uncommitted write flushed to stable disk
  // before the crash — the background cache manager "evicting" a dirty
  // page — must be rolled back by recovery, not resurrected by redo.
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session setup = db->NewSession();
    ASSERT_TRUE(setup.WriteSlot(5, 0, 50).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  {
    MiniDb::Session loser = db->NewSession();
    ASSERT_TRUE(loser.Begin().ok());
    ASSERT_TRUE(loser.WriteSlot(5, 0, 5000).ok());
    // The steal: flush forces the WAL (undo info included) and writes
    // the dirty page. No-op for methods that forbid background flushes
    // — then the log force below is what makes the loser stable.
    ASSERT_TRUE(db->FlushEverything().ok());
    MiniDb::Session winner = db->NewSession();
    ASSERT_TRUE(winner.Begin().ok());
    ASSERT_TRUE(winner.WriteSlot(6, 0, 60).ok());
    ASSERT_TRUE(winner.Commit().ok());
    db->Crash();
  }
  Status recovered = db->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  Result<int64_t> stolen = db->NewSession().ReadSlot(5, 0);
  ASSERT_TRUE(stolen.ok());
  EXPECT_EQ(stolen.value(), 50);  // the uncommitted 5000 must be gone
  Result<int64_t> kept = db->NewSession().ReadSlot(6, 0);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value(), 60);
}

TEST_P(UndoRecoveryTest, RecrashDuringUndoConvergesViaUndoNext) {
  // The injection hook crashes every undo pass after one CLR. Each
  // re-recovery must resume at the first not-yet-compensated record
  // (skipping stable CLRs via undo_next) and make progress; the loop
  // must converge to the same committed-only state.
  engine::EngineOptions engine;
  engine.undo_crash_after_clrs = 1;
  auto db = MakeDb(GetParam(), engine);
  StageLoser(db.get(), /*checkpoint_mid_txn=*/false);
  Status recovered = db->Recover();
  int recrashes = 0;
  while (!recovered.ok() && recovered.code() == StatusCode::kUnavailable) {
    ASSERT_LT(++recrashes, 10) << "undo re-crash loop did not converge";
    db->Crash();
    recovered = db->Recover();
  }
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  // Three loser updates, one CLR per pass: at least two injected
  // crashes before the chain is exhausted.
  EXPECT_GE(recrashes, 2);
  EXPECT_GE(db->txn_undo_metrics().clrs_skipped.load(), 1u);
  EXPECT_EQ(db->txn_undo_metrics().injected_crashes.load(),
            static_cast<uint64_t>(recrashes));
  ExpectLoserUndoneWinnersKept(db.get());
}

TEST_P(UndoRecoveryTest, ClrReplayIsIdempotentAcrossRecoveries) {
  // After a recovery that undid a loser, the CLRs are ordinary redo
  // records on the log. Crashing and recovering again replays them —
  // and must land on the identical state, with nothing left to undo.
  auto db = MakeDb(GetParam());
  StageLoser(db.get(), /*checkpoint_mid_txn=*/false);
  ASSERT_TRUE(db->Recover().ok());
  const uint64_t undo_passes = db->txn_undo_metrics().passes.load();
  db->Crash();
  Status again = db->Recover();
  ASSERT_TRUE(again.ok()) << again.ToString();
  ExpectLoserUndoneWinnersKept(db.get());
  // The first pass ended the loser with kTxnEnd (forced), so the second
  // recovery sees no losers and runs no undo pass.
  EXPECT_EQ(db->txn_undo_metrics().passes.load(), undo_passes);
}

TEST_P(UndoRecoveryTest, ParallelRedoSchedulesClrsAndUndoes) {
  // Route the redo between crash and verify through the multi-worker
  // drain: kClrRestore tasks must order against the ordinary writes of
  // the same pages, and the undo pass runs after the drain.
  engine::EngineOptions engine;
  engine.parallel_workers = 4;
  auto db = MakeDb(GetParam(), engine);
  StageLoser(db.get(), /*checkpoint_mid_txn=*/false);
  ASSERT_TRUE(db->Recover().ok());
  ExpectLoserUndoneWinnersKept(db.get());
  // Recover once more so the emitted CLRs themselves flow through the
  // drain as redo records.
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  ExpectLoserUndoneWinnersKept(db.get());
}

TEST_P(UndoRecoveryTest, InstantRestartNeverServesALosersDirtyPage) {
  // The instant-restart rule: losers are undone BEFORE serving opens,
  // so the very first session read of a loser's page — which drains
  // that page's redo chain on demand — sees the rolled-back value.
  engine::EngineOptions engine;
  engine.instant_restart = true;
  engine.instant_drain_workers = 2;
  auto db = MakeDb(GetParam(), engine);
  StageLoser(db.get(), /*checkpoint_mid_txn=*/false);
  Status serving = db->RecoverInstant();
  ASSERT_TRUE(serving.ok()) << serving.ToString();
  {
    MiniDb::Session reader = db->NewSession();
    Result<int64_t> s20 = reader.ReadSlot(2, 0);
    ASSERT_TRUE(s20.ok());
    EXPECT_EQ(s20.value(), 111);
    Result<int64_t> s40 = reader.ReadSlot(4, 0);
    ASSERT_TRUE(s40.ok());
    EXPECT_EQ(s40.value(), 444);
  }
  Status drained = db->WaitUntilRecovered();
  ASSERT_TRUE(drained.ok()) << drained.ToString();
  ASSERT_TRUE(db->EndConcurrent().ok());
  ExpectLoserUndoneWinnersKept(db.get());
}

// A serial engine whose log seals a segment every 128 bytes.
std::unique_ptr<MiniDb> MakeSegmentedDb(MethodKind kind) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.wal.segment_bytes = 128;
  return std::make_unique<MiniDb>(options, MakeMethod(kind, {kPages}));
}

// `count` committed one-write transactions on page 5: log filler.
void CommitWinners(MiniDb* db, int count) {
  MiniDb::Session winner = db->NewSession();
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(winner.Begin().ok());
    ASSERT_TRUE(winner.WriteSlot(5, static_cast<uint32_t>(i % 4), i).ok());
    ASSERT_TRUE(winner.Commit().ok());
  }
}

TEST_P(UndoRecoveryTest, UndoReadsTrackTheChainNotTheLog) {
  // The loser's chain is spread over a log of many sealed segments.
  // Undo looks each chain record up by LSN, so the pass reads one
  // segment per record it walks, however long the log is.
  constexpr size_t kChain = 6;
  auto db = MakeSegmentedDb(GetParam());
  {
    MiniDb::Session loser = db->NewSession();
    ASSERT_TRUE(loser.Begin().ok());
    for (size_t i = 0; i < kChain; ++i) {
      ASSERT_TRUE(
          loser.WriteSlot(2 + i % 2, static_cast<uint32_t>(i), 900).ok());
      CommitWinners(db.get(), 10);  // forces the loser's records too
    }
    db->Crash();  // the loser's handle dies after the crash
  }
  ASSERT_GE(db->log().LiveSegments().size(), 50u);

  // The passes by hand, so the undo pass's reads count alone.
  db->log().SalvageTornTail();
  EngineContext ctx = db->ctx();
  Result<TxnAnalysis> analysis =
      RestartInLogOrder(db->method(), ctx, /*stats=*/nullptr);
  ASSERT_TRUE(analysis.ok()) << analysis.status().ToString();
  ASSERT_EQ(analysis.value().losers.size(), 1u);
  const wal::LogStats before = db->log().stats();
  const Status undone = UndoLosers(ctx, analysis.value());
  ASSERT_TRUE(undone.ok()) << undone.ToString();
  const wal::LogStats& after = db->log().stats();
  const uint64_t segment_reads =
      (after.scan_cache_hits - before.scan_cache_hits) +
      (after.scan_decodes - before.scan_decodes);
  EXPECT_GT(segment_reads, 0u);
  EXPECT_LE(segment_reads, kChain) << "undo read more segments than the "
                                      "loser's chain has records";

  // The rollback is durable: the next recovery finds no loser, and the
  // loser's writes are gone.
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  for (size_t i = 0; i < kChain; ++i) {
    Result<int64_t> slot =
        db->NewSession().ReadSlot(2 + i % 2, static_cast<uint32_t>(i));
    ASSERT_TRUE(slot.ok()) << slot.status().ToString();
    EXPECT_EQ(slot.value(), 0) << "slot " << i;
  }
}

TEST_P(UndoRecoveryTest, LoserChainReachingIntoTheArchiveRollsBack) {
  // The loser's first update sits in segments that checkpoint
  // truncation dropped from the live log: only the archive still holds
  // it, and undo must read it from there.
  auto db = MakeSegmentedDb(GetParam());
  {
    MiniDb::Session setup = db->NewSession();
    ASSERT_TRUE(setup.WriteSlot(2, 0, 111).ok());
    ASSERT_TRUE(setup.Commit().ok());
  }
  {
    MiniDb::Session loser = db->NewSession();
    ASSERT_TRUE(loser.Begin().ok());
    ASSERT_TRUE(loser.WriteSlot(2, 0, 900).ok());
    const core::Lsn first_update = db->log().last_lsn();
    CommitWinners(db.get(), 20);
    ASSERT_TRUE(db->Checkpoint().ok());
    CommitWinners(db.get(), 1);  // the checkpoint record is stable
    ASSERT_GT(db->log().TruncateArchived(db->log().stable_lsn()), 0u);
    ASSERT_GT(db->log().live_begin_lsn(), first_update)
        << "the chain's first record must be archive-only";
    ASSERT_TRUE(loser.WriteSlot(3, 0, 903).ok());
    CommitWinners(db.get(), 1);
    db->Crash();
  }
  const Status recovered = db->Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.ToString();
  Result<int64_t> s20 = db->NewSession().ReadSlot(2, 0);
  ASSERT_TRUE(s20.ok());
  EXPECT_EQ(s20.value(), 111);
  Result<int64_t> s30 = db->NewSession().ReadSlot(3, 0);
  ASSERT_TRUE(s30.ok());
  EXPECT_EQ(s30.value(), 0);
  EXPECT_GE(db->txn_undo_metrics().clrs_emitted.load(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, UndoRecoveryTest, ::testing::ValuesIn(kMethodKinds),
    [](const ::testing::TestParamInfo<MethodKind>& info) {
      std::string name = MethodKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace redo::methods
