// The concurrent front end (DESIGN.md §10): Session handles driven by
// worker threads over the op gate + page latches, entered and left via
// BeginConcurrent/EndConcurrent, with fuzzy checkpoints riding the
// group-commit pipeline. Interleaving-heavy crash oracles live in the
// concurrent simulator; these tests pin the API contracts and the
// clean-path (drain, crash, recover) behavior for every method.

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/minidb.h"
#include "engine/ops.h"

namespace redo::engine {
namespace {

using methods::MethodKind;
using storage::PageId;

constexpr size_t kPages = 16;

std::unique_ptr<MiniDb> MakeDb(MethodKind kind, size_t cache_capacity = 0) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = cache_capacity;
  return std::make_unique<MiniDb>(options,
                                  methods::MakeMethod(kind, {kPages}));
}

TEST(ConcurrentValidateTest, ValidateSurfacesBadOptionsAsStatus) {
  MiniDbOptions ok;
  EXPECT_TRUE(ok.Validate().ok());

  MiniDbOptions no_pages;
  no_pages.num_pages = 0;
  EXPECT_EQ(no_pages.Validate().code(), StatusCode::kInvalidArgument);

  // The regression this API exists for: a cache of exactly one page
  // cannot hold both sides of a split during redo. The diagnosis must
  // say so instead of crashing the caller.
  MiniDbOptions one_page_cache;
  one_page_cache.cache_capacity = 1;
  const Status bad_cache = one_page_cache.Validate();
  EXPECT_EQ(bad_cache.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_cache.ToString().find("split redo needs two pages"),
            std::string::npos)
      << bad_cache.ToString();

  MiniDbOptions no_workers;
  no_workers.engine.parallel_workers = 0;
  EXPECT_EQ(no_workers.Validate().code(), StatusCode::kInvalidArgument);

  MiniDbOptions no_ring;
  no_ring.engine.group_commit_ring = 0;
  EXPECT_EQ(no_ring.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ConcurrentFrontendTest, BeginRequiresUnboundedCache) {
  auto db = MakeDb(MethodKind::kPhysiological, /*cache_capacity=*/4);
  const Status begun = db->BeginConcurrent();
  EXPECT_EQ(begun.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(db->concurrent());
}

TEST(ConcurrentFrontendTest, BeginRequiresDetachedTraceRecorder) {
  auto db = MakeDb(MethodKind::kPhysiological);
  TraceRecorder trace(db->disk());
  db->Attach(Instrumentation{&trace, nullptr});
  EXPECT_EQ(db->BeginConcurrent().code(), StatusCode::kFailedPrecondition);

  db->Attach(Instrumentation{});
  ASSERT_TRUE(db->BeginConcurrent().ok());
  EXPECT_TRUE(db->concurrent());
  EXPECT_TRUE(db->log().group_commit_active());
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_FALSE(db->concurrent());
  EXPECT_FALSE(db->log().group_commit_active());
}

TEST(ConcurrentFrontendTest, BeginTwiceAndEndWithoutBeginFail) {
  auto db = MakeDb(MethodKind::kPhysiological);
  EXPECT_EQ(db->EndConcurrent().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  EXPECT_EQ(db->BeginConcurrent().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db->EndConcurrent().ok());
}

// Every method: N worker threads write disjoint pages through Session
// handles; EndConcurrent drains the pipeline; a crash plus recovery must
// reproduce every worker's final values.
class ConcurrentFrontendMethodTest
    : public ::testing::TestWithParam<MethodKind> {};

TEST_P(ConcurrentFrontendMethodTest, SessionWritesSurviveCrashAfterDrain) {
  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 48;
  constexpr size_t kPagesPerThread = kPages / kThreads;
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->BeginConcurrent().ok());

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      MiniDb::Session session = db->NewSession();
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        const PageId page =
            static_cast<PageId>(t * kPagesPerThread + i % kPagesPerThread);
        const uint32_t slot = static_cast<uint32_t>(i % 4);
        const int64_t value = static_cast<int64_t>(t * 1000 + i);
        ASSERT_TRUE(session.WriteSlot(page, slot, value).ok());
        if (i % 8 == 7) {
          Result<core::Lsn> acked = session.Commit();
          ASSERT_TRUE(acked.ok());
          ASSERT_GE(acked.value(), session.last_lsn());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(db->EndConcurrent().ok());
  EXPECT_EQ(db->log().stable_lsn(), db->log().last_lsn())
      << "EndConcurrent must drain everything appended";

  db->Crash();
  ASSERT_TRUE(db->Recover().ok());

  // Recompute each worker's final value per (page, slot) and verify.
  for (size_t t = 0; t < kThreads; ++t) {
    std::vector<std::vector<int64_t>> last(
        kPagesPerThread, std::vector<int64_t>(4, -1));
    for (size_t i = 0; i < kOpsPerThread; ++i) {
      last[i % kPagesPerThread][i % 4] = static_cast<int64_t>(t * 1000 + i);
    }
    for (size_t p = 0; p < kPagesPerThread; ++p) {
      for (uint32_t slot = 0; slot < 4; ++slot) {
        if (last[p][slot] < 0) continue;
        const PageId page = static_cast<PageId>(t * kPagesPerThread + p);
        Result<int64_t> got = db->NewSession().ReadSlot(page, slot);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), last[p][slot])
            << "page " << page << " slot " << slot;
      }
    }
  }
}

TEST_P(ConcurrentFrontendMethodTest, SplitsRunUnderConcurrentWriters) {
  auto db = MakeDb(GetParam());
  ASSERT_TRUE(db->BeginConcurrent().ok());

  // Writers hammer pages 0..3; the splitter repeatedly moves slot 0 of
  // page 8 into slot 1 of page 9 (a slot transfer: read both, write
  // dst, rewrite src) — structure modifications and single-page ops
  // must interleave safely.
  std::atomic<bool> stop{false};
  std::thread writer([&db, &stop] {
    MiniDb::Session session = db->NewSession();
    int64_t v = 0;
    while (!stop.load()) {
      ++v;
      ASSERT_TRUE(session.WriteSlot(static_cast<PageId>(v % 4), 0, v).ok());
    }
    ASSERT_TRUE(session.Commit().ok());
  });
  // Join on every exit path: a failed ASSERT below must not leave a
  // joinable std::thread behind (that terminates the process).
  struct Joiner {
    std::thread& t;
    std::atomic<bool>& stop;
    ~Joiner() {
      stop.store(true);
      if (t.joinable()) t.join();
    }
  } joiner{writer, stop};

  {
    // Scoped: Recover() below refuses while any Session handle lives.
    MiniDb::Session splitter = db->NewSession();
    ASSERT_TRUE(splitter.WriteSlot(8, 0, 42).ok());
    for (int i = 0; i < 16; ++i) {
      Result<methods::RecoveryMethod::SplitLsns> lsns =
          splitter.Split(MakeSlotTransfer(8, 0, 9, 1));
      ASSERT_TRUE(lsns.ok());
      // The logical method logs the whole split as one record (equal
      // LSNs); every other method logs the destination before the source
      // rewrite.
      ASSERT_LE(lsns.value().split_lsn, lsns.value().rewrite_lsn);
      ASSERT_TRUE(splitter.WriteSlot(8, 0, 42 + i).ok());
    }
    ASSERT_TRUE(splitter.Commit().ok());
    stop.store(true);
    writer.join();
  }

  ASSERT_TRUE(db->EndConcurrent().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());

  // The last transfer moved 42+14 into 9[1]; 8[0] was then rewritten.
  Result<int64_t> moved = db->NewSession().ReadSlot(9, 1);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), 42 + 15 - 1);
  Result<int64_t> src = db->NewSession().ReadSlot(8, 0);
  ASSERT_TRUE(src.ok());
  EXPECT_EQ(src.value(), 42 + 15);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, ConcurrentFrontendMethodTest,
                         ::testing::ValuesIn(methods::kMethodKinds));

TEST(ConcurrentFrontendTest, FuzzyCheckpointNeedsAnLsnTagMethod) {
  auto db = MakeDb(MethodKind::kPhysical);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  Result<core::Lsn> lsn = db->FuzzyCheckpoint();
  ASSERT_FALSE(lsn.ok());
  EXPECT_EQ(lsn.status().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(ConcurrentFrontendTest, FuzzyCheckpointBecomesRealWhenForced) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    // Scoped: Recover() below refuses while any Session handle lives.
    MiniDb::Session session = db->NewSession();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(session.WriteSlot(static_cast<PageId>(i), 0, i).ok());
    }
  }

  Result<core::Lsn> ckpt = db->FuzzyCheckpoint();
  ASSERT_TRUE(ckpt.ok());
  EXPECT_GT(ckpt.value(), 0u);

  // Not forced yet (no commit asked for it): recovery would use the
  // previous checkpoint. Once a commit covers it, it is the latest
  // stable checkpoint.
  Result<core::Lsn> acked = db->log().CommitWait(ckpt.value());
  ASSERT_TRUE(acked.ok());
  Result<std::optional<wal::LogRecord>> latest =
      db->log().LatestStableCheckpoint();
  ASSERT_TRUE(latest.ok());
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_EQ(latest.value()->lsn, ckpt.value());

  ASSERT_TRUE(db->EndConcurrent().ok());
  db->Crash();
  ASSERT_TRUE(db->Recover().ok());
  for (int i = 0; i < 8; ++i) {
    Result<int64_t> got = db->NewSession().ReadSlot(static_cast<PageId>(i), 0);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), i);
  }
}

TEST(ConcurrentFrontendTest, CheckpointTakesTheFuzzyPathWhenEnabled) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 0;
  options.engine.fuzzy_checkpoints = true;
  MiniDb db(options,
            methods::MakeMethod(MethodKind::kGeneralized, {kPages}));
  ASSERT_TRUE(db.BeginConcurrent().ok());
  {
    // Scoped: Recover() below refuses while any Session handle lives.
    MiniDb::Session session = db.NewSession();
    ASSERT_TRUE(session.WriteSlot(0, 0, 7).ok());
  }

  const uint64_t forces_before = db.log().stats().forces;
  ASSERT_TRUE(db.Checkpoint().ok());
  // The fuzzy path's force rode the pipeline: the checkpoint is already
  // stable when Checkpoint returns.
  Result<std::optional<wal::LogRecord>> latest =
      db.log().LatestStableCheckpoint();
  ASSERT_TRUE(latest.ok());
  ASSERT_TRUE(latest.value().has_value());
  EXPECT_GT(db.log().stats().forces, forces_before);

  ASSERT_TRUE(db.EndConcurrent().ok());
  db.Crash();
  ASSERT_TRUE(db.Recover().ok());
  Result<int64_t> got = db.NewSession().ReadSlot(0, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), 7);
}

TEST(ConcurrentFrontendTest, FreezeCommitsModelsTheCrashBoundary) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    // Scoped: Recover() below refuses while any Session handle lives.
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.WriteSlot(0, 0, 1).ok());
    ASSERT_TRUE(session.Commit().ok());
    ASSERT_TRUE(session.WriteSlot(0, 1, 2).ok());

    db->FreezeCommits();
    Result<core::Lsn> refused = session.Commit();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  }

  db->Crash();
  EXPECT_FALSE(db->concurrent());
  ASSERT_TRUE(db->Recover().ok());
  // The acked write survives; the refused one vanished with the tail.
  EXPECT_EQ(db->NewSession().ReadSlot(0, 0).value(), 1);
  EXPECT_EQ(db->NewSession().ReadSlot(0, 1).value(), 0);
}

// Recover() must refuse — with a diagnosed Status, not a data race —
// while any Session handle is live: a session thread could be between
// its phase check and its gate acquisition, and recovery swapping state
// under it is exactly the use-after-free this guard exists to prevent.
// Handles are move-only; moving transfers the liveness, destruction
// releases it.
TEST(ConcurrentFrontendTest, RecoverRefusesWhileSessionHandlesLive) {
  auto db = MakeDb(MethodKind::kPhysiological);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.WriteSlot(0, 0, 1).ok());
    ASSERT_TRUE(session.Commit().ok());
    ASSERT_TRUE(db->EndConcurrent().ok());
    db->Crash();

    Status refused = db->Recover();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);

    // A moved-to handle keeps the session live; the moved-from shell
    // does not double-release when both go out of scope.
    MiniDb::Session moved = std::move(session);
    EXPECT_FALSE(db->Recover().ok());
  }
  // All handles released: recovery proceeds.
  ASSERT_TRUE(db->Recover().ok());
  EXPECT_EQ(db->NewSession().ReadSlot(0, 0).value(), 1);
}

// Satellite audit: the fuzzy checkpoint snapshots the dirty-page table
// and appends its record atomically under the exclusive gate, while the
// group-commit window keeps commits in flight around it. The hole this
// pins against: a write whose record is in the pipeline at snapshot
// time, whose page is missing from the snapshot DPT, and whose LSN is
// below the checkpoint's redo point — recovery starting at that
// checkpoint would silently skip it. Because every apply happens under
// the page latch BEFORE its commit is acked and the snapshot+append are
// gate-exclusive, no interleaving can produce that hole; this test
// hammers the race and verifies every acked commit survives.
TEST(ConcurrentFrontendTest, FuzzyDptSnapshotCoversGroupCommitWindow) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 0;
  options.engine.fuzzy_checkpoints = true;
  options.engine.group_commit_window_us = 200;  // keep a wide in-flight window
  MiniDb db(options, methods::MakeMethod(MethodKind::kPhysiological, {kPages}));
  ASSERT_TRUE(db.BeginConcurrent().ok());

  constexpr int kRounds = 64;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> checkpoints{0};
  std::thread checkpointer([&db, &stop, &checkpoints] {
    while (!stop.load()) {
      Result<core::Lsn> ckpt = db.FuzzyCheckpoint();
      ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
      checkpoints.fetch_add(1);
    }
  });
  {
    // An idle second session keeps every window open its full length.
    MiniDb::Session idle = db.NewSession();
    MiniDb::Session session = db.NewSession();
    for (int i = 0; i < kRounds; ++i) {
      const PageId page = static_cast<PageId>(i % 4);
      ASSERT_TRUE(session.WriteSlot(page, 0, i).ok());
      Result<core::Lsn> acked = session.Commit();
      ASSERT_TRUE(acked.ok());
    }
  }
  stop.store(true);
  checkpointer.join();
  EXPECT_GT(checkpoints.load(), 0u);
  ASSERT_TRUE(db.EndConcurrent().ok());

  db.Crash();
  ASSERT_TRUE(db.Recover().ok());
  // Every page's last acked write survives no matter how many fuzzy
  // checkpoints raced the pipeline.
  for (int p = 0; p < 4; ++p) {
    Result<int64_t> got = db.NewSession().ReadSlot(static_cast<PageId>(p), 0);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), kRounds - 4 + p) << "page " << p;
  }
}

// ---- The group-commit window (DESIGN.md §10) ----
//
// The window is the longest a commit may linger. It closes as soon as
// every live session waits on a commit, and runs its full length while
// a live session is idle, since that session might still commit inside
// it.

std::unique_ptr<MiniDb> MakeWindowDb(uint64_t window_us) {
  MiniDbOptions options;
  options.num_pages = kPages;
  options.engine.group_commit_window_us = window_us;
  return std::make_unique<MiniDb>(
      options, methods::MakeMethod(MethodKind::kPhysiological, {kPages}));
}

constexpr auto kWellInsideTheWindow = std::chrono::milliseconds(250);

TEST(ConcurrentFrontendTest, CommitWindowClosesOnceEverySessionJoined) {
  auto db = MakeWindowDb(1000000);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  const wal::LogStats before = db->log().stats();
  std::atomic<int> ready{0};
  std::vector<std::chrono::steady_clock::duration> waited(2);
  std::vector<std::thread> threads;
  for (int s = 0; s < 2; ++s) {
    threads.emplace_back([&db, &ready, &waited, s] {
      MiniDb::Session session = db->NewSession();
      const bool wrote =
          session.WriteSlot(static_cast<PageId>(s), 0, s + 1).ok();
      // Both sessions are live before either commits.
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      ASSERT_TRUE(wrote);
      const auto start = std::chrono::steady_clock::now();
      ASSERT_TRUE(session.Commit().ok());
      waited[s] = std::chrono::steady_clock::now() - start;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int s = 0; s < 2; ++s) {
    EXPECT_LT(waited[s], kWellInsideTheWindow) << "session " << s;
  }
  const wal::LogStats& after = db->log().stats();
  EXPECT_EQ(after.group_batches - before.group_batches, 1u);
  EXPECT_EQ(after.group_commits - before.group_commits, 2u);
  EXPECT_EQ(after.group_early_closes - before.group_early_closes, 1u);
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(ConcurrentFrontendTest, CommitWindowClosesForALoneSession) {
  auto db = MakeWindowDb(1000000);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.WriteSlot(0, 0, 1).ok());
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(session.Commit().ok());
    EXPECT_LT(std::chrono::steady_clock::now() - start, kWellInsideTheWindow);
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

TEST(ConcurrentFrontendTest, CommitWindowLingersForAnIdleSession) {
  constexpr uint64_t kWindowUs = 50000;
  auto db = MakeWindowDb(kWindowUs);
  ASSERT_TRUE(db->BeginConcurrent().ok());
  {
    MiniDb::Session idle = db->NewSession();
    MiniDb::Session session = db->NewSession();
    ASSERT_TRUE(session.WriteSlot(0, 0, 1).ok());
    const uint64_t early_before = db->log().stats().group_early_closes;
    const auto start = std::chrono::steady_clock::now();
    ASSERT_TRUE(session.Commit().ok());
    EXPECT_GE(std::chrono::steady_clock::now() - start,
              std::chrono::microseconds(kWindowUs));
    EXPECT_EQ(db->log().stats().group_early_closes, early_before);
  }
  ASSERT_TRUE(db->EndConcurrent().ok());
}

}  // namespace
}  // namespace redo::engine
