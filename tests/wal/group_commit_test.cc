// The group-commit pipeline (DESIGN.md §10): appenders add encoded
// records to a bounded pending queue; a committer thread batches pending
// commit requests into one CRC-framed force, holding the log for the
// whole force, and wakes every waiter the force covered. These tests pin
// the pipeline's contracts — LSN uniqueness under concurrent appenders,
// batching, byte-identical stable images, the freeze (crash-boundary)
// semantics, and backpressure on a full pending queue.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "wal/log_manager.h"

namespace redo::wal {
namespace {

GroupCommitOptions FastOptions() {
  GroupCommitOptions gc;
  gc.ring_capacity = 256;
  gc.window_us = 50;
  gc.force_latency_us = 0;
  return gc;
}

TEST(GroupCommitTest, StartStopLifecycle) {
  LogManager log;
  EXPECT_FALSE(log.group_commit_active());
  ASSERT_TRUE(log.StartGroupCommit(FastOptions()).ok());
  EXPECT_TRUE(log.group_commit_active());
  EXPECT_FALSE(log.StartGroupCommit(FastOptions()).ok())
      << "second start must fail while the pipeline runs";
  ASSERT_TRUE(log.StopGroupCommit().ok());
  EXPECT_FALSE(log.group_commit_active());
  EXPECT_FALSE(log.StopGroupCommit().ok()) << "stop without start must fail";
}

TEST(GroupCommitTest, StopDrainsEverythingAppended) {
  LogManager log;
  ASSERT_TRUE(log.StartGroupCommit(FastOptions()).ok());
  for (int i = 0; i < 10; ++i) {
    log.Append(RecordType::kSlotWrite, {static_cast<uint8_t>(i)});
  }
  ASSERT_TRUE(log.StopGroupCommit().ok());
  EXPECT_EQ(log.stable_lsn(), 10u);
  EXPECT_EQ(log.StableRecords(1).value().size(), 10u);
}

TEST(GroupCommitTest, CommitWaitAcknowledgesAtDurableLsn) {
  LogManager log;
  ASSERT_TRUE(log.StartGroupCommit(FastOptions()).ok());
  for (int i = 0; i < 5; ++i) log.Append(RecordType::kSlotWrite, {});
  Result<core::Lsn> acked = log.CommitWait(3);
  ASSERT_TRUE(acked.ok());
  EXPECT_GE(acked.value(), 3u);
  EXPECT_GE(log.stable_lsn(), 3u);
  ASSERT_TRUE(log.StopGroupCommit().ok());
}

TEST(GroupCommitTest, ConcurrentAppendersGetUniqueContiguousLsns) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 200;
  LogManager log;
  ASSERT_TRUE(log.StartGroupCommit(FastOptions()).ok());

  std::mutex mu;
  std::set<core::Lsn> assigned;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, &mu, &assigned, t] {
      std::vector<core::Lsn> mine;
      mine.reserve(kPerThread);
      for (size_t i = 0; i < kPerThread; ++i) {
        mine.push_back(
            log.Append(RecordType::kSlotWrite, {static_cast<uint8_t>(t)}));
      }
      std::lock_guard<std::mutex> lock(mu);
      assigned.insert(mine.begin(), mine.end());
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(log.StopGroupCommit().ok());

  // Every Append returned the LSN it actually got: all unique, spanning
  // exactly [1, N] with no gaps.
  EXPECT_EQ(assigned.size(), kThreads * kPerThread);
  EXPECT_EQ(*assigned.begin(), 1u);
  EXPECT_EQ(*assigned.rbegin(), kThreads * kPerThread);
  EXPECT_EQ(log.stable_lsn(), kThreads * kPerThread);
}

TEST(GroupCommitTest, AppendWithLsnEmbedsTheAssignedLsnAtomically) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 100;
  LogManager log;
  ASSERT_TRUE(log.StartGroupCommit(FastOptions()).ok());

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (size_t i = 0; i < kPerThread; ++i) {
        log.AppendWithLsn(RecordType::kPageImage, [](core::Lsn assigned) {
          std::vector<uint8_t> payload(8);
          for (int b = 0; b < 8; ++b) {
            payload[b] = static_cast<uint8_t>(assigned >> (8 * b));
          }
          return payload;
        });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(log.StopGroupCommit().ok());

  // The payload-embedded LSN must match the record's LSN for every
  // record — the race this API closes would make them diverge.
  Result<std::vector<LogRecord>> stable = log.StableRecords(1);
  ASSERT_TRUE(stable.ok());
  ASSERT_EQ(stable.value().size(), kThreads * kPerThread);
  for (const LogRecord& record : stable.value()) {
    uint64_t embedded = 0;
    for (int b = 0; b < 8; ++b) {
      embedded |= static_cast<uint64_t>(record.payload[b]) << (8 * b);
    }
    ASSERT_EQ(embedded, record.lsn);
  }
}

TEST(GroupCommitTest, ManyCommitsBatchIntoFewerForces) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 16;
  LogManager log;
  GroupCommitOptions gc = FastOptions();
  gc.window_us = 200;
  gc.force_latency_us = 200;  // a slow device makes batching visible
  ASSERT_TRUE(log.StartGroupCommit(gc).ok());

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const core::Lsn lsn = log.Append(RecordType::kSlotWrite, {});
        Result<core::Lsn> acked = log.CommitWait(lsn);
        ASSERT_TRUE(acked.ok());
        ASSERT_GE(acked.value(), lsn);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(log.StopGroupCommit().ok());

  const LogStats& stats = log.stats();
  EXPECT_EQ(stats.group_commits, kThreads * kPerThread);
  EXPECT_GT(stats.group_batches, 0u);
  EXPECT_LT(stats.group_batches, stats.group_commits)
      << "a slow force with concurrent committers must batch";
  EXPECT_GE(stats.group_max_batch, 2u);
  EXPECT_EQ(log.stable_lsn(), kThreads * kPerThread);
}

TEST(GroupCommitTest, StableBytesIdenticalToSerialForce) {
  // The same appends through the pipeline and through the serial path
  // must produce byte-identical stable images (recovery cannot tell
  // which front end wrote the log).
  std::vector<std::vector<uint8_t>> payloads;
  for (uint8_t i = 0; i < 32; ++i) {
    payloads.push_back({i, static_cast<uint8_t>(i * 3), 0xAB});
  }

  LogManager serial;
  for (const auto& p : payloads) serial.Append(RecordType::kSlotWrite, p);
  ASSERT_TRUE(serial.ForceAll().ok());

  LogManager grouped;
  ASSERT_TRUE(grouped.StartGroupCommit(FastOptions()).ok());
  for (const auto& p : payloads) grouped.Append(RecordType::kSlotWrite, p);
  ASSERT_TRUE(grouped.CommitWait(payloads.size()).ok());
  ASSERT_TRUE(grouped.StopGroupCommit().ok());

  EXPECT_EQ(serial.stats().stable_bytes, grouped.stats().stable_bytes);
  Result<std::vector<LogRecord>> a = serial.StableRecords(1);
  Result<std::vector<LogRecord>> b = grouped.StableRecords(1);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].lsn, b.value()[i].lsn);
    EXPECT_EQ(a.value()[i].type, b.value()[i].type);
    EXPECT_EQ(a.value()[i].payload, b.value()[i].payload);
  }
}

TEST(GroupCommitTest, FreezeFailsPendingAndSubsequentCommits) {
  LogManager log;
  ASSERT_TRUE(log.StartGroupCommit(FastOptions()).ok());
  log.Append(RecordType::kSlotWrite, {1});

  // A waiter for an LSN nothing will ever force blocks until the freeze
  // breaks it.
  std::atomic<bool> failed{false};
  std::thread waiter([&log, &failed] {
    Result<core::Lsn> acked = log.CommitWait(1000);
    failed.store(!acked.ok() &&
                 acked.status().code() == StatusCode::kUnavailable);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  log.FreezeGroupCommit();
  waiter.join();
  EXPECT_TRUE(failed.load()) << "pending CommitWait must fail kUnavailable";

  // Frozen is sticky: later commits fail too, even for forced LSNs.
  Result<core::Lsn> late = log.CommitWait(1);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  log.FreezeGroupCommit();  // idempotent
}

TEST(GroupCommitTest, FreezeThenCrashDropsUnforcedRecords) {
  LogManager log;
  ASSERT_TRUE(log.StartGroupCommit(FastOptions()).ok());
  log.Append(RecordType::kSlotWrite, {1});
  Result<core::Lsn> acked = log.CommitWait(1);
  ASSERT_TRUE(acked.ok());
  log.Append(RecordType::kSlotWrite, {2});
  log.Append(RecordType::kSlotWrite, {3});
  log.FreezeGroupCommit();
  log.Crash();

  // The acknowledged record survives; the unacknowledged tail is gone.
  EXPECT_FALSE(log.group_commit_active());
  EXPECT_EQ(log.stable_lsn(), 1u);
  EXPECT_EQ(log.last_lsn(), 1u);

  // The freeze clears at the next start: the pipeline is usable again.
  ASSERT_TRUE(log.StartGroupCommit(FastOptions()).ok());
  const core::Lsn lsn = log.Append(RecordType::kSlotWrite, {4});
  EXPECT_EQ(lsn, 2u);
  Result<core::Lsn> reacked = log.CommitWait(lsn);
  ASSERT_TRUE(reacked.ok());
  ASSERT_TRUE(log.StopGroupCommit().ok());
}

TEST(GroupCommitTest, FullRingStallsAppendersUntilTheCommitterDrains) {
  LogManager log;
  GroupCommitOptions gc = FastOptions();
  gc.ring_capacity = 2;
  ASSERT_TRUE(log.StartGroupCommit(gc).ok());

  constexpr size_t kRecords = 12;
  std::thread appender([&log] {
    for (size_t i = 0; i < kRecords; ++i) {
      log.Append(RecordType::kSlotWrite, {static_cast<uint8_t>(i)});
    }
  });
  // Let the appender hit the full ring, then request a commit so the
  // committer starts draining.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  Result<core::Lsn> acked = log.CommitWait(kRecords);
  ASSERT_TRUE(acked.ok());
  appender.join();
  ASSERT_TRUE(log.StopGroupCommit().ok());

  EXPECT_GE(log.stats().group_ring_stalls, 1u)
      << "a ring of 2 cannot absorb 12 appends without backpressure";
  EXPECT_EQ(log.stable_lsn(), kRecords);
  EXPECT_EQ(log.StableRecords(1).value().size(), kRecords);
}

// A freeze that lands while a force holds the log waits for it: the
// force lands whole and acknowledges its waiter, so the crash keeps its
// record. A freeze never tears a force; TearInFlightForce models that.
TEST(GroupCommitTest, FreezeDuringAForceWaitsForItToLand) {
  LogManager log;
  GroupCommitOptions gc = FastOptions();
  gc.window_us = 0;
  gc.force_latency_us = 300000;  // long enough to freeze mid-force
  ASSERT_TRUE(log.StartGroupCommit(gc).ok());

  const core::Lsn lsn = log.Append(RecordType::kSlotWrite, {1});
  std::atomic<core::Lsn> acked_at{0};
  std::thread waiter([&log, &acked_at, lsn] {
    Result<core::Lsn> acked = log.CommitWait(lsn);
    if (acked.ok()) acked_at.store(acked.value());
  });
  // Give the committer time to take the request and start the force,
  // then crash under it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  log.FreezeGroupCommit();
  waiter.join();
  EXPECT_EQ(acked_at.load(), lsn) << "the force in flight acks its waiter";
  log.Crash();
  EXPECT_EQ(log.stable_lsn(), lsn) << "the force landed whole";
  EXPECT_EQ(log.last_lsn(), lsn);
}

// Appends one record per waiter and has every waiter wait on its own
// record from its own thread, as sessions do.
void CommitTogether(LogManager& log, size_t waiters) {
  std::vector<core::Lsn> lsns;
  for (size_t i = 0; i < waiters; ++i) {
    lsns.push_back(log.Append(RecordType::kSlotWrite, {}));
  }
  std::vector<std::thread> threads;
  for (const core::Lsn lsn : lsns) {
    threads.emplace_back([&log, lsn] {
      ASSERT_TRUE(log.CommitWait(lsn, LogManager::Waiter::kSession).ok());
    });
  }
  for (std::thread& t : threads) t.join();
}

TEST(GroupCommitTest, WindowClosesOnceEverySessionJoined) {
  std::atomic<int> live_sessions{2};
  LogManager log;
  GroupCommitOptions gc = FastOptions();
  gc.window_us = 10000000;  // 10 s: only the early close can end it
  gc.live_sessions = &live_sessions;
  ASSERT_TRUE(log.StartGroupCommit(gc).ok());
  CommitTogether(log, 2);
  EXPECT_EQ(log.stats().group_batches, 1u);
  EXPECT_EQ(log.stats().group_commits, 2u);
  EXPECT_EQ(log.stats().group_early_closes, 1u);
  ASSERT_TRUE(log.StopGroupCommit().ok());
}

// A force that another caller makes (a checkpoint's, a page flush's)
// acknowledges the waiters it covers, and they leave the window: a
// second session that then waits alone does not close it early, and
// each force is credited with the one commit it covered.
TEST(GroupCommitTest, AWaiterAnotherForceAckedLeavesTheWindow) {
  std::atomic<int> live_sessions{2};
  LogManager log;
  GroupCommitOptions gc = FastOptions();
  gc.window_us = 10000000;  // 10 s: only an early close ends it in time
  gc.live_sessions = &live_sessions;
  ASSERT_TRUE(log.StartGroupCommit(gc).ok());
  // Each session waits on its own record; the caller's own force acks it.
  auto wait_then_force = [&log](std::chrono::milliseconds linger) {
    const core::Lsn lsn = log.Append(RecordType::kSlotWrite, {});
    std::atomic<bool> acked{false};
    std::thread session([&log, &acked, lsn] {
      ASSERT_TRUE(log.CommitWait(lsn, LogManager::Waiter::kSession).ok());
      acked.store(true);
    });
    std::this_thread::sleep_for(linger);
    const bool acked_before_force = acked.load();
    EXPECT_TRUE(log.Force(lsn).ok());
    session.join();
    return acked_before_force;
  };
  ASSERT_FALSE(wait_then_force(std::chrono::milliseconds(20)));
  EXPECT_FALSE(wait_then_force(std::chrono::milliseconds(50)))
      << "the second session waited alone, one of two live sessions, "
         "yet the window closed";
  EXPECT_EQ(log.stats().group_early_closes, 0u);
  EXPECT_EQ(log.stats().group_commits, 2u);
  EXPECT_EQ(log.stats().group_max_batch, 1u);
  EXPECT_EQ(log.stats().group_batches, 0u)
      << "the callers' forces covered every waiter";
  ASSERT_TRUE(log.StopGroupCommit().ok());
}

// A waiter that is not a session (a fuzzy checkpoint) never closes the
// window on a live session that has not joined.
TEST(GroupCommitTest, NonSessionWaitKeepsTheFullWindow) {
  std::atomic<int> live_sessions{1};
  LogManager log;
  GroupCommitOptions gc = FastOptions();
  gc.window_us = 50000;
  gc.live_sessions = &live_sessions;
  ASSERT_TRUE(log.StartGroupCommit(gc).ok());
  const core::Lsn lsn = log.Append(RecordType::kCheckpoint, {});
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(log.CommitWait(lsn).ok());
  EXPECT_GE(std::chrono::steady_clock::now() - start,
            std::chrono::microseconds(gc.window_us));
  EXPECT_EQ(log.stats().group_early_closes, 0u);
  ASSERT_TRUE(log.StopGroupCommit().ok());
}

// group_max_batch is a high-water mark: a delta across a window reports
// the largest batch so far, not the (usually zero) growth of the mark.
TEST(GroupCommitTest, MaxBatchSurvivesASnapshotDelta) {
  std::atomic<int> live_sessions{2};
  LogManager log;
  obs::MetricsRegistry registry;
  log.RegisterMetrics(registry);
  GroupCommitOptions gc = FastOptions();
  gc.window_us = 10000000;
  gc.live_sessions = &live_sessions;
  ASSERT_TRUE(log.StartGroupCommit(gc).ok());
  CommitTogether(log, 2);
  const obs::Snapshot before = registry.TakeSnapshot();
  CommitTogether(log, 2);
  const obs::Snapshot delta = registry.TakeSnapshot().Delta(before);
  EXPECT_EQ(delta.Value("wal.group_batches"), 1);
  EXPECT_GE(delta.Value("wal.group_max_batch"), 2);
  ASSERT_TRUE(log.StopGroupCommit().ok());
}

TEST(GroupCommitTest, SerialCommitWaitForcesSynchronously) {
  LogManager log;
  log.Append(RecordType::kSlotWrite, {1});
  log.Append(RecordType::kSlotWrite, {2});
  Result<core::Lsn> acked = log.CommitWait(2);
  ASSERT_TRUE(acked.ok());
  EXPECT_GE(acked.value(), 2u);
  EXPECT_EQ(log.stable_lsn(), 2u);
  EXPECT_EQ(log.stats().group_batches, 0u)
      << "serial CommitWait pays for its own force, no committer batch";
  EXPECT_EQ(log.stats().forces, 1u);
}

}  // namespace
}  // namespace redo::wal
