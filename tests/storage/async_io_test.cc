#include "storage/async_io.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "storage/disk.h"
#include "storage/fault_injector.h"

namespace redo::storage {
namespace {

Page PageWith(uint32_t slot, int64_t value, core::Lsn lsn) {
  Page p;
  p.WriteSlot(slot, value);
  p.set_lsn(lsn);
  return p;
}

TEST(AsyncIoTest, SyncFallbackExecutesInline) {
  Disk disk(4);
  AsyncIoOptions options;
  options.queue_depth = 0;
  AsyncIoBackend backend(&disk, options);
  ASSERT_TRUE(backend.synchronous());

  std::vector<AsyncIoOp> ops;
  ops.push_back(AsyncIoOp::Write(1, PageWith(0, 42, 7)));
  ops.push_back(AsyncIoOp::Write(2, PageWith(1, 43, 8)));
  AsyncIoBatch batch = backend.Submit(std::move(ops));
  // Fallback mode: the writes are durable before Submit returned.
  EXPECT_EQ(disk.PeekPage(1).ReadSlot(0), 42);
  EXPECT_EQ(disk.PeekPage(2).ReadSlot(1), 43);
  EXPECT_TRUE(batch.Wait().ok());
  EXPECT_TRUE(batch.op(0).status.ok());
  EXPECT_TRUE(batch.op(1).status.ok());

  const AsyncIoStats stats = backend.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.ops, 2u);
  EXPECT_EQ(stats.writes, 2u);
  EXPECT_EQ(stats.sync_completions, 2u);
}

// The depth-0 device contract: one I/O in flight. The latency is charged
// under the disk mutex, so two threads submitting a one-read batch each
// take (at least) the sum of the two latencies, not the max.
TEST(AsyncIoTest, DepthZeroServesOneOpAtATime) {
  Disk disk(2);
  AsyncIoOptions options;
  options.queue_depth = 0;
  options.read_latency_us = 5000;
  AsyncIoBackend backend(&disk, options);

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (PageId p = 0; p < 2; ++p) {
    threads.emplace_back([&backend, p] {
      AsyncIoBatch batch = backend.Submit({AsyncIoOp::Read(p)});
      EXPECT_TRUE(batch.Wait().ok());
    });
  }
  for (std::thread& thread : threads) thread.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(10));
  EXPECT_EQ(backend.stats().sync_completions, 2u);
}

TEST(AsyncIoTest, AsyncBatchCompletesEveryOp) {
  Disk disk(16);
  AsyncIoOptions options;
  options.queue_depth = 4;
  AsyncIoBackend backend(&disk, options);
  ASSERT_FALSE(backend.synchronous());

  std::vector<AsyncIoOp> ops;
  for (PageId p = 0; p < 16; ++p) {
    ops.push_back(AsyncIoOp::Write(p, PageWith(0, int64_t(p) * 10, p + 1)));
  }
  AsyncIoBatch batch = backend.Submit(std::move(ops));
  ASSERT_TRUE(batch.Wait().ok());
  for (PageId p = 0; p < 16; ++p) {
    EXPECT_TRUE(batch.op(p).status.ok());
    EXPECT_EQ(disk.PeekPage(p).ReadSlot(0), int64_t(p) * 10);
    EXPECT_EQ(disk.PeekPage(p).lsn(), core::Lsn(p + 1));
  }
  const AsyncIoStats stats = backend.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.ops, 16u);
  EXPECT_EQ(stats.sync_completions, 0u);
  EXPECT_GE(stats.max_in_flight, 1u);
}

TEST(AsyncIoTest, ReadBatchFillsPayloads) {
  Disk disk(8);
  for (PageId p = 0; p < 8; ++p) {
    ASSERT_TRUE(disk.WritePage(p, PageWith(2, 100 + p, p + 1)).ok());
  }
  AsyncIoOptions options;
  options.queue_depth = 2;
  AsyncIoBackend backend(&disk, options);

  std::vector<AsyncIoOp> ops;
  for (PageId p = 0; p < 8; ++p) ops.push_back(AsyncIoOp::Read(p));
  AsyncIoBatch batch = backend.Submit(std::move(ops));
  ASSERT_TRUE(batch.Wait().ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch.op(i).status.ok());
    EXPECT_EQ(batch.op(i).payload.ReadSlot(2),
              100 + int64_t(batch.op(i).page));
  }
  EXPECT_EQ(backend.stats().reads, 8u);
}

TEST(AsyncIoTest, WaitReturnsFirstFailingStatus) {
  Disk disk(2);
  AsyncIoOptions options;
  options.queue_depth = 0;  // deterministic completion order
  AsyncIoBackend backend(&disk, options);

  std::vector<AsyncIoOp> ops;
  ops.push_back(AsyncIoOp::Read(0));
  ops.push_back(AsyncIoOp::Read(9));  // out of range
  ops.push_back(AsyncIoOp::Read(1));
  AsyncIoBatch batch = backend.Submit(std::move(ops));
  EXPECT_EQ(batch.Wait().code(), StatusCode::kNotFound);
  EXPECT_TRUE(batch.op(0).status.ok());
  EXPECT_EQ(batch.op(1).status.code(), StatusCode::kNotFound);
  EXPECT_TRUE(batch.op(2).status.ok());
  EXPECT_EQ(backend.stats().op_errors, 1u);
}

// The completion-time fault model: one batch carrying a torn write
// (reported OK, detected later by checksum) and a vetoed write
// (kUnavailable, stable state untouched) keeps both semantics per op.
TEST(AsyncIoTest, FaultsInjectAtCompletionPerOp) {
  Disk disk(4);
  // Seed page 0 so the tear has prior content to mix with; slot 200 puts
  // the changed bytes past the first 512-byte sector so a tear point
  // exists (the injector refuses tears it cannot expose).
  ASSERT_TRUE(disk.WritePage(0, PageWith(200, 5, 1)).ok());
  FaultInjectorOptions fault_options;
  fault_options.torn_write_probability = 1.0;  // every surviving write tears
  FaultInjector injector(fault_options, /*seed=*/7);
  disk.set_fault_injector(&injector);
  // The hook vetoes page 1 only; page 0's write reaches the injector.
  disk.set_write_fault_hook(
      [](PageId id, Page*) { return id != 1; });

  AsyncIoOptions options;
  options.queue_depth = 2;
  AsyncIoBackend backend(&disk, options);
  std::vector<AsyncIoOp> ops;
  ops.push_back(AsyncIoOp::Write(0, PageWith(200, 77, 9)));
  ops.push_back(AsyncIoOp::Write(1, PageWith(0, 88, 9)));
  AsyncIoBatch batch = backend.Submit(std::move(ops));
  EXPECT_EQ(batch.Wait().code(), StatusCode::kUnavailable);

  // Torn write: reported OK at completion, caught by verification.
  EXPECT_TRUE(batch.op(0).status.ok());
  EXPECT_FALSE(disk.VerifyPage(0).ok());
  // Vetoed write: surfaced as kUnavailable, page 1 untouched.
  EXPECT_EQ(batch.op(1).status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(disk.PeekPage(1).ReadSlot(0), 0);
  EXPECT_EQ(injector.stats().torn_writes, 1u);
}

TEST(AsyncIoTest, EmptyBatchCompletesImmediately) {
  Disk disk(1);
  AsyncIoOptions options;
  options.queue_depth = 2;
  AsyncIoBackend backend(&disk, options);
  AsyncIoBatch batch = backend.Submit({});
  EXPECT_TRUE(batch.Wait().ok());
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(backend.stats().ops, 0u);
}

TEST(AsyncIoTest, ConcurrentBatchesFromManyThreads) {
  Disk disk(64);
  AsyncIoOptions options;
  options.queue_depth = 4;
  AsyncIoBackend backend(&disk, options);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&backend, t] {
      for (size_t round = 0; round < 8; ++round) {
        std::vector<AsyncIoOp> ops;
        for (PageId p = 0; p < 4; ++p) {
          const PageId page = static_cast<PageId>(t * 16 + round % 4 + p * 4);
          ops.push_back(
              AsyncIoOp::Write(page, PageWith(1, int64_t(round), round + 1)));
        }
        AsyncIoBatch batch = backend.Submit(std::move(ops));
        ASSERT_TRUE(batch.Wait().ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const AsyncIoStats stats = backend.stats();
  EXPECT_EQ(stats.batches, 32u);
  EXPECT_EQ(stats.ops, 128u);
  EXPECT_EQ(stats.op_errors, 0u);
}

TEST(AsyncIoTest, ResetStatsClears) {
  Disk disk(2);
  AsyncIoOptions options;
  options.queue_depth = 1;
  AsyncIoBackend backend(&disk, options);
  AsyncIoBatch batch =
      backend.Submit({AsyncIoOp::Write(0, PageWith(0, 1, 1))});
  ASSERT_TRUE(batch.Wait().ok());
  ASSERT_EQ(backend.stats().ops, 1u);
  backend.ResetStats();
  const AsyncIoStats stats = backend.stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.ops, 0u);
  EXPECT_EQ(stats.max_in_flight, 0u);
}

TEST(AsyncIoTest, MetricsRegistration) {
  Disk disk(4);
  obs::MetricsRegistry registry;
  AsyncIoOptions options;
  options.queue_depth = 2;
  AsyncIoBackend backend(&disk, options);
  backend.RegisterMetrics(registry);
  AsyncIoBatch batch = backend.Submit(
      {AsyncIoOp::Write(0, PageWith(0, 1, 1)), AsyncIoOp::Read(1)});
  ASSERT_TRUE(batch.Wait().ok());
  const obs::Snapshot snapshot = registry.TakeSnapshot();
  const obs::SnapshotEntry* ops = snapshot.Find("io.async.ops");
  ASSERT_NE(ops, nullptr);
  EXPECT_EQ(ops->value, 2);
  const obs::SnapshotEntry* hist = snapshot.Find("io.async.batch_pages");
  ASSERT_NE(hist, nullptr);
}

}  // namespace
}  // namespace redo::storage
