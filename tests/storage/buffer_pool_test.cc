#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "storage/async_io.h"
#include "storage/fault_injector.h"

namespace redo::storage {
namespace {

TEST(BufferPoolTest, FetchMissReadsFromDisk) {
  Disk disk(4);
  Page seed;
  seed.WriteSlot(0, 5);
  ASSERT_TRUE(disk.WritePage(1, seed).ok());

  BufferPool pool(&disk, 2);
  Result<Page*> p = pool.Fetch(1);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value()->ReadSlot(0), 5);
  EXPECT_EQ(pool.stats().misses, 1u);

  // Second fetch hits.
  ASSERT_TRUE(pool.Fetch(1).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, DirtyPageNotOnDiskUntilFlushed) {
  Disk disk(2);
  BufferPool pool(&disk, 2);
  Page* p = pool.Fetch(0).value();
  p->WriteSlot(0, 42);
  ASSERT_TRUE(pool.MarkDirty(0, 7).ok());
  EXPECT_TRUE(pool.IsDirty(0));
  EXPECT_EQ(disk.PeekPage(0).ReadSlot(0), 0);

  ASSERT_TRUE(pool.FlushPage(0).ok());
  EXPECT_FALSE(pool.IsDirty(0));
  EXPECT_EQ(disk.PeekPage(0).ReadSlot(0), 42);
  EXPECT_EQ(disk.PeekPage(0).lsn(), 7u);
}

TEST(BufferPoolTest, MarkDirtySetsPageLsnAndRecLsn) {
  Disk disk(1);
  BufferPool pool(&disk, 1);
  (void)pool.Fetch(0).value();
  ASSERT_TRUE(pool.MarkDirty(0, 5).ok());
  ASSERT_TRUE(pool.MarkDirty(0, 9).ok());
  const std::vector<DirtyPageEntry> dirty = pool.DirtyPages();
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].rec_lsn, 5u) << "first dirtying LSN is kept";
  EXPECT_EQ(dirty[0].page_lsn, 9u) << "page LSN advances";
}

TEST(BufferPoolTest, MarkDirtyRequiresCachedPage) {
  Disk disk(1);
  BufferPool pool(&disk, 1);
  EXPECT_EQ(pool.MarkDirty(0, 1).code(), StatusCode::kFailedPrecondition);
}

TEST(BufferPoolTest, WalHookForcedBeforeFlush) {
  Disk disk(1);
  BufferPool pool(&disk, 1);
  core::Lsn forced = 0;
  pool.set_wal_hook([&forced](core::Lsn lsn) {
    forced = lsn;
    return Status::Ok();
  });
  (void)pool.Fetch(0).value();
  ASSERT_TRUE(pool.MarkDirty(0, 33).ok());
  ASSERT_TRUE(pool.FlushPage(0).ok());
  EXPECT_EQ(forced, 33u) << "log forced up to the page LSN before the write";
  EXPECT_EQ(pool.stats().wal_forces, 1u);
  EXPECT_EQ(pool.stats().wal_force_attempts, 1u);
}

TEST(BufferPoolTest, WalHookFailureBlocksFlush) {
  Disk disk(1);
  BufferPool pool(&disk, 1);
  pool.set_wal_hook(
      [](core::Lsn) { return Status::Unavailable("log device down"); });
  (void)pool.Fetch(0).value();
  ASSERT_TRUE(pool.MarkDirty(0, 1).ok());
  EXPECT_FALSE(pool.FlushPage(0).ok());
  EXPECT_EQ(disk.stats().writes, 0u);
  EXPECT_TRUE(pool.IsDirty(0));
  // Regression: the failed hook used to count as a *force*. It is an
  // attempt; wal_forces reports only hooks that made the log stable.
  EXPECT_EQ(pool.stats().wal_force_attempts, 1u);
  EXPECT_EQ(pool.stats().wal_forces, 0u);
}

TEST(BufferPoolTest, EvictionPrefersCleanVictim) {
  // Regression: the old victim policy picked the global LRU page even
  // when a clean page was available, forcing a write (and a WAL force)
  // where dropping a clean copy would do. The most recently used frame
  // is exempt (a caller may still hold its pointer), so use capacity 3:
  // page 0 (dirty, LRU), page 1 (clean), page 2 (dirty, MRU).
  Disk disk(4);
  BufferPool pool(&disk, 3);
  (void)pool.Fetch(0).value();
  ASSERT_TRUE(pool.MarkDirty(0, 1).ok());
  (void)pool.Fetch(1).value();
  (void)pool.Fetch(2).value();
  ASSERT_TRUE(pool.MarkDirty(2, 2).ok());
  // Page 0 is the LRU but dirty; clean page 1 is the victim.
  (void)pool.Fetch(3).value();
  EXPECT_EQ(pool.num_cached(), 3u);
  EXPECT_TRUE(pool.IsCached(0)) << "dirty page kept in cache";
  EXPECT_FALSE(pool.IsCached(1));
  EXPECT_EQ(disk.PeekPage(0).lsn(), 0u) << "no write was needed";
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.stats().clean_evictions, 1u);
  EXPECT_EQ(pool.stats().flushes, 0u);
}

TEST(BufferPoolTest, EvictionFlushesDirtyVictimWhenAllDirty) {
  Disk disk(3);
  BufferPool pool(&disk, 2);
  (void)pool.Fetch(0).value();
  ASSERT_TRUE(pool.MarkDirty(0, 1).ok());
  (void)pool.Fetch(1).value();
  ASSERT_TRUE(pool.MarkDirty(1, 2).ok());
  // Every frame dirty: the LRU dirty page (0) is flushed and evicted.
  (void)pool.Fetch(2).value();
  EXPECT_EQ(pool.num_cached(), 2u);
  EXPECT_FALSE(pool.IsCached(0));
  EXPECT_EQ(disk.PeekPage(0).lsn(), 1u) << "dirty victim was flushed";
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.stats().clean_evictions, 0u);
}

TEST(BufferPoolTest, FailedFetchReadDoesNotEvict) {
  // Regression: Fetch used to evict a victim BEFORE attempting the disk
  // read, so an unreadable page cost the cache a (possibly dirty) frame
  // and got nothing for it.
  Disk disk(3);
  FaultInjectorOptions options;
  options.read_error_probability = 1.0;  // every miss read fails, sticky
  FaultInjector injector(options, /*seed=*/9);
  BufferPool pool(&disk, 2);

  (void)pool.Fetch(0).value();
  ASSERT_TRUE(pool.MarkDirty(0, 1).ok());
  (void)pool.Fetch(1).value();
  ASSERT_TRUE(pool.MarkDirty(1, 2).ok());

  disk.set_fault_injector(&injector);
  const Result<Page*> failed = pool.Fetch(2);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(pool.num_cached(), 2u) << "no frame was sacrificed";
  EXPECT_TRUE(pool.IsDirty(0));
  EXPECT_TRUE(pool.IsDirty(1));
  EXPECT_EQ(pool.stats().evictions, 0u);
  EXPECT_EQ(disk.PeekPage(0).lsn(), 0u) << "no dirty page was flushed out";
}

TEST(BufferPoolTest, EvictionNeverPicksMostRecentlyUsedFrame) {
  // Callers fetch up to two pages per operation and hold the first
  // pointer while fetching the second; the MRU frame must survive even
  // when it is the only clean one.
  Disk disk(4);
  BufferPool pool(&disk, 2);
  (void)pool.Fetch(0).value();
  ASSERT_TRUE(pool.MarkDirty(0, 1).ok());
  (void)pool.Fetch(1).value();  // clean + MRU
  // Fetching page 2 must not evict MRU page 1 even though page 1 is the
  // only clean frame; dirty LRU page 0 is flushed instead.
  (void)pool.Fetch(2).value();
  EXPECT_TRUE(pool.IsCached(1));
  EXPECT_FALSE(pool.IsCached(0));
  EXPECT_EQ(disk.PeekPage(0).lsn(), 1u);
}

TEST(BufferPoolTest, FlushRetriesSurviveBoundedWriteErrorBurst) {
  Disk disk(2);
  BufferPool pool(&disk, 2);
  int failures_left = BufferPool::kMaxFlushAttempts - 1;
  disk.set_write_fault_hook([&failures_left](PageId, Page*) {
    if (failures_left > 0) {
      --failures_left;
      return false;  // transient write error
    }
    return true;
  });
  Page* p = pool.Fetch(0).value();
  p->WriteSlot(0, 11);
  ASSERT_TRUE(pool.MarkDirty(0, 5).ok());
  ASSERT_TRUE(pool.FlushPage(0).ok())
      << "a burst shorter than the retry budget is absorbed";
  EXPECT_FALSE(pool.IsDirty(0));
  EXPECT_EQ(disk.PeekPage(0).ReadSlot(0), 11);
  EXPECT_EQ(pool.stats().write_retries,
            static_cast<uint64_t>(BufferPool::kMaxFlushAttempts - 1));
  EXPECT_GT(pool.stats().backoff_ticks, 0u);
  EXPECT_EQ(pool.stats().flush_failures, 0u);
}

TEST(BufferPoolTest, FlushFailureSurfacesAfterRetryBudget) {
  Disk disk(2);
  BufferPool pool(&disk, 2);
  disk.set_write_fault_hook([](PageId, Page*) { return false; });  // always
  Page* p = pool.Fetch(0).value();
  p->WriteSlot(0, 11);
  ASSERT_TRUE(pool.MarkDirty(0, 5).ok());
  const Status st = pool.FlushPage(0);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(pool.IsDirty(0)) << "the frame stays dirty for a later retry";
  EXPECT_EQ(pool.stats().flush_failures, 1u);
  EXPECT_EQ(disk.PeekPage(0).ReadSlot(0), 0);
}

TEST(BufferPoolTest, WriteOrderConstraintBlocksDirectFlush) {
  // §6.4: the new B-tree page (1) must reach disk before the old (0).
  Disk disk(2);
  BufferPool pool(&disk, 2);
  (void)pool.Fetch(0).value();
  (void)pool.Fetch(1).value();
  ASSERT_TRUE(pool.MarkDirty(1, 10).ok());  // new page
  ASSERT_TRUE(pool.MarkDirty(0, 11).ok());  // old page overwritten
  pool.AddWriteOrderConstraint(/*before=*/1, /*before_lsn=*/10, /*after=*/0);

  const Status st = pool.FlushPage(0);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("page 1"), std::string::npos);

  // Flushing the new page first unblocks the old one.
  ASSERT_TRUE(pool.FlushPage(1).ok());
  EXPECT_TRUE(pool.FlushPage(0).ok());
}

TEST(BufferPoolTest, CascadingFlushHonorsConstraintChain) {
  Disk disk(3);
  BufferPool pool(&disk, 3);
  for (PageId id : {0u, 1u, 2u}) {
    (void)pool.Fetch(id).value();
    ASSERT_TRUE(pool.MarkDirty(id, id + 1).ok());
  }
  // 2 before 1 before 0.
  pool.AddWriteOrderConstraint(2, 3, 1);
  pool.AddWriteOrderConstraint(1, 2, 0);
  ASSERT_TRUE(pool.FlushPageCascading(0).ok());
  EXPECT_FALSE(pool.IsDirty(0));
  EXPECT_FALSE(pool.IsDirty(1));
  EXPECT_FALSE(pool.IsDirty(2));
  EXPECT_EQ(pool.stats().ordered_cascades, 2u);
}

TEST(BufferPoolTest, ConstraintSatisfiedByEarlierFlushDoesNotBlock) {
  Disk disk(2);
  BufferPool pool(&disk, 2);
  (void)pool.Fetch(1).value();
  ASSERT_TRUE(pool.MarkDirty(1, 10).ok());
  ASSERT_TRUE(pool.FlushPage(1).ok());  // new page already stable
  pool.AddWriteOrderConstraint(1, 10, 0);
  (void)pool.Fetch(0).value();
  ASSERT_TRUE(pool.MarkDirty(0, 11).ok());
  EXPECT_TRUE(pool.FlushPage(0).ok()) << "constraint already satisfied";
}

TEST(BufferPoolTest, UnsatisfiableConstraintFailsCascade) {
  // The required version of page 1 exists nowhere (cache lost it).
  Disk disk(2);
  BufferPool pool(&disk, 2);
  (void)pool.Fetch(0).value();
  ASSERT_TRUE(pool.MarkDirty(0, 11).ok());
  pool.AddWriteOrderConstraint(1, 10, 0);
  EXPECT_FALSE(pool.FlushPageCascading(0).ok());
}

TEST(BufferPoolTest, FlushAllLeavesNothingDirty) {
  Disk disk(5);
  BufferPool pool(&disk, 5);
  for (PageId id = 0; id < 5; ++id) {
    (void)pool.Fetch(id).value();
    ASSERT_TRUE(pool.MarkDirty(id, id + 1).ok());
  }
  pool.AddWriteOrderConstraint(4, 5, 0);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_TRUE(pool.DirtyPages().empty());
  for (PageId id = 0; id < 5; ++id) {
    EXPECT_EQ(disk.PeekPage(id).lsn(), id + 1);
  }
}

TEST(BufferPoolTest, CrashDropsEverything) {
  Disk disk(2);
  BufferPool pool(&disk, 2);
  Page* p = pool.Fetch(0).value();
  p->WriteSlot(0, 9);
  ASSERT_TRUE(pool.MarkDirty(0, 1).ok());
  pool.Crash();
  EXPECT_EQ(pool.num_cached(), 0u);
  EXPECT_EQ(disk.PeekPage(0).ReadSlot(0), 0) << "dirty data lost, disk clean";
}

TEST(BufferPoolTest, UnboundedCapacityNeverEvicts) {
  Disk disk(64);
  BufferPool pool(&disk, 0);
  for (PageId id = 0; id < 64; ++id) (void)pool.Fetch(id).value();
  EXPECT_EQ(pool.num_cached(), 64u);
  EXPECT_EQ(pool.stats().evictions, 0u);
}

TEST(BufferPoolTest, EvictionOfPageZeroWorks) {
  // Regression: the victim-selection used page id 0 as its "no victim
  // yet" sentinel, so when page 0 *was* the LRU victim the pool behaved
  // as if nothing were evictable. Page 0 is an ordinary page.
  Disk disk(4);
  BufferPool pool(&disk, 2);
  (void)pool.Fetch(0).value();  // clean, becomes the LRU
  (void)pool.Fetch(1).value();
  (void)pool.Fetch(2).value();  // must evict page 0
  EXPECT_EQ(pool.num_cached(), 2u);
  EXPECT_FALSE(pool.IsCached(0)) << "page 0 is a legitimate victim";
  EXPECT_TRUE(pool.IsCached(1));
  EXPECT_TRUE(pool.IsCached(2));
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_EQ(pool.stats().clean_evictions, 1u);
}

TEST(BufferPoolTest, DirtyPageZeroEvictionFlushesIt) {
  Disk disk(3);
  BufferPool pool(&disk, 2);
  Page* p = pool.Fetch(0).value();
  p->WriteSlot(0, 77);
  ASSERT_TRUE(pool.MarkDirty(0, 5).ok());
  Page* q = pool.Fetch(1).value();
  q->WriteSlot(0, 78);
  ASSERT_TRUE(pool.MarkDirty(1, 6).ok());
  (void)pool.Fetch(2).value();  // all dirty: LRU page 0 flushed + evicted
  EXPECT_FALSE(pool.IsCached(0));
  EXPECT_EQ(disk.PeekPage(0).ReadSlot(0), 77) << "dirty victim reached disk";
  EXPECT_EQ(disk.PeekPage(0).lsn(), 5u);
}

// While eviction is held (a multi-worker redo drain), a bounded pool
// grows past its capacity instead of evicting: every frame, dirty bit
// and rec_lsn survives, a miss still reads, a blind install still does
// not, and every fetch is still exactly one hit, miss or blind install.
TEST(BufferPoolTest, RedoPartitionRoundTripPreservesFramesAndStats) {
  Disk disk(8);
  Page seed;
  seed.WriteSlot(0, 9);
  ASSERT_TRUE(disk.WritePage(5, seed).ok());

  BufferPool pool(&disk, 2);
  Page* p = pool.Fetch(0).value();
  p->WriteSlot(1, 11);
  ASSERT_TRUE(pool.MarkDirty(0, 3).ok());
  (void)pool.Fetch(1).value();  // clean frame, pool now full

  pool.HoldEviction();
  Result<Page*> fetched = pool.Fetch(5);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value()->ReadSlot(0), 9) << "a held miss still reads";
  Result<Page*> blind = pool.FetchBlind(2);
  ASSERT_TRUE(blind.ok());
  blind.value()->WriteSlot(0, 44);
  ASSERT_TRUE(pool.MarkDirty(2, 7).ok());
  EXPECT_EQ(disk.stats().reads, 3u) << "pages 0, 1 and 5; not the blind 2";

  EXPECT_EQ(pool.num_cached(), 4u) << "nothing evicted past capacity 2";
  EXPECT_EQ(pool.stats().evictions, 0u);
  EXPECT_TRUE(pool.IsDirty(0)) << "dirty bit survives the hold";
  EXPECT_FALSE(pool.IsDirty(1));
  EXPECT_TRUE(pool.IsDirty(2));
  for (const DirtyPageEntry& entry : pool.DirtyPages()) {
    if (entry.page == 0) {
      EXPECT_EQ(entry.rec_lsn, 3u) << "rec_lsn survives the hold";
    }
  }
  const BufferPoolStats& stats = pool.stats();
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses + stats.blind_installs);
  // The held frames kept their content and flush normally afterwards.
  EXPECT_EQ(pool.Fetch(0).value()->ReadSlot(1), 11);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.PeekPage(2).ReadSlot(0), 44);
}

// FetchBlind is Fetch for a caller about to overwrite the whole page: a
// miss installs a zeroed frame without the read, a hit is an ordinary
// hit, and the miss path evicts exactly as Fetch does.
TEST(BufferPoolTest, FetchBlindInstallsWithoutReading) {
  Disk disk(8);
  Page seed;
  seed.WriteSlot(0, 9);
  ASSERT_TRUE(disk.WritePage(3, seed).ok());
  BufferPool pool(&disk, 2);

  Result<Page*> blind = pool.FetchBlind(3);
  ASSERT_TRUE(blind.ok());
  EXPECT_EQ(blind.value()->ReadSlot(0), 0) << "stable bytes not read";
  EXPECT_EQ(disk.stats().reads, 0u);
  blind.value()->WriteSlot(0, 44);
  ASSERT_TRUE(pool.MarkDirty(3, 5).ok());
  Result<Page*> again = pool.FetchBlind(3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->ReadSlot(0), 44) << "a hit returns the frame";

  (void)pool.Fetch(1).value();
  ASSERT_TRUE(pool.FetchBlind(2).ok());  // at capacity: evicts
  EXPECT_LE(pool.num_cached(), 2u);
  EXPECT_EQ(disk.PeekPage(3).ReadSlot(0), 44) << "dirty victim was flushed";
  EXPECT_EQ(disk.stats().reads, 1u);

  const BufferPoolStats& stats = pool.stats();
  EXPECT_EQ(stats.blind_installs, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses + stats.blind_installs);
}

// Blind installs made while eviction is held count in the pool's own
// stats, so the fetch identity holds after a multi-worker redo drain
// too: every fetch is one hit, one miss or one blind install.
TEST(BufferPoolTest, HeldEvictionCountsBlindInstalls) {
  Disk disk(8);
  BufferPool pool(&disk, 2);
  (void)pool.Fetch(0).value();
  pool.HoldEviction();
  ASSERT_TRUE(pool.Fetch(0).ok());  // hit
  ASSERT_TRUE(pool.Fetch(1).ok());  // miss
  Result<Page*> blind = pool.FetchBlind(2);
  ASSERT_TRUE(blind.ok());
  Result<Page*> again = pool.FetchBlind(2);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), blind.value()) << "a hit returns the frame";
  ASSERT_TRUE(pool.ReduceToCapacity().ok());

  const BufferPoolStats& stats = pool.stats();
  EXPECT_EQ(stats.blind_installs, 1u);
  EXPECT_EQ(stats.fetches, 5u);
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses + stats.blind_installs);
}

// Holding eviction takes nothing away from the pool: fetches, dirty
// marks and flushes serve as ever (a held redo drain re-arms §6.4
// constraints, whose cycle case flushes), a flushed frame stays cached
// instead of leaving, and frame pointers stay valid across later
// misses — the pool only stops evicting.
TEST(BufferPoolTest, HeldEvictionKeepsServingAndNeverEvicts) {
  Disk disk(8);
  BufferPool pool(&disk, 2);
  pool.HoldEviction();
  Page* first = pool.Fetch(0).value();
  first->WriteSlot(0, 1);
  ASSERT_TRUE(pool.MarkDirty(0, 2).ok());
  for (PageId id = 1; id < 6; ++id) ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_EQ(pool.Fetch(0).value(), first) << "no miss moved page 0's frame";

  EXPECT_TRUE(pool.FlushPage(0).ok());
  EXPECT_TRUE(pool.FlushPageCascading(0).ok());
  EXPECT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(disk.PeekPage(0).ReadSlot(0), 1);
  EXPECT_FALSE(pool.IsDirty(0));
  EXPECT_TRUE(pool.IsCached(0)) << "a flush under the hold never evicts";
  EXPECT_EQ(pool.num_cached(), 6u);
  EXPECT_EQ(pool.stats().evictions, 0u);
}

// A recovery that dies mid-drain leaves the hold set; the crash that
// precedes its rerun releases it, so the pool evicts again.
TEST(BufferPoolTest, CrashReleasesTheEvictionHold) {
  Disk disk(4);
  BufferPool pool(&disk, 2);
  pool.HoldEviction();
  for (PageId id = 0; id < 3; ++id) ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_EQ(pool.num_cached(), 3u);
  pool.Crash();
  for (PageId id = 0; id < 3; ++id) ASSERT_TRUE(pool.Fetch(id).ok());
  EXPECT_EQ(pool.num_cached(), 2u) << "the crash released the hold";
  EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(BufferPoolTest, ReduceToCapacityEvictsBackDown) {
  Disk disk(8);
  BufferPool pool(&disk, 2);
  pool.HoldEviction();
  for (PageId id = 0; id < 6; ++id) {
    Page* p = pool.FetchBlind(id).value();
    p->WriteSlot(0, id + 1);
    ASSERT_TRUE(pool.MarkDirty(id, id + 1).ok());
  }
  EXPECT_EQ(pool.num_cached(), 6u) << "a held pool never evicts";
  ASSERT_TRUE(pool.ReduceToCapacity().ok());
  EXPECT_LE(pool.num_cached(), 2u);
  for (PageId id = 0; id < 6; ++id) {
    if (!pool.IsCached(id)) {
      EXPECT_EQ(disk.PeekPage(id).ReadSlot(0),
                static_cast<int64_t>(id + 1))
          << "evicted dirty page " << id << " was flushed, not dropped";
    }
  }
  // ReduceToCapacity released the hold: the next miss evicts.
  ASSERT_TRUE(pool.Fetch(7).ok());
  EXPECT_LE(pool.num_cached(), 2u);
}

TEST(BufferPoolTest, ReduceToCapacityIsNoOpWhenUnbounded) {
  Disk disk(4);
  BufferPool pool(&disk, 0);
  for (PageId id = 0; id < 4; ++id) (void)pool.Fetch(id).value();
  ASSERT_TRUE(pool.ReduceToCapacity().ok());
  EXPECT_EQ(pool.num_cached(), 4u);
}

// Satellite of the async backend: with K chained constraints, a full
// cascade examines O(K) constraint entries via the by-after index (each
// bucket is scanned once while unsatisfied and once to prune), not the
// O(K^2) a rescan of the whole constraint list per page used to cost.
TEST(BufferPoolTest, CascadeScansConstraintsBucketLocally) {
  constexpr PageId kPages = 32;
  Disk disk(kPages);
  BufferPool pool(&disk, kPages);
  for (PageId id = 0; id < kPages; ++id) {
    (void)pool.Fetch(id).value();
    ASSERT_TRUE(pool.MarkDirty(id, id + 1).ok());
  }
  // Chain: page i must reach disk before page i-1.
  for (PageId i = 1; i < kPages; ++i) {
    pool.AddWriteOrderConstraint(i, i + 1, i - 1);
  }
  ASSERT_TRUE(pool.FlushPageCascading(0).ok());
  for (PageId id = 0; id < kPages; ++id) {
    EXPECT_FALSE(pool.IsDirty(id));
  }
  // A quadratic rescan examines ~K^2/2 entries (~500 here).
  EXPECT_GE(pool.stats().constraint_checks, uint64_t{kPages} - 1);
  EXPECT_LE(pool.stats().constraint_checks, 2 * (uint64_t{kPages} - 1));
}

TEST(BufferPoolTest, BatchedFlushAllHonorsConstraintsWaveByWave) {
  Disk disk(3);
  AsyncIoOptions io_options;
  io_options.queue_depth = 4;
  BufferPool pool(&disk, 3, io_options);

  std::vector<core::Lsn> forced;
  pool.set_wal_hook([&forced](core::Lsn lsn) {
    forced.push_back(lsn);
    return Status::Ok();
  });
  std::vector<PageId> write_order;
  disk.set_write_fault_hook([&write_order](PageId id, Page*) {
    write_order.push_back(id);  // serialized: the device lock is held
    return true;
  });

  for (PageId id : {0u, 1u, 2u}) {
    Page* p = pool.Fetch(id).value();
    p->WriteSlot(0, id + 10);
    ASSERT_TRUE(pool.MarkDirty(id, id + 1).ok());
  }
  // Page 2 must reach disk before either of the others: wave 1 is {2},
  // wave 2 is {0, 1} under a single WAL force covering both LSNs.
  pool.AddWriteOrderConstraint(2, 3, 0);
  pool.AddWriteOrderConstraint(2, 3, 1);

  ASSERT_TRUE(pool.FlushAll().ok());
  for (PageId id : {0u, 1u, 2u}) {
    EXPECT_FALSE(pool.IsDirty(id));
    EXPECT_EQ(disk.PeekPage(id).ReadSlot(0), int64_t(id) + 10);
  }
  ASSERT_EQ(write_order.size(), 3u);
  EXPECT_EQ(write_order.front(), 2u) << "blocker written in the first wave";
  ASSERT_EQ(forced.size(), 2u) << "one force per wave, not per page";
  EXPECT_EQ(forced[0], 3u);
  EXPECT_EQ(forced[1], 2u) << "wave force covers the max page LSN";
  EXPECT_EQ(pool.stats().batch_flushes, 2u);
  EXPECT_EQ(pool.stats().flushes, 3u);
  EXPECT_EQ(pool.stats().wal_forces, 2u);
  EXPECT_EQ(pool.async_io()->stats().writes, 3u)
      << "the flushed blocker is not redundantly rewritten in wave 2";
}

// ISSUE satellite: a batch carrying one vetoed op keeps per-op status —
// the transient failure is retried alone, completed neighbors stay
// completed, and the write-order constraint still holds across waves.
TEST(BufferPoolTest, BatchedFlushRetriesOnlyTheTransientFailure) {
  Disk disk(3);
  AsyncIoOptions io_options;
  io_options.queue_depth = 2;
  BufferPool pool(&disk, 3, io_options);

  for (PageId id : {0u, 1u, 2u}) {
    Page* p = pool.Fetch(id).value();
    p->WriteSlot(0, id + 10);
    ASSERT_TRUE(pool.MarkDirty(id, id + 1).ok());
  }
  pool.AddWriteOrderConstraint(2, 3, 0);  // 2 before 0

  // Page 1's first write attempt is dropped (transient); every other
  // attempt succeeds. Attempts are counted per page.
  std::map<PageId, int> attempts;
  std::vector<PageId> write_order;
  disk.set_write_fault_hook([&attempts, &write_order](PageId id, Page*) {
    ++attempts[id];
    if (id == 1 && attempts[id] == 1) return false;
    write_order.push_back(id);
    return true;
  });

  // Waves: {1, 2} (0 is blocked), retry {1}, then {0}.
  ASSERT_TRUE(pool.FlushBatch({0, 1, 2}).ok());
  for (PageId id : {0u, 1u, 2u}) {
    EXPECT_FALSE(pool.IsDirty(id));
    EXPECT_EQ(disk.PeekPage(id).ReadSlot(0), int64_t(id) + 10);
  }
  EXPECT_EQ(attempts[0], 1) << "completed neighbors are not re-submitted";
  EXPECT_EQ(attempts[1], 2) << "only the transient failure is retried";
  EXPECT_EQ(attempts[2], 1);
  EXPECT_EQ(pool.stats().write_retries, 1u);
  EXPECT_EQ(pool.stats().batch_flushes, 3u);
  EXPECT_EQ(pool.stats().flush_failures, 0u);
  const auto pos_of = [&write_order](PageId id) {
    return std::find(write_order.begin(), write_order.end(), id) -
           write_order.begin();
  };
  EXPECT_LT(pos_of(2), pos_of(0)) << "constraint held across the fault";
}

// The pool has one read path: with the default device (queue depth 0),
// every Fetch miss — including the miss that evicts — is exactly one
// backend read, and a hit issues none.
TEST(BufferPoolTest, EveryFetchMissIsOneBackendRead) {
  Disk disk(8);
  BufferPool pool(&disk, 4);
  ASSERT_TRUE(pool.async_io()->synchronous()) << "depth 0 is the default";
  for (PageId id : {0u, 1u, 2u, 0u, 3u, 4u, 5u, 1u, 6u, 7u, 2u}) {
    ASSERT_TRUE(pool.Fetch(id).ok());
  }
  ASSERT_GT(pool.stats().misses, 0u);
  ASSERT_GT(pool.stats().hits, 0u);
  const AsyncIoStats io = pool.async_io()->stats();
  EXPECT_EQ(io.reads, pool.stats().misses);
  EXPECT_EQ(io.writes, 0u);
  EXPECT_EQ(disk.stats().reads, pool.stats().misses);
}

// ---- Concurrent fetches: a miss holds no pool lock across its read ----

constexpr uint64_t kSlowReadUs = 20000;

AsyncIoOptions SlowReads() {
  AsyncIoOptions device;
  device.read_latency_us = kSlowReadUs;
  return device;
}

// Spins until `reads` device reads have been submitted: the last one is
// then on the device, charging its latency.
void AwaitDeviceReads(BufferPool& pool, uint64_t reads) {
  while (pool.async_io()->stats().reads < reads) std::this_thread::yield();
}

TEST(BufferPoolTest, HitDoesNotWaitForAnotherPagesMissRead) {
  Disk disk(4);
  BufferPool pool(&disk, 0, SlowReads());
  ASSERT_TRUE(pool.Fetch(0).ok());
  std::thread miss([&pool] { EXPECT_TRUE(pool.Fetch(1).ok()); });
  AwaitDeviceReads(pool, 2);
  const auto start = std::chrono::steady_clock::now();
  const Result<Page*> hit = pool.Fetch(0);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  miss.join();
  ASSERT_TRUE(hit.ok());
  EXPECT_LT(elapsed, std::chrono::microseconds(kSlowReadUs / 2))
      << "a hit waited out another page's read";
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().misses, 2u);
}

// Fetches of a page whose read is in flight wait for that read: one
// device read, one miss, and hits for the rest — a blind fetch too,
// which must not install a zeroed frame over the page being read.
TEST(BufferPoolTest, ConcurrentMissesOfOnePageCostOneRead) {
  Disk disk(4);
  Page seed;
  seed.WriteSlot(0, 77);
  ASSERT_TRUE(disk.WritePage(2, seed).ok());
  BufferPool pool(&disk, 0, SlowReads());
  std::thread first([&pool] { EXPECT_TRUE(pool.Fetch(2).ok()); });
  AwaitDeviceReads(pool, 1);
  std::thread blind([&pool] {
    Result<Page*> page = pool.FetchBlind(2);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page.value()->ReadSlot(0), 77);
  });
  const Result<Page*> second = pool.Fetch(2);
  first.join();
  blind.join();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value()->ReadSlot(0), 77);
  EXPECT_EQ(pool.async_io()->stats().reads, 1u);
  EXPECT_EQ(disk.stats().reads, 1u);
  const BufferPoolStats& stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.blind_installs, 0u);
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses + stats.blind_installs);
}

// A failed miss read clears its in-flight mark: the fetch waiting on it
// misses and reads the page itself (failing too, the fault is sticky),
// and once the fault heals the page is read normally — nobody hangs.
TEST(BufferPoolTest, FailedMissReadClearsTheInFlightMark) {
  Disk disk(4);
  FaultInjectorOptions faults;
  faults.read_error_probability = 1.0;
  FaultInjector injector(faults, /*seed=*/1);
  disk.set_fault_injector(&injector);
  BufferPool pool(&disk, 0, SlowReads());
  Status first_status;
  std::thread first([&pool, &first_status] {
    first_status = pool.Fetch(3).status();
  });
  AwaitDeviceReads(pool, 1);
  const Result<Page*> second = pool.Fetch(3);
  first.join();
  EXPECT_FALSE(first_status.ok());
  EXPECT_FALSE(second.ok());
  EXPECT_FALSE(pool.IsCached(3));
  const BufferPoolStats& stats = pool.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.fetches, stats.hits + stats.misses + stats.blind_installs);

  injector.set_paused(true);
  injector.HealAll(&disk);
  EXPECT_TRUE(pool.Fetch(3).ok());
  disk.set_fault_injector(nullptr);
}

TEST(BufferPoolTest, FlushCleanPageIsNoOp) {
  Disk disk(1);
  BufferPool pool(&disk, 1);
  (void)pool.Fetch(0).value();
  ASSERT_TRUE(pool.FlushPage(0).ok());
  EXPECT_EQ(pool.stats().flushes, 0u);
  EXPECT_EQ(disk.stats().writes, 0u);
}

}  // namespace
}  // namespace redo::storage
