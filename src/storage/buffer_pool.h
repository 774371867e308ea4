// The cache manager (buffer pool).
//
// This is where the theory's write graph meets a real system structure:
// the pool accumulates the effects of many operations per page, decides
// when pages move to stable storage, enforces the write-ahead-log rule
// (an operation's log record must be stable before its page is), and
// enforces *write-order constraints* — the installation-graph edges that
// §6.4's generalized operations impose (write the new B-tree page before
// overwriting the old one).

#ifndef REDO_STORAGE_BUFFER_POOL_H_
#define REDO_STORAGE_BUFFER_POOL_H_

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "storage/async_io.h"
#include "storage/disk.h"
#include "storage/page.h"
#include "util/status.h"

namespace redo::storage {

/// RAII hold on one page's latch (see BufferPool::LatchPage). Movable;
/// releases on destruction. A default-constructed guard holds nothing.
class PageLatchGuard {
 public:
  PageLatchGuard() = default;
  explicit PageLatchGuard(std::mutex* latch) : lock_(*latch) {}
  PageLatchGuard(PageLatchGuard&&) = default;
  PageLatchGuard& operator=(PageLatchGuard&&) = default;

  bool owns() const { return lock_.owns_lock(); }
  void Release() { if (lock_.owns_lock()) lock_.unlock(); }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Buffer pool counters.
struct BufferPoolStats {
  uint64_t fetches = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t flushes = 0;
  uint64_t evictions = 0;
  uint64_t wal_force_attempts = 0;  ///< WAL-hook invocations (incl. failures)
  uint64_t wal_forces = 0;          ///< WAL-hook invocations that succeeded
  uint64_t ordered_cascades = 0;   ///< flushes forced by write-order edges
  uint64_t clean_evictions = 0;    ///< victims evicted without a write
  uint64_t write_retries = 0;      ///< flush attempts retried after kUnavailable
  uint64_t backoff_ticks = 0;      ///< simulated backoff time spent retrying
  uint64_t flush_failures = 0;     ///< flushes that failed after all retries
  uint64_t constraint_checks = 0;  ///< order-constraint entries examined
  uint64_t batch_flushes = 0;      ///< write batches submitted to the device
  /// Fetches that installed a zeroed frame without a read (FetchBlind
  /// misses). Every fetch is exactly one of a hit, a miss or a blind
  /// install: fetches == hits + misses + blind_installs.
  uint64_t blind_installs = 0;

  /// Emits every counter (metrics-registry source enumeration).
  void EmitMetrics(obs::MetricEmitter& emit) const;
};

/// An entry of the dirty page table.
struct DirtyPageEntry {
  PageId page;
  core::Lsn rec_lsn;   ///< LSN that first dirtied the page since last flush
  core::Lsn page_lsn;  ///< current page LSN in cache
};

/// A single-copy page cache over a Disk. Every page read and write goes
/// through the pool's AsyncIoBackend (its device).
///
/// Threading contract (the concurrent front end, DESIGN.md §10):
///  - Fetch / FetchBlind / MarkDirty / the const observers are
///    thread-safe: they serialize on an internal mutex that guards the
///    frame map and counters. A miss releases that mutex across its
///    device read, so other pages' fetches proceed meanwhile; the page
///    is marked in flight, and concurrent misses of it cost one read.
///    Page *bytes* are NOT guarded by that mutex — callers must hold the
///    page's latch (LatchPage) while reading or writing the returned
///    Page.
///  - Everything that flushes, evicts, or rewires write-order
///    constraints (FlushPage*, FlushAll, Evict, Crash, DropPage,
///    AddWriteOrderConstraint, OrderWrites, HoldEviction,
///    ReduceToCapacity) must run
///    writer-exclusive: the engine's op gate guarantees no session op
///    is in flight. These paths recurse into each other and stay
///    lock-free, exactly as in the serial engine.
///  - Fetch never evicts while threads share the pool: concurrent mode
///    requires an unbounded pool (capacity 0), and a bounded pool's
///    multi-worker redo drain holds eviction (HoldEviction) until
///    ReduceToCapacity. Frame pointers then stay valid under the page
///    latch (unordered_map never invalidates references on insert).
///
/// No pin counts are needed because callers never hold page pointers
/// across calls that may evict.
class BufferPool {
 public:
  /// `capacity` = maximum cached pages; 0 means unbounded. `device`
  /// configures the backend the pool owns; the default is queue depth
  /// 0 with no simulated latency.
  BufferPool(Disk* disk, size_t capacity, const AsyncIoOptions& device = {});

  /// The write-ahead-log hook: invoked with a page's LSN before the page
  /// is written to disk; must make the log stable up to that LSN.
  using WalHook = std::function<Status(core::Lsn)>;
  void set_wal_hook(WalHook hook) { wal_hook_ = std::move(hook); }

  /// Returns a mutable pointer to the cached copy of `id`, reading it
  /// from disk on a miss (evicting if at capacity, unless eviction is
  /// held). The pointer is valid until the next Fetch/Flush/Evict/Crash
  /// call. A miss holds no pool lock across its read; a fetch of a page
  /// another thread is reading waits for that read and counts as a hit
  /// (or, if the read failed, misses and reads the page itself).
  Result<Page*> Fetch(PageId id);

  /// Fetch for a caller about to overwrite every byte of the page (a
  /// redo-all page image or whole-split target): a hit returns the
  /// cached frame, a miss installs a zeroed frame without reading the
  /// page, whose stable bytes are dead. Evicts like Fetch.
  Result<Page*> FetchBlind(PageId id);

  /// Marks a cached page dirty; `lsn` is the logged operation that
  /// updated it. Sets the page LSN. The page must be cached.
  Status MarkDirty(PageId id, core::Lsn lsn);

  // ---- Per-page latches (concurrent front end) ----

  /// Acquires `id`'s latch (blocking). Latches are allocated on first
  /// use and never reclaimed — they survive eviction and Crash, so a
  /// guard is always safe to hold across pool calls.
  PageLatchGuard LatchPage(PageId id);

  /// Latch-couples a split: acquires src's latch, then dst's. Safe
  /// without id-ordering because structure modifications serialize on
  /// the engine's exclusive op gate — at most one coupled acquisition
  /// is ever in flight, and single-page ops hold one latch each and
  /// never wait for a second.
  std::pair<PageLatchGuard, PageLatchGuard> LatchCouple(PageId src,
                                                        PageId dst);

  /// Writes a dirty page to disk as a one-page wave (FlushWave: WAL
  /// force, then the write with per-op retries). Fails with
  /// FailedPrecondition if a write-order constraint requires another
  /// page to reach disk first — use FlushPageCascading to satisfy
  /// constraints recursively. Flushing a clean or uncached page is a
  /// no-op.
  Status FlushPage(PageId id);

  /// Flushes `id` after recursively flushing every page a write-order
  /// constraint requires first.
  Status FlushPageCascading(PageId id);

  /// Flushes every dirty page, wave by wave (FlushBatch).
  Status FlushAll();

  /// Flushes the dirty subset of `ids` as write batches. Write-order
  /// constraints are enforced at batch-build time: each *wave*
  /// contains only pages with no unsatisfied constraint, a wave is
  /// submitted as one batch (after a single WAL force covering its
  /// highest page LSN), and the next wave builds only after the previous
  /// one fully completed. Dirty blocker pages outside `ids` are pulled
  /// into later waves; an unsatisfiable or cyclic constraint is
  /// diagnosed via the cascading path. Transient (kUnavailable) ops are
  /// retried per op (WriteThrough); any other error surfaces with the
  /// failed page still dirty.
  Status FlushBatch(const std::vector<PageId>& ids);

  /// Writes `writes` to disk through the device, bypassing the cache (no
  /// WAL force, no frame state). Ops that complete kUnavailable are
  /// re-batched alone — completed neighbours stay completed — up to
  /// kMaxFlushAttempts submissions in all, each retry counted into
  /// write_retries/backoff_ticks. `on_written` runs for every op that
  /// completed OK. Returns the first hard error, or Unavailable once
  /// the budget is exhausted; failed ops count as flush_failures. This
  /// is the engine's one retry routine: flush waves and the logical
  /// method's staged-page copies both submit through it.
  Status WriteThrough(std::vector<AsyncIoOp> writes,
                      const std::function<void(PageId)>& on_written = {});

  /// The pool's device; never null.
  AsyncIoBackend* async_io() const { return io_.get(); }

  /// Rebuilds the device when `device` differs from the current
  /// configuration (the new backend starts with fresh stats, so its
  /// metrics must be re-registered). Only while quiesced: no batch may
  /// be in flight.
  void ConfigureDevice(const AsyncIoOptions& device);

  /// Requires: the version of `before` tagged `before_lsn` (or newer)
  /// must be on disk before `after` may next be flushed. This is how
  /// the engine enforces an installation-graph edge between two pages
  /// (§6.4's "careful write order").
  void AddWriteOrderConstraint(PageId before, core::Lsn before_lsn,
                               PageId after);

  /// True if unsatisfied constraints already require `from` to reach
  /// disk (transitively) before `to`. Adding the edge to -> from would
  /// then create a cycle — the write graph's Add-an-edge precondition
  /// (§5.1) — which the caller must resolve by flushing first.
  bool HasPendingOrderPath(PageId from, PageId to) const;

  /// The one rule for a §6.4 write-order edge (a split's new page before
  /// its rewritten source, in normal operation and in every redo): adds
  /// "`before` (tagged `before_lsn`) reaches disk before `after`", or,
  /// when pending constraints already order `after` before `before`,
  /// flushes `before` now, cascading through that chain, so the edge is
  /// satisfied instead of cyclic (§5.1's acyclicity).
  Status OrderWrites(PageId before, core::Lsn before_lsn, PageId after);

  /// Discards every cached page and all constraints, and releases an
  /// eviction hold — the crash.
  void Crash();

  /// Holds eviction: until ReduceToCapacity or Crash, a fetch miss
  /// installs its frame without evicting, so the pool may grow past its
  /// capacity and every frame pointer stays valid — what lets several
  /// redo drain workers fetch from a bounded pool at once. Frames,
  /// dirty bits, rec_lsns and write-order constraints are untouched.
  void HoldEviction() { eviction_held_ = true; }

  /// Releases an eviction hold, then evicts (flushing dirty victims,
  /// honoring constraints) until the pool is back within capacity.
  /// No eviction for an unbounded pool.
  Status ReduceToCapacity();

  /// Discards one cached page without writing it (drops dirty data;
  /// used by tests and by the logical method's quiesce logic).
  void DropPage(PageId id);

  /// True if `id` is currently cached.
  bool IsCached(PageId id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.count(id) != 0;
  }

  /// Const view of a cached page (nullptr if uncached). Unlike Fetch,
  /// never reads disk, never evicts, and does not touch the LRU clock —
  /// safe for oracles that fingerprint the effective state.
  const Page* PeekCached(PageId id) const;

  /// True if `id` is cached and dirty.
  bool IsDirty(PageId id) const;

  /// The dirty page table (unordered).
  std::vector<DirtyPageEntry> DirtyPages() const;

  size_t num_cached() const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.size();
  }
  size_t capacity() const { return capacity_; }
  const BufferPoolStats& stats() const { return stats_; }
  void ResetStats() { stats_ = BufferPoolStats{}; }

  /// Registers the pool's counters plus cached/dirty gauges as a source
  /// named `prefix`.
  void RegisterMetrics(obs::MetricsRegistry& registry,
                       const std::string& prefix = "pool");

  /// Retry budget for transient (kUnavailable) write failures during a
  /// flush. Bursty fault models should keep their burst length below
  /// this so flushes survive; see WriteThrough.
  static constexpr int kMaxFlushAttempts = 4;

 private:
  struct Frame {
    Page page;
    bool dirty = false;
    core::Lsn rec_lsn = core::kNullLsn;
    uint64_t last_use = 0;
  };

  struct OrderConstraint {
    PageId before;
    core::Lsn before_lsn;
    PageId after;
  };

  /// The one body of Fetch and FetchBlind: `blind` installs a zeroed
  /// frame on a miss instead of reading the page. Releases mu_ across a
  /// miss read (see the class comment).
  Result<Page*> FetchFrame(PageId id, bool blind);

  /// Pages that must be flushed before `id` can be (unsatisfied
  /// constraints only). Consults only `id`'s bucket of the by-after
  /// index and lazily prunes entries a flush has satisfied, so a
  /// K-page cascade examines O(K) constraints, not O(K^2) (each
  /// examination counts into stats_.constraint_checks).
  std::vector<PageId> BlockingPages(PageId id);

  /// Evicts the least-recently-used *clean* page if any page is clean;
  /// otherwise the least-recently-used dirty page (flushing it first).
  /// Preferring clean victims keeps evictions cheap (no write, no WAL
  /// force) and keeps dirty pages coalescing updates until a checkpoint
  /// or order constraint forces them out.
  Status EvictOne();

  /// Writes one constraint-free wave of dirty pages: a single WAL force
  /// covering the wave, then one WriteThrough that marks each written
  /// frame clean (a failed page stays dirty).
  Status FlushWave(const std::vector<PageId>& wave);

  /// Get-or-create the latch for `id` (guarded by latch_table_mu_).
  std::mutex* LatchFor(PageId id);

  Disk* disk_;
  size_t capacity_;
  std::unique_ptr<AsyncIoBackend> io_;  ///< the device; never null
  std::unordered_map<PageId, Frame> frames_;
  /// Write-order constraints indexed by their `after` page, so the flush
  /// paths scan only the constraints that can block the page at hand.
  /// Satisfied entries are pruned lazily on scan; constraint_count_
  /// tracks the live (possibly not-yet-pruned) total for the gauge.
  std::unordered_map<PageId, std::vector<OrderConstraint>>
      constraints_by_after_;
  size_t constraint_count_ = 0;
  WalHook wal_hook_;
  uint64_t use_clock_ = 0;
  BufferPoolStats stats_;

  /// Guards frames_, use_clock_, reads_in_flight_, and the fetch-path
  /// counters on the session hot path (Fetch/MarkDirty/observers). Flush
  /// and eviction paths run writer-exclusive and do not take it (see
  /// class comment). Never held across a device read.
  mutable std::mutex mu_;
  /// Pages whose miss read is in flight with mu_ released; read_done_
  /// wakes the fetches waiting for one of them.
  std::vector<PageId> reads_in_flight_;
  std::condition_variable read_done_;

  /// Per-page latch table. Entries are created on demand and never
  /// erased, so PageLatchGuards stay valid across eviction and Crash.
  std::mutex latch_table_mu_;
  std::unordered_map<PageId, std::unique_ptr<std::mutex>> latches_;

  /// True between HoldEviction and ReduceToCapacity/Crash. Set and
  /// cleared only while quiesced; Fetch reads it under mu_.
  bool eviction_held_ = false;
};

}  // namespace redo::storage

#endif  // REDO_STORAGE_BUFFER_POOL_H_
