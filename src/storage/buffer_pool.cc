#include "storage/buffer_pool.h"

#include <algorithm>

namespace redo::storage {
namespace {

// One page read through the device: the pool's miss path.
Result<Page> ReadThrough(AsyncIoBackend& io, PageId id) {
  AsyncIoBatch batch = io.Submit({AsyncIoOp::Read(id)});
  REDO_RETURN_IF_ERROR(batch.Wait());
  return std::move(batch.op(0).payload);
}

}  // namespace

BufferPool::BufferPool(Disk* disk, size_t capacity,
                       const AsyncIoOptions& device)
    : disk_(disk),
      capacity_(capacity),
      io_(std::make_unique<AsyncIoBackend>(disk, device)) {}

void BufferPool::ConfigureDevice(const AsyncIoOptions& device) {
  if (io_->options() == device) return;
  io_ = std::make_unique<AsyncIoBackend>(disk_, device);
}

void BufferPoolStats::EmitMetrics(obs::MetricEmitter& emit) const {
  emit.Counter("fetches", fetches);
  emit.Counter("hits", hits);
  emit.Counter("misses", misses);
  emit.Counter("flushes", flushes);
  emit.Counter("evictions", evictions);
  emit.Counter("wal_force_attempts", wal_force_attempts);
  emit.Counter("wal_forces", wal_forces);
  emit.Counter("ordered_cascades", ordered_cascades);
  emit.Counter("clean_evictions", clean_evictions);
  emit.Counter("write_retries", write_retries);
  emit.Counter("backoff_ticks", backoff_ticks);
  emit.Counter("flush_failures", flush_failures);
  emit.Counter("constraint_checks", constraint_checks);
  emit.Counter("batch_flushes", batch_flushes);
  emit.Counter("blind_installs", blind_installs);
}

void BufferPool::RegisterMetrics(obs::MetricsRegistry& registry,
                                 const std::string& prefix) {
  registry.Register(
      prefix,
      [this](obs::MetricEmitter& emit) {
        stats_.EmitMetrics(emit);
        emit.Gauge("cached_pages", static_cast<int64_t>(frames_.size()));
        emit.Gauge("dirty_pages", static_cast<int64_t>(DirtyPages().size()));
        emit.Gauge("pending_order_constraints",
                   static_cast<int64_t>(constraint_count_));
      },
      [this]() { ResetStats(); });
}

Result<Page*> BufferPool::Fetch(PageId id) {
  return FetchFrame(id, /*blind=*/false);
}

Result<Page*> BufferPool::FetchBlind(PageId id) {
  return FetchFrame(id, /*blind=*/true);
}

Result<Page*> BufferPool::FetchFrame(PageId id, bool blind) {
  // mu_ guards the frame map, not the device: a miss releases it across
  // the read (the backend serializes every Disk call on its own mutex),
  // so a hit on any other page never queues behind this one's read. The
  // page is marked in flight meanwhile, and a concurrent fetch of it
  // waits for this read instead of issuing its own.
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.fetches;
  auto in_flight = [this, id] {
    return std::find(reads_in_flight_.begin(), reads_in_flight_.end(), id) !=
           reads_in_flight_.end();
  };
  for (;;) {
    auto it = frames_.find(id);
    if (it != frames_.end()) {
      ++stats_.hits;
      it->second.last_use = ++use_clock_;
      return &it->second.page;
    }
    if (!in_flight()) break;
    // A failed read leaves the page uncached: this fetch then misses
    // and reads the page itself.
    read_done_.wait(lock, [&in_flight] { return !in_flight(); });
  }
  Frame frame;
  if (blind) {
    ++stats_.blind_installs;
  } else {
    ++stats_.misses;
    // Read before evicting: if the read fails (bad sector, torn page) a
    // cached — possibly dirty — page must not have been sacrificed for
    // it. The transient overshoot of capacity by one local Page copy is
    // the price of not losing work to a failed I/O.
    reads_in_flight_.push_back(id);
    lock.unlock();
    Result<Page> from_disk = ReadThrough(*io_, id);
    lock.lock();
    reads_in_flight_.erase(
        std::find(reads_in_flight_.begin(), reads_in_flight_.end(), id));
    // Every waiter re-checks its own page.
    read_done_.notify_all();
    if (!from_disk.ok()) return from_disk.status();
    frame.page = std::move(from_disk).value();
  }
  // Eviction stays under mu_: it runs only with a bounded pool and no
  // eviction hold, which is serial-only (concurrent mode runs
  // unbounded, and a multi-worker redo drain holds eviction).
  if (capacity_ != 0 && !eviction_held_ && frames_.size() >= capacity_) {
    REDO_RETURN_IF_ERROR(EvictOne());
  }
  frame.last_use = ++use_clock_;
  auto [inserted, ok] = frames_.emplace(id, std::move(frame));
  REDO_CHECK(ok);
  return &inserted->second.page;
}

Status BufferPool::MarkDirty(PageId id, core::Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  if (it == frames_.end()) {
    return Status::FailedPrecondition("buffer pool: page not cached");
  }
  Frame& frame = it->second;
  if (!frame.dirty) {
    frame.dirty = true;
    frame.rec_lsn = lsn;
  }
  frame.page.set_lsn(lsn);
  frame.last_use = ++use_clock_;
  return Status::Ok();
}

std::mutex* BufferPool::LatchFor(PageId id) {
  std::lock_guard<std::mutex> lock(latch_table_mu_);
  auto it = latches_.find(id);
  if (it == latches_.end()) {
    it = latches_.emplace(id, std::make_unique<std::mutex>()).first;
  }
  return it->second.get();
}

PageLatchGuard BufferPool::LatchPage(PageId id) {
  return PageLatchGuard(LatchFor(id));
}

std::pair<PageLatchGuard, PageLatchGuard> BufferPool::LatchCouple(PageId src,
                                                                  PageId dst) {
  REDO_CHECK(src != dst) << "latch couple of a page with itself";
  // Always acquire in page-id order: couples (a,b) and (b,a) taken by
  // two sessions must not deadlock. The returned pair stays (src, dst).
  if (src < dst) {
    PageLatchGuard first(LatchFor(src));
    PageLatchGuard second(LatchFor(dst));
    return {std::move(first), std::move(second)};
  }
  PageLatchGuard second(LatchFor(dst));
  PageLatchGuard first(LatchFor(src));
  return {std::move(first), std::move(second)};
}

std::vector<PageId> BufferPool::BlockingPages(PageId id) {
  std::vector<PageId> blocking;
  const auto bucket_it = constraints_by_after_.find(id);
  if (bucket_it == constraints_by_after_.end()) return blocking;
  std::vector<OrderConstraint>& bucket = bucket_it->second;
  size_t kept = 0;
  for (size_t i = 0; i < bucket.size(); ++i) {
    ++stats_.constraint_checks;
    const OrderConstraint c = bucket[i];
    if (disk_->PeekPage(c.before).lsn() >= c.before_lsn) {
      continue;  // satisfied: prune (a disk LSN never goes backwards
                 // while constraints live — Crash clears them)
    }
    if (std::find(blocking.begin(), blocking.end(), c.before) ==
        blocking.end()) {
      blocking.push_back(c.before);
    }
    bucket[kept++] = c;
  }
  constraint_count_ -= bucket.size() - kept;
  bucket.resize(kept);
  if (bucket.empty()) constraints_by_after_.erase(bucket_it);
  return blocking;
}

Status BufferPool::FlushPage(PageId id) {
  auto it = frames_.find(id);
  if (it == frames_.end() || !it->second.dirty) return Status::Ok();
  const std::vector<PageId> blocking = BlockingPages(id);
  if (!blocking.empty()) {
    return Status::FailedPrecondition(
        "buffer pool: write-order constraint requires page " +
        std::to_string(blocking.front()) + " to reach disk before page " +
        std::to_string(id));
  }
  return FlushWave({id});
}

Status BufferPool::FlushPageCascading(PageId id) {
  // Depth-first over the unsatisfied-constraint graph. `on_path` holds
  // the chain of recursion ancestors only: a blocking page already on it
  // is a genuine constraint cycle (which the write graph's Add-an-edge
  // rule forbids — the engine resolves would-be cycles at creation time,
  // so hitting one here is a caller bug). A blocking page that is not
  // dirty can never satisfy its constraint (the required version was
  // lost).
  std::vector<PageId> on_path;
  std::function<Status(PageId)> flush_rec = [&](PageId page) -> Status {
    if (std::find(on_path.begin(), on_path.end(), page) != on_path.end()) {
      return Status::FailedPrecondition(
          "buffer pool: cyclic write-order constraints");
    }
    on_path.push_back(page);
    for (;;) {
      const std::vector<PageId> blocking = BlockingPages(page);
      if (blocking.empty()) break;
      const PageId b = blocking.front();
      // Unlocked dirty check: flush paths run writer-exclusive and must
      // not take mu_ (Fetch's serial eviction path arrives here already
      // holding it).
      const auto bit = frames_.find(b);
      const bool b_dirty = bit != frames_.end() && bit->second.dirty;
      if (!b_dirty &&
          std::find(on_path.begin(), on_path.end(), b) == on_path.end()) {
        on_path.pop_back();
        return Status::FailedPrecondition(
            "buffer pool: write-order constraint unsatisfiable (required "
            "version of page " +
            std::to_string(b) + " is not available)");
      }
      const Status st = flush_rec(b);
      if (!st.ok()) {
        on_path.pop_back();
        return st;
      }
      ++stats_.ordered_cascades;
    }
    on_path.pop_back();
    return FlushPage(page);
  };
  return flush_rec(id);
}

Status BufferPool::FlushAll() {
  // Collect ids first: flushing mutates constraint state, not frames_.
  std::vector<PageId> dirty;
  for (const auto& [id, frame] : frames_) {
    if (frame.dirty) dirty.push_back(id);
  }
  return FlushBatch(dirty);
}

Status BufferPool::FlushBatch(const std::vector<PageId>& ids) {
  // The dirty subset, sorted and deduped (deterministic wave order).
  std::vector<PageId> remaining;
  for (PageId id : ids) {
    const auto it = frames_.find(id);
    if (it != frames_.end() && it->second.dirty) remaining.push_back(id);
  }
  std::sort(remaining.begin(), remaining.end());
  remaining.erase(std::unique(remaining.begin(), remaining.end()),
                  remaining.end());
  // Wave loop: each iteration flushes every page with no unsatisfied
  // constraint as one batch; pages blocked by a constraint — and
  // their dirty blockers — wait for a later wave. A wave is durably
  // complete (Wait + retries) before the next is built, which is what
  // makes batch-build-time constraint enforcement sound: ops within a
  // batch may complete in any order, waves may not.
  while (!remaining.empty()) {
    // A blocker deferred alongside its dependant may have ridden along
    // in the wave that just completed: drop pages no longer dirty so
    // they are not redundantly rewritten.
    remaining.erase(
        std::remove_if(remaining.begin(), remaining.end(),
                       [&](PageId id) {
                         const auto it = frames_.find(id);
                         return it == frames_.end() || !it->second.dirty;
                       }),
        remaining.end());
    if (remaining.empty()) break;
    std::vector<PageId> wave;
    std::vector<PageId> deferred;
    for (PageId id : remaining) {
      const std::vector<PageId> blocking = BlockingPages(id);
      if (blocking.empty()) {
        wave.push_back(id);
        continue;
      }
      ++stats_.ordered_cascades;
      deferred.push_back(id);
      for (PageId b : blocking) {
        const auto bit = frames_.find(b);
        if (bit == frames_.end() || !bit->second.dirty) {
          // No later wave can satisfy this constraint: the required
          // version of the blocker is not available. Delegate to the
          // cascading path for the diagnosed error.
          return FlushPageCascading(id);
        }
        deferred.push_back(b);
      }
    }
    if (wave.empty()) {
      // Every page is blocked — a constraint cycle. The cascading path
      // produces the diagnosed error.
      return FlushPageCascading(remaining.front());
    }
    REDO_RETURN_IF_ERROR(FlushWave(wave));
    std::sort(deferred.begin(), deferred.end());
    deferred.erase(std::unique(deferred.begin(), deferred.end()),
                   deferred.end());
    remaining = std::move(deferred);
  }
  return Status::Ok();
}

Status BufferPool::FlushWave(const std::vector<PageId>& wave) {
  if (wal_hook_) {
    // One force covers the wave: the log stable up to the highest page
    // LSN satisfies the WAL rule for every page in it. A failed force
    // counts as an attempt, not a force: wal_forces reports only hooks
    // that actually made the log stable.
    core::Lsn max_lsn = 0;
    for (PageId id : wave) {
      const auto it = frames_.find(id);
      REDO_CHECK(it != frames_.end());
      max_lsn = std::max(max_lsn, it->second.page.lsn());
    }
    ++stats_.wal_force_attempts;
    REDO_RETURN_IF_ERROR(wal_hook_(max_lsn));
    ++stats_.wal_forces;
  }
  // Retries do not repeat the force above: the log is already stable.
  std::vector<AsyncIoOp> writes;
  writes.reserve(wave.size());
  for (PageId id : wave) {
    writes.push_back(AsyncIoOp::Write(id, frames_.find(id)->second.page));
  }
  // Constraints a write satisfied are pruned lazily the next time their
  // `after` page's bucket is scanned (BlockingPages).
  return WriteThrough(std::move(writes), [this](PageId id) {
    Frame& frame = frames_.find(id)->second;
    frame.dirty = false;
    frame.rec_lsn = core::kNullLsn;
    ++stats_.flushes;
  });
}

Status BufferPool::WriteThrough(std::vector<AsyncIoOp> writes,
                                const std::function<void(PageId)>& on_written) {
  for (int attempt = 0; attempt < kMaxFlushAttempts && !writes.empty();
       ++attempt) {
    if (attempt > 0) {
      stats_.write_retries += writes.size();
      stats_.backoff_ticks += writes.size() * (uint64_t{1} << (attempt - 1));
    }
    ++stats_.batch_flushes;
    AsyncIoBatch batch = io_->Submit(std::move(writes));
    batch.Wait();  // per-op statuses inspected below
    std::vector<AsyncIoOp> transient;
    Status hard_error = Status::Ok();
    for (size_t i = 0; i < batch.size(); ++i) {
      AsyncIoOp& op = batch.op(i);
      if (op.status.ok()) {
        if (on_written) on_written(op.page);
      } else if (op.status.code() == StatusCode::kUnavailable) {
        // Transient: only this op is re-batched; completed neighbors
        // stay completed.
        transient.push_back(std::move(op));
      } else {
        ++stats_.flush_failures;
        if (hard_error.ok()) hard_error = op.status;
      }
    }
    if (!hard_error.ok()) return hard_error;
    writes = std::move(transient);
  }
  if (!writes.empty()) {
    stats_.flush_failures += writes.size();
    return Status::Unavailable(
        "buffer pool: write exhausted its retry budget for page " +
        std::to_string(writes.front().page));
  }
  return Status::Ok();
}

void BufferPool::AddWriteOrderConstraint(PageId before, core::Lsn before_lsn,
                                         PageId after) {
  constraints_by_after_[after].push_back(
      OrderConstraint{before, before_lsn, after});
  ++constraint_count_;
}

Status BufferPool::OrderWrites(PageId before, core::Lsn before_lsn,
                               PageId after) {
  if (HasPendingOrderPath(after, before)) return FlushPageCascading(before);
  AddWriteOrderConstraint(before, before_lsn, after);
  return Status::Ok();
}

bool BufferPool::HasPendingOrderPath(PageId from, PageId to) const {
  std::vector<PageId> stack = {from};
  std::vector<PageId> visited = {from};
  while (!stack.empty()) {
    const PageId current = stack.back();
    stack.pop_back();
    // Edges are indexed by `after`; this rare path (constraint-creation
    // cycle check) walks every bucket filtering on `before`.
    for (const auto& [after, bucket] : constraints_by_after_) {
      for (const OrderConstraint& c : bucket) {
        if (c.before != current) continue;
        if (disk_->PeekPage(c.before).lsn() >= c.before_lsn) continue;
        if (c.after == to) return true;
        if (std::find(visited.begin(), visited.end(), c.after) ==
            visited.end()) {
          visited.push_back(c.after);
          stack.push_back(c.after);
        }
      }
    }
  }
  return false;
}

void BufferPool::Crash() {
  frames_.clear();
  constraints_by_after_.clear();
  constraint_count_ = 0;
  eviction_held_ = false;
}

void BufferPool::DropPage(PageId id) { frames_.erase(id); }

const Page* BufferPool::PeekCached(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = frames_.find(id);
  return it != frames_.end() ? &it->second.page : nullptr;
}

bool BufferPool::IsDirty(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = frames_.find(id);
  return it != frames_.end() && it->second.dirty;
}

std::vector<DirtyPageEntry> BufferPool::DirtyPages() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<DirtyPageEntry> out;
  for (const auto& [id, frame] : frames_) {
    if (frame.dirty) {
      out.push_back(DirtyPageEntry{id, frame.rec_lsn, frame.page.lsn()});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DirtyPageEntry& a, const DirtyPageEntry& b) {
              return a.page < b.page;
            });
  return out;
}

Status BufferPool::EvictOne() {
  // Clean-first LRU: the least-recently-used clean page, falling back to
  // the least-recently-used dirty page only when every frame is dirty.
  // The most-recently-used frame is never the victim: callers fetch up
  // to two pages per operation and hold the first pointer while fetching
  // the second, and plain LRU kept that safe implicitly — clean-first
  // must not regress it by evicting a just-fetched clean page.
  uint64_t newest = 0;
  for (const auto& [id, frame] : frames_) {
    newest = std::max(newest, frame.last_use);
  }
  // std::optional, not a sentinel page id: page 0 is a perfectly
  // ordinary cacheable page, so "no victim yet" must be unrepresentable
  // as a victim.
  std::optional<PageId> clean_victim, dirty_victim;
  uint64_t clean_best = 0, dirty_best = 0;
  for (const auto& [id, frame] : frames_) {
    if (frame.last_use == newest && frames_.size() > 1) continue;
    if (frame.dirty) {
      if (!dirty_victim.has_value() || frame.last_use < dirty_best) {
        dirty_best = frame.last_use;
        dirty_victim = id;
      }
    } else if (!clean_victim.has_value() || frame.last_use < clean_best) {
      clean_best = frame.last_use;
      clean_victim = id;
    }
  }
  if (!clean_victim.has_value() && !dirty_victim.has_value()) {
    return Status::FailedPrecondition("buffer pool: nothing to evict");
  }
  const PageId victim =
      clean_victim.has_value() ? *clean_victim : *dirty_victim;
  if (!clean_victim.has_value()) {
    REDO_RETURN_IF_ERROR(FlushPageCascading(victim));
  } else {
    ++stats_.clean_evictions;
  }
  ++stats_.evictions;
  frames_.erase(victim);
  return Status::Ok();
}

Status BufferPool::ReduceToCapacity() {
  eviction_held_ = false;
  if (capacity_ == 0) return Status::Ok();
  while (frames_.size() > capacity_) {
    REDO_RETURN_IF_ERROR(EvictOne());
  }
  return Status::Ok();
}

}  // namespace redo::storage
