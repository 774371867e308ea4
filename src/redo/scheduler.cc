#include "redo/scheduler.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstring>
#include <ctime>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "obs/flight_recorder.h"
#include "storage/async_io.h"
#include "util/hash.h"
#include "util/logging.h"

namespace redo::par {
namespace {

using storage::BufferPool;
using storage::Page;
using storage::PageId;

using Mode = ParallelRedoOptions::Mode;

// Bounded SPSC page queue for cross-worker split hand-off. Pushes and
// pops are strictly paired per split task and both sides visit their
// items in global LSN order, so the queue contents stay aligned with
// the task sequence. The shared abort flag breaks every wait when any
// worker fails.
class HandoffQueue {
 public:
  // Bounds how far a producer runs ahead of its consumer; any positive
  // capacity preserves the deadlock-freedom argument (scheduler.h).
  static constexpr size_t kCapacity = 64;

  bool Push(Page page, const std::atomic<bool>& abort) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return items_.size() < kCapacity ||
             abort.load(std::memory_order_relaxed);
    });
    if (abort.load(std::memory_order_relaxed)) return false;
    items_.push_back(std::move(page));
    cv_.notify_all();
    return true;
  }

  // Drains an item pushed before an abort too: the producer's snapshot
  // is still the right bytes for this LSN position.
  bool Pop(Page* out, const std::atomic<bool>& abort) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return !items_.empty() || abort.load(std::memory_order_relaxed);
    });
    if (items_.empty()) return false;
    *out = std::move(items_.front());
    items_.pop_front();
    cv_.notify_all();
    return true;
  }

  void WakeForAbort() {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Page> items_;
};

enum class Role : uint8_t {
  kLead,    // applies the task, emits its verdict and counters
  kAssist,  // owns the split's other page: produces or installs it
};

struct WorkItem {
  size_t task;
  Role role;
};

struct WorkerResult {
  Status status = Status::Ok();
  core::Lsn failed_lsn = core::kNullLsn;
  size_t scanned = 0;
  size_t replayed = 0;
  size_t skipped_without_fetch = 0;
  size_t handoffs = 0;
  size_t images_superseded = 0;
  size_t prefetched = 0;  ///< pages installed by async read batches
  uint64_t busy_us = 0;   ///< this worker's thread-CPU time in the loop
  std::vector<TaskVerdict> verdicts;
  std::vector<size_t> replayed_splits;
};

// Thread-CPU time of the calling thread, in microseconds. Unlike the
// wall clock this excludes time the thread spent descheduled (blocked
// on a hand-off pop, or preempted on an oversubscribed host), so it
// measures redo work, not host parallelism.
uint64_t ThreadCpuUs() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000ull +
         static_cast<uint64_t>(ts.tv_nsec) / 1000ull;
}

// Everything one worker thread needs; queues are indexed
// [producer * workers + consumer].
struct WorkerEnv {
  const RedoPlan* plan;
  const ParallelRedoOptions* options;
  std::function<size_t(PageId)> owner;
  size_t workers;
  std::vector<std::unique_ptr<HandoffQueue>>* queues;
  std::atomic<bool>* abort;
  /// The pool's device. Above queue depth 0, workers prefetch their
  /// plan's reads in batches before applying.
  storage::AsyncIoBackend* async_io;
};

void WakeAllQueues(const WorkerEnv& env) {
  for (const std::unique_ptr<HandoffQueue>& queue : *env.queues) {
    queue->WakeForAbort();
  }
}

// Read-prefetch: before applying, a worker walks its item list and
// batches the disk reads its tasks will *definitely* issue through the
// async backend, installing the pages into its partition so the apply
// loop's Fetches become hits. Only definite reads are batched — pages
// a blind first touch (BlindFirstTouch) or a page-LSN test might elide
// stay on the serial path, so the set of pages read from disk is
// identical to the unprefetched schedule (a sticky read fault fires
// either way; a failed prefetch read is simply not installed and the
// worker's own Fetch re-surfaces the error at the exact task the
// serial path reports).
void PrefetchPlanPages(const WorkerEnv& env, size_t me,
                       const std::vector<WorkItem>& items,
                       BufferPool::RedoPartition& part,
                       WorkerResult& result) {
  storage::AsyncIoBackend* backend = env.async_io;
  if (backend->synchronous()) return;
  const RedoPlan& plan = *env.plan;
  const ParallelRedoOptions& options = *env.options;
  const bool redo_all = options.mode == Mode::kRedoAll;
  auto dpt_skips = [&](PageId page, core::Lsn lsn) {
    if (options.dpt == nullptr) return false;
    const auto it = options.dpt->find(page);
    return it == options.dpt->end() || lsn < it->second;
  };

  std::vector<PageId> want;
  std::set<PageId> seen;
  auto add = [&](PageId page) {
    if (part.IsCached(page)) return;
    if (seen.insert(page).second) want.push_back(page);
  };
  for (const WorkItem& item : items) {
    const RedoTask& task = plan.tasks[item.task];
    switch (task.kind) {
      case RedoTaskKind::kSinglePage:
        if (!dpt_skips(task.op.page, task.lsn)) add(task.op.page);
        break;
      case RedoTaskKind::kPageImage:
        if (dpt_skips(task.image_page, task.lsn)) break;
        if (BlindFirstTouch(task, task.image_page, redo_all)) break;
        add(task.image_page);
        break;
      case RedoTaskKind::kSplitDst:
        if (item.role == Role::kAssist) {
          add(task.split.src);  // snapshot for the hand-off: always read
          break;
        }
        if (dpt_skips(task.split.dst, task.lsn)) break;
        add(task.split.dst);
        // The local src read happens only after dst passes the LSN
        // test, so it is definite only in redo-all mode.
        if (redo_all && env.owner(task.split.src) == me) add(task.split.src);
        break;
      case RedoTaskKind::kWholeSplit: {
        const bool reads_dst = engine::SplitReadsDst(task.split.transform);
        if (item.role == Role::kAssist) {
          if (reads_dst) add(task.split.dst);
          break;
        }
        add(task.split.src);
        if (env.owner(task.split.dst) == me &&
            !BlindFirstTouch(task, task.split.dst, redo_all)) {
          add(task.split.dst);
        }
        break;
      }
      case RedoTaskKind::kClrRestore:
        for (const engine::UndoAction& action : task.clr_actions) {
          if (env.owner(action.page) != me) continue;
          if (!dpt_skips(action.page, task.lsn)) add(action.page);
        }
        break;
    }
  }

  // Chunked submission bounds the in-flight footprint while keeping
  // the modeled device queue full.
  const size_t chunk = std::max<size_t>(8, backend->queue_depth() * 2);
  for (size_t begin = 0; begin < want.size(); begin += chunk) {
    const size_t end = std::min(want.size(), begin + chunk);
    std::vector<storage::AsyncIoOp> ops;
    ops.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      ops.push_back(storage::AsyncIoOp::Read(want[i]));
    }
    storage::AsyncIoBatch batch = backend->Submit(std::move(ops));
    batch.Wait();
    for (size_t i = 0; i < batch.size(); ++i) {
      storage::AsyncIoOp& op = batch.op(i);
      if (!op.status.ok()) continue;  // the apply-loop Fetch re-reads
      if (part.InstallPrefetched(op.page, std::move(op.payload))) {
        ++result.prefetched;
      }
    }
  }
}

// The worker loop. `me` owns `part`; every page it touches through the
// partition hashes to it, so no synchronization guards page bytes —
// only the hand-off queues and the (serialized) disk cross threads.
void RunWorker(const WorkerEnv& env, size_t me,
               const std::vector<WorkItem>& items,
               BufferPool::RedoPartition& part, WorkerResult& result) {
  const RedoPlan& plan = *env.plan;
  const ParallelRedoOptions& options = *env.options;
  const bool redo_all = options.mode == Mode::kRedoAll;
  std::atomic<bool>& abort = *env.abort;

  auto queue_to = [&](size_t consumer) -> HandoffQueue& {
    return *(*env.queues)[me * env.workers + consumer];
  };
  auto queue_from = [&](size_t producer) -> HandoffQueue& {
    return *(*env.queues)[producer * env.workers + me];
  };
  auto fail = [&](const Status& status, core::Lsn lsn) {
    result.status = status;
    result.failed_lsn = lsn;
    abort.store(true, std::memory_order_relaxed);
    WakeAllQueues(env);
  };
  // The analysis-DPT skip (§4.3): decided without any page I/O.
  auto dpt_skips = [&](PageId page, core::Lsn lsn) {
    if (options.dpt == nullptr) return false;
    const auto it = options.dpt->find(page);
    return it == options.dpt->end() || lsn < it->second;
  };
  auto verdict = [&](core::Lsn lsn, PageId page, obs::RedoVerdict v,
                     const char* reason) {
    result.verdicts.push_back(TaskVerdict{lsn, page, v, reason});
  };
  // A page the task overwrites whole installs without a read (plan.h).
  auto fetch = [&](const RedoTask& task, PageId page) -> Result<Page*> {
    if (BlindFirstTouch(task, page, redo_all)) return part.FetchBlind(page);
    return part.Fetch(page);
  };

  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t cpu_start = ThreadCpuUs();
  PrefetchPlanPages(env, me, items, part, result);
  for (const WorkItem& item : items) {
    if (abort.load(std::memory_order_relaxed) && result.status.ok()) break;
    if (!result.status.ok()) break;
    const RedoTask& task = plan.tasks[item.task];
    const core::Lsn lsn = task.lsn;
    obs::FlightScope task_span(obs::FlightEventType::kRedoTask, me, lsn,
                               item.role == Role::kAssist ? 1 : 0);

    switch (task.kind) {
      case RedoTaskKind::kSinglePage: {
        ++result.scanned;
        if (dpt_skips(task.op.page, lsn)) {
          ++result.skipped_without_fetch;
          verdict(lsn, task.op.page, obs::RedoVerdict::kNotExposed,
                  "analysis-dpt");
          break;
        }
        Result<Page*> page = part.Fetch(task.op.page);
        if (!page.ok()) {
          fail(page.status(), lsn);
          break;
        }
        if (!redo_all && page.value()->lsn() >= lsn) {  // installed
          verdict(lsn, task.op.page, obs::RedoVerdict::kSkippedInstalled,
                  "page-lsn-current");
          break;
        }
        const Status applied = engine::ApplySinglePageOp(task.op, page.value());
        if (!applied.ok()) {
          fail(applied, lsn);
          break;
        }
        part.MarkDirty(task.op.page, lsn);
        ++result.replayed;
        verdict(lsn, task.op.page, obs::RedoVerdict::kApplied,
                redo_all ? "redo-all" : "page-lsn-older");
        break;
      }

      case RedoTaskKind::kPageImage: {
        ++result.scanned;
        if (dpt_skips(task.image_page, lsn)) {
          ++result.skipped_without_fetch;
          verdict(lsn, task.image_page, obs::RedoVerdict::kNotExposed,
                  "analysis-dpt");
          break;
        }
        if (task.superseded) {
          // A later image of the page overwrites this one before anything
          // reads the page (plan.h): replayed by installing nothing.
          ++result.replayed;
          ++result.images_superseded;
          verdict(lsn, task.image_page, obs::RedoVerdict::kApplied, "redo-all");
          break;
        }
        Result<Page*> fetched = fetch(task, task.image_page);
        if (!fetched.ok()) {
          fail(fetched.status(), lsn);
          break;
        }
        Page* page = fetched.value();
        if (!redo_all && page->lsn() >= lsn) {  // installed
          verdict(lsn, task.image_page, obs::RedoVerdict::kSkippedInstalled,
                  "page-lsn-current");
          break;
        }
        // One memcpy from the still-encoded payload straight into the
        // frame — no intermediate Page materializes.
        std::memcpy(page->bytes().data(),
                    task.image_payload.data() +
                        (task.image_payload.size() - Page::kSize),
                    Page::kSize);
        part.MarkDirty(task.image_page, lsn);
        ++result.replayed;
        verdict(lsn, task.image_page, obs::RedoVerdict::kApplied,
                redo_all ? "redo-all" : "page-lsn-older");
        break;
      }

      case RedoTaskKind::kSplitDst: {
        const size_t src_owner = env.owner(task.split.src);
        if (item.role == Role::kAssist) {
          // I own src: snapshot it and ship it to dst's owner. Push
          // unconditionally — the lead pops unconditionally too, even
          // when its redo test skips, keeping the queue aligned.
          Result<Page*> src = part.Fetch(task.split.src);
          if (!src.ok()) {
            fail(src.status(), lsn);
            break;
          }
          ++result.handoffs;
          recorder.Instant(obs::FlightEventType::kRedoHandoff, me,
                           env.owner(task.split.dst), lsn);
          queue_to(env.owner(task.split.dst)).Push(*src.value(), abort);
          break;
        }
        // Lead: I own dst.
        ++result.scanned;
        const bool cross = src_owner != me;
        Page src_copy;
        if (cross && !queue_from(src_owner).Pop(&src_copy, abort)) break;
        if (dpt_skips(task.split.dst, lsn)) {
          ++result.skipped_without_fetch;
          verdict(lsn, task.split.dst, obs::RedoVerdict::kNotExposed,
                  "analysis-dpt");
          break;
        }
        Result<Page*> dst = part.Fetch(task.split.dst);
        if (!dst.ok()) {
          fail(dst.status(), lsn);
          break;
        }
        if (!redo_all && dst.value()->lsn() >= lsn) {  // installed
          verdict(lsn, task.split.dst, obs::RedoVerdict::kSkippedInstalled,
                  "page-lsn-current");
          break;
        }
        if (!cross) {
          Result<Page*> src = part.Fetch(task.split.src);
          if (!src.ok()) {
            fail(src.status(), lsn);
            break;
          }
          src_copy = *src.value();
        }
        engine::ApplySplitToDst(task.split, src_copy, dst.value());
        part.MarkDirty(task.split.dst, lsn);
        ++result.replayed;
        result.replayed_splits.push_back(item.task);
        verdict(lsn, task.split.dst, obs::RedoVerdict::kApplied,
                redo_all ? "redo-all" : "page-lsn-older");
        break;
      }

      case RedoTaskKind::kWholeSplit: {
        // Logical whole split, redo-all: dst := P(src), then the src
        // rewrite Q — one atomic task led by src's owner (it holds both
        // the input and the rewrite target).
        const size_t dst_owner = env.owner(task.split.dst);
        const bool reads_dst = engine::SplitReadsDst(task.split.transform);
        if (item.role == Role::kAssist) {
          // I own dst. Read-modify-write transforms ship dst's prior
          // contents to the lead first; either way I install the
          // computed page the lead ships back.
          if (reads_dst) {
            Result<Page*> dst = part.Fetch(task.split.dst);
            if (!dst.ok()) {
              fail(dst.status(), lsn);
              break;
            }
            ++result.handoffs;
            recorder.Instant(obs::FlightEventType::kRedoHandoff, me,
                             env.owner(task.split.src), lsn);
            queue_to(env.owner(task.split.src)).Push(*dst.value(), abort);
          }
          Page computed;
          if (!queue_from(env.owner(task.split.src)).Pop(&computed, abort)) {
            break;
          }
          Result<Page*> dst = fetch(task, task.split.dst);
          if (!dst.ok()) {
            fail(dst.status(), lsn);
            break;
          }
          *dst.value() = computed;
          part.MarkDirty(task.split.dst, lsn);
          break;
        }
        // Lead: I own src.
        ++result.scanned;
        const bool cross = dst_owner != me;
        Result<Page*> src = part.Fetch(task.split.src);
        if (!src.ok()) {
          fail(src.status(), lsn);
          break;
        }
        const Page src_copy = *src.value();
        if (cross) {
          Page computed;
          if (reads_dst && !queue_from(dst_owner).Pop(&computed, abort)) {
            break;
          }
          engine::ApplySplitToDst(task.split, src_copy, &computed);
          ++result.handoffs;
          recorder.Instant(obs::FlightEventType::kRedoHandoff, me, dst_owner,
                           lsn);
          if (!queue_to(dst_owner).Push(std::move(computed), abort)) break;
        } else {
          Result<Page*> dst = fetch(task, task.split.dst);
          if (!dst.ok()) {
            fail(dst.status(), lsn);
            break;
          }
          engine::ApplySplitToDst(task.split, src_copy, dst.value());
          part.MarkDirty(task.split.dst, lsn);
        }
        // The rewrite half: src's frame pointer stays valid (partitions
        // never evict).
        const engine::SinglePageOp rewrite = engine::MakeRewriteForSplit(task.split);
        const Status rewritten = engine::ApplySinglePageOp(rewrite, src.value());
        if (!rewritten.ok()) {
          fail(rewritten, lsn);
          break;
        }
        part.MarkDirty(task.split.src, lsn);
        ++result.replayed;
        result.replayed_splits.push_back(item.task);
        verdict(lsn, task.split.dst, obs::RedoVerdict::kApplied, "redo-all");
        break;
      }

      case RedoTaskKind::kClrRestore: {
        // A CLR's restores are absolute and per-page independent: no
        // value flows between its pages, so each owner applies its own
        // actions with no hand-off. The lead only centralizes the
        // scanned count.
        if (item.role == Role::kLead) ++result.scanned;
        bool applied_any = false;
        for (const engine::UndoAction& action : task.clr_actions) {
          if (env.owner(action.page) != me) continue;
          if (dpt_skips(action.page, lsn)) {
            ++result.skipped_without_fetch;
            verdict(lsn, action.page, obs::RedoVerdict::kNotExposed,
                    "analysis-dpt");
            continue;
          }
          Result<Page*> page = part.Fetch(action.page);
          if (!page.ok()) {
            fail(page.status(), lsn);
            break;
          }
          if (!redo_all && page.value()->lsn() >= lsn) {  // installed
            verdict(lsn, action.page, obs::RedoVerdict::kSkippedInstalled,
                    "page-lsn-current");
            continue;
          }
          switch (action.kind) {
            case engine::UndoAction::Kind::kSlotRestore:
              if (action.slot >= Page::NumSlots()) {
                fail(Status::Corruption("undo action: slot out of range"),
                     lsn);
                break;
              }
              page.value()->WriteSlot(action.slot, action.old_value);
              break;
            case engine::UndoAction::Kind::kPageRestore:
              std::memcpy(page.value()->payload().data(),
                          action.image.payload().data(), Page::kPayloadSize);
              break;
          }
          if (!result.status.ok()) break;
          part.MarkDirty(action.page, lsn);
          applied_any = true;
          verdict(lsn, action.page, obs::RedoVerdict::kApplied,
                  redo_all ? "redo-all" : "page-lsn-older");
        }
        if (item.role == Role::kLead && applied_any) ++result.replayed;
        break;
      }
    }
  }
  result.busy_us = ThreadCpuUs() - cpu_start;
}

}  // namespace

size_t OwnerOfPage(PageId page, size_t workers) {
  return static_cast<size_t>(Hasher64().UpdateValue(page).Digest() % workers);
}

ParallelRedoReport RunParallelRedo(BufferPool* pool, const RedoPlan& plan,
                                   const ParallelRedoOptions& options,
                                   ParallelRedoMetrics* metrics) {
  ParallelRedoReport report;
  const size_t workers = std::max<size_t>(1, options.workers);
  report.workers_used = workers;

  auto owner = [&options, workers](PageId page) {
    if (options.owner_override) return options.owner_override(page) % workers;
    return OwnerOfPage(page, workers);
  };

  // Whole splits mutate src and dst as one atomic task with no LSN
  // test; the scheduler only supports them in redo-all mode (which is
  // the only way the logical method logs them).
  for (const RedoTask& task : plan.tasks) {
    if (task.kind == RedoTaskKind::kWholeSplit) {
      REDO_CHECK(options.mode == Mode::kRedoAll);
      break;
    }
  }

  // Per-worker item lists, in plan (= LSN) order.
  std::vector<std::vector<WorkItem>> items(workers);
  for (size_t i = 0; i < plan.tasks.size(); ++i) {
    const RedoTask& task = plan.tasks[i];
    switch (task.kind) {
      case RedoTaskKind::kSinglePage:
        items[owner(task.op.page)].push_back({i, Role::kLead});
        break;
      case RedoTaskKind::kPageImage:
        items[owner(task.image_page)].push_back({i, Role::kLead});
        break;
      case RedoTaskKind::kSplitDst: {
        const size_t lead = owner(task.split.dst);
        const size_t assist = owner(task.split.src);
        items[lead].push_back({i, Role::kLead});
        if (assist != lead) {
          items[assist].push_back({i, Role::kAssist});
          ++report.cross_edges;
        }
        break;
      }
      case RedoTaskKind::kWholeSplit: {
        const size_t lead = owner(task.split.src);
        const size_t assist = owner(task.split.dst);
        items[lead].push_back({i, Role::kLead});
        if (assist != lead) {
          items[assist].push_back({i, Role::kAssist});
          ++report.cross_edges;
        }
        break;
      }
      case RedoTaskKind::kClrRestore: {
        if (task.clr_actions.empty()) break;
        const size_t lead = owner(task.clr_actions[0].page);
        items[lead].push_back({i, Role::kLead});
        std::set<size_t> assists;
        for (size_t a = 1; a < task.clr_actions.size(); ++a) {
          const size_t other = owner(task.clr_actions[a].page);
          if (other != lead) assists.insert(other);
        }
        for (size_t assist : assists) {
          items[assist].push_back({i, Role::kAssist});
        }
        break;
      }
    }
  }

  std::vector<BufferPool::RedoPartition> partitions =
      pool->SplitForRedo(workers, owner);

  std::vector<std::unique_ptr<HandoffQueue>> queues;
  queues.reserve(workers * workers);
  for (size_t i = 0; i < workers * workers; ++i) {
    queues.push_back(std::make_unique<HandoffQueue>());
  }
  std::atomic<bool> abort{false};
  std::vector<WorkerResult> results(workers);

  WorkerEnv env;
  env.plan = &plan;
  env.options = &options;
  env.owner = owner;
  env.workers = workers;
  env.queues = &queues;
  env.abort = &abort;
  env.async_io = pool->async_io();

  if (workers == 1) {
    RunWorker(env, 0, items[0], partitions[0], results[0]);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      threads.emplace_back([&env, &items, &partitions, &results, w] {
        RunWorker(env, w, items[w], partitions[w], results[w]);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Deterministic join. Workers raced only on disjoint pages; verdicts
  // re-sort into the serial (LSN) order, and the earliest failure wins
  // so the reported error never depends on thread timing.
  for (const WorkerResult& result : results) {
    report.scanned += result.scanned;
    report.replayed += result.replayed;
    report.skipped_without_fetch += result.skipped_without_fetch;
    report.handoffs += result.handoffs;
    report.images_superseded += result.images_superseded;
    report.prefetched_pages += result.prefetched;
    report.worker_busy_total_us += result.busy_us;
    report.worker_busy_max_us =
        std::max(report.worker_busy_max_us, result.busy_us);
    report.verdicts.insert(report.verdicts.end(), result.verdicts.begin(),
                           result.verdicts.end());
    report.replayed_splits.insert(report.replayed_splits.end(),
                                  result.replayed_splits.begin(),
                                  result.replayed_splits.end());
    if (!result.status.ok() &&
        (report.status.ok() || result.failed_lsn < report.failed_lsn)) {
      report.status = result.status;
      report.failed_lsn = result.failed_lsn;
    }
  }
  std::sort(report.verdicts.begin(), report.verdicts.end(),
            [](const TaskVerdict& a, const TaskVerdict& b) {
              return a.lsn < b.lsn;
            });
  std::sort(report.replayed_splits.begin(), report.replayed_splits.end());

  for (const BufferPool::RedoPartition& part : partitions) {
    report.page_fetches += part.fetches();
    report.blind_installs += part.blind_installs();
  }
  pool->MergeRedoPartitions(partitions);

  if (metrics != nullptr) {
    ++metrics->runs;
    metrics->workers_spawned += workers > 1 ? workers : 0;
    metrics->tasks += plan.tasks.size();
    metrics->handoffs += report.handoffs;
    metrics->cross_edges += report.cross_edges;
    metrics->blind_installs += report.blind_installs;
    metrics->images_superseded += report.images_superseded;
    metrics->prefetched_pages += report.prefetched_pages;
    metrics->verdicts_merged += report.verdicts.size();
    metrics->apply_busy_us += report.worker_busy_total_us;
    metrics->apply_critical_path_us += report.worker_busy_max_us;
  }
  return report;
}

}  // namespace redo::par
