#include "redo/instant.h"

#include <cstring>
#include <limits>
#include <utility>

#include "engine/ops.h"
#include "obs/flight_recorder.h"
#include "util/logging.h"

namespace redo::par {

using storage::Page;
using storage::PageId;

InstantRedoDriver::InstantRedoDriver(storage::BufferPool* pool, RedoPlan plan,
                                     InstantRedoOptions options,
                                     InstantRedoMetrics* metrics)
    : pool_(pool),
      plan_(std::move(plan)),
      options_(std::move(options)),
      metrics_(metrics) {
  applied_.assign(plan_.tasks.size(), 0);
  remaining_ = plan_.tasks.size();
  for (size_t i = 0; i < plan_.tasks.size(); ++i) {
    for (PageId page : plan_.tasks[i].Writes()) chains_[page].push_back(i);
    for (PageId page : plan_.tasks[i].Reads()) chains_[page].push_back(i);
  }
  if (metrics_ != nullptr) {
    metrics_->restarts.fetch_add(1, std::memory_order_relaxed);
  }
}

bool InstantRedoDriver::HasPendingWork(PageId page) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = chains_.find(page);
  if (it == chains_.end()) return false;
  std::deque<size_t>& chain = it->second;
  while (!chain.empty() && applied_[chain.front()]) chain.pop_front();
  if (chain.empty()) {
    chains_.erase(it);
    return false;
  }
  return true;
}

Status InstantRedoDriver::DrainPage(PageId page, bool on_demand) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!first_error_.ok()) return first_error_;
  if (aborted_) return Status::Unavailable("instant redo aborted");
  const size_t before = remaining_;
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t drain_tick = recorder.enabled() ? recorder.NowTick() : 0;
  const Status status =
      DrainChainLocked(page, std::numeric_limits<core::Lsn>::max());
  if (!status.ok()) {
    first_error_ = status;
    return status;
  }
  if (remaining_ < before) {
    // Only a drain that applied work is traced: every session op probes
    // its page, and the post-drain no-ops would swamp the ring.
    if (recorder.enabled()) {
      recorder.EndSpan(obs::FlightEventType::kInstantDrain, drain_tick, page,
                       on_demand ? 1 : 0, before - remaining_);
    }
    if (metrics_ != nullptr) {
      (on_demand ? metrics_->pages_on_demand : metrics_->pages_background)
          .fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::Ok();
}

bool InstantRedoDriver::NextPendingPage(PageId* out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (aborted_ || !first_error_.ok()) return false;
  PageId best_page = 0;
  core::Lsn best_lsn = std::numeric_limits<core::Lsn>::max();
  bool found = false;
  for (auto it = chains_.begin(); it != chains_.end();) {
    std::deque<size_t>& chain = it->second;
    while (!chain.empty() && applied_[chain.front()]) chain.pop_front();
    if (chain.empty()) {
      it = chains_.erase(it);
      continue;
    }
    const core::Lsn head = plan_.tasks[chain.front()].lsn;
    if (!found || head < best_lsn) {
      found = true;
      best_lsn = head;
      best_page = it->first;
    }
    ++it;
  }
  if (found) *out = best_page;
  return found;
}

bool InstantRedoDriver::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remaining_ == 0;
}

size_t InstantRedoDriver::tasks_remaining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remaining_;
}

Status InstantRedoDriver::first_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

void InstantRedoDriver::Abort() {
  std::lock_guard<std::mutex> lock(mu_);
  aborted_ = true;
}

Status InstantRedoDriver::DrainChainLocked(PageId page, core::Lsn bound) {
  const auto it = chains_.find(page);
  if (it == chains_.end()) return Status::Ok();
  // Note: no reference to it->second across the recursion — the
  // recursive drain may erase *other* chains, and map iterators to this
  // chain stay valid, but re-find keeps the invariant obvious.
  while (true) {
    const auto chain_it = chains_.find(page);
    if (chain_it == chains_.end()) return Status::Ok();
    std::deque<size_t>& chain = chain_it->second;
    while (!chain.empty() && applied_[chain.front()]) chain.pop_front();
    if (chain.empty()) {
      chains_.erase(chain_it);
      return Status::Ok();
    }
    const size_t index = chain.front();
    const RedoTask& task = plan_.tasks[index];
    if (task.lsn >= bound) return Status::Ok();
    // Bridge the write graph: every other chain this task touches must
    // be current up to this task's LSN before the task reads or writes
    // those pages. The recursion terminates because a re-entry into
    // `page` finds this task (LSN ≥ the strictly lower bound) at the
    // head — any unapplied earlier toucher of `page` would sit in front
    // of it, contradicting `index` being the head.
    for (PageId other : task.Writes()) {
      if (other != page) REDO_RETURN_IF_ERROR(DrainChainLocked(other, task.lsn));
    }
    for (PageId other : task.Reads()) {
      if (other != page) REDO_RETURN_IF_ERROR(DrainChainLocked(other, task.lsn));
    }
    REDO_RETURN_IF_ERROR(ApplyTaskLocked(task));
    applied_[index] = 1;
    --remaining_;
    chain.pop_front();
  }
}

Status InstantRedoDriver::ApplyTaskLocked(const RedoTask& task) {
  const bool redo_all = options_.mode == InstantRedoOptions::Mode::kRedoAll;
  // The analysis-DPT skip (§4.3): decided without any page I/O.
  auto dpt_skips = [this](PageId page, core::Lsn lsn) {
    if (!options_.use_dpt) return false;
    const auto it = options_.dpt.find(page);
    return it == options_.dpt.end() || lsn < it->second;
  };
  auto skipped = [this] {
    if (metrics_ != nullptr) {
      metrics_->tasks_skipped.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::Ok();
  };
  auto applied = [this] {
    if (metrics_ != nullptr) {
      metrics_->tasks_applied.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::Ok();
  };
  // A page the task overwrites whole installs without a read — the
  // parallel scheduler's first-touch rule (plan.h).
  auto fetch = [this, &task, redo_all](PageId page) {
    return BlindFirstTouch(task, page, redo_all) ? pool_->FetchBlind(page)
                                                 : pool_->Fetch(page);
  };

  switch (task.kind) {
    case RedoTaskKind::kSinglePage: {
      if (dpt_skips(task.op.page, task.lsn)) return skipped();
      Result<Page*> page = pool_->Fetch(task.op.page);
      if (!page.ok()) return page.status();
      if (!redo_all && page.value()->lsn() >= task.lsn) return skipped();
      REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(task.op, page.value()));
      REDO_RETURN_IF_ERROR(pool_->MarkDirty(task.op.page, task.lsn));
      return applied();
    }

    case RedoTaskKind::kPageImage: {
      if (dpt_skips(task.image_page, task.lsn)) return skipped();
      Result<Page*> page = fetch(task.image_page);
      if (!page.ok()) return page.status();
      if (!redo_all && page.value()->lsn() >= task.lsn) return skipped();
      // One memcpy from the still-encoded payload straight into the
      // frame, as in the parallel scheduler.
      std::memcpy(page.value()->bytes().data(),
                  task.image_payload.data() +
                      (task.image_payload.size() - Page::kSize),
                  Page::kSize);
      REDO_RETURN_IF_ERROR(pool_->MarkDirty(task.image_page, task.lsn));
      return applied();
    }

    case RedoTaskKind::kSplitDst: {
      if (dpt_skips(task.split.dst, task.lsn)) return skipped();
      Result<Page*> dst = pool_->Fetch(task.split.dst);
      if (!dst.ok()) return dst.status();
      if (!redo_all && dst.value()->lsn() >= task.lsn) return skipped();
      Result<Page*> src = pool_->Fetch(task.split.src);
      if (!src.ok()) return src.status();
      // Copy src out and re-run the redo test on a refetched dst: the
      // fetches may reshuffle the cache, and an already-current dst
      // must never absorb the split twice.
      const Page src_copy = *src.value();
      dst = pool_->Fetch(task.split.dst);
      if (!dst.ok()) return dst.status();
      if (!redo_all && dst.value()->lsn() >= task.lsn) return skipped();
      engine::ApplySplitToDst(task.split, src_copy, dst.value());
      REDO_RETURN_IF_ERROR(pool_->MarkDirty(task.split.dst, task.lsn));
      if (options_.add_split_constraints) {
        // §6.4 careful write order, re-armed eagerly so flushes issued
        // while the engine is already serving respect it. Same
        // acyclicity rule as during normal operation; the caller's
        // exclusive gate makes the cascading flush safe.
        if (pool_->HasPendingOrderPath(task.split.src, task.split.dst)) {
          REDO_RETURN_IF_ERROR(pool_->FlushPageCascading(task.split.dst));
        } else {
          pool_->AddWriteOrderConstraint(task.split.dst, task.lsn,
                                         task.split.src);
        }
      }
      return applied();
    }

    case RedoTaskKind::kWholeSplit: {
      // Logical whole split (redo-all only): dst := P(src), then the
      // src rewrite Q, as one atomic task.
      Result<Page*> src = pool_->Fetch(task.split.src);
      if (!src.ok()) return src.status();
      const Page src_copy = *src.value();
      Result<Page*> dst = fetch(task.split.dst);
      if (!dst.ok()) return dst.status();
      engine::ApplySplitToDst(task.split, src_copy, dst.value());
      REDO_RETURN_IF_ERROR(pool_->MarkDirty(task.split.dst, task.lsn));
      const engine::SinglePageOp rewrite =
          engine::MakeRewriteForSplit(task.split);
      src = pool_->Fetch(task.split.src);
      if (!src.ok()) return src.status();
      REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(rewrite, src.value()));
      REDO_RETURN_IF_ERROR(pool_->MarkDirty(task.split.src, task.lsn));
      return applied();
    }

    case RedoTaskKind::kClrRestore: {
      // A CLR from a previous crashed rollback: restore each action's
      // page (absolute), testing the LSN per page in kLsnTest mode.
      bool any = false;
      for (const engine::UndoAction& action : task.clr_actions) {
        if (dpt_skips(action.page, task.lsn)) continue;
        Result<Page*> page = pool_->Fetch(action.page);
        if (!page.ok()) return page.status();
        if (!redo_all && page.value()->lsn() >= task.lsn) continue;
        REDO_RETURN_IF_ERROR(
            engine::ApplyOneUndoAction(pool_, action, task.lsn));
        any = true;
      }
      return any ? applied() : skipped();
    }
  }
  return Status::InvalidArgument("unhandled redo task kind");
}

}  // namespace redo::par
