#include "redo/instant.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "engine/ops.h"
#include "obs/flight_recorder.h"
#include "obs/recovery_trace.h"
#include "util/logging.h"

namespace redo::par {

using storage::Page;
using storage::PageId;

namespace {

/// Every page `task` touches, each once.
std::vector<PageId> TouchedPages(const RedoTask& task) {
  std::vector<PageId> pages = task.Writes();
  for (PageId page : task.Reads()) pages.push_back(page);
  std::sort(pages.begin(), pages.end());
  pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
  return pages;
}

/// The first-touch rule: true when replaying `task` under redo-all
/// overwrites every byte of `page` without reading it — a page image,
/// or the dst of a whole split whose transform does not read dst. The
/// page's stable bytes are then dead (§6.2: a physical write's target
/// is unexposed), so the replay may install a zeroed frame instead of
/// reading the page (FetchBlind). An LSN-tested replay must read the
/// page LSN, so the rule never applies.
bool BlindFirstTouch(const RedoTask& task, PageId page, bool redo_all) {
  if (!redo_all) return false;
  switch (task.kind) {
    case RedoTaskKind::kPageImage:
      return page == task.image_page;
    case RedoTaskKind::kWholeSplit:
      return page == task.split.dst &&
             !engine::SplitReadsDst(task.split.transform);
    default:
      return false;
  }
}

/// The page a task's verdict names, per verdict slot: each CLR action's
/// page, else the page the task writes (a split's dst).
PageId VerdictPage(const RedoTask& task, size_t slot) {
  switch (task.kind) {
    case RedoTaskKind::kSinglePage:
      return task.op.page;
    case RedoTaskKind::kPageImage:
      return task.image_page;
    case RedoTaskKind::kSplitDst:
    case RedoTaskKind::kWholeSplit:
      return task.split.dst;
    case RedoTaskKind::kClrRestore:
      return task.clr_actions[slot].page;
  }
  return 0;
}

/// True if replaying `task` touches exactly one page and nothing a
/// latch does not cover. Splits never qualify: replaying one may re-arm
/// a §6.4 write-order constraint.
bool IsSinglePageTask(const RedoTask& task,
                      const std::vector<PageId>& touched) {
  return task.kind != RedoTaskKind::kSplitDst &&
         task.kind != RedoTaskKind::kWholeSplit && touched.size() == 1;
}

}  // namespace

InstantRedoDriver::InstantRedoDriver(storage::BufferPool* pool,
                                     size_t num_pages, RedoPlan plan,
                                     InstantRedoOptions options,
                                     InstantRedoMetrics* metrics)
    : pool_(pool),
      plan_(std::move(plan)),
      options_(std::move(options)),
      metrics_(metrics),
      pages_(num_pages),
      remaining_(plan_.tasks.size()) {
  applied_.assign(plan_.tasks.size(), 0);
  for (size_t i = 0; i < plan_.tasks.size(); ++i) {
    const std::vector<PageId> touched = TouchedPages(plan_.tasks[i]);
    if (touched.empty()) {
      // Nothing to replay (a CLR with no actions), as in offline redo.
      remaining_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    const bool bridges = !IsSinglePageTask(plan_.tasks[i], touched);
    for (PageId page : touched) {
      if (page >= num_pages) {
        FailLocked(Status::NotFound(
            "instant redo: plan touches page " + std::to_string(page) +
            " beyond the " + std::to_string(num_pages) + "-page disk"));
        continue;
      }
      pages_[page].tasks.push_back(i);
      pages_[page].bridged = pages_[page].bridged || bridges;
    }
  }
  for (PageId page = 0; page < pages_.size(); ++page) {
    if (pages_[page].tasks.empty()) continue;
    pages_[page].state.store(kPending, std::memory_order_relaxed);
    order_.push_back(page);
  }
  // Task indices ascend with LSN, so a chain's first index is its head.
  std::sort(order_.begin(), order_.end(), [this](PageId a, PageId b) {
    return pages_[a].tasks.front() < pages_[b].tasks.front();
  });
  if (metrics_ != nullptr) {
    metrics_->restarts.fetch_add(1, std::memory_order_relaxed);
  }
}

void InstantRedoDriver::KeepVerdicts() {
  verdict_begin_.assign(1, 0);
  for (const RedoTask& task : plan_.tasks) {
    const size_t slots = task.kind == RedoTaskKind::kClrRestore
                             ? task.clr_actions.size()
                             : 1;
    verdict_begin_.push_back(verdict_begin_.back() + slots);
  }
  verdicts_.assign(verdict_begin_.back(), 0);
}

void InstantRedoDriver::EmitVerdicts(obs::RecoveryTracer* tracer) const {
  if (tracer == nullptr || verdicts_.empty()) return;
  const bool redo_all = options_.mode == InstantRedoOptions::Mode::kRedoAll;
  for (size_t i = 0; i < plan_.tasks.size(); ++i) {
    const RedoTask& task = plan_.tasks[i];
    for (size_t slot = verdict_begin_[i]; slot < verdict_begin_[i + 1];
         ++slot) {
      if (verdicts_[slot] == 0) continue;
      const auto verdict = static_cast<obs::RedoVerdict>(verdicts_[slot] - 1);
      tracer->Verdict(task.lsn, VerdictPage(task, slot - verdict_begin_[i]),
                      verdict, obs::RedoVerdictReason(verdict, redo_all));
    }
  }
}

Status InstantRedoDriver::DrainPage(PageId page, bool on_demand) {
  REDO_RETURN_IF_ERROR(StoppedStatus());
  if (!HasPendingWork(page)) return Status::Ok();
  return IsBridged(page) ? DrainBridged(page, on_demand)
                         : DrainSinglePage(page, on_demand);
}

Status InstantRedoDriver::DrainSinglePage(PageId page, bool on_demand) {
  PageChain& chain = pages_[page];
  uint8_t expected = kPending;
  if (!chain.state.compare_exchange_strong(expected, kDraining,
                                           std::memory_order_acquire)) {
    if (expected == kDone) return Status::Ok();
    // Every drain of this chain holds its page's latch or the exclusive
    // gate, so a chain left draining was abandoned by a failed drain.
    const Status stopped = StoppedStatus();
    REDO_CHECK(!stopped.ok()) << "page " << page
                              << ": single-page chain drained concurrently";
    return stopped;
  }
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t drain_tick = recorder.enabled() ? recorder.NowTick() : 0;
  ChainFrame frame;
  Status status = Status::Ok();
  size_t replayed = 0;
  for (size_t index : chain.tasks) {
    status = ApplyTask(index, &frame);
    if (!status.ok()) break;
    ++replayed;
  }
  // One tag for everything the drain applied (also when a task failed,
  // so the frame's dirty state covers the applied prefix): the first
  // applied LSN dirties the page, the last one is its LSN.
  if (frame.first_applied != core::kNullLsn) {
    Status tagged = pool_->MarkDirty(page, frame.first_applied);
    if (tagged.ok() && frame.last_applied != frame.first_applied) {
      tagged = pool_->MarkDirty(page, frame.last_applied);
    }
    if (status.ok()) status = tagged;
  }
  remaining_.fetch_sub(replayed, std::memory_order_acq_rel);
  if (!status.ok()) return Fail(status);
  chain.state.store(kDone, std::memory_order_release);
  RecordDrain(page, on_demand, chain.tasks.size(), drain_tick);
  return Status::Ok();
}

Status InstantRedoDriver::DrainBridged(PageId page, bool on_demand) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!first_error_.ok()) return first_error_;
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const uint64_t drain_tick = recorder.enabled() ? recorder.NowTick() : 0;
  size_t drained = 0;
  const Status status = DrainChainLocked(
      page, std::numeric_limits<core::Lsn>::max(), &drained);
  if (!status.ok()) return FailLocked(status);
  // Only a drain that replayed work is traced: a recursive drain may
  // already have emptied this chain.
  if (drained > 0) RecordDrain(page, on_demand, drained, drain_tick);
  return Status::Ok();
}

void InstantRedoDriver::RecordDrain(PageId page, bool on_demand, size_t tasks,
                                    uint64_t begin_tick) {
  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  if (recorder.enabled()) {
    recorder.EndSpan(obs::FlightEventType::kInstantDrain, begin_tick, page,
                     on_demand ? 1 : 0, tasks);
  }
  if (metrics_ != nullptr) {
    (on_demand ? metrics_->pages_on_demand : metrics_->pages_background)
        .fetch_add(1, std::memory_order_relaxed);
  }
}

bool InstantRedoDriver::NextPendingPage(PageId* out) {
  for (size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
       i < order_.size(); i = cursor_.fetch_add(1, std::memory_order_relaxed)) {
    if (!StoppedStatus().ok()) return false;
    if (HasPendingWork(order_[i])) {
      *out = order_[i];
      return true;
    }
  }
  return false;
}

Status InstantRedoDriver::first_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_error_;
}

Status InstantRedoDriver::StoppedStatus() const {
  if (failed_.load(std::memory_order_acquire)) return first_error();
  if (aborted_.load(std::memory_order_acquire)) {
    return Status::Unavailable("instant redo aborted");
  }
  return Status::Ok();
}

Status InstantRedoDriver::Fail(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  return FailLocked(status);
}

Status InstantRedoDriver::FailLocked(const Status& status) {
  if (first_error_.ok()) first_error_ = status;
  failed_.store(true, std::memory_order_release);
  return first_error_;
}

Status InstantRedoDriver::DrainChainLocked(PageId page, core::Lsn bound,
                                           size_t* drained) {
  PageChain& chain = pages_[page];
  while (chain.head < chain.tasks.size()) {
    const size_t index = chain.tasks[chain.head];
    const RedoTask& task = plan_.tasks[index];
    if (task.lsn >= bound) return Status::Ok();
    // Bridge the write graph: every other chain this task touches must
    // be current up to this task's LSN before the task reads or writes
    // those pages. The recursion terminates because a re-entry into
    // `page` finds this task (LSN ≥ the strictly lower bound) at the
    // head — any unapplied earlier toucher of `page` would sit in front
    // of it, contradicting `index` being the head.
    const std::vector<PageId> touched = TouchedPages(task);
    for (PageId other : touched) {
      if (other != page) {
        REDO_RETURN_IF_ERROR(DrainChainLocked(other, task.lsn, drained));
      }
    }
    REDO_RETURN_IF_ERROR(ApplyTask(index));
    applied_[index] = 1;
    remaining_.fetch_sub(1, std::memory_order_acq_rel);
    ++*drained;
    // The task now heads every chain it touches: retire it from all of
    // them, so a chain it emptied reads done without another drain.
    for (PageId other : touched) RetireAppliedHeadsLocked(other);
  }
  return Status::Ok();
}

void InstantRedoDriver::RetireAppliedHeadsLocked(PageId page) {
  PageChain& chain = pages_[page];
  while (chain.head < chain.tasks.size() && applied_[chain.tasks[chain.head]]) {
    ++chain.head;
  }
  if (chain.head == chain.tasks.size()) {
    chain.state.store(kDone, std::memory_order_release);
  }
}

Status InstantRedoDriver::ApplyTask(size_t index, ChainFrame* chain) {
  const RedoTask& task = plan_.tasks[index];
  const bool redo_all = options_.mode == InstantRedoOptions::Mode::kRedoAll;
  using obs::RedoVerdict;
  // The analysis-DPT skip (§4.3): decided without any page I/O.
  auto dpt_skips = [this](PageId page, core::Lsn lsn) {
    if (!options_.use_dpt) return false;
    const auto it = options_.dpt.find(page);
    return it == options_.dpt.end() || lsn < it->second;
  };
  // Keeps the verdict on the task's `slot`-th tested page (KeepVerdicts).
  auto keep = [this, index](RedoVerdict verdict, size_t slot = 0) {
    if (verdicts_.empty()) return;
    verdicts_[verdict_begin_[index] + slot] =
        static_cast<uint8_t>(1 + static_cast<int>(verdict));
  };
  auto count = [this](bool replayed) {
    if (metrics_ != nullptr) {
      (replayed ? metrics_->tasks_applied : metrics_->tasks_skipped)
          .fetch_add(1, std::memory_order_relaxed);
    }
    return Status::Ok();
  };
  auto skipped = [&keep, &count](RedoVerdict verdict) {
    keep(verdict);
    return count(false);
  };
  auto applied = [&keep, &count] {
    keep(RedoVerdict::kApplied);
    return count(true);
  };
  // A page the task overwrites whole installs without a read
  // (BlindFirstTouch). A single-page chain's drain fetches its page
  // once and reuses the frame.
  auto fetch = [this, &task, redo_all, chain](PageId page) -> Result<Page*> {
    if (chain != nullptr && chain->page != nullptr) return chain->page;
    Result<Page*> fetched = BlindFirstTouch(task, page, redo_all)
                                ? pool_->FetchBlind(page)
                                : pool_->Fetch(page);
    if (chain != nullptr && fetched.ok()) chain->page = fetched.value();
    return fetched;
  };
  // The LSN test (kLsnTest only): `page` already holds `lsn`. A
  // single-page chain's drain counts the tag it has deferred, so the
  // test reads what per-task tagging would have left.
  auto installed = [redo_all, chain](const Page& page, core::Lsn lsn) {
    if (redo_all) return false;
    const core::Lsn tagged = chain != nullptr
                                 ? std::max(page.lsn(), chain->last_applied)
                                 : page.lsn();
    return tagged >= lsn;
  };
  // Tags the page with the task's LSN, or — in a single-page chain's
  // drain — leaves the tag to the drain's end.
  auto mark = [this, chain](PageId page, core::Lsn lsn) {
    if (chain == nullptr) return pool_->MarkDirty(page, lsn);
    if (chain->first_applied == core::kNullLsn) chain->first_applied = lsn;
    chain->last_applied = lsn;
    return Status::Ok();
  };

  switch (task.kind) {
    case RedoTaskKind::kSinglePage: {
      if (dpt_skips(task.op.page, task.lsn)) {
        return skipped(RedoVerdict::kNotExposed);
      }
      Result<Page*> page = fetch(task.op.page);
      if (!page.ok()) return page.status();
      if (installed(*page.value(), task.lsn)) {
        return skipped(RedoVerdict::kSkippedInstalled);
      }
      REDO_RETURN_IF_ERROR(engine::ApplySinglePageOp(task.op, page.value()));
      REDO_RETURN_IF_ERROR(mark(task.op.page, task.lsn));
      return applied();
    }

    case RedoTaskKind::kPageImage: {
      if (dpt_skips(task.image_page, task.lsn)) {
        return skipped(RedoVerdict::kNotExposed);
      }
      if (task.superseded) {
        // A later image of the page overwrites this one before anything
        // reads the page (plan.h): replayed by installing nothing.
        if (metrics_ != nullptr) {
          metrics_->images_superseded.fetch_add(1, std::memory_order_relaxed);
        }
        return applied();
      }
      Result<Page*> page = fetch(task.image_page);
      if (!page.ok()) return page.status();
      if (installed(*page.value(), task.lsn)) {
        return skipped(RedoVerdict::kSkippedInstalled);
      }
      // Installed from the still-encoded payload straight into the
      // frame — no intermediate Page materializes.
      Result<engine::PageImageView> image =
          engine::ParsePageImage(task.image_payload);
      if (!image.ok()) return image.status();
      image.value().InstallInto(page.value());
      REDO_RETURN_IF_ERROR(mark(task.image_page, task.lsn));
      return applied();
    }

    case RedoTaskKind::kSplitDst: {
      if (dpt_skips(task.split.dst, task.lsn)) {
        return skipped(RedoVerdict::kNotExposed);
      }
      Result<Page*> dst = pool_->Fetch(task.split.dst);
      if (!dst.ok()) return dst.status();
      if (!redo_all && dst.value()->lsn() >= task.lsn) {
        return skipped(RedoVerdict::kSkippedInstalled);
      }
      Result<Page*> src = pool_->Fetch(task.split.src);
      if (!src.ok()) return src.status();
      // Copy src out and re-run the redo test on a refetched dst: the
      // fetches may reshuffle the cache, and an already-current dst
      // must never absorb the split twice.
      const Page src_copy = *src.value();
      dst = pool_->Fetch(task.split.dst);
      if (!dst.ok()) return dst.status();
      if (!redo_all && dst.value()->lsn() >= task.lsn) {
        return skipped(RedoVerdict::kSkippedInstalled);
      }
      engine::ApplySplitToDst(task.split, src_copy, dst.value());
      REDO_RETURN_IF_ERROR(pool_->MarkDirty(task.split.dst, task.lsn));
      if (options_.add_split_constraints) {
        // §6.4 careful write order, re-armed eagerly so flushes issued
        // while the engine is already serving respect it. The same rule
        // as during normal operation; the exclusive gate a bridged drain
        // holds makes its cascading flush safe.
        REDO_RETURN_IF_ERROR(pool_->OrderWrites(task.split.dst, task.lsn,
                                                task.split.src));
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
      for (size_t a = 0; a < task.clr_actions.size(); ++a) {
        const engine::UndoAction& action = task.clr_actions[a];
        if (dpt_skips(action.page, task.lsn)) {
          keep(RedoVerdict::kNotExposed, a);
          continue;
        }
        Result<Page*> page = fetch(action.page);
        if (!page.ok()) return page.status();
        if (installed(*page.value(), task.lsn)) {
          keep(RedoVerdict::kSkippedInstalled, a);
          continue;
        }
        REDO_RETURN_IF_ERROR(engine::RestoreUndoAction(action, page.value()));
        REDO_RETURN_IF_ERROR(mark(action.page, task.lsn));
        keep(RedoVerdict::kApplied, a);
        any = true;
      }
      return count(any);
    }
  }
  return Status::InvalidArgument("unhandled redo task kind");
}

}  // namespace redo::par
