#include "workloads.h"

#include <algorithm>

namespace redo::e2e {

engine::MiniDbOptions EngineConfig() {
  engine::MiniDbOptions options;
  options.num_pages = kPages;
  options.cache_capacity = 0;  // concurrent mode needs the unbounded pool
  options.engine.parallel_workers = kRedoWorkers;
  options.engine.group_commit_window_us = kGroupCommitWindowUs;
  options.engine.simulated_force_latency_us = kForceLatencyUs;
  options.engine.simulated_read_latency_us = kReadLatencyUs;
  options.engine.instant_restart = true;
  options.engine.instant_drain_workers = kDrainWorkers;
  options.net.port = 0;  // ephemeral
  options.net.worker_threads = kServerWorkers;
  return options;
}

const std::vector<Workload>& Workloads() {
  // Unit counts size one cycle's traffic to roughly a second on a
  // 4-core host, long enough for steady latencies and short enough that
  // the log each cycle recovers stays fixed (nothing truncates it).
  static const std::vector<Workload> workloads = {
      {"txn_commit",
       "Every transaction pays a group-commit force: wire, Dispatch, "
       "undo-info logging and the wal commit pipeline do the work.",
       methods::MethodKind::kPhysiological, Mix::kTxn, 750, 250, 0, 4},
      {"hot_reads",
       "Read-mostly on 8 hot pages with a nearly idle wal: framing, strand "
       "queueing, Dispatch and page latches do the work.",
       methods::MethodKind::kPhysiological, Mix::kHotReads, 2400, 800, 0, 4},
      {"fullpage_log",
       "txn_commit's traffic under the physical method: every write logs a "
       "full page image, isolating log append, CRC and force volume.",
       methods::MethodKind::kPhysical, Mix::kTxn, 750, 250, 0, 4},
      {"restart",
       "All clients reconnect and resume transactions while the engine "
       "recovers: analysis, undo and on-demand redo meet live traffic.",
       methods::MethodKind::kPhysiological, Mix::kTxn, 750, 250, 250, 2},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

Workload Scaled(const Workload& workload, size_t divisor) {
  auto scale = [divisor](size_t units) {
    return units == 0 ? 0 : std::max<size_t>(1, units / divisor);
  };
  Workload scaled = workload;
  scaled.units_before = scale(workload.units_before);
  scaled.units_after = scale(workload.units_after);
  scaled.units_after_crash = scale(workload.units_after_crash);
  return scaled;
}

SlotRef OwnedSlot(size_t client, size_t index) {
  return {static_cast<storage::PageId>(index / kSlotsPerClient),
          static_cast<uint32_t>(client * kSlotsPerClient +
                                index % kSlotsPerClient)};
}

namespace {

uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b) {
  return seed * 0x9e3779b97f4a7c15ULL + a * 0xbf58476d1ce4e5b9ULL +
         b * 0x94d049bb133111ebULL;
}

}  // namespace

Traffic::Traffic(Mix mix, uint64_t seed, uint64_t cycle, size_t client)
    : mix_(mix), client_(client), rng_(MixSeed(seed, cycle, client + 1)) {
  // Every client of a cycle shares the hot set.
  Rng hot_rng(MixSeed(seed, cycle, 0));
  std::vector<storage::PageId> pages(kPages);
  for (size_t p = 0; p < kPages; ++p) pages[p] = static_cast<storage::PageId>(p);
  hot_rng.Shuffle(pages);
  hot_pages_.assign(pages.begin(), pages.begin() + kHotPages);
}

int64_t Traffic::NextValue() {
  return static_cast<int64_t>(((client_ + 1) << 40) | ++value_seq_);
}

Step Traffic::Write(size_t index) {
  const SlotRef ref = OwnedSlot(client_, index);
  Step step;
  step.value = NextValue();
  step.owned = static_cast<int>(index);
  step.command = engine::MakeWriteSlotCommand(ref.page, ref.slot, step.value);
  return step;
}

storage::PageId Traffic::HotOrColdPage() {
  if (rng_.Chance(0.8)) return hot_pages_[rng_.Below(kHotPages)];
  return static_cast<storage::PageId>(rng_.Below(kPages));
}

Unit Traffic::Next() {
  Unit unit;
  if (mix_ == Mix::kTxn) {
    unit.batch.push_back({engine::MakeBeginCommand()});
    for (size_t i = 0; i < kTxnWrites; ++i) {
      unit.batch.push_back(Write(rng_.Below(kOwnedSlots)));
    }
    unit.commit = true;
    return unit;
  }
  bool wrote = false;
  for (size_t i = 0; i < kHotBatch; ++i) {
    const storage::PageId page = HotOrColdPage();
    if (rng_.Chance(0.1)) {
      unit.batch.push_back(
          Write(page * kSlotsPerClient + rng_.Below(kSlotsPerClient)));
      wrote = true;
      continue;
    }
    const uint32_t slot = static_cast<uint32_t>(rng_.Below(kSlotsPerPage));
    Step read{engine::MakeReadSlotCommand(page, slot)};
    if (slot / kSlotsPerClient == client_) {
      read.owned = static_cast<int>(page * kSlotsPerClient +
                                    slot % kSlotsPerClient);
    }
    unit.batch.push_back(std::move(read));
  }
  if (wrote) {
    uncommitted_ = true;
    if (++writing_batches_ % 4 == 0) {
      unit.commit = true;
      uncommitted_ = false;
    }
  }
  return unit;
}

Unit Traffic::Flush() {
  Unit unit;
  unit.commit = uncommitted_;
  uncommitted_ = false;
  return unit;
}

Unit Traffic::Loser() {
  std::vector<size_t> indices(kOwnedSlots);
  for (size_t i = 0; i < kOwnedSlots; ++i) indices[i] = i;
  rng_.Shuffle(indices);
  Unit unit;
  unit.batch.push_back({engine::MakeBeginCommand()});
  for (size_t i = 0; i < kLoserWrites; ++i) unit.batch.push_back(Write(indices[i]));
  return unit;
}

Unit Traffic::WriteThenCommit() {
  Unit unit;
  unit.batch.push_back(Write(rng_.Below(kOwnedSlots)));
  unit.commit = true;
  return unit;
}

storage::PageId ProbePage(uint64_t seed, uint64_t restart) {
  Rng rng(MixSeed(seed, restart, kClients + 1));
  return static_cast<storage::PageId>(rng.Below(kPages));
}

}  // namespace redo::e2e
